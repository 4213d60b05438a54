"""Cross-checks of the identities the library implements twice.

There is one function per comparison (oracle vs. reduced path, defining vs.
reduced sums, scaling law, ...).  Each takes its samples from the caller
and returns the worst error over them.  `verify_all`, behind the
`verify-all` CLI subcommand, and the acceptance tests call the same
functions, each with its own seeds, sample counts and tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fast_tangle import compute_TPQ, n_tangle, tangle_i_fast
from .naive_tangle import WITNESS_THRESHOLD, find_noninvariance_witness, tangle_i_naive
from .qstate import QubitPermutation, permute_qubits
from .residual_forms import (
    residual_parts_defining,
    residual_parts_reduced,
    residual_tau,
)
from .slocc_ops import (
    SLOCC_TOL,
    random_local_invertible,
    random_local_unitary,
    verify_lu_invariance,
    verify_slocc_equation,
)
from .stategen import ghz, random_pure, w
from .three_tangle import ckw_tangle

# largest change of a tangle under relabelling that the permutation checks
# pass, relative to max(1, tangle)
PERMUTATION_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float
    detail: str = ""


def worst_of(values) -> float:
    """Largest of the non-negative errors in values (0.0 if there are none),
    NaN if any is NaN: max() and max(worst, e) drop a NaN unless it comes
    first, and a NaN error must fail its check."""
    return float(np.max(np.fromiter(values, dtype=np.float64), initial=0.0))


def all_permutations(n: int) -> list[QubitPermutation]:
    """Every relabelling of the qubits 1..n."""
    return [QubitPermutation(p) for p in itertools.permutations(range(1, n + 1))]


def perms_fixing(n: int, i: int, rng, count: int) -> list[QubitPermutation]:
    """`count` random relabellings of 1..n that map qubit i to itself,
    each drawn as one `rng.permutation` of the other qubits."""
    others = [k for k in range(1, n + 1) if k != i]
    # others ascend, so inserting i at index i - 1 puts every image at its qubit
    return [QubitPermutation(np.insert(rng.permutation(others), i - 1, i)) for _ in range(count)]


def oracle_error(states) -> float:
    """Worst |fast - oracle| / max(1, oracle) over every qubit of each state."""
    def errors():
        for s in states:
            for i in range(1, s.n + 1):
                ref = tangle_i_naive(s, i)
                yield abs(tangle_i_fast(s, i) - ref) / max(1.0, ref)

    return worst_of(errors())


def bridge_errors(states) -> tuple[float, float]:
    """Worst (bridge, rel_tau): bridge is the gap in I_bar = T, I_star = P/2,
    I_star_shift = Q/2 and between defining and reduced residual sums;
    rel_tau the relative gap between residual_tau and tangle_i_fast(s, 1)."""
    bridge, rel_tau = [], []
    for s in states:
        tpq = compute_TPQ(s)
        d = residual_parts_defining(s)
        r = residual_parts_reduced(s)
        bridge += [
            abs(d.I_bar - tpq.T),
            abs(d.I_star - tpq.P / 2.0),
            abs(d.I_star_shift - tpq.Q / 2.0),
            abs(r.I_bar - d.I_bar),
            abs(r.I_star - d.I_star),
            abs(r.I_star_shift - d.I_star_shift),
        ]
        rt, ft = residual_tau(s), tangle_i_fast(s, 1)
        rel_tau.append(abs(rt - ft) / max(abs(rt), abs(ft), 1e-300))
    return worst_of(bridge), worst_of(rel_tau)


def permutation_delta(state, perms) -> float:
    """Worst change of the average tangle under each relabelling in perms,
    relative to max(1, average): the tangle is quartic in the amplitudes,
    so an unnormalized state scales its rounding error with it."""
    base = n_tangle(state).average
    scale = max(1.0, base)
    return worst_of(abs(n_tangle(permute_qubits(state, p)).average - base) / scale for p in perms)


def partial_permutation_delta(state, i: int, perms) -> float:
    """Worst change of tau_i under each relabelling in perms (all fix i),
    relative to max(1, tau_i) as in permutation_delta."""
    base = tangle_i_fast(state, i)
    scale = max(1.0, base)
    return worst_of(abs(tangle_i_fast(permute_qubits(state, p), i) - base) / scale for p in perms)


def slocc_error(pairs) -> float:
    """Worst relative error of the SLOCC scaling law over (state, chain) pairs."""
    return worst_of(verify_slocc_equation(s, c).rel_error for s, c in pairs)


def lu_error(pairs) -> float:
    """Worst relative change of any per-qubit tangle over (state, unitary
    chain) pairs."""
    return worst_of(verify_lu_invariance(s, c).rel_error for s, c in pairs)


def three_tangle_spread(states) -> float:
    """Worst pairwise gap between the coefficient, oracle and fast 3-tangles."""
    def gaps():
        for s in states:
            vals = [ckw_tangle(s), tangle_i_naive(s, 1), tangle_i_fast(s, 1)]
            yield from (abs(x - y) for x in vals for y in vals)

    return worst_of(gaps())


def verify_all(seed: int = 0) -> list[CheckResult]:
    """Run every cross-check on samples drawn from `seed`; returns a list
    of CheckResult."""
    results = []

    def check(name, worst, tol, detail=""):
        results.append(CheckResult(name, worst <= tol, worst, tol, detail))

    ns_anchor = (3, 5, 7, 9)
    check("ghz_anchor", worst_of(abs(n_tangle(ghz(n)).average - 1.0) for n in ns_anchor), 1e-12)
    check("w_anchor", worst_of(abs(n_tangle(w(n)).average) for n in ns_anchor), 1e-12)

    trials = 10
    worst = oracle_error(
        random_pure(n, seed=seed + 100 * n + t) for n in (3, 5) for t in range(trials)
    )
    check("oracle_equivalence", worst, 1e-10)

    bridge, rel_tau = bridge_errors(
        random_pure(n, seed=seed + 7000 + 100 * n + t)
        for n in ns_anchor
        for t in range(trials)
    )
    check("bridge_identities", bridge, 1e-12)
    check("residual_equals_fast", rel_tau, 1e-11)

    samples = [(random_pure(3, seed=seed + 300 + t), all_permutations(3)) for t in range(5)]
    samples += [(random_pure(5, seed=seed + 400 + t), all_permutations(5)) for t in range(5)]
    worst = worst_of(permutation_delta(s, perms) for s, perms in samples)
    check("average_permutation_invariance", worst, PERMUTATION_TOL)

    rng = np.random.default_rng(seed + 17)
    partial = []
    for n in (5, 7):
        s = random_pure(n, seed=seed + 500 + n)
        partial += [(s, i, perms_fixing(n, i, rng, 20)) for i in (1, n)]
    worst = worst_of(partial_permutation_delta(s, i, perms) for s, i, perms in partial)
    check("per_qubit_partial_invariance", worst, PERMUTATION_TOL)

    worst = slocc_error(
        (
            random_pure(n, seed=seed + 600 + 10 * n + t),
            random_local_invertible(n, seed=seed + 700 + 10 * n + t),
        )
        for n in (3, 5, 7)
        for t in range(trials)
    )
    check("slocc_equation", worst, SLOCC_TOL)

    worst = lu_error(
        (
            random_pure(n, seed=seed + 800 + 10 * n + t),
            random_local_unitary(n, seed=seed + 900 + 10 * n + t),
        )
        for n in (3, 5)
        for t in range(trials)
    )
    check("lu_invariance", worst, SLOCC_TOL)

    worst = three_tangle_spread(random_pure(3, seed=seed + 1000 + t) for t in range(50))
    check("three_tangle_crosscheck", worst, 1e-10)

    witness = find_noninvariance_witness(5, seed=seed)
    gap, detail = 0.0, "no witness found; the non-invariance claim is unconfirmed"
    if witness is not None:
        _, perm, before, after = witness
        gap, detail = abs(before - after), f"permutation {perm.map}: {before:.6g} -> {after:.6g}"
    # inverted check: it passes when some gap exceeds the witness threshold
    results.append(
        CheckResult("noninvariance_witness", witness is not None, gap, WITNESS_THRESHOLD, detail)
    )
    return results
