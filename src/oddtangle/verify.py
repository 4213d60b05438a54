"""Cross-checks of the identities the library implements twice.

There is one function per comparison (oracle vs. reduced path, defining vs.
reduced sums, scaling law, ...).  Each takes its samples from the caller
and returns the worst error over them.  `verify_all`, behind the
`verify-all` CLI subcommand, and the acceptance tests call the same
functions, each with its own seeds, sample counts and tolerances.

The two permutation checks score a state's relabelled copies in stacks of
at most STACK_AMPS = 2**16 amplitudes through ``fast_tangle.stack_tangles``,
so from n = 16 on a stack holds one copy.  Where ``os.fork`` exists,
`verify_all` deals each check's samples alternately to two processes, a
forked child and the caller; samples drawn from one shared generator are
drawn before the split.  Every worst error is a maximum over samples, so
the results, and every line `verify-all` prints, equal those of a run in
one process, which is what runs where ``os.fork`` does not exist.  On
Python 3.12 and later, ``os.fork`` emits a ``DeprecationWarning`` when the
process has other threads, as it has once an OpenBLAS build of numpy has
started its thread pool.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .fast_tangle import compute_TPQ, n_tangle, stack_tangles, tangle_i_fast
from .naive_tangle import WITNESS_THRESHOLD, find_noninvariance_witness, tangle_i_naive
from .qstate import QubitPermutation, check_qubit_index, relabel_axes
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

# most amplitudes in one stack of relabelled copies the permutation checks
# score at once: 2048 copies at n=5, one copy from n=16 on
STACK_AMPS = 1 << 16


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


def _relabelled_tangles(state, perms):
    """The per-qubit tangles of state's copies relabelled by each of perms,
    one (B, n) array per stack of at most STACK_AMPS amplitudes (one copy
    per stack from n = 16 on)."""
    n = state.n
    tensor = state.amps.reshape((2,) * n)
    perms = iter(perms)
    while chunk := list(itertools.islice(perms, max(1, STACK_AMPS >> n))):
        rows = np.empty((len(chunk), 1 << n), dtype=np.complex128)
        for row, p in zip(rows, chunk):
            row.reshape((2,) * n)[...] = tensor.transpose(relabel_axes(p, n))
        yield stack_tangles(rows)


def permutation_delta(state, perms) -> float:
    """Worst change of the average tangle under each relabelling in perms,
    relative to max(1, average): the tangle is quartic in the amplitudes,
    so an unnormalized state scales its rounding error with it."""
    base = stack_tangles(state.amps[np.newaxis]).mean(axis=1)[0]
    scale = max(1.0, base)
    stacks = _relabelled_tangles(state, perms)
    return worst_of(d for taus in stacks for d in np.abs(taus.mean(axis=1) - base) / scale)


def partial_permutation_delta(state, i: int, perms) -> float:
    """Worst change of tau_i under each relabelling in perms (all fix i),
    relative to max(1, tau_i) as in permutation_delta."""
    check_qubit_index(state.n, i)
    base = stack_tangles(state.amps[np.newaxis])[0, i - 1]
    scale = max(1.0, base)
    stacks = _relabelled_tangles(state, perms)
    return worst_of(d for taus in stacks for d in np.abs(taus[:, i - 1] - base) / scale)


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


def _dealt_checks(seed: int, part: int, partial) -> list[tuple[str, float, float]]:
    """(name, worst error, tolerance) of each check but the witness, over
    samples part, part + 2, ... of its sample list: each check's samples
    are dealt alternately to two halves.  partial holds the partial
    invariance samples, drawn whole from one generator before the split."""
    results = []

    def check(name, worst, tol):
        results.append((name, worst, tol))

    def dealt(*axes):
        return itertools.islice(itertools.product(*axes), part, None, 2)

    ns_anchor = (3, 5, 7, 9)
    check(
        "ghz_anchor",
        worst_of(abs(n_tangle(ghz(n)).average - 1.0) for (n,) in dealt(ns_anchor)),
        1e-12,
    )
    check("w_anchor", worst_of(abs(n_tangle(w(n)).average) for (n,) in dealt(ns_anchor)), 1e-12)

    trials = range(10)
    worst = oracle_error(
        random_pure(n, seed=seed + 100 * n + t) for n, t in dealt((3, 5), trials)
    )
    check("oracle_equivalence", worst, 1e-10)

    bridge, rel_tau = bridge_errors(
        random_pure(n, seed=seed + 7000 + 100 * n + t) for n, t in dealt(ns_anchor, trials)
    )
    check("bridge_identities", bridge, 1e-12)
    check("residual_equals_fast", rel_tau, 1e-11)

    perms = {n: all_permutations(n) for n in (3, 5)}
    worst = worst_of(
        permutation_delta(random_pure(n, seed=seed + first + t), perms[n])
        for (n, first), t in dealt(((3, 300), (5, 400)), range(5))
    )
    check("average_permutation_invariance", worst, PERMUTATION_TOL)

    worst = worst_of(partial_permutation_delta(*sample) for (sample,) in dealt(partial))
    check("per_qubit_partial_invariance", worst, PERMUTATION_TOL)

    worst = slocc_error(
        (
            random_pure(n, seed=seed + 600 + 10 * n + t),
            random_local_invertible(n, seed=seed + 700 + 10 * n + t),
        )
        for n, t in dealt((3, 5, 7), trials)
    )
    check("slocc_equation", worst, SLOCC_TOL)

    worst = lu_error(
        (
            random_pure(n, seed=seed + 800 + 10 * n + t),
            random_local_unitary(n, seed=seed + 900 + 10 * n + t),
        )
        for n, t in dealt((3, 5), trials)
    )
    check("lu_invariance", worst, SLOCC_TOL)

    worst = three_tangle_spread(random_pure(3, seed=seed + 1000 + t) for (t,) in dealt(range(50)))
    check("three_tangle_crosscheck", worst, 1e-10)
    return results


def _in_two_processes(own_work, child_work):
    """(own_work(), child_work()), child_work run in a forked child while
    the caller runs own_work; both in the caller where os.fork does not
    exist.  The child is reaped on every path, and an exception raised in
    either reaches the caller with its type and message."""
    if not hasattr(os, "fork"):
        return own_work(), child_work()
    # buffered output would otherwise be written once by each process
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, child_work()))
            except BaseException as exc:
                try:
                    payload = pickle.dumps((False, exc))
                    pickle.loads(payload)
                except Exception:
                    payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    received = False
    try:
        own = own_work()
        with os.fdopen(read_fd, "rb", closefd=False) as pipe:
            payload = pipe.read()
        received = True
    finally:
        if not received:
            os.kill(pid, signal.SIGKILL)
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if not payload:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the forked half of the checks exited with code {code} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return own, value


def verify_all(seed: int = 0) -> list[CheckResult]:
    """Run every cross-check on samples drawn from `seed`; returns a list
    of CheckResult.  Where os.fork exists, half of each check's samples
    run in a forked child; every worst error is a maximum over samples, so
    the results equal those of one process."""
    rng = np.random.default_rng(seed + 17)
    partial = []
    for n in (5, 7):
        s = random_pure(n, seed=seed + 500 + n)
        partial += [(s, i, perms_fixing(n, i, rng, 20)) for i in (1, n)]

    (mine, witness), theirs = _in_two_processes(
        lambda: (_dealt_checks(seed, 0, partial), find_noninvariance_witness(5, seed=seed)),
        lambda: _dealt_checks(seed, 1, partial),
    )
    results = []
    for (name, a, tol), (_, b, _) in zip(mine, theirs):
        worst = worst_of((a, b))
        results.append(CheckResult(name, worst <= tol, worst, tol))

    gap, detail = 0.0, "no witness found; the non-invariance claim is unconfirmed"
    if witness is not None:
        _, perm, before, after = witness
        gap, detail = abs(before - after), f"permutation {perm.map}: {before:.6g} -> {after:.6g}"
    # inverted check: it passes when some gap exceeds the witness threshold
    results.append(
        CheckResult("noninvariance_witness", witness is not None, gap, WITNESS_THRESHOLD, detail)
    )
    return results
