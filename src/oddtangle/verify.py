"""Aggregate invariant suite behind the `verify-all` CLI subcommand.

Each check exercises one of the identities the library implements twice
(oracle vs. reduced path, defining vs. reduced sums, scaling law, ...) and
reports its worst observed error against the check's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fast_tangle import compute_TPQ, n_tangle, tangle_1_fast, tangle_i_fast
from .naive_tangle import find_noninvariance_witness, tangle_i_naive
from .qstate import QubitPermutation, permute_qubits
from .residual_forms import (
    residual_parts_defining,
    residual_parts_reduced,
    residual_tau,
)
from .slocc_ops import (
    random_local_invertible,
    random_local_unitary,
    verify_lu_invariance,
    verify_slocc_equation,
)
from .stategen import ghz, random_pure, w
from .three_tangle import ckw_tangle


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float
    detail: str = ""


def _all_permutations(n: int):
    import itertools

    for p in itertools.permutations(range(1, n + 1)):
        yield QubitPermutation(p)


def verify_all(seed: int = 0, tol: float | None = None, quick: bool = False):
    """Run every cross-check; returns a list of CheckResult."""
    results = []

    def check(name, worst, default_tol, detail=""):
        t = default_tol if tol is None else tol
        results.append(CheckResult(name, worst <= t, worst, t, detail))

    ns_anchor = (3, 5) if quick else (3, 5, 7, 9)
    worst = max(abs(n_tangle(ghz(n)).average - 1.0) for n in ns_anchor)
    check("ghz_anchor", worst, 1e-12)
    worst = max(abs(n_tangle(w(n)).average) for n in ns_anchor)
    check("w_anchor", worst, 1e-12)

    worst = 0.0
    trials = 3 if quick else 10
    for n in (3, 5):
        for t in range(trials):
            s = random_pure(n, seed=seed + 100 * n + t)
            for i in range(1, n + 1):
                ref = tangle_i_naive(s, i)
                err = abs(tangle_i_fast(s, i) - ref) / max(1.0, ref)
                worst = max(worst, err)
    check("oracle_equivalence", worst, 1e-10)

    worst_bridge = 0.0
    worst_tau = 0.0
    for n in ns_anchor:
        for t in range(trials):
            s = random_pure(n, seed=seed + 7000 + 100 * n + t)
            tpq = compute_TPQ(s)
            parts_d = residual_parts_defining(s)
            parts_r = residual_parts_reduced(s)
            worst_bridge = max(
                worst_bridge,
                abs(parts_d.I_bar - tpq.T),
                abs(parts_d.I_star - tpq.P / 2.0),
                abs(parts_d.I_star_shift - tpq.Q / 2.0),
                abs(parts_r.I_bar - parts_d.I_bar),
                abs(parts_r.I_star - parts_d.I_star),
                abs(parts_r.I_star_shift - parts_d.I_star_shift),
            )
            rt, ft = residual_tau(s), tangle_1_fast(s)
            worst_tau = max(worst_tau, abs(rt - ft) / max(abs(rt), abs(ft), 1e-300))
    check("bridge_identities", worst_bridge, 1e-12)
    check("residual_equals_fast", worst_tau, 1e-11)

    worst = 0.0
    n_states = 2 if quick else 5
    for t in range(n_states):
        s = random_pure(3, seed=seed + 300 + t)
        base = n_tangle(s).average
        for p in _all_permutations(3):
            worst = max(worst, abs(n_tangle(permute_qubits(s, p)).average - base))
    rng = np.random.default_rng(seed + 17)
    for t in range(n_states):
        s = random_pure(5, seed=seed + 400 + t)
        base = n_tangle(s).average
        perms = (
            [QubitPermutation(1 + rng.permutation(5)) for _ in range(10)]
            if quick
            else list(_all_permutations(5))
        )
        for p in perms:
            worst = max(worst, abs(n_tangle(permute_qubits(s, p)).average - base))
    check("average_permutation_invariance", worst, 1e-10)

    worst = 0.0
    for n in (5, 7):
        s = random_pure(n, seed=seed + 500 + n)
        for i in (1, n):
            base = tangle_i_fast(s, i)
            for t in range(5 if quick else 20):
                others = [k for k in range(1, n + 1) if k != i]
                shuffled = list(rng.permutation(others))
                mapping = [0] * n
                mapping[i - 1] = i
                for src, dst in zip(others, shuffled):
                    mapping[src - 1] = int(dst)
                p = QubitPermutation(mapping)
                worst = max(worst, abs(tangle_i_fast(permute_qubits(s, p), i) - base))
    check("per_qubit_partial_invariance", worst, 1e-10)

    worst = 0.0
    for n in (3, 5, 7):
        for t in range(3 if quick else 10):
            s = random_pure(n, seed=seed + 600 + 10 * n + t)
            c = random_local_invertible(n, seed=seed + 700 + 10 * n + t)
            worst = max(worst, verify_slocc_equation(s, c).rel_error)
    check("slocc_equation", worst, 1e-9)

    worst = 0.0
    for n in (3, 5):
        for t in range(3 if quick else 10):
            s = random_pure(n, seed=seed + 800 + 10 * n + t)
            u = random_local_unitary(n, seed=seed + 900 + 10 * n + t)
            worst = max(worst, verify_lu_invariance(s, u).rel_error)
    check("lu_invariance", worst, 1e-9)

    worst = 0.0
    for t in range(10 if quick else 50):
        s = random_pure(3, seed=seed + 1000 + t)
        vals = [ckw_tangle(s), tangle_i_naive(s, 1), tangle_1_fast(s)]
        worst = max(
            worst, max(abs(x - y) for x in vals for y in vals)
        )
    check("three_tangle_crosscheck", worst, 1e-10)

    witness = find_noninvariance_witness(5, trials=20 if quick else 100, seed=seed)
    if witness is None:
        results.append(
            CheckResult(
                "noninvariance_witness",
                passed=False,
                worst_error=0.0,
                tolerance=1e-6,
                detail="no witness found; the non-invariance claim is unconfirmed",
            )
        )
    else:
        _, perm, before, after = witness
        results.append(
            CheckResult(
                "noninvariance_witness",
                passed=True,
                worst_error=abs(before - after),
                tolerance=1e-6,
                detail=f"permutation {perm.map}: {before:.6g} -> {after:.6g}",
            )
        )
    return results
