"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; the lines are also echoed in the
terminal summary after the run (see conftest.py), where pytest's capture
cannot hide them.  Tolerances are part of the contract and are not
loosened here.
"""

import time

import conftest
import numpy as np
import pytest

from oddtangle.bench import (
    count_fast_path,
    count_naive_path,
    paper_fast_count,
    paper_naive_count,
)
from oddtangle.convex_roof import MixedState, convex_roof_tangle, decomposition_from_isometry
from oddtangle.fast_tangle import n_tangle, tangle_1_fast
from oddtangle.naive_tangle import find_noninvariance_witness, tangle_i_naive
from oddtangle.qstate import permute_qubits
from oddtangle.slocc_ops import random_local_invertible, random_local_unitary
from oddtangle.stategen import basis_product, ghz, random_pure, w
from oddtangle.verify import (
    all_permutations,
    bridge_errors,
    lu_error,
    oracle_error,
    partial_permutation_delta,
    permutation_delta,
    perms_fixing,
    slocc_error,
    three_tangle_spread,
    worst_of,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"[{mark}] criterion {num}: {label}{extra}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {num} failed: {label}{extra}"


def test_criterion_01_ghz_anchor():
    t0 = time.perf_counter()
    worst = worst_of(abs(n_tangle(ghz(n)).average - 1.0) for n in (3, 5, 7, 9))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "GHZ average tangle is 1 within 1e-12 for n in {3,5,7,9}, under 1 s",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst={worst:.3e}, {elapsed:.3f}s",
    )


def test_criterion_02_w_anchor():
    worst = worst_of(abs(n_tangle(w(n)).average) for n in (3, 5, 7, 9))
    _report(
        2,
        "W average tangle is 0 within 1e-12 for n in {3,5,7,9}",
        worst <= 1e-12,
        f"worst={worst:.3e}",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst = oracle_error(
        random_pure(n, seed=1000 * n + seed) for n in (3, 5) for seed in range(100)
    )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "fast path matches the oracle on 100 states x all qubits, n in {3,5}, under 2 min",
        worst <= 1e-10 and elapsed < 120.0,
        f"worst={worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_04_bridge_identities():
    worst_bridge, worst_rel = bridge_errors(
        random_pure(n, seed=5000 * n + seed) for n in (3, 5, 7, 9) for seed in range(100)
    )
    _report(
        4,
        "residual sums bridge to T, P/2, Q/2 within 1e-12 and residual tau matches "
        "the fast tangle within 1e-11 relative",
        worst_bridge <= 1e-12 and worst_rel <= 1e-11,
        f"bridge={worst_bridge:.3e}, rel={worst_rel:.3e}",
    )


def test_criterion_05_average_permutation_invariance():
    worst = worst_of(
        permutation_delta(random_pure(n, seed=300 * n + seed), perms)
        for n, perms in ((3, all_permutations(3)), (5, all_permutations(5)))
        for seed in range(20)
    )
    _report(
        5,
        "average tangle invariant under all 6 (n=3) and all 120 (n=5) permutations, "
        "20 states each, 1e-10",
        worst <= 1e-10,
        f"worst={worst:.3e}",
    )


def test_criterion_06_per_qubit_partial_invariance():
    rng = np.random.default_rng(6)
    worst = worst_of(
        partial_permutation_delta(
            random_pure(n, seed=60 * n + i), i, perms_fixing(n, i, rng, 50)
        )
        for n in (5, 7)
        for i in (1, (n + 1) // 2, n)
    )
    _report(
        6,
        "per-qubit tangle invariant under 50 random permutations fixing that qubit, "
        "n in {5,7}, 1e-10",
        worst <= 1e-10,
        f"worst={worst:.3e}",
    )


def test_criterion_07_slocc_equation():
    worst_slocc = slocc_error(
        (random_pure(n, seed=7000 * n + seed), random_local_invertible(n, seed=7500 * n + seed))
        for n in (3, 5, 7)
        for seed in range(100)
    )
    worst_lu = lu_error(
        (random_pure(n, seed=7900 * n + seed), random_local_unitary(n, seed=7950 * n + seed))
        for n in (3, 5, 7)
        for seed in range(20)
    )
    _report(
        7,
        "SLOCC scaling law holds within 1e-9 relative on 100 pairs per n in {3,5,7}; "
        "local unitaries preserve every per-qubit tangle within 1e-9",
        worst_slocc <= 1e-9 and worst_lu <= 1e-9,
        f"slocc={worst_slocc:.3e}, lu={worst_lu:.3e}",
    )


def test_criterion_08_three_tangle_crosscheck():
    worst = three_tangle_spread(random_pure(3, seed=800 + seed) for seed in range(200))
    _report(
        8,
        "coefficient, oracle, and fast 3-tangle agree pairwise within 1e-10 on 200 states",
        worst <= 1e-10,
        f"worst={worst:.3e}",
    )


def test_criterion_09_convex_roof_properties():
    # (a) a pure density matrix recovers the pure-state tangle
    ghz_rho = MixedState.from_ensemble(3, [(1.0, ghz(3))])
    pure_val = convex_roof_tangle(ghz_rho, restarts=4, seed=0).value
    ok_pure = abs(pure_val - 1.0) <= 1e-6

    # (b) the classical |000>/|111> mixture is tangle-free
    sep_rho = MixedState.from_ensemble(
        3, [(0.5, basis_product(3, (0, 0, 0))), (0.5, basis_product(3, (1, 1, 1)))]
    )
    sep_val = convex_roof_tangle(sep_rho, restarts=2, seed=0).value
    ok_sep = sep_val <= 1e-8

    # (c) the result never exceeds any evaluated candidate decomposition
    rho = MixedState.from_ensemble(
        3, [(0.4, random_pure(3, seed=91)), (0.6, random_pure(3, seed=92))]
    )
    roof = convex_roof_tangle(rho, restarts=8, seed=0).value
    rng = np.random.default_rng(9)
    r = rho.rank()
    candidates = []
    for m in (r, r + 1, r + 2):
        for _ in range(5):
            g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            V, _ = np.linalg.qr(g)
            dec = decomposition_from_isometry(rho, V)
            candidates.append(
                sum(p * n_tangle(s).average for p, s in dec)
            )
    ok_bound = all(roof <= c + 1e-9 for c in candidates)
    _report(
        9,
        "roof recovers pure values, vanishes on the classical mixture, and lower-bounds "
        "every candidate decomposition",
        ok_pure and ok_sep and ok_bound,
        f"pure={pure_val:.6g}, separable={sep_val:.3e}, roof={roof:.6g}, "
        f"min_candidate={min(candidates):.6g}",
    )


def test_criterion_10_cost_claims():
    # counted fast-path multiplications quadruple per n -> n+2 step
    fast_counts = {n: count_fast_path(random_pure(n, seed=n)) for n in (3, 5, 7, 9, 11)}
    ratios = [fast_counts[n + 2] / fast_counts[n] for n in (3, 5, 7, 9)]
    ok_fast_scaling = all(3.5 <= r <= 4.5 for r in ratios)

    pruned_counts = {n: count_naive_path(random_pure(n, seed=n)) for n in (3, 5)}
    ok_pruned_scaling = (
        pruned_counts[3] == 3 * 2**6 and pruned_counts[5] == 3 * 2**10
    )

    # measured wall-clock speedup at n=5
    s = random_pure(5, seed=10)
    reps = 30
    t0 = time.perf_counter()
    for _ in range(reps):
        tangle_1_fast(s)
    fast_t = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        tangle_i_naive(s, 1)
    naive_t = (time.perf_counter() - t0) / reps
    speedup = naive_t / fast_t
    ok_speed = speedup >= 100.0

    # textbook figures are reported side by side, never asserted equal
    report = ", ".join(
        f"n={n}: counted={fast_counts[n]} textbook={paper_fast_count(n)}"
        for n in (3, 5)
    )
    report += f"; pruned n=5: counted={pruned_counts[5]} textbook={paper_naive_count(5)}"
    _report(
        10,
        "fast count scales as Theta(2^n), pruned oracle as Theta(2^(2n)), measured "
        "speedup at n=5 >= 100x",
        ok_fast_scaling and ok_pruned_scaling and ok_speed,
        f"ratios={[round(r, 2) for r in ratios]}, speedup={speedup:.0f}x; {report}",
    )


def test_criterion_11_noninvariance_witness():
    witness = find_noninvariance_witness(5, trials=100, seed=0)
    if witness is None:
        # honest negative: report the claim as unconfirmed rather than fabricate
        _report(
            11,
            "even-n formula non-invariance at odd n=5",
            False,
            "no witness found in 100 trials; claim unconfirmed",
        )
    else:
        state, perm, before, after = witness
        # reproduce the reported pair independently
        from oddtangle.naive_tangle import wong_tangle_naive

        again_before = wong_tangle_naive(state, force=True)
        again_after = wong_tangle_naive(permute_qubits(state, perm), force=True)
        ok = (
            abs(before - after) > 1e-6
            and abs(again_before - before) < 1e-14
            and abs(again_after - after) < 1e-14
        )
        _report(
            11,
            "even-n formula non-invariance witnessed at n=5",
            ok,
            f"perm {perm.map}: {before:.6g} -> {after:.6g}",
        )
