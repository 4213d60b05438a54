import itertools

import numpy as np
import pytest

from oddtangle.fast_tangle import compute_TPQ, n_tangle, tangle_i_fast
from oddtangle.naive_tangle import tangle_i_naive, wong_tangle_naive
from oddtangle.qstate import PureState, QubitPermutation, apply_local_operators, permute_qubits
from oddtangle.slocc_ops import random_local_unitary
from oddtangle.three_tangle import ckw_tangle
from oddtangle.stategen import basis_product, ghz, random_pure, w


def test_tpq_ghz5():
    tpq = compute_TPQ(ghz(5))
    assert tpq.T == pytest.approx(0.5, abs=1e-15)
    assert tpq.P == pytest.approx(0.0, abs=1e-15)
    assert tpq.Q == pytest.approx(0.0, abs=1e-15)


def test_tpq_w3():
    tpq = compute_TPQ(w(3))
    assert tpq.T == pytest.approx(0.0, abs=1e-15)
    assert tpq.P == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert tpq.Q == pytest.approx(0.0, abs=1e-15)


def test_tpq_zero_ket():
    tpq = compute_TPQ(basis_product(4, (0, 0, 0, 0)))
    assert tpq.T == tpq.P == tpq.Q == 0.0


def test_tangle_1_anchors_all_odd_n():
    for n in (3, 5, 7, 9):
        assert tangle_i_fast(ghz(n), 1) == pytest.approx(1.0, abs=1e-12)
        assert tangle_i_fast(w(n), 1) == pytest.approx(0.0, abs=1e-14)


def test_tangle_1_rejects_even_n():
    with pytest.raises(ValueError):
        tangle_i_fast(ghz(4), 1)


def test_tangle_i_identity_transposition():
    s = random_pure(5, seed=0)
    tpq = compute_TPQ(s)
    assert tangle_i_fast(s, 1) == 4.0 * abs(tpq.T * tpq.T - tpq.P * tpq.Q)


def test_tangle_i_ghz7_every_qubit():
    for i in range(1, 8):
        assert tangle_i_fast(ghz(7), i) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n,i", [(n, i) for n in (9, 11, 13) for i in range(1, n + 1)]
)
def test_tpq_per_qubit_matches_transposed_qubit_1(n, i):
    s = random_pure(n, seed=n)
    # exchange the bits of qubit 1 (bit n-1) and qubit i (bit n-i) by hand
    x = np.arange(2**n)
    diff = ((x >> (n - 1)) ^ (x >> (n - i))) & 1
    swapped = s.amps[x ^ ((diff << (n - 1)) | (diff << (n - i)))]
    moved = permute_qubits(s, QubitPermutation.transposition(n, 1, i))
    assert np.array_equal(moved.amps, swapped)
    assert n_tangle(s).tpq_per_qubit[i - 1] == compute_TPQ(PureState(n, swapped))


def test_oracle_equivalence_small():
    for n in (3, 5):
        for seed in range(5):
            s = random_pure(n, seed=seed)
            for i in range(1, n + 1):
                ref = tangle_i_naive(s, i)
                assert abs(tangle_i_fast(s, i) - ref) <= 1e-10 * max(1.0, ref)


def test_report_average_is_mean():
    report = n_tangle(random_pure(5, seed=7))
    assert report.average == pytest.approx(
        sum(report.per_qubit) / report.n, abs=1e-12
    )
    assert all(t >= 0.0 for t in report.per_qubit)


def test_average_permutation_invariance_n3_all():
    s = random_pure(3, seed=13)
    base = n_tangle(s).average
    for p in itertools.permutations((1, 2, 3)):
        assert n_tangle(permute_qubits(s, QubitPermutation(p))).average == pytest.approx(
            base, abs=1e-10
        )


def test_per_qubit_permutation_covariance():
    s = random_pure(5, seed=17)
    report = n_tangle(s)
    p = QubitPermutation([3, 1, 5, 2, 4])
    permuted = n_tangle(permute_qubits(s, p))
    for i in range(1, 6):
        assert permuted.per_qubit[p(i) - 1] == pytest.approx(
            report.per_qubit[i - 1], abs=1e-10
        )


def test_homogeneity_of_report():
    s = random_pure(5, seed=23)
    c = 1.4 + 0.3j
    base = n_tangle(s)
    scaled = n_tangle(PureState(5, c * s.amps))
    k = abs(c) ** 4
    assert scaled.average == pytest.approx(k * base.average, rel=1e-12)
    for x, y in zip(scaled.per_qubit, base.per_qubit):
        assert x == pytest.approx(k * y, rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_bound_on_random_states(n):
    for seed in range(1000):
        report = n_tangle(random_pure(n, seed=10_000 * n + seed))
        assert all(0.0 <= t <= 1.0 + 1e-9 for t in report.per_qubit)
        assert 0.0 <= report.average <= 1.0 + 1e-9


# ------------------------------------------- closed forms above the oracle limit

ANCHOR_TOL = 1e-12


@pytest.mark.parametrize("n_o, n_e", [(3, 2), (3, 4), (5, 2), (5, 4), (3, 6)])
@pytest.mark.parametrize("odd_first", [True, False])
def test_product_law(n_o, n_e, odd_first):
    # tau_i(psi (x) phi) = tau_i(psi) * tau_W(phi) on psi's qubits, 0 on phi's
    psi, phi = random_pure(n_o, seed=n_o), random_pure(n_e, seed=10 + n_e)
    tau_w = wong_tangle_naive(phi)
    expected = [tangle_i_naive(psi, i) * tau_w for i in range(1, n_o + 1)]
    if odd_first:
        amps, expected = np.kron(psi.amps, phi.amps), expected + [0.0] * n_e
    else:
        amps, expected = np.kron(phi.amps, psi.amps), [0.0] * n_e + expected
    report = n_tangle(PureState(n_o + n_e, amps))
    assert np.max(np.abs(np.array(report.per_qubit) - expected)) <= ANCHOR_TOL


def _acin_state():
    """lam0|000> + lam1 e^{i phi}|100> + lam2|101> + lam3|110> + lam4|111>,
    whose 3-tangle is 4 lam0^2 lam4^2 (Acin et al., PRL 85, 1560 (2000))."""
    lam = np.array([0.6, 0.3, 0.3, 0.3, np.sqrt(0.37)])
    amps = np.zeros(8, dtype=complex)
    amps[[0, 4, 5, 6, 7]] = lam * np.array([1, np.exp(0.7j), 1, 1, 1])
    return PureState(3, amps), 4 * lam[0] ** 2 * lam[4] ** 2


@pytest.mark.parametrize("n", [9, 15, 17])
def test_acin_state_with_bell_pairs(n):
    # psi3 (x) Bell^(x k), relabelled and rotated by local unitaries: tau3 on
    # the images of qubits 1-3, 0 on every qubit of a Bell pair
    psi3, tau3 = _acin_state()
    assert tau3 >= 0.1
    assert ckw_tangle(psi3) == pytest.approx(tau3, abs=ANCHOR_TOL)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    amps = psi3.amps
    for _ in range((n - 3) // 2):
        amps = np.kron(amps, bell)
    perm = QubitPermutation(1 + np.random.default_rng(n).permutation(n))
    state = permute_qubits(PureState(n, amps), perm)
    state = apply_local_operators(state, random_local_unitary(n, seed=n))
    expected = np.zeros(n)
    expected[[perm(k) - 1 for k in (1, 2, 3)]] = tau3
    report = n_tangle(state)
    assert np.max(np.abs(np.array(report.per_qubit) - expected)) <= ANCHOR_TOL
