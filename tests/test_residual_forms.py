import pytest

from oddtangle.fast_tangle import compute_TPQ, n_tangle, tangle_i_fast
from oddtangle.qstate import PureState, QubitPermutation, permute_qubits
from oddtangle.residual_forms import (
    residual_parts_defining,
    residual_parts_reduced,
    residual_tau,
)
from oddtangle.stategen import basis_product, ghz, random_pure, w


def test_defining_ghz5():
    parts = residual_parts_defining(ghz(5))
    assert parts.I_bar == pytest.approx(0.5, abs=1e-15)
    assert parts.I_star == pytest.approx(0.0, abs=1e-15)
    assert parts.I_star_shift == pytest.approx(0.0, abs=1e-15)


def test_defining_w3():
    parts = residual_parts_defining(w(3))
    assert parts.I_bar == pytest.approx(0.0, abs=1e-15)
    assert parts.I_star == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert parts.I_star_shift == pytest.approx(0.0, abs=1e-15)


def test_defining_zero_ket():
    parts = residual_parts_defining(basis_product(5, (0,) * 5))
    assert parts.I_bar == parts.I_star == parts.I_star_shift == 0.0


def test_reduced_ghz3():
    assert residual_parts_reduced(ghz(3)).I_bar == pytest.approx(0.5, abs=1e-15)


def test_reduced_w5_shift_term():
    assert residual_parts_reduced(w(5)).I_star_shift == pytest.approx(0.0, abs=1e-15)


def test_rejects_even_or_small_n():
    with pytest.raises(ValueError):
        residual_parts_defining(ghz(4))
    with pytest.raises(ValueError):
        residual_tau(ghz(2))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_reduced_equals_defining(n):
    for seed in range(10):
        s = random_pure(n, seed=seed)
        d = residual_parts_defining(s)
        r = residual_parts_reduced(s)
        assert abs(d.I_bar - r.I_bar) < 1e-12
        assert abs(d.I_star - r.I_star) < 1e-12
        assert abs(d.I_star_shift - r.I_star_shift) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_bridge_to_tpq(n):
    for seed in range(10):
        s = random_pure(n, seed=100 + seed)
        parts = residual_parts_defining(s)
        tpq = compute_TPQ(s)
        assert abs(parts.I_bar - tpq.T) < 1e-12
        assert abs(parts.I_star - tpq.P / 2.0) < 1e-12
        assert abs(parts.I_star_shift - tpq.Q / 2.0) < 1e-12


def test_residual_tau_anchors():
    for n in (3, 5, 7):
        assert residual_tau(ghz(n)) == pytest.approx(1.0, abs=1e-12)
        assert residual_tau(w(n)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_residual_tau_equals_fast(n):
    for seed in range(10):
        s = random_pure(n, seed=200 + seed)
        rt = residual_tau(s)
        ft = tangle_i_fast(s, 1)
        assert abs(rt - ft) <= 1e-11 * max(abs(rt), abs(ft))
        d = residual_parts_defining(s)
        rt_def = 4.0 * abs(d.I_bar**2 - 4.0 * d.I_star * d.I_star_shift)
        assert abs(rt_def - ft) <= 1e-11 * max(abs(rt_def), abs(ft))


def test_residual_tau_unnormalized_homogeneity():
    u = random_pure(5, seed=5)
    c = 2.0 - 1.0j
    s = PureState(5, c * u.amps)
    assert residual_tau(s) == pytest.approx(abs(c) ** 4 * residual_tau(u), rel=1e-11)


def test_averaged_residual_matches_n_tangle():
    # residual_forms shares no code with compute_TPQ: every qubit's tangle
    # is checked against it, and so is their average
    for n in (3, 5, 9, 11, 15, 17):
        s = random_pure(n, seed=42 + n)
        taus = [
            residual_tau(
                permute_qubits(s, QubitPermutation.transposition(n, 1, i))
            )
            for i in range(1, n + 1)
        ]
        for i, tau in enumerate(taus, start=1):
            assert tangle_i_fast(s, i) == pytest.approx(tau, rel=1e-11)
        assert sum(taus) / n == pytest.approx(n_tangle(s).average, abs=1e-10)


def test_n3_single_term_edge():
    # at n=3 every defining sum has exactly one term
    s = random_pure(3, seed=77)
    a = s.amps
    parts = residual_parts_defining(s)
    expected_I_bar = (a[0] * a[7] - a[1] * a[6]) - (a[2] * a[5] - a[3] * a[4])
    assert parts.I_bar == pytest.approx(expected_I_bar, abs=1e-15)
    assert parts.I_star == pytest.approx(a[0] * a[3] - a[1] * a[2], abs=1e-15)
    assert parts.I_star_shift == pytest.approx(a[4] * a[7] - a[5] * a[6], abs=1e-15)
