import numpy as np
import pytest

from oddtangle.fast_tangle import tangle_i_fast
from oddtangle.qstate import PureState, QubitPermutation, permute_qubits
from oddtangle.residual_forms import residual_tau
from oddtangle.stategen import basis_product, ghz, random_pure, w
from oddtangle.three_tangle import ckw_tangle, ckw_terms

SQ2 = np.sqrt(2.0)


def test_ckw_ghz():
    assert ckw_tangle(ghz(3)) == pytest.approx(1.0, abs=1e-14)


def test_ckw_w():
    assert ckw_tangle(w(3)) == pytest.approx(0.0, abs=1e-14)


def test_ckw_product_states():
    assert ckw_tangle(basis_product(3, (0, 0, 0))) == 0.0
    assert ckw_tangle(basis_product(3, (1, 0, 1))) == 0.0


def test_ckw_bell_times_single_qubit():
    # (|00> + |11>)/sqrt(2) on qubits 1,2 tensor |0> on qubit 3
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / SQ2
    amps[6] = 1.0 / SQ2
    assert ckw_tangle(PureState(3, amps)) == pytest.approx(0.0, abs=1e-14)


def test_ckw_terms_ghz_and_w():
    # GHZ: only a0^2 a7^2 = 1/4 survives in d1; W: every term has a zero factor
    np.testing.assert_allclose(ckw_terms(ghz(3)), [0.25, 0.0, 0.0], atol=1e-15)
    assert ckw_terms(w(3)) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ckw_terms(ghz(5))


def test_ckw_rejects_wrong_n():
    with pytest.raises(ValueError):
        ckw_tangle(ghz(5))


def test_monogamy_style_bound():
    # the 3-tangle never exceeds the squared one-vs-rest concurrence
    # C^2_A(BC) = 4 det(rho_A), rho_A = M M^H for psi as a 2 x 4 matrix M
    for seed in range(20):
        s = random_pure(3, seed=seed)
        tau = ckw_tangle(s)
        for q in (1, 2, 3):
            m = np.moveaxis(s.amps.reshape(2, 2, 2), q - 1, 0).reshape(2, 4)
            c_squared = 4.0 * np.linalg.det(m @ m.conj().T).real
            assert tau <= c_squared + 1e-10


def test_ckw_permutation_invariance():
    import itertools

    s = random_pure(3, seed=31)
    base = ckw_tangle(s)
    for p in itertools.permutations((1, 2, 3)):
        assert ckw_tangle(permute_qubits(s, QubitPermutation(p))) == pytest.approx(
            base, abs=1e-12
        )


def test_three_formulas_agree():
    # coefficient form, reduced T/P/Q form, and residual form all coincide at n=3
    for seed in range(50):
        s = random_pure(3, seed=seed)
        a = ckw_tangle(s)
        b = tangle_i_fast(s, 1)
        c = residual_tau(s)
        assert abs(a - b) < 1e-10
        assert abs(b - c) < 1e-10
        assert abs(a - c) < 1e-10
