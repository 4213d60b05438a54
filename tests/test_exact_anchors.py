"""Zero-tolerance anchors for the T/P/Q kernels, above the oracle's limit.

A symmetric state puts one amplitude a_k on every basis string of Hamming
weight k.  Its T, P and Q are the same on every qubit, with closed forms
in O(n) from the defining sums:

    T = sum_{k<n}     (-1)^k C(n-1, k) a_k     a_(n-k)
    P = 2 sum_{j<=n-2} (-1)^j C(n-2, j) a_j     a_(n-1-j)
    Q = 2 sum_{j<=n-2} (-1)^j C(n-2, j) a_(j+1) a_(n-j)

With a_k drawn from {-3..3} + i{-3..3}, every product and partial sum of
the kernels is a Gaussian integer below 2**53 in magnitude, so the kernels
must give these Python-integer sums exactly, in any summation order.

Two more families hold on states with Gaussian-integer amplitudes whose
squared norm is below 2**53.  Each product in T, P, Q and in the residual
sums pairs two distinct amplitudes, so by Cauchy-Schwarz every partial sum
is below the squared norm, and all of them are exact:
- the residual sums equal T, P/2 and Q/2 on every qubit (the bridge);
- T^2 - PQ, whose modulus is tau_i / 4, is unchanged on every qubit by
  an SL(2, Z) matrix on each qubit.
"""

from math import comb

import numpy as np
import pytest

from oddtangle.fast_tangle import n_tangle, stack_tpq
from oddtangle.qstate import (
    LocalOperatorChain,
    PureState,
    QubitPermutation,
    apply_local_operators,
    permute_qubits,
)
from oddtangle.residual_forms import residual_parts_defining, residual_parts_reduced

# [[1,1],[0,1]], [[1,0],[1,1]] and [[0,-1],[1,0]] generate SL(2, Z)
SL2Z = np.array([[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, -1], [1, 0]], [[2, 1], [1, 1]]])


def _weights(n: int, seed: int) -> list[tuple[int, int]]:
    """a_0 .. a_n as (re, im) Python integers in -3..3."""
    rng = np.random.default_rng(seed)
    parts = rng.integers(-3, 4, size=(n + 1, 2))
    return [(int(re), int(im)) for re, im in parts]


def _amplitudes(n: int, a) -> np.ndarray:
    x = np.arange(1 << n)
    weight = sum((x >> b) & 1 for b in range(n))
    return np.array([complex(*ak) for ak in a])[weight]


def _times(x, y) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _sum(terms) -> complex:
    re = im = 0
    for c, x, y in terms:
        p = _times(x, y)
        re, im = re + c * p[0], im + c * p[1]
    assert max(abs(re), abs(im)) < 2**53
    return complex(re, im)


def _closed_form(n: int, a) -> tuple[complex, complex, complex]:
    T = _sum(((-1) ** k * comb(n - 1, k), a[k], a[n - k]) for k in range(n))
    P = _sum((2 * (-1) ** j * comb(n - 2, j), a[j], a[n - 1 - j]) for j in range(n - 1))
    Q = _sum((2 * (-1) ** j * comb(n - 2, j), a[j + 1], a[n - j]) for j in range(n - 1))
    return T, P, Q


@pytest.mark.parametrize("n", [3, 5, 9, 15, 17, 21])
def test_n_tangle_gives_the_symmetric_closed_form_on_every_qubit(n):
    a = _weights(n, seed=0)
    expected = _closed_form(n, a)
    report = n_tangle(PureState(n, _amplitudes(n, a)))
    assert [(t.T, t.P, t.Q) for t in report.tpq_per_qubit] == [expected] * n


@pytest.mark.parametrize("n", [3, 5, 9])
def test_stack_rows_give_the_symmetric_closed_form_on_every_qubit(n):
    weights = [_weights(n, seed) for seed in range(3)]
    T, P, Q = stack_tpq(np.stack([_amplitudes(n, a) for a in weights]))
    for row, a in enumerate(weights):
        expected = _closed_form(n, a)
        assert list(zip(T[row], P[row], Q[row])) == [expected] * n


def _gaussian_integers(rng, n: int, k: int) -> np.ndarray:
    """2**n amplitudes whose real and imaginary parts are drawn from -k..k."""
    re, im = rng.integers(-k, k + 1, size=(2, 1 << n))
    return re + 1j * im


def _assert_exact(amps: np.ndarray) -> None:
    """Gaussian-integer amplitudes of squared norm below 2**53."""
    parts = amps.view(np.float64)
    assert np.array_equal(parts, np.round(parts))
    assert sum(int(x) ** 2 for x in parts) < 2**53


@pytest.mark.parametrize("n", [5, 9, 15, 17])
def test_residual_sums_give_T_P_Q_exactly_on_every_qubit(n):
    state = PureState(n, _gaussian_integers(np.random.default_rng(1), n, 3))
    _assert_exact(state.amps)
    for i, tpq in enumerate(n_tangle(state).tpq_per_qubit, 1):
        moved = permute_qubits(state, QubitPermutation.transposition(n, 1, i))
        forms = [residual_parts_reduced] + ([residual_parts_defining] if n <= 9 else [])
        for form in forms:
            parts = form(moved)
            assert (parts.I_bar, parts.I_star, parts.I_star_shift) == (tpq.T, tpq.P / 2, tpq.Q / 2)


@pytest.mark.parametrize("n", [5, 9, 15, 17])
def test_SL2Z_on_every_qubit_keeps_T2_minus_PQ_exactly(n):
    rng = np.random.default_rng(2)
    state = PureState(n, _gaussian_integers(rng, n, 1))
    # each qubit gets the product of two matrices drawn from SL2Z
    ops = [np.matmul(*SL2Z[rng.integers(0, len(SL2Z), size=2)]) for _ in range(n)]
    image = apply_local_operators(state, LocalOperatorChain(ops))
    _assert_exact(image.amps)
    before, after = (n_tangle(s).tpq_per_qubit for s in (state, image))
    for t in after:
        assert abs(t.T) ** 2 < 2**53 and abs(t.P * t.Q) < 2**53
    assert [t.T * t.T - t.P * t.Q for t in after] == [t.T * t.T - t.P * t.Q for t in before]
