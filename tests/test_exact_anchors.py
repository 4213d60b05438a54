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
"""

from math import comb

import numpy as np
import pytest

from oddtangle.fast_tangle import n_tangle, stack_tpq
from oddtangle.qstate import PureState


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
