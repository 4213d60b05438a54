"""Reduced O(2**n) tangle evaluation via the T, P, Q sums.

For qubit 1, T pairs amplitude x with its bitwise complement, and P (Q)
pairs even indices inside the lower (upper) half block; each product
carries the epsilon sign (-1)**popcount, and P, Q a factor 2.  Then
tau_1 = 4|T^2 - PQ|.  The 2**n products are one gather over cached index
arrays, and the three sums one ``np.add.reduceat`` with no BLAS call, so a
numpy build gives the same bits whatever the BLAS thread count.  Qubit i
is qubit 1 of the state with qubits 1 and i exchanged.  The optional
counter tallies amplitude products without touching the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import PureState, QubitPermutation, check_odd_n, check_qubit_index, permute_qubits


@dataclass(frozen=True)
class TPQ:
    T: complex
    P: complex
    Q: complex


@dataclass(frozen=True)
class TangleReport:
    n: int
    per_qubit: tuple
    average: float
    tpq_per_qubit: tuple


@lru_cache(maxsize=None)
def _terms(n: int):
    """Qubit-1 terms (left, right, weight) in T, P, Q order: term k adds
    weight[k] * a[left[k]] * a[right[k]], the weight holding the epsilon
    sign and the factor 2 of P and Q."""
    dim = 1 << n
    half = dim >> 1
    quarter = dim >> 2
    signs = np.ones(1)
    for _ in range(n - 1):
        signs = np.concatenate([signs, -signs])
    k = np.arange(half, dtype=np.int64)
    even = 2 * k[:quarter]
    left = np.concatenate([k, even, half + even])
    right = np.concatenate([dim - 1 - k, half - 1 - even, dim - 1 - even])
    weight = np.concatenate([signs, 2.0 * signs[:quarter], 2.0 * signs[:quarter]])
    for a in (left, right, weight):
        a.setflags(write=False)
    return left, right, weight


def _tau(tpq: TPQ) -> float:
    return 4.0 * abs(tpq.T * tpq.T - tpq.P * tpq.Q)


def _transposed(state: PureState, i: int) -> PureState:
    """The state with qubits 1 and i exchanged: its qubit-1 sums are the
    sums for qubit i of the input."""
    if i == 1:
        return state
    return permute_qubits(state, QubitPermutation.transposition(state.n, 1, i))


def compute_TPQ(state: PureState, counter=None) -> TPQ:
    """The three reduced sums for the tangle with respect to qubit 1."""
    n = state.n
    if n < 2:
        raise ValueError(f"T/P/Q need n >= 2, got n={n}")
    left, right, weight = _terms(n)
    a = state.amps
    half = 1 << (n - 1)
    T, P, Q = np.add.reduceat(a[left] * a[right] * weight, [0, half, half + (half >> 1)])
    if counter is not None:
        # one amplitude product per term; the sign and factor-2 scalings
        # are not tallied
        counter.add(left.size)
    return TPQ(complex(T), complex(P), complex(Q))


def tangle_1_fast(state: PureState, counter=None) -> float:
    """4|T^2 - PQ|, the tangle with respect to qubit 1.

    The counter tallies only the per-term amplitude products of the three
    sums (2**n of them); the constant-size combining work T*T, P*Q and the
    final scaling is excluded, so counts reflect the asymptotic term count.
    """
    return tangle_i_fast(state, 1, counter)


def tangle_i_fast(state: PureState, i: int, counter=None) -> float:
    """Tangle with respect to qubit i (1-based)."""
    check_odd_n(state.n)
    check_qubit_index(state.n, i)
    return _tau(compute_TPQ(_transposed(state, i), counter))


def n_tangle(state: PureState) -> TangleReport:
    """All per-qubit tangles and their arithmetic mean."""
    check_odd_n(state.n)
    n = state.n
    tpqs = tuple(compute_TPQ(_transposed(state, i)) for i in range(1, n + 1))
    per_qubit = tuple(_tau(t) for t in tpqs)
    return TangleReport(
        n=n,
        per_qubit=per_qubit,
        average=sum(per_qubit) / n,
        tpq_per_qubit=tpqs,
    )
