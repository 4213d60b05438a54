"""Reduced O(2**n) tangle evaluation via the T, P, Q sums.

For qubit 1, T pairs amplitude x with its bitwise complement, and P (Q)
pairs even indices inside the lower (upper) half block; each product
carries the epsilon sign (-1)**popcount, and P, Q a factor 2.  Then
tau_1 = 4|T^2 - PQ|.  The 2**n products are one gather over cached index
arrays, and the three sums one ``np.add.reduceat`` with no BLAS call, so a
numpy build gives the same bits whatever the BLAS thread count.  Qubit i
is qubit 1 of the state with qubits 1 and i exchanged.  The work count of
one ``compute_TPQ`` call is the length of the term table it gathers over.

``stack_tpq`` runs the same gather, table and ``reduceat`` offsets on every
row of a (B, 2**n) stack of states at once, for every qubit, and gives
each row the bits ``compute_TPQ`` gives its state; the permutation checks
score a state's relabelled copies this way.  ``n_tangle`` keeps its
per-qubit ``compute_TPQ`` route, whose calls the benchmark harness counts
in a traced ``compute``.
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


def epsilon_signs(bits: int) -> np.ndarray:
    """(-1)**popcount(y) for y = 0 .. 2**bits - 1, built by sign doubling."""
    signs = np.ones(1)
    for _ in range(bits):
        signs = np.concatenate([signs, -signs])
    return signs


@lru_cache(maxsize=None)
def _terms(n: int):
    """Qubit-1 terms (left, right, weight) in T, P, Q order: term k adds
    weight[k] * a[left[k]] * a[right[k]], the weight holding the epsilon
    sign and the factor 2 of P and Q."""
    dim = 1 << n
    half = dim >> 1
    quarter = dim >> 2
    signs = epsilon_signs(n - 1)
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


def compute_TPQ(state: PureState) -> TPQ:
    """The three reduced sums for the tangle with respect to qubit 1, one
    amplitude product per term of ``_terms(n)``."""
    n = state.n
    if n < 2:
        raise ValueError(f"T/P/Q need n >= 2, got n={n}")
    left, right, weight = _terms(n)
    a = state.amps
    half = 1 << (n - 1)
    T, P, Q = np.add.reduceat(a[left] * a[right] * weight, [0, half, half + (half >> 1)])
    return TPQ(complex(T), complex(P), complex(Q))


def stack_tpq(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, P and Q of every qubit for every row of a (B, 2**n) stack, each a
    (B, n) array: column i - 1 holds the sums for qubit i, the same bits
    as ``compute_TPQ`` of the row's state with qubits 1 and i exchanged."""
    b, dim = rows.shape
    n = dim.bit_length() - 1
    if n < 2 or dim != 1 << n:
        raise ValueError(f"T/P/Q need rows of 2**n amplitudes with n >= 2, got {dim}")
    cube = rows.reshape((b,) + (2,) * n)
    sums = np.empty((3, b, n), dtype=np.complex128)
    for i in range(1, n + 1):
        # axis i of the cube is qubit i; swapped to axis 1 it is qubit 1
        sums[:, :, i - 1] = _qubit_1_sums(np.swapaxes(cube, 1, i).reshape(b, dim), n).T
    return sums[0], sums[1], sums[2]


def _qubit_1_sums(a: np.ndarray, n: int) -> np.ndarray:
    """compute_TPQ's gather and sums on every row of a: (B, 3) T, P, Q."""
    left, right, weight = _terms(n)
    half = 1 << (n - 1)
    if len(a) == 1:
        # compute_TPQ's own expression: take() would copy the read-only
        # index tables, a quarter more memory at n >= 16
        terms = (a[0][left] * a[0][right] * weight)[np.newaxis]
    else:
        # take() gathers a stack faster than a[:, left]
        terms = a.take(left, axis=1) * a.take(right, axis=1) * weight
    return np.add.reduceat(terms, [0, half, half + (half >> 1)], axis=1)


def stack_tangles(rows: np.ndarray) -> np.ndarray:
    """4|T^2 - PQ| of every qubit for every row of a (B, 2**n) stack, odd n:
    a (B, n) array whose column i - 1 is the tangle with respect to qubit i."""
    check_odd_n(rows.shape[1].bit_length() - 1)
    T, P, Q = stack_tpq(rows)
    return 4.0 * np.abs(T * T - P * Q)


def tangle_i_fast(state: PureState, i: int) -> float:
    """4|T^2 - PQ|, the tangle with respect to qubit i (1-based)."""
    check_odd_n(state.n)
    check_qubit_index(state.n, i)
    return _tau(compute_TPQ(_transposed(state, i)))


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
