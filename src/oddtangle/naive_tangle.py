"""Brute-force epsilon-tensor tangles, used as ground truth for the fast path.

The defining quadruple sum runs over four n-bit multi-indices.  The default
evaluation enumerates only the tuples whose epsilon factors are nonzero
(the partner indices are bitwise complements except at the singled-out
qubit), which leaves 2**(2n) terms.  A literal full-sum mode walks all
2**(4n) tuples for very small n.  Both stay structurally independent of the
reduced T/P/Q algebra in :mod:`oddtangle.fast_tangle`.
"""

from __future__ import annotations

import numpy as np

from .qstate import PureState, QubitPermutation, check_odd_n, check_qubit_index, permute_qubits
from .stategen import random_pure

# largest n the oracle evaluates (2**(2n) terms per qubit); no caller can raise it
ORACLE_MAX_QUBITS = 7
# smallest change of the forced even-n formula counted as a witness
WITNESS_THRESHOLD = 1e-6


def epsilon(a: int, b: int) -> int:
    """Antisymmetric symbol: eps(0,1) = 1, eps(1,0) = -1, else 0."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"epsilon arguments must be bits, got ({a!r}, {b!r})")
    return b - a


def _check_size(n: int) -> None:
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the oracle limit of {ORACLE_MAX_QUBITS} qubits")


def _w_pattern_pruned(amps, n: int, i: int, counter=None) -> complex:
    """W-sum with qubit i singled out, skipping tuples with a zero epsilon.

    Surviving tuples: beta and delta complement alpha and gamma on every
    qubit except i, gamma_i complements alpha_i and delta_i complements
    beta_i.  The sign of each term is evaluated as the literal product of
    its 2n epsilon factors read off the bits (no popcount shortcut, which
    would re-derive the reduced-formula algebra this oracle has to check).
    Accumulation runs in a fixed (alpha, gamma, beta_i) lexicographic order.
    """
    a = amps.tolist()
    dim = 1 << n
    pos = n - i  # bit position of qubit i, LSB = position 0
    mask_i = 1 << pos
    mask_rest = (dim - 1) ^ mask_i
    rest_positions = [n - k for k in range(1, n + 1) if k != i]
    total = 0.0 + 0.0j
    terms = 0
    for alpha in range(dim):
        a_alpha = a[alpha]
        alpha_i = (alpha >> pos) & 1
        beta_base = (~alpha) & mask_rest
        for gamma in range(dim):
            if ((gamma >> pos) & 1) == alpha_i:
                continue  # epsilon(alpha_i, gamma_i) = 0
            delta_base = (~gamma) & mask_rest
            eps_rest = epsilon(alpha_i, (gamma >> pos) & 1)
            for p in rest_positions:
                ak = (alpha >> p) & 1
                gk = (gamma >> p) & 1
                # beta_k = 1 - alpha_k and delta_k = 1 - gamma_k here
                eps_rest *= epsilon(ak, 1 - ak) * epsilon(gk, 1 - gk)
            ag = a_alpha * a[gamma]
            for beta_i in (0, 1):
                beta = beta_base | (beta_i << pos)
                delta = delta_base | ((1 - beta_i) << pos)
                sign = eps_rest * epsilon(beta_i, 1 - beta_i)
                total += sign * (ag * (a[beta] * a[delta]))
                terms += 1
    if counter is not None:
        counter.add(3 * terms)
    return total


def _w_pattern_literal(amps, n: int, i: int, counter=None) -> complex:
    """Literal quadruple sum over all 2**(4n) tuples (debug mode, n <= 3).

    Every tuple multiplies its four amplitudes before the epsilon product is
    examined, so the multiplication tally is exactly 3 * 2**(4n).
    """
    if n > 3:
        raise ValueError(f"literal full sum is capped at n=3, got n={n}")
    a = amps.tolist()
    dim = 1 << n
    positions = [n - k for k in range(1, n + 1)]
    total = 0.0 + 0.0j
    mults = 0
    for alpha in range(dim):
        for beta in range(dim):
            for gamma in range(dim):
                for delta in range(dim):
                    prod = a[alpha] * a[beta] * a[gamma] * a[delta]
                    mults += 3
                    eps = 1
                    for k, pos in enumerate(positions, start=1):
                        ak = (alpha >> pos) & 1
                        bk = (beta >> pos) & 1
                        gk = (gamma >> pos) & 1
                        dk = (delta >> pos) & 1
                        if k == i:
                            eps *= epsilon(ak, gk) * epsilon(bk, dk)
                        else:
                            eps *= epsilon(ak, bk) * epsilon(gk, dk)
                        if eps == 0:
                            break
                    if eps:
                        total += eps * prod
    if counter is not None:
        counter.add(mults)
    return total


def tangle_i_naive(state: PureState, i: int, full_sum: bool = False, counter=None) -> float:
    """Tangle with respect to qubit i by the defining quadruple sum: 2|W^(i)|,
    for odd n from 3 to ORACLE_MAX_QUBITS."""
    n = state.n
    if n % 2 == 0:
        raise ValueError(f"n={n} is even; use wong_tangle_naive")
    check_odd_n(n)
    check_qubit_index(n, i)
    _check_size(n)
    kernel = _w_pattern_literal if full_sum else _w_pattern_pruned
    return 2.0 * abs(kernel(state.amps, n, i, counter))


def wong_tangle_naive(state: PureState, force: bool = False) -> float:
    """Even-n tangle (the pattern that pairs qubits 1..n-1 and links qubit n).

    Defined for even n and for n=3, up to ORACLE_MAX_QUBITS.  For odd n > 3
    the value is not permutation invariant; ``force=True`` evaluates the
    formula anyway so the non-invariance can be witnessed.
    """
    n = state.n
    if n % 2 == 1 and n > 3 and not force:
        raise ValueError(
            f"the even-n formula is not permutation invariant at odd n={n}; "
            "pass force=True to evaluate it regardless"
        )
    if n < 2:
        raise ValueError("tangles need n >= 2")
    _check_size(n)
    return 2.0 * abs(_w_pattern_pruned(state.amps, n, n))


def find_noninvariance_witness(n: int, trials: int = 100, seed: int = 0):
    """Search for a (state, permutation) pair where the forced even-n formula
    changes under the permutation.  Returns (state, permutation, before,
    after) or None if nothing exceeds WITNESS_THRESHOLD in `trials` attempts.
    """
    if n % 2 == 0 or not 3 < n <= ORACLE_MAX_QUBITS:
        raise ValueError(
            f"witness search needs odd n with 3 < n <= {ORACLE_MAX_QUBITS}, got n={n}"
        )
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        state = random_pure(n, seed=int(rng.integers(0, 2**31)))
        perm_list = 1 + rng.permutation(n)
        perm = QubitPermutation(perm_list)
        before = wong_tangle_naive(state, force=True)
        after = wong_tangle_naive(permute_qubits(state, perm), force=True)
        if abs(before - after) > WITNESS_THRESHOLD:
            return state, perm, before, after
    return None
