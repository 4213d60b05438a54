"""Residual-entanglement sums and their reduced single-sum forms.

Two structurally different evaluations of the same three quantities are
kept side by side on purpose: the defining bracketed sums (upper limit
2**(n-3) - 1) and the reduced single sums.  Their equality, together with
the bridge to T, P/2, Q/2, is verified by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qstate import PureState, check_odd_n


@dataclass(frozen=True)
class ResidualParts:
    I_bar: complex
    I_star: complex
    I_star_shift: complex


@lru_cache(maxsize=None)
def _parity_signs(count: int):
    return tuple(-1 if i.bit_count() & 1 else 1 for i in range(count))


def residual_parts_defining(state: PureState) -> ResidualParts:
    """The three sums exactly as defined (at n=3 each has a single term)."""
    check_odd_n(state.n)
    n = state.n
    a = state.amps.tolist()
    dim = 1 << n
    half = dim >> 1
    eighth = dim >> 3  # 2**(n-3); equals 1 at n=3
    signs = _parity_signs(max(eighth, 1))
    I_bar = 0.0 + 0.0j
    I_star = 0.0 + 0.0j
    I_star_shift = 0.0 + 0.0j
    for i in range(eighth):
        s = signs[i]
        I_bar += s * (
            (a[2 * i] * a[dim - 1 - 2 * i] - a[2 * i + 1] * a[dim - 2 - 2 * i])
            - (
                a[half - 2 - 2 * i] * a[half + 1 + 2 * i]
                - a[half - 1 - 2 * i] * a[half + 2 * i]
            )
        )
        I_star += s * (
            a[2 * i] * a[half - 1 - 2 * i] - a[2 * i + 1] * a[half - 2 - 2 * i]
        )
        I_star_shift += s * (
            a[half + 2 * i] * a[dim - 1 - 2 * i]
            - a[half + 1 + 2 * i] * a[dim - 2 - 2 * i]
        )
    return ResidualParts(I_bar, I_star, I_star_shift)


def residual_parts_reduced(state: PureState) -> ResidualParts:
    """Single-sum reductions: full-complement pairing for I_bar, even-index
    pairings over 2**(n-2) terms for the starred sums."""
    check_odd_n(state.n)
    n = state.n
    a = state.amps.tolist()
    dim = 1 << n
    half = dim >> 1
    quarter = dim >> 2
    signs_half = _parity_signs(half)
    I_bar = 0.0 + 0.0j
    for i in range(half):
        I_bar += signs_half[i] * (a[i] * a[dim - 1 - i])
    I_star = 0.0 + 0.0j
    I_star_shift = 0.0 + 0.0j
    for i in range(quarter):
        s = signs_half[i]
        I_star += s * (a[2 * i] * a[half - 1 - 2 * i])
        I_star_shift += s * (a[half + 2 * i] * a[dim - 1 - 2 * i])
    return ResidualParts(I_bar, I_star, I_star_shift)


def residual_tau(state: PureState) -> float:
    """4|I_bar^2 - 4 * I_star * I_star_shift| from the reduced sums
    (degree-4 homogeneous; no normalization requirement)."""
    parts = residual_parts_reduced(state)
    return 4.0 * abs(parts.I_bar**2 - 4.0 * parts.I_star * parts.I_star_shift)
