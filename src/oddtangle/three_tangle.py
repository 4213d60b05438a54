"""Three-qubit specialization: the coefficient 3-tangle."""

from __future__ import annotations

from .qstate import PureState


def ckw_terms(state: PureState) -> tuple[complex, complex, complex]:
    """The coefficient polynomials (d1, d2, d3) of the 3-tangle."""
    if state.n != 3:
        raise ValueError(f"coefficient 3-tangle needs n=3, got n={state.n}")
    a = state.amps
    d1 = (
        a[0] ** 2 * a[7] ** 2
        + a[1] ** 2 * a[6] ** 2
        + a[2] ** 2 * a[5] ** 2
        + a[3] ** 2 * a[4] ** 2
    )
    d2 = (
        a[0] * a[7] * a[3] * a[4]
        + a[0] * a[7] * a[2] * a[5]
        + a[0] * a[7] * a[1] * a[6]
        + a[3] * a[4] * a[2] * a[5]
        + a[3] * a[4] * a[1] * a[6]
        + a[2] * a[5] * a[1] * a[6]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return d1, d2, d3


def ckw_tangle(state: PureState) -> float:
    """3-tangle from the amplitude coefficients: 4|d1 - 2 d2 + 4 d3|."""
    d1, d2, d3 = ckw_terms(state)
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
