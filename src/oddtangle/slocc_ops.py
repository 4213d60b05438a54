"""SLOCC machinery: random local operator chains, the scaling-law check and
local-unitary invariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fast_tangle import n_tangle
from .qstate import LocalOperatorChain, PureState, apply_local_operators, check_odd_n
from .residual_forms import residual_tau

# largest relative error the SLOCC scaling law and LU invariance checks pass
SLOCC_TOL = 1e-9


@dataclass(frozen=True)
class SloccVerdict:
    lhs: float
    rhs: float
    rel_error: float
    passed: bool


def random_local_invertible(n: int, seed: int) -> LocalOperatorChain:
    """n seeded Gaussian 2x2 matrices, resampled until each has |det| >= 0.1
    and condition number <= 20."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    ops = []
    while len(ops) < n:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) >= 0.1 and np.linalg.cond(m) <= 20.0:
            ops.append(m)
    return LocalOperatorChain(ops)


def random_local_unitary(n: int, seed: int) -> LocalOperatorChain:
    """n Haar-ish random 2x2 unitaries (QR of a seeded Gaussian matrix)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(m)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        ops.append(q)
    return LocalOperatorChain(ops)


def verify_slocc_equation(state: PureState, chain: LocalOperatorChain) -> SloccVerdict:
    """Check tau(psi') = tau(psi) * prod_k |det op_k|^2 for psi' = chain(psi),
    passing when the relative error is at most SLOCC_TOL.

    The image is deliberately NOT renormalized: the scaling law is a
    statement about the degree-4 homogeneous polynomial.
    """
    check_odd_n(state.n)
    chain.assert_invertible()
    lhs = residual_tau(apply_local_operators(state, chain))
    rhs = residual_tau(state) * chain.abs_det_sq_product()
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return SloccVerdict(lhs=lhs, rhs=rhs, rel_error=rel, passed=rel <= SLOCC_TOL)


def verify_lu_invariance(state: PureState, chain: LocalOperatorChain) -> SloccVerdict:
    """Check that local unitaries preserve every per-qubit tangle and the
    average.  Reported lhs/rhs are the averages; rel_error is the worst
    deviation across all per-qubit entries and the average, each relative
    to max(1, value), and the check passes when it is at most SLOCC_TOL."""
    if not chain.is_unitary():
        raise ValueError("chain is not unitary within tolerance")
    before = n_tangle(state)
    after = n_tangle(apply_local_operators(state, chain))
    worst = abs(after.average - before.average) / max(
        abs(before.average), abs(after.average), 1.0
    )
    for x, y in zip(before.per_qubit, after.per_qubit):
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1.0))
    return SloccVerdict(
        lhs=after.average, rhs=before.average, rel_error=worst, passed=worst <= SLOCC_TOL
    )

