"""Convex-roof extension of the odd-n tangle to mixed states.

Every rank-m decomposition of a rank-r density matrix is parametrized by an
m x r isometry V acting on the scaled eigenvectors.  The minimizer runs
seeded multi-restart derivative-free local search over a QR parametrization
of V; the result is an upper bound on the true roof value, never a
certificate of global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fast_tangle import _terms, n_tangle
from .qstate import PureState

RANK_EIG_CUTOFF = 1e-10
ZERO_WEIGHT_CUTOFF = 1e-12


class MixedState:
    """Hermitian, PSD, unit-trace matrix on n qubits."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix, tol: float = 1e-10):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        m = np.asarray(matrix, dtype=np.complex128).copy()
        dim = 2**n
        if m.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim} for n={n}, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
            raise ValueError("matrix trace must be 1 within tolerance")
        if np.min(np.linalg.eigvalsh(m)) < -tol:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        self.n = n
        self.matrix = m

    @staticmethod
    def from_ensemble(n: int, members) -> "MixedState":
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for p, psi in members:
            v = psi.amps if isinstance(psi, PureState) else np.asarray(psi)
            rho += p * np.outer(v, v.conj())
        return MixedState(n, rho)

    def eigensystem(self):
        """Eigenpairs above the rank cutoff, largest eigenvalue first."""
        vals, vecs = np.linalg.eigh(self.matrix)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        keep = vals > RANK_EIG_CUTOFF
        return vals[keep], vecs[:, keep]

    def rank(self) -> int:
        return int(np.sum(np.linalg.eigvalsh(self.matrix) > RANK_EIG_CUTOFF))


@dataclass(frozen=True)
class Decomposition:
    members: tuple  # of (weight, PureState)

    def ensemble_average(self, measure) -> float:
        return float(sum(p * measure(psi) for p, psi in self.members))

    def reconstruction(self, n: int) -> np.ndarray:
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for p, psi in self.members:
            rho += p * np.outer(psi.amps, psi.amps.conj())
        return rho


@dataclass(frozen=True)
class RoofResult:
    value: float
    best: Decomposition
    restarts_used: int
    converged: bool


def _scaled_vectors(rho: MixedState, V: np.ndarray) -> np.ndarray:
    """Rows w_i = sum_j V[i,j] sqrt(lam_j) e_j; each w_i is sqrt(p_i) psi_i."""
    vals, vecs = rho.eigensystem()
    r = vals.size
    V = np.asarray(V, dtype=np.complex128)
    if V.ndim != 2 or V.shape[1] != r or V.shape[0] < r:
        raise ValueError(f"isometry must be m x {r} with m >= {r}, got {V.shape}")
    if np.max(np.abs(V.conj().T @ V - np.eye(r))) > 1e-8:
        raise ValueError("V is not an isometry within tolerance")
    return V @ (vecs * np.sqrt(vals)).T


def decomposition_from_isometry(rho: MixedState, V: np.ndarray) -> Decomposition:
    """Decomposition {(p_i, psi_i)} from an m x r isometry over the
    eigenpairs of rho; members below the zero-weight cutoff are dropped."""
    W = _scaled_vectors(rho, V)
    members = []
    for w in W:
        p = float(np.real(np.vdot(w, w)))
        if p < ZERO_WEIGHT_CUTOFF:
            continue
        members.append((p, PureState(rho.n, w / math.sqrt(p))))
    return Decomposition(tuple(members))


def _swap_bits(idx: np.ndarray, n: int, i: int) -> np.ndarray:
    """Indices with the bits of qubit 1 and qubit i exchanged."""
    hi, lo = n - 1, n - i
    diff = ((idx >> hi) ^ (idx >> lo)) & 1
    return idx ^ ((diff << hi) | (diff << lo))


@lru_cache(maxsize=None)
def _roof_tables(n: int):
    """Combined gather/combine tables for the vectorized roof objective.

    One gathered product array W[:, L] * W[:, R] followed by a single
    matmul with C yields (T_i, P_i, Q_i) for every qubit i at once; the
    epsilon signs and the factor 2 of P and Q are folded into C.
    """
    left, right, weight = _terms(n)
    half = 1 << (n - 1)
    block = np.repeat([0, 1, 2], [half, half >> 1, half >> 1])
    L = np.concatenate([_swap_bits(left, n, i) for i in range(1, n + 1)])
    R = np.concatenate([_swap_bits(right, n, i) for i in range(1, n + 1)])
    cols = np.concatenate([3 * i + block for i in range(n)])
    C = np.zeros((L.size, 3 * n))
    C[np.arange(L.size), cols] = np.tile(weight, n)
    return L, R, C


def _objective(rho: MixedState, W: np.ndarray) -> float:
    """sum_i p_i * tau_avg(psi_i) with rows w_i = sqrt(p_i) psi_i.

    Vectorized over ensemble members; the tangle is degree-4 homogeneous, so
    p * tau(w/sqrt(p)) = tau_raw(w)/p.  Agrees with summing the public
    n_tangle averages member by member (tested).
    """
    n = rho.n
    left, right, C = _roof_tables(n)
    p = np.real(np.sum(W * W.conj(), axis=1))
    keep = p >= ZERO_WEIGHT_CUTOFF
    if not np.any(keep):
        return 0.0
    Wk = W[keep]
    tpq = (Wk[:, left] * Wk[:, right]) @ C  # members x (T_i, P_i, Q_i)
    T, P, Q = tpq[:, 0::3], tpq[:, 1::3], tpq[:, 2::3]
    tau_sum = np.sum(4.0 * np.abs(T * T - P * Q), axis=1)
    return float(np.sum(tau_sum / (n * p[keep])))


def _random_isometry(rng, m: int, r: int) -> np.ndarray:
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    q, rr = np.linalg.qr(g)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def _isometry_from_params(x: np.ndarray, m: int, r: int) -> np.ndarray:
    """Unconstrained 2mr real parameters -> m x r isometry via QR.

    The R-diagonal phases are absorbed into Q so the map is insensitive to
    column scaling of the parameter matrix.
    """
    M = (x[: m * r] + 1j * x[m * r :]).reshape(m, r)
    q, rr = np.linalg.qr(M)
    d = np.diag(rr)
    d = np.where(np.abs(d) > 1e-300, d / np.abs(d), 1.0)
    return q * d


def convex_roof_tangle(
    rho: MixedState,
    m_max: int | None = None,
    restarts: int = 32,
    seed: int = 0,
    tol: float = 1e-9,
    maxiter: int = 200,
) -> RoofResult:
    """Minimize the ensemble-averaged tangle over decompositions of rho.

    Multi-restart derivative-free local minimization (Powell) over the
    isometry parametrizing the decomposition.  Returns an upper bound on
    the roof value: the best decomposition found across all restarts and
    every candidate evaluated along the way.  ``converged`` means the best
    restart's local search terminated by its own convergence test, not that
    the bound is globally optimal.  Restarts stop early once the value
    drops to ``tol`` or below (the objective cannot go negative).
    """
    from scipy.optimize import minimize

    if rho.n % 2 == 0 or rho.n < 3:
        raise ValueError(f"roof needs odd n >= 3, got n={rho.n}")
    vals, vecs = rho.eigensystem()
    r = vals.size
    m = m_max if m_max is not None else r + 2
    if m < r:
        raise ValueError(f"m_max={m} below rank {r}")
    rng = np.random.default_rng(seed)
    scaled = vecs * np.sqrt(vals)  # columns sqrt(lam_j) e_j

    def obj_of_V(V: np.ndarray) -> float:
        return _objective(rho, V @ scaled.T)

    def f(x: np.ndarray) -> float:
        return obj_of_V(_isometry_from_params(x, m, r))

    # identity start first: the eigendecomposition itself is always a
    # candidate, so the result can never be worse than it
    eye_params = np.concatenate(
        [np.eye(m, r).reshape(-1), np.zeros(m * r)]
    )
    best_value = math.inf
    best_V = np.eye(m, r, dtype=np.complex128)
    converged = False
    restarts_used = 0
    for restart in range(max(restarts, 1)):
        x0 = eye_params if restart == 0 else rng.standard_normal(2 * m * r)
        start_val = f(x0)
        if start_val < best_value:
            best_value = start_val
            best_V = _isometry_from_params(x0, m, r)
        res = minimize(
            f,
            x0,
            method="Powell",
            options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": maxiter},
        )
        restarts_used = restart + 1
        if res.fun < best_value:
            best_value = float(res.fun)
            best_V = _isometry_from_params(res.x, m, r)
            converged = bool(res.success)
        if best_value <= tol:
            break
    best = decomposition_from_isometry(rho, best_V)
    # report the value recomputed from the returned decomposition so the
    # two stay consistent to the last bit
    value = best.ensemble_average(lambda psi: n_tangle(psi).average)
    return RoofResult(
        value=value,
        best=best,
        restarts_used=restarts_used,
        converged=converged,
    )
