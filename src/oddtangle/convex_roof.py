"""Convex-roof extension of the odd-n tangle to mixed states.

Every rank-m decomposition of a rank-r density matrix is parametrized by an
m x r isometry V acting on the scaled eigenvectors; V is the polar factor
M (M^H M)^(-1/2) of an unconstrained complex m x r matrix M.  The ensemble
average of the tangle is evaluated for all members and qubits at once
through the 2x2 matrices R_i, whose determinants are the tangles, together
with its exact gradient.  The minimizer runs seeded multi-restart L-BFGS
on that gradient (Roethlisberger, Lehmann & Loss, PRA 80, 042301 (2009)
compute such roofs by gradient descent over the isometry).  The result is
an upper bound on the true roof value, never a certificate of global
optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fast_tangle import epsilon_signs, n_tangle
from .qstate import PureState, check_odd_n

RANK_EIG_CUTOFF = 1e-10
# Hermiticity, trace and eigenvalue slack of a MixedState matrix
DENSITY_TOL = 1e-10
ZERO_WEIGHT_CUTOFF = 1e-12
# restarts stop once the best value is at or below this (the roof is >= 0)
ROOF_ZERO_TOL = 1e-9
# adj [[a, b], [c, d]] = [[d, -b], [-c, a]]: the flipped transpose times these
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
# L-BFGS settings; the stopping tests and the two limits are L-BFGS-B's
# (ftol and gtol as the roof always set them, default maxfun and maxls)
LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
LBFGS_FTOL = 1e-12
LBFGS_GTOL = 1e-8
LBFGS_MAX_EVALUATIONS = 15000
LBFGS_MAX_HALVINGS = 20


class MixedState:
    """Hermitian, PSD, unit-trace matrix on n qubits, with its support: the
    eigenpairs above RANK_EIG_CUTOFF, solved for once, at construction."""

    __slots__ = ("n", "matrix", "_support")

    def __init__(self, n: int, matrix):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        m = np.asarray(matrix, dtype=np.complex128).copy()
        dim = 2**n
        if m.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim} for n={n}, got {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        # a unit-trace PSD matrix has |rho_ij| <= 1; checked first, so the
        # sums below cannot overflow
        if np.max(np.abs(m)) > 1.0 + DENSITY_TOL:
            raise ValueError("matrix entries must have magnitude at most 1")
        if np.max(np.abs(m - m.conj().T)) > DENSITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > DENSITY_TOL or abs(np.trace(m).imag) > DENSITY_TOL:
            raise ValueError("matrix trace must be 1 within tolerance")
        vals, vecs = np.linalg.eigh(m)
        if np.min(vals) < -DENSITY_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        keep = vals > RANK_EIG_CUTOFF
        support = vals[keep], vecs[:, keep]
        for a in (m, *support):
            a.setflags(write=False)
        self.n = n
        self.matrix = m
        self._support = support

    @staticmethod
    def from_ensemble(n: int, members) -> "MixedState":
        """sum_k p_k |psi_k><psi_k| over (weight, PureState) pairs."""
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for p, psi in members:
            rho += p * np.outer(psi.amps, psi.amps.conj())
        return MixedState(n, rho)

    def eigensystem(self):
        """Eigenpairs above the rank cutoff, largest eigenvalue first
        (read-only arrays)."""
        return self._support

    def rank(self) -> int:
        return self._support[0].size


@dataclass(frozen=True)
class RoofResult:
    value: float
    best: tuple  # of (weight, PureState), as decomposition_from_isometry
    restarts_used: int
    converged: bool
    evaluations: int
    restart_log: tuple  # of (start value, final value, status); status 0
    # converged, 1 evaluation limit, 2 line search failed (see _lbfgs)


def _scaled_basis(rho: MixedState) -> np.ndarray:
    """Rows sqrt(lam_j) e_j over the support of rho."""
    vals, vecs = rho.eigensystem()
    return (vecs * np.sqrt(vals)).T


def _scaled_vectors(rho: MixedState, V: np.ndarray) -> np.ndarray:
    """Rows w_i = sum_j V[i,j] sqrt(lam_j) e_j; each w_i is sqrt(p_i) psi_i."""
    scaled = _scaled_basis(rho)
    r = scaled.shape[0]
    V = np.asarray(V, dtype=np.complex128)
    if V.ndim != 2 or V.shape[1] != r or V.shape[0] < r:
        raise ValueError(f"isometry must be m x {r} with m >= {r}, got {V.shape}")
    if np.max(np.abs(V.conj().T @ V - np.eye(r))) > 1e-8:
        raise ValueError("V is not an isometry within tolerance")
    return V @ scaled


def decomposition_from_isometry(rho: MixedState, V: np.ndarray) -> tuple:
    """The (p_i, PureState psi_i) pairs from an m x r isometry over the
    eigenpairs of rho; members below the zero-weight cutoff are dropped."""
    W = _scaled_vectors(rho, V)
    members = []
    for w in W:
        p = float(np.real(np.vdot(w, w)))
        if p < ZERO_WEIGHT_CUTOFF:
            continue
        members.append((p, PureState(rho.n, w / math.sqrt(p))))
    return tuple(members)


def _objective(n: int, W: np.ndarray):
    """sum_k p_k * tau_avg(psi_k) over rows w_k = sqrt(p_k) psi_k, and its
    Wirtinger gradient dF/d(conj W).

    With psi~[y] = (-1)**popcount(y) psi[2**n - 1 - y] (epsilon on every
    qubit), the 2x2 matrix R_i[a, c] = sum_x psi[x, bit i = a] psi~[x, bit
    i = c] equals [[T_i, -P_i], [Q_i, -T_i]], so tau_i = 4|det R_i|; R_i is
    one einsum over the (2**(i-1), 2, 2**(n-i)) view of each row.  det R_i
    is quartic and holomorphic in w, so p * tau(w/sqrt(p)) =
    sum_i 4|det R_i(w)| / p.  For odd n, R_i = S eps^T with S symmetric and
    quadratic in w, so the psi~ half of d det = tr(adj R_i dR_i) equals the
    direct half and d det / dw = 2 adj(R_i) contracted with psi~.  The
    gradient of |det| is taken as 0 where det = 0 (the kink of |f|).  Rows
    below the zero-weight cutoff add nothing.  Agrees with member-wise
    n_tangle sums, and the gradient with central differences
    (tests/test_convex_roof.py::test_objective_matches_member_sums).
    """
    p = np.sum(W.real**2 + W.imag**2, axis=1)
    keep = p >= ZERO_WEIGHT_CUTOFF
    grad = np.zeros_like(W)
    if not np.any(keep):
        return 0.0, grad
    Wk, pk = W[keep], p[keep]
    B = Wk.shape[0]
    Wt = epsilon_signs(n) * Wk[:, ::-1]
    tau = np.zeros(B)
    g = np.zeros_like(Wk)
    for i in range(1, n + 1):
        shape = (B, 1 << (i - 1), 2, 1 << (n - i))
        At = Wt.reshape(shape)
        R = np.einsum("bjak,bjck->bac", Wk.reshape(shape), At)
        det = R[:, 0, 0] * R[:, 1, 1] - R[:, 0, 1] * R[:, 1, 0]
        adj = R[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGNS
        mag = np.abs(det)
        u = det.conj() / np.where(mag > 0, mag, 1.0)
        tau += 4.0 * mag
        # d|det|/d(conj w) = conj(u * d det / dw) / 2
        g += (4.0 * u)[:, None] * np.einsum("bca,bjck->bjak", adj, At).reshape(B, -1)
    grad[keep] = g.conj() / (n * pk)[:, None] - (tau / (n * pk * pk))[:, None] * Wk
    return float(np.sum(tau / (n * pk))), grad


def _polar(x: np.ndarray, m: int, r: int):
    """M from 2mr reals (real parts, then imaginary) and the isometry
    V = M (M^H M)^(-1/2), with the eigenpairs (e, U) of M^H M."""
    M = (x[: m * r] + 1j * x[m * r :]).reshape(m, r)
    e, U = np.linalg.eigh(M.conj().T @ M)
    return M, e, U, M @ ((U / np.sqrt(e)) @ U.conj().T)


def _value_and_grad(x: np.ndarray, n: int, m: int, r: int, scaled: np.ndarray):
    """Roof objective at the polar isometry of x, and its gradient in x.

    ``scaled`` holds the rows sqrt(lam_j) e_j, so the members are V @ scaled.
    The backward pass through (M^H M)^(-1/2) uses the divided differences of
    e^(-1/2), -1 / (sqrt(e_a e_b) (sqrt(e_a) + sqrt(e_b))), which at equal
    eigenvalues is the derivative -e^(-3/2) / 2.
    """
    M, e, U, V = _polar(x, m, r)
    value, gW = _objective(n, V @ scaled)
    gV = gW @ scaled.conj().T  # dF/d(conj V)
    s = np.sqrt(e)
    K = M.conj().T @ gV
    K = U.conj().T @ (K + K.conj().T) @ U / 2.0
    C = U @ (K * (-1.0 / (np.outer(s, s) * np.add.outer(s, s)))) @ U.conj().T
    gM = gV @ ((U / s) @ U.conj().T) + 2.0 * M @ C
    return value, 2.0 * np.concatenate([gM.real.reshape(-1), gM.imag.reshape(-1)])


def _lbfgs(fun, x: np.ndarray):
    """Minimize fun, which returns (value, gradient), by L-BFGS from x.

    Two-loop recursion over the last LBFGS_MEMORY curvature pairs (pairs
    with s.y <= 0 are skipped), scaled by s.y / y.y of the newest pair, or
    by min(1, 1/max|g|) before there is one; Armijo backtracking from step
    1, halving the step.  Returns (x, start value, value, status,
    evaluations): status 0 when max|g| <= LBFGS_GTOL or the relative
    decrease (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= LBFGS_FTOL, 1 when
    LBFGS_MAX_EVALUATIONS calls are used up, 2 when the line search finds
    no decrease in LBFGS_MAX_HALVINGS halvings or the direction is not a
    descent direction.  ``evaluations`` counts every call of fun, the
    start point's first.  Only accepted points are returned, so the value
    never exceeds the start value.
    """
    f, g = fun(x)
    start, evaluations = f, 1
    pairs = []  # (s, y, 1 / s.y), oldest first
    while np.max(np.abs(g)) > LBFGS_GTOL:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        else:
            d = d * min(1.0, 1.0 / np.max(np.abs(g)))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = g @ d
        if not slope < 0:
            return x, start, f, 2, evaluations
        step = 1.0
        for _ in range(LBFGS_MAX_HALVINGS):
            if evaluations >= LBFGS_MAX_EVALUATIONS:
                return x, start, f, 1, evaluations
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            evaluations += 1
            if f_new <= f + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            return x, start, f, 2, evaluations
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-LBFGS_MEMORY]
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= LBFGS_FTOL:
            break
    return x, start, f, 0, evaluations


def convex_roof_tangle(rho: MixedState, *, restarts: int = 32, seed: int = 0) -> RoofResult:
    """Minimize the ensemble-averaged tangle over the decompositions of rho
    into m = r + 2 members, r the rank of rho.

    The eigendecomposition, which rho holds from its construction, is
    evaluated first as a candidate.  Then each of ``restarts`` restarts
    runs ``_lbfgs`` with the exact gradient from
    ``rng.standard_normal(2*m*r)`` (rng seeded by ``seed``), over the polar
    isometry of those parameters: L-BFGS with memory 10 and Armijo
    backtracking, until its convergence tests (ftol 1e-12, gtol 1e-8) or
    its limits (15000 evaluations, 20 step halvings) stop it.  Returns an
    upper bound on the roof value: the best of the candidate and every
    local minimum found.  ``restarts=0`` evaluates the candidate alone;
    a negative count raises ValueError.  ``converged`` is True when the
    restart with the lowest final value ended with status 0 (a convergence
    test met), and False when no restart ran; it does not mean that the
    bound is globally optimal.  Restarts stop early once the value drops
    to ROOF_ZERO_TOL = 1e-9 or below (the objective cannot go negative).
    ``evaluations`` counts objective-and-gradient calls: the candidate
    once, plus the calls each restart's ``_lbfgs`` reports, its start point
    included; ``restart_log`` holds (start value, final value, status) per
    restart, with status 0 converged, 1 evaluation limit and 2 line search
    failed.
    """
    check_odd_n(rho.n)
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    scaled = _scaled_basis(rho)
    r = scaled.shape[0]
    m = r + 2
    # built on the first restart: importing numpy.random costs memory
    rng = None

    def f_and_grad(x: np.ndarray):
        return _value_and_grad(x, rho.n, m, r, scaled)

    # the eigendecomposition (identity isometry) is always a candidate, so
    # the result can never be worse than it; it is a stationary point for
    # GHZ/W mixtures, so no local search starts there
    best_x = np.concatenate([np.eye(m, r).reshape(-1), np.zeros(m * r)])
    best_value = f_and_grad(best_x)[0]
    evaluations = 1
    log = []
    for _ in range(restarts):
        if best_value <= ROOF_ZERO_TOL:
            break
        if rng is None:
            rng = np.random.default_rng(seed)
        x, start, value, status, used = _lbfgs(f_and_grad, rng.standard_normal(2 * m * r))
        evaluations += used
        log.append((start, value, status))
        if value < best_value:
            best_value, best_x = value, x
    best = decomposition_from_isometry(rho, _polar(best_x, m, r)[3])
    # report the value recomputed from the returned decomposition so the
    # two stay consistent to the last bit
    value = float(sum(p * n_tangle(psi).average for p, psi in best))
    return RoofResult(
        value=value,
        best=best,
        restarts_used=len(log),
        converged=bool(log) and min(log, key=lambda entry: entry[1])[2] == 0,
        evaluations=evaluations,
        restart_log=tuple(log),
    )
