from functools import reduce

import numpy as np
import pytest

import oddtangle.convex_roof
from oddtangle.convex_roof import (
    MixedState,
    _lbfgs,
    _objective,
    _value_and_grad,
    convex_roof_tangle,
    decomposition_from_isometry,
)
from oddtangle.fast_tangle import n_tangle
from oddtangle.io import load_density, save_density
from oddtangle.qstate import PureState, apply_local_operators
from oddtangle.slocc_ops import random_local_unitary
from oddtangle.stategen import basis_product, ghz, random_pure, w


def _pure_density(state):
    return MixedState.from_ensemble(state.n, [(1.0, state)])


def test_mixed_state_validation():
    with pytest.raises(ValueError):
        MixedState(1, np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        MixedState(1, np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        MixedState(1, np.diag([1.5, -0.5]))  # entry above 1
    with pytest.raises(ValueError, match="negative eigenvalue"):
        MixedState(1, np.array([[0.5, 0.9], [0.9, 0.5]]))  # eigenvalues 1.4, -0.4
    with pytest.raises(ValueError):
        MixedState(2, np.eye(2) / 2.0)  # wrong dimension


def test_from_ensemble_and_rank():
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    assert rho.rank() == 2
    vals, vecs = rho.eigensystem()
    assert vals.shape == (2,)
    assert abs(np.sum(vals) - 1.0) < 1e-12


def test_decomposition_from_isometry_reconstructs():
    rho = MixedState.from_ensemble(3, [(0.3, ghz(3)), (0.7, w(3))])
    r = rho.rank()
    m = r + 2
    rng = np.random.default_rng(1)
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    V, _ = np.linalg.qr(g)
    dec = decomposition_from_isometry(rho, V)
    weights = [p for p, _ in dec]
    assert abs(sum(weights) - 1.0) < 1e-10
    np.testing.assert_allclose(MixedState.from_ensemble(3, dec).matrix, rho.matrix, atol=1e-10)


def test_eigensystem_is_read_only():
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    for a in rho.eigensystem():
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_roof_solves_the_density_eigenproblem_once(monkeypatch, tmp_path):
    path = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), path)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        inner = getattr(np.linalg, name)

        def recorded(a, *args, inner=inner, **kwargs):
            shapes.append(np.shape(a))
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    convex_roof_tangle(load_density(path), restarts=4, seed=0)
    assert shapes.count((8, 8)) == 1


def test_roof_takes_restarts_and_seed_by_keyword_only():
    rho = MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))])
    with pytest.raises(TypeError):
        convex_roof_tangle(rho, 4)


def test_isometry_shape_rejected():
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    with pytest.raises(ValueError):
        decomposition_from_isometry(rho, np.eye(1, 2))
    with pytest.raises(ValueError):
        decomposition_from_isometry(rho, np.ones((3, 2)))  # not an isometry


def test_roof_rejects_even_n():
    with pytest.raises(ValueError):
        convex_roof_tangle(MixedState(2, np.eye(4) / 4.0))


def test_roof_pure_ghz_is_one():
    result = convex_roof_tangle(_pure_density(ghz(3)), restarts=4, seed=0)
    assert result.value == pytest.approx(1.0, abs=1e-6)
    # every member of any decomposition of a pure state is the state itself
    # (up to phase), so each must carry the full tangle
    for p, psi in result.best:
        assert n_tangle(psi).average == pytest.approx(1.0, abs=1e-6)
    assert sum(p for p, _ in result.best) == pytest.approx(1.0, abs=1e-10)


def test_roof_pure_w_is_zero():
    result = convex_roof_tangle(_pure_density(w(3)), restarts=2, seed=0)
    assert result.value <= 1e-9


def test_roof_basis_mixture_is_zero():
    # mixture of two product kets: every member of the eigendecomposition
    # is already tangle-free, so the identity start nails it immediately
    rho = MixedState.from_ensemble(
        3, [(0.5, basis_product(3, (0, 0, 0))), (0.5, basis_product(3, (1, 1, 1)))]
    )
    result = convex_roof_tangle(rho, restarts=1, seed=0)
    assert result.value <= 1e-10


def test_roof_ghz_w_half_mixture_vanishes():
    # the equal GHZ/W mixture admits a tangle-free decomposition
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    result = convex_roof_tangle(rho, seed=0)
    assert result.value <= 1e-8


def test_roof_is_upper_bounded_by_any_ensemble():
    # the minimizer can never report more than the preparing ensemble's average
    members = [(0.4, random_pure(3, seed=1)), (0.6, random_pure(3, seed=2))]
    rho = MixedState.from_ensemble(3, members)
    prepared = sum(p * n_tangle(s).average for p, s in members)
    result = convex_roof_tangle(rho, restarts=8, seed=0)
    assert result.value <= prepared + 1e-9


def test_roof_never_beats_eigendecomposition_start():
    from oddtangle.qstate import PureState

    rho = MixedState.from_ensemble(3, [(0.7, ghz(3)), (0.3, random_pure(3, seed=5))])
    vals, vecs = rho.eigensystem()
    eig_avg = sum(
        float(p) * n_tangle(PureState(3, vecs[:, j])).average
        for j, p in enumerate(vals)
    )
    result = convex_roof_tangle(rho, restarts=4, seed=0)
    assert result.value <= eig_avg + 1e-9


def test_roof_seed_reproducibility():
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    a = convex_roof_tangle(rho, restarts=4, seed=3)
    b = convex_roof_tangle(rho, restarts=4, seed=3)
    assert a.value == b.value
    assert a.restarts_used == b.restarts_used


def test_roof_value_matches_best_decomposition():
    rho = MixedState.from_ensemble(3, [(0.6, ghz(3)), (0.4, w(3))])
    result = convex_roof_tangle(rho, restarts=4, seed=0)
    recomputed = sum(p * n_tangle(s).average for p, s in result.best)
    assert result.value == pytest.approx(recomputed, abs=1e-12)
    np.testing.assert_allclose(
        MixedState.from_ensemble(3, result.best).matrix, rho.matrix, atol=1e-8
    )


@pytest.mark.parametrize("restarts", [-1, -3])
def test_negative_restarts_rejected(restarts):
    rho = MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))])
    with pytest.raises(ValueError, match="restarts"):
        convex_roof_tangle(rho, restarts=restarts)


def test_zero_restarts_returns_the_eigendecomposition():
    rho = MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))])
    vals, vecs = rho.eigensystem()
    eig_avg = sum(
        float(p) * n_tangle(PureState(3, vecs[:, j])).average for j, p in enumerate(vals)
    )
    result = convex_roof_tangle(rho, restarts=0)
    assert (result.restarts_used, result.restart_log, result.converged) == (0, (), False)
    assert result.evaluations == 1
    assert result.value == pytest.approx(eig_avg, abs=1e-12)


def _counted(fun):
    calls = []

    def counted(x):
        calls.append(1)
        return fun(x)

    return counted, calls


def test_lbfgs_minimizes_a_convex_quadratic():
    # as many parameters as an n=3 rank-2 roof (2 * m * r with m = 4, r = 2);
    # the ftol test stops once f falls by <= 1e-12, so the curvature (>= 1e4)
    # is set where that decrease means an error below 1e-8 in x
    rng = np.random.default_rng(0)
    k = 16
    Q = rng.standard_normal((k, k))
    A = 1e4 * (Q.T @ Q / k + np.eye(k))
    c = rng.standard_normal(k)

    def fun(x):
        return 0.5 * (x - c) @ A @ (x - c), A @ (x - c)

    x0 = rng.standard_normal(k)
    counted, calls = _counted(fun)
    x, start, value, status, evaluations = _lbfgs(counted, x0)
    assert status == 0
    np.testing.assert_allclose(x, c, rtol=0, atol=1e-8)
    assert value == fun(x)[0]
    assert start == fun(x0)[0]
    assert evaluations == len(calls)


def test_lbfgs_reports_its_limits():
    def unbounded(x):  # every step is accepted and f never stops falling
        return float(np.sum(x)), np.ones_like(x)

    x0 = np.zeros(4)
    counted, calls = _counted(unbounded)
    x, start, value, status, evaluations = _lbfgs(counted, x0)
    assert (status, len(calls)) == (1, oddtangle.convex_roof.LBFGS_MAX_EVALUATIONS)
    assert evaluations == len(calls)
    assert start == unbounded(x0)[0]
    assert value == np.sum(x) < 0

    def wrong_gradient(x):  # the direction ascends, so no step is accepted
        return float(x @ x), -x

    x0 = np.ones(4)
    counted, calls = _counted(wrong_gradient)
    x, start, value, status, evaluations = _lbfgs(counted, x0)
    assert status == 2
    assert evaluations == len(calls)
    assert start == wrong_gradient(x0)[0]
    assert value == 4.0 and np.array_equal(x, x0)


def _central_differences(f, x, h=1e-6):
    steps = np.eye(x.size) * h
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in steps])


@pytest.mark.parametrize("n", [3, 5])
def test_objective_matches_member_sums(n):
    rng = np.random.default_rng(n)
    W = rng.standard_normal((4, 2**n)) + 1j * rng.standard_normal((4, 2**n))
    W[2] = 0.0  # a zero-weight member adds nothing
    value, grad = _objective(n, W)
    ref = 0.0
    for w_k in W[[0, 1, 3]]:
        p = np.vdot(w_k, w_k).real
        ref += p * n_tangle(PureState(n, w_k / np.sqrt(p))).average
    assert value == pytest.approx(ref, rel=1e-12)

    # dF/d(re w) = 2 Re(dF/d(conj w)), dF/d(im w) = 2 Im(dF/d(conj w))
    def f(y):
        return _objective(n, (y[: W.size] + 1j * y[W.size :]).reshape(W.shape))[0]

    y = np.concatenate([W.real.ravel(), W.imag.ravel()])
    analytic = 2.0 * np.concatenate([grad.real.ravel(), grad.imag.ravel()])
    np.testing.assert_allclose(analytic, _central_differences(f, y), rtol=0, atol=1e-6)

    # the same through the polar isometry, at a random point and at the
    # identity (equal eigenvalues of M^H M)
    rho = MixedState.from_ensemble(
        n, [(0.4, random_pure(n, seed=1)), (0.6, random_pure(n, seed=2))]
    )
    vals, vecs = rho.eigensystem()
    scaled = (vecs * np.sqrt(vals)).T
    m, r = 4, 2
    eye = np.concatenate([np.eye(m, r).ravel(), np.zeros(m * r)])
    for x in (rng.standard_normal(2 * m * r), eye):
        _, analytic = _value_and_grad(x, n, m, r, scaled)
        numeric = _central_differences(lambda z: _value_and_grad(z, n, m, r, scaled)[0], x)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)


def _ghz_w_roof(p):
    """Closed-form roof of p|GHZ><GHZ| + (1-p)|W><W| for n=3: Lohmayer,
    Osterloh, Siewert & Uhlmann, PRL 97, 260502 (2006)."""
    p0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
    p1 = 0.5 + 3 * np.sqrt(465) / 310
    if p <= p0:
        return 0.0
    if p <= p1:
        return p**2 - 8 * np.sqrt(6) / 9 * np.sqrt(p * (1 - p) ** 3)
    return 1 - (1 - p) * (1.5 + np.sqrt(465) / 18)


@pytest.mark.parametrize("p, exact", [(0.6, 0.0), (0.7, 0.1906674), (0.9, 0.7302008)])
def test_roof_matches_ghz_w_closed_form(p, exact):
    roof = _ghz_w_roof(p)
    assert roof == pytest.approx(exact, abs=1e-7)
    rho = MixedState.from_ensemble(3, [(p, ghz(3)), (1 - p, w(3))])
    value = convex_roof_tangle(rho, seed=0).value
    assert value >= roof - 1e-9  # lower would mean a wrong objective
    assert value <= roof + 1e-6  # optimizer quality


@pytest.mark.parametrize("p", [0.5, 0.6, 0.68, 0.8, 0.9])
def test_roof_restart_statuses_on_the_ghz_w_line(p):
    rho = MixedState.from_ensemble(3, [(p, ghz(3)), (1 - p, w(3))])
    result = convex_roof_tangle(rho, restarts=4, seed=0)
    assert {status for _, _, status in result.restart_log} <= {0, 1, 2}
    assert result.value >= _ghz_w_roof(p) - 1e-9


# n=5 and n=7 lifts: every state in the range of rho3 (x) |phi><phi| is a
# product, so roof = (3/n) tau_W(phi) roof3; with the roles swapped,
# roof(|psi3><psi3| (x) sigma) = (3/5) tau(psi3) C(sigma)^2.  Each is taken in
# the random local-unitary frame random_local_unitary(n, seed=11), which
# leaves the roof unchanged.
_BELL = PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def _lifted(members):
    """sum_k p_k |chi_k><chi_k| for chi_k = LU (psi_k (x) phi_k (x) ...),
    members given as (p_k, psi_k, phi_k, ...) and LU the frame on all n
    qubits."""
    n = sum(f.n for f in members[0][1:])
    frame = random_local_unitary(n, seed=11)
    chis = [
        (p, apply_local_operators(PureState(n, reduce(np.kron, [f.amps for f in fs])), frame))
        for p, *fs in members
    ]
    return MixedState.from_ensemble(n, chis)


@pytest.mark.parametrize("bells", [1, 2])
@pytest.mark.parametrize("p", [0.5, 0.6, 0.68, 0.8, 0.9])
def test_roof_ghz_w_times_bell_is_above_its_closed_form(p, bells):
    rho = _lifted([(p, ghz(3)) + (_BELL,) * bells, (1 - p, w(3)) + (_BELL,) * bells])
    value = convex_roof_tangle(rho, restarts=4, seed=0).value
    n = 3 + 2 * bells
    assert value >= 3 / n * _ghz_w_roof(p) - 1e-9  # lower would mean a wrong objective


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.7, 0.9])
def test_roof_ghz_times_werner_matches_its_closed_form(p, seed):
    # Werner(p) = p |Bell><Bell| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    basis = [basis_product(2, bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    rho = _lifted([(p, ghz(3), _BELL)] + [((1 - p) / 4, ghz(3), b) for b in basis])
    value = convex_roof_tangle(rho, restarts=4, seed=seed).value
    assert abs(value - 0.6 * max(0.0, (3 * p - 1) / 2) ** 2) <= 1e-9


def test_roof_counts_every_evaluation(monkeypatch):
    calls = []
    inner = oddtangle.convex_roof._value_and_grad

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(oddtangle.convex_roof, "_value_and_grad", counted)
    rho = MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))])
    result = convex_roof_tangle(rho, restarts=3, seed=0)
    assert result.evaluations == len(calls)
    assert len(result.restart_log) == result.restarts_used == 3
    assert all(final <= start for start, final, _ in result.restart_log)
    assert min(final for _, final, _ in result.restart_log) == pytest.approx(
        result.value, abs=1e-12
    )


def test_roof_evaluates_no_point_twice(monkeypatch):
    points = []
    inner = oddtangle.convex_roof._value_and_grad

    def recorded(x, *args):
        points.append(x.tobytes())
        return inner(x, *args)

    monkeypatch.setattr(oddtangle.convex_roof, "_value_and_grad", recorded)
    rho = MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))])
    result = convex_roof_tangle(rho, restarts=3, seed=0)
    assert result.restarts_used == 3 and result.evaluations == len(points)
    assert len(points) - len(set(points)) == 0  # points evaluated more than once


@pytest.mark.parametrize("seed", range(6))
def test_converged_reads_the_best_restart(seed):
    # every decomposition of a pure density has the same value, so the
    # restarts tie with the eigendecomposition up to the last bit; converged
    # must follow the lowest restart's status, not that rounding
    result = convex_roof_tangle(_pure_density(random_pure(3, seed=seed)), restarts=4, seed=seed)
    best = min(result.restart_log, key=lambda entry: entry[1])
    assert best[2] == 0
    assert result.converged


def test_converged_is_false_without_restarts():
    rho = MixedState.from_ensemble(
        3, [(0.5, basis_product(3, (0, 0, 0))), (0.5, basis_product(3, (1, 1, 1)))]
    )
    result = convex_roof_tangle(rho, restarts=4, seed=0)
    assert result.restart_log == ()
    assert not result.converged


def test_roof_runs_to_convergence():
    # n=5 rank 4: the local searches need several hundred iterations
    weights = np.random.default_rng(0).dirichlet(np.ones(4))
    rho = MixedState.from_ensemble(
        5, [(p, random_pure(5, seed=k)) for k, p in enumerate(weights)]
    )
    result = convex_roof_tangle(rho, restarts=2, seed=0)
    assert [status for _, _, status in result.restart_log] == [0, 0]
    assert result.converged
