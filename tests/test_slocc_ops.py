import os
import subprocess
import sys

import numpy as np
import pytest

import oddtangle
from oddtangle.qstate import LocalOperatorChain, apply_local_operators
from oddtangle.residual_forms import residual_tau
from oddtangle.slocc_ops import (
    random_local_invertible,
    random_local_unitary,
    verify_lu_invariance,
    verify_slocc_equation,
)
from oddtangle.stategen import ghz, random_pure


def test_random_invertible_deterministic():
    a = random_local_invertible(4, seed=7)
    b = random_local_invertible(4, seed=7)
    for x, y in zip(a.ops, b.ops):
        np.testing.assert_array_equal(x, y)


def test_random_invertible_constraints():
    for seed in range(10):
        chain = random_local_invertible(3, seed=seed)
        for op in chain.ops:
            assert abs(np.linalg.det(op)) >= 0.1
            assert np.linalg.cond(op) <= 20.0


def test_random_unitary_is_unitary():
    for seed in range(5):
        assert random_local_unitary(5, seed=seed).is_unitary()


def test_random_invertible_draws_what_det_and_cond_accept():
    # the closed-form test ||m||_F^2 <= 20.05 |det m| is cond m <= 20
    def reference(n, seed):
        rng = np.random.default_rng(seed)
        ops = []
        while len(ops) < n:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) >= 0.1 and np.linalg.cond(m) <= 20.0:
                ops.append(m)
        return ops

    for seed in range(2000):
        chain = random_local_invertible(7, seed=seed)
        for x, y in zip(chain.ops, reference(7, seed), strict=True):
            np.testing.assert_array_equal(x, y)


def test_random_unitary_is_the_qr_factor_with_positive_r_diagonal():
    for seed in range(200):
        chain = random_local_unitary(7, seed=seed)
        rng = np.random.default_rng(seed)
        for op in chain.ops:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(m)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            assert np.max(np.abs(op - q)) <= 5e-14
            assert np.max(np.abs(op.conj().T @ op - np.eye(2))) <= 1e-15


def test_dets_match_lapack():
    for seed in range(50):
        chain = random_local_invertible(7, seed=seed)
        np.testing.assert_allclose(
            chain.dets(), [np.linalg.det(m) for m in chain.ops], rtol=1e-14, atol=0
        )


def test_is_unitary_rejects_a_small_deviation():
    u = random_local_unitary(3, seed=1).ops
    assert LocalOperatorChain(u).is_unitary()
    for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
        bumped = u[0].copy()
        bumped[entry] += 1e-9
        assert not LocalOperatorChain([bumped, *u[1:]]).is_unitary()


def test_apply_local_operators_matches_tensordot():
    for n in (3, 5, 7):
        state = random_pure(n, seed=n)
        chain = random_local_invertible(n, seed=n + 1)
        psi = state.amps.reshape((2,) * n)
        for k, op in enumerate(chain.ops):
            psi = np.moveaxis(np.tensordot(op, psi, axes=([1], [k])), 0, k)
        image = apply_local_operators(state, chain).amps
        scale = np.max(np.abs(psi))
        np.testing.assert_allclose(image, psi.reshape(-1), rtol=0, atol=1e-14 * scale)


def test_slocc_checks_run_without_blas_or_lapack():
    src = os.path.dirname(os.path.dirname(oddtangle.__file__))
    script = """
import sys
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("BLAS or LAPACK called")

for name in ("det", "cond", "qr", "svd", "eigh", "inv", "norm"):
    setattr(np.linalg, name, refuse)
for name in ("tensordot", "dot", "vdot", "einsum"):
    setattr(np, name, refuse)
from oddtangle.cli import main
for argv in (["verify-all", "--seed", "0"],
             ["slocc-check", "--n", "5", "--trials", "3"],
             ["slocc-check", "--n", "5", "--trials", "3", "--unitary"]):
    code = main(argv)
    if code:
        sys.exit(code)
"""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 11 and "FAIL" not in proc.stdout


def test_slocc_diag_example_ghz3():
    # diag(2,1) on qubit 1 of GHZ maps tau=1 to tau=|det|^2 = 4 (unnormalized)
    chain = LocalOperatorChain([np.diag([2.0, 1.0]), np.eye(2), np.eye(2)])
    image = apply_local_operators(ghz(3), chain)
    assert residual_tau(image) == pytest.approx(4.0, rel=1e-12)
    verdict = verify_slocc_equation(ghz(3), chain)
    assert verdict.passed
    assert verdict.lhs == pytest.approx(4.0, rel=1e-12)


def test_slocc_equation_random():
    for n in (3, 5, 7):
        for seed in range(5):
            s = random_pure(n, seed=seed)
            chain = random_local_invertible(n, seed=100 + seed)
            verdict = verify_slocc_equation(s, chain)
            assert verdict.passed, verdict
            assert verdict.rel_error <= 1e-9


def test_special_linear_preserves_tangle():
    # det = 1 on every qubit leaves the tangle of the image unchanged
    rng = np.random.default_rng(3)
    ops = []
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops.append(m / np.sqrt(np.linalg.det(m)))
    chain = LocalOperatorChain(ops)
    s = random_pure(5, seed=12)
    image = apply_local_operators(s, chain)
    assert residual_tau(image) == pytest.approx(residual_tau(s), rel=1e-9)


def test_lu_invariance():
    for n in (3, 5):
        for seed in range(5):
            s = random_pure(n, seed=seed)
            chain = random_local_unitary(n, seed=50 + seed)
            verdict = verify_lu_invariance(s, chain)
            assert verdict.passed, verdict
            assert verdict.rel_error <= 1e-9


def test_lu_invariance_rejects_nonunitary():
    with pytest.raises(ValueError):
        verify_lu_invariance(ghz(3), random_local_invertible(3, seed=0))


def test_slocc_equation_rejects_singular_chain():
    chain = LocalOperatorChain(
        [np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2), np.eye(2)]
    )
    with pytest.raises(ValueError):
        verify_slocc_equation(ghz(3), chain)
