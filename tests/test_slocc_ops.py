import numpy as np
import pytest

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
