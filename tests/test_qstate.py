import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtangle.qstate import (
    LocalOperatorChain,
    PureState,
    QubitPermutation,
    apply_local_operators,
    check_odd_n,
    check_qubit_index,
    index_of_bits,
    permute_qubits,
)
from oddtangle.stategen import basis_product, ghz, random_pure

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_index_of_bits_examples():
    assert index_of_bits((0, 0, 1)) == 1
    assert index_of_bits((1, 0, 0)) == 4
    assert index_of_bits((1, 1, 1, 1, 1)) == 31


def test_index_of_bits_rejects_non_bits():
    with pytest.raises(ValueError):
        index_of_bits((0, 2, 0))


@given(st.integers(min_value=1, max_value=10), st.data())
def test_bits_index_roundtrip(n, data):
    idx = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    bits = tuple((idx >> (n - k)) & 1 for k in range(1, n + 1))
    assert index_of_bits(bits) == idx


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        PureState(1, [0.0, 0.0])  # zero norm
    with pytest.raises(ValueError):
        PureState(1, [np.nan, 1.0])


def test_pure_state_unnormalized_accepted():
    s = PureState(1, [3.0, 4.0])
    assert not s.is_normalized(1e-9)
    assert abs(s.squared_norm() - 25.0) < 1e-14
    assert PureState(1, [0.6, 0.8]).is_normalized(1e-14)


def test_pure_state_copies_a_non_contiguous_view_once():
    n = 17
    base = random_pure(n, seed=2).amps.reshape((2,) * n)
    view = base.transpose(list(range(n))[::-1])
    assert not view.flags.c_contiguous
    tracemalloc.start()
    try:
        s = PureState(n, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the copy itself is 16 * 2**n bytes; a second copy would reach 2x
    assert peak < 1.75 * 16 * 2**n
    assert not np.shares_memory(s.amps, base)
    assert not s.amps.flags.writeable
    np.testing.assert_array_equal(s.amps, view.reshape(-1))


def test_permutation_validation():
    with pytest.raises(ValueError):
        QubitPermutation([1, 1, 3])


def test_permute_transposition_moves_bit():
    s = basis_product(3, (0, 0, 1))
    out = permute_qubits(s, QubitPermutation.transposition(3, 1, 3))
    assert abs(out.amps[4] - 1.0) < 1e-15
    assert abs(np.sum(np.abs(out.amps))) == pytest.approx(1.0)


def test_permute_cycle_moves_each_bit_to_its_image():
    # the bit at qubit k lands on qubit perm(k): 1 -> 3, 2 -> 1, 3 -> 4, 4 -> 2
    perm = QubitPermutation([3, 1, 4, 2])
    for bits in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1), (0, 0, 1, 0)]:
        out = permute_qubits(basis_product(4, bits), perm)
        moved = [0] * 4
        for k, b in enumerate(bits, start=1):
            moved[perm(k) - 1] = b
        assert out.amps[index_of_bits(moved)] == 1.0


def test_permute_identity():
    s = random_pure(4, seed=3)
    out = permute_qubits(s, QubitPermutation(range(1, 5)))
    np.testing.assert_array_equal(out.amps, s.amps)


def test_permute_inverse_roundtrip():
    s = random_pure(5, seed=11)
    p = QubitPermutation([3, 5, 1, 2, 4])
    inverse = [0] * 5
    for k in range(1, 6):
        inverse[p(k) - 1] = k
    back = permute_qubits(permute_qubits(s, p), QubitPermutation(inverse))
    np.testing.assert_array_equal(back.amps, s.amps)


def test_permute_composition_law():
    s = random_pure(4, seed=5)
    p = QubitPermutation([2, 3, 4, 1])
    q = QubitPermutation([4, 2, 1, 3])
    lhs = permute_qubits(permute_qubits(s, p), q)
    q_after_p = QubitPermutation([q(p(k)) for k in range(1, 5)])
    rhs = permute_qubits(s, q_after_p)
    np.testing.assert_array_equal(lhs.amps, rhs.amps)


def test_permute_preserves_amplitude_multiset_and_norm():
    s = random_pure(4, seed=9)
    out = permute_qubits(s, QubitPermutation([2, 4, 1, 3]))
    assert sorted(map(complex, out.amps), key=lambda z: (z.real, z.imag)) == sorted(
        map(complex, s.amps), key=lambda z: (z.real, z.imag)
    )
    assert out.squared_norm() == s.squared_norm()


def test_apply_identity_chain():
    s = random_pure(3, seed=1)
    out = apply_local_operators(s, LocalOperatorChain([np.eye(2)] * 3))
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)


def test_apply_sigma_x_single_qubit():
    out = apply_local_operators(basis_product(1, (0,)), LocalOperatorChain([SIGMA_X]))
    np.testing.assert_allclose(out.amps, [0.0, 1.0], atol=1e-15)


def test_apply_diag_on_ghz():
    chain = LocalOperatorChain([np.diag([2.0, 1.0]), np.eye(2), np.eye(2)])
    out = apply_local_operators(ghz(3), chain)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 2.0 / np.sqrt(2.0)
    expected[7] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_unitary_chain_preserves_norm():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(m)
        s = random_pure(4, seed=int(rng.integers(1 << 30)))
        out = apply_local_operators(s, LocalOperatorChain([q, np.eye(2), q, np.eye(2)]))
        assert abs(out.squared_norm() - 1.0) < 1e-12


def test_chain_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_local_operators(random_pure(3, 0), LocalOperatorChain([np.eye(2)] * 2))


def test_assert_invertible():
    chain = LocalOperatorChain([np.array([[1.0, 1.0], [1.0, 1.0]])])
    with pytest.raises(ValueError):
        chain.assert_invertible()


def test_chain_validation():
    with pytest.raises(ValueError):
        LocalOperatorChain([])
    with pytest.raises(ValueError):
        LocalOperatorChain([np.eye(3)])
    with pytest.raises(ValueError):
        LocalOperatorChain([np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]])])


def test_chain_copies_and_freezes_its_operators():
    op = np.eye(2, dtype=complex)
    chain = LocalOperatorChain([op])
    op[0, 0] = 5.0
    assert chain.ops[0][0, 0] == 1.0
    assert not chain.ops[0].flags.writeable


def test_chain_dets_and_abs_det_sq_product():
    ops = [
        np.diag([2.0, 1.0]),
        np.array([[0.0, 1j], [1.0, 0.0]]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
    ]
    chain = LocalOperatorChain(ops)
    np.testing.assert_allclose(chain.dets(), [2.0, -1j, -2.0], atol=1e-14)
    assert chain.abs_det_sq_product() == pytest.approx(16.0, abs=1e-13)


def test_is_unitary():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert LocalOperatorChain([hadamard, SIGMA_X, np.diag([1.0, 1j])]).is_unitary()
    assert not LocalOperatorChain([hadamard, np.diag([2.0, 1.0])]).is_unitary()


def test_transposition_maps_and_range():
    assert QubitPermutation.transposition(4, 2, 2).map == (1, 2, 3, 4)
    assert QubitPermutation.transposition(4, 1, 4).map == (4, 2, 3, 1)
    with pytest.raises(ValueError):
        QubitPermutation.transposition(3, 0, 2)
    with pytest.raises(ValueError):
        QubitPermutation.transposition(3, 1, 4)


def test_check_odd_n_and_qubit_index():
    for n in (3, 5, 17):
        check_odd_n(n)
    for n in (-1, 0, 1, 2, 4, 16):
        with pytest.raises(ValueError):
            check_odd_n(n)
    check_qubit_index(3, 1)
    check_qubit_index(3, 3)
    for i in (0, 4, -1):
        with pytest.raises(ValueError):
            check_qubit_index(3, i)
