import numpy as np
import pytest

from oddtangle.naive_tangle import (
    epsilon,
    find_noninvariance_witness,
    tangle_i_naive,
    wong_tangle_naive,
)
from oddtangle.qstate import PureState, QubitPermutation, permute_qubits
from oddtangle.stategen import basis_product, ghz, random_pure, w


def test_epsilon_table():
    assert epsilon(0, 1) == 1
    assert epsilon(1, 0) == -1
    assert epsilon(0, 0) == 0
    assert epsilon(1, 1) == 0
    with pytest.raises(ValueError):
        epsilon(2, 0)


def test_ghz_and_w_anchors():
    assert tangle_i_naive(ghz(3), 1) == pytest.approx(1.0, abs=1e-12)
    assert tangle_i_naive(w(3), 1) == pytest.approx(0.0, abs=1e-12)
    assert tangle_i_naive(ghz(5), 3) == pytest.approx(1.0, abs=1e-12)
    assert tangle_i_naive(w(5), 2) == pytest.approx(0.0, abs=1e-12)


def test_three_qubit_tangle_same_for_every_qubit():
    for seed in range(5):
        s = random_pure(3, seed=seed)
        vals = [tangle_i_naive(s, i) for i in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-10


def test_full_sum_matches_pruned_n3():
    for seed in (0, 1):
        s = random_pure(3, seed=seed)
        for i in (1, 2, 3):
            assert tangle_i_naive(s, i, full_sum=True) == pytest.approx(
                tangle_i_naive(s, i), abs=1e-12
            )


def test_full_sum_capped():
    with pytest.raises(ValueError):
        tangle_i_naive(random_pure(5, 0), 1, full_sum=True)


def test_rejects_even_n():
    with pytest.raises(ValueError):
        tangle_i_naive(ghz(4), 1)


def test_rejects_n_above_cap():
    with pytest.raises(ValueError):
        tangle_i_naive(random_pure(9, 0), 1)
    # n=7 is the largest size the oracle evaluates
    s = basis_product(7, (0,) * 7)
    assert tangle_i_naive(s, 1) == pytest.approx(0.0, abs=1e-15)


def test_partial_permutation_invariance_n5():
    s = random_pure(5, seed=2)
    base = tangle_i_naive(s, 3)
    # permutations fixing qubit 3
    for mapping in ([2, 1, 3, 5, 4], [4, 5, 3, 1, 2], [5, 4, 3, 2, 1]):
        p = QubitPermutation(mapping)
        assert tangle_i_naive(permute_qubits(s, p), 3) == pytest.approx(
            base, abs=1e-10
        )


def test_transposition_turns_tau1_into_taui():
    s = random_pure(5, seed=4)
    for i in (2, 4, 5):
        p = QubitPermutation.transposition(5, 1, i)
        assert tangle_i_naive(permute_qubits(s, p), 1) == pytest.approx(
            tangle_i_naive(s, i), abs=1e-10
        )


def test_degree_four_homogeneity():
    s = random_pure(3, seed=8)
    c = 0.7 - 1.3j
    scaled = PureState(3, c * s.amps)
    assert tangle_i_naive(scaled, 2) == pytest.approx(
        abs(c) ** 4 * tangle_i_naive(s, 2), rel=1e-12
    )


def test_wong_anchors():
    assert wong_tangle_naive(ghz(4)) == pytest.approx(1.0, abs=1e-12)
    assert wong_tangle_naive(w(4)) == pytest.approx(0.0, abs=1e-12)


def test_wong_refuses_odd_n():
    for n in (3, 5):
        with pytest.raises(ValueError, match=f"n={n} is odd; use tangle_i_naive"):
            wong_tangle_naive(random_pure(n, seed=0))


def test_witness_search_preconditions():
    with pytest.raises(ValueError):
        find_noninvariance_witness(3)
    with pytest.raises(ValueError):
        find_noninvariance_witness(4)
    with pytest.raises(ValueError, match="n <= 7"):
        find_noninvariance_witness(9)  # above the oracle limit


def test_witness_found_at_n5():
    witness = find_noninvariance_witness(5, seed=0)
    assert witness is not None
    state, perm, before, after = witness
    assert abs(before - after) > 1e-6
    # reproduce the reported pair
    assert tangle_i_naive(state, 5) == pytest.approx(before, abs=1e-14)
    assert tangle_i_naive(permute_qubits(state, perm), 5) == pytest.approx(after, abs=1e-14)
