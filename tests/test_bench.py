import pytest

from oddtangle.bench import (
    count_fast_path,
    count_naive_path,
    paper_fast_count,
    paper_naive_count,
    timing_sweep,
)
from oddtangle.naive_tangle import _w_sum
from oddtangle.stategen import random_pure


def test_fast_count_is_term_count():
    # one tick per amplitude product: 2**(n-1) in T plus 2**(n-2) in each of P, Q
    for n in (3, 5, 7, 9, 11):
        assert count_fast_path(random_pure(n, seed=n)) == 2**n
        assert paper_fast_count(n) == 2**n + 3  # reported figure, not asserted equal


def test_pruned_count_scaling():
    # pruned enumeration touches 2**(2n) surviving tuples, 3 products each
    assert count_naive_path(random_pure(3, seed=0)) == 3 * 2**6
    assert count_naive_path(random_pure(5, seed=0)) == 3 * 2**10
    # per-qubit choice does not change the tally
    assert _w_sum(random_pure(5, seed=1), 4)[1] == 3 * 2**10


def test_literal_count_is_full_quadruple_sum():
    assert _w_sum(random_pure(3, seed=0), 1, full_sum=True)[1] == paper_naive_count(3)
    assert paper_naive_count(3) == 3 * 2**12


def test_fast_count_ratio_band():
    # counted work quadruples per step n -> n+2
    for n in (3, 5, 7, 9):
        ratio = count_fast_path(random_pure(n + 2, seed=0)) / count_fast_path(
            random_pure(n, seed=0)
        )
        assert 3.5 <= ratio <= 4.5


def test_timing_sweep_rows():
    rows = timing_sweep([3, 5], repetitions=2)
    assert len(rows) == 4
    by_key = {(r.n, r.method): r for r in rows}
    assert by_key[(3, "fast")].mult_count == 8
    assert by_key[(5, "fast")].mult_count == 32
    assert by_key[(3, "naive_pruned")].mult_count == 192
    assert all(r.median_seconds >= 0.0 for r in rows)
    with pytest.raises(ValueError):
        timing_sweep([4])
