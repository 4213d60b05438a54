"""Multiplication counts and wall-clock comparison of the brute-force and
reduced tangle evaluations.  Each count comes from the code that does the
work: the length of the fast path's term table, and the tally the oracle's
loop keeps.

Counting convention: one tick per complex amplitude product inside a sum.
Constant-size combining work (T*T, P*Q, the final scaling), sign flips and
factor-2 scalings are not tallied, so the counts reflect per-term cost:
2**n for the reduced path, 3*2**(2n) for the pruned oracle.  The textbook
figures 2**n + 3 for the reduced path and 3*2**(4n) for the defining sum
use a different (unstated) accounting and are reported side by side, never
asserted as equalities.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import naive_tangle
from .fast_tangle import _terms, tangle_i_fast
from .qstate import PureState, check_odd_n
from .stategen import random_pure


def paper_fast_count(n: int) -> int:
    return 2**n + 3


def paper_naive_count(n: int) -> int:
    return 3 * 2 ** (4 * n)


def count_fast_path(state: PureState) -> int:
    """Complex multiplications used by the reduced qubit-1 tangle: one per
    term that compute_TPQ gathers."""
    check_odd_n(state.n)
    return _terms(state.n)[0].size


def count_naive_path(state: PureState) -> int:
    """Multiplication tally of the pruned defining sum for qubit 1 (3
    amplitude products per surviving tuple), as its loop tallies it."""
    return naive_tangle._w_sum(state, 1)[1]


@dataclass(frozen=True)
class BenchRow:
    n: int
    method: str
    mult_count: int
    paper_count: int
    median_seconds: float


def _median_seconds(fn, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timing_sweep(n_list, repetitions: int = 5):
    """Median wall times of both methods on random_pure(n, seed=n) for each
    n; the counts do not depend on the state.  Every n is checked before
    the first timing."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for n in n_list:
        check_odd_n(n)
        naive_tangle.check_oracle_size(n)
    rows = []
    for n in n_list:
        state = random_pure(n, seed=n)
        fast_s = _median_seconds(lambda: tangle_i_fast(state, 1), repetitions)
        naive_s = _median_seconds(lambda: naive_tangle.tangle_i_naive(state, 1), repetitions)
        rows += [
            BenchRow(n, "fast", count_fast_path(state), paper_fast_count(n), fast_s),
            BenchRow(
                n, "naive_pruned", count_naive_path(state), paper_naive_count(n), naive_s
            ),
        ]
    return rows
