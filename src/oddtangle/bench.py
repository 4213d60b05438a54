"""Instrumented multiplication counts and wall-clock comparison of the
brute-force and reduced tangle evaluations.

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
from .fast_tangle import compute_TPQ, tangle_1_fast
from .qstate import PureState, check_odd_n
from .stategen import random_pure


@dataclass
class OpCounter:
    complex_mults: int = 0

    def add(self, k: int) -> None:
        if k < 0:
            raise ValueError("counter only increases")
        self.complex_mults += k


def paper_fast_count(n: int) -> int:
    return 2**n + 3


def paper_naive_count(n: int) -> int:
    return 3 * 2 ** (4 * n)


def count_fast_path(state: PureState) -> int:
    """Complex multiplications used by the reduced qubit-1 tangle."""
    check_odd_n(state.n)
    counter = OpCounter()
    compute_TPQ(state, counter)
    return counter.complex_mults


def count_naive_path(state: PureState) -> int:
    """Multiplication tally of the pruned defining sum for qubit 1 (3
    amplitude products per surviving tuple)."""
    counter = OpCounter()
    naive_tangle.tangle_i_naive(state, 1, counter=counter)
    return counter.complex_mults


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
        fast_s = _median_seconds(lambda: tangle_1_fast(state), repetitions)
        naive_s = _median_seconds(lambda: naive_tangle.tangle_i_naive(state, 1), repetitions)
        rows += [
            BenchRow(n, "fast", count_fast_path(state), paper_fast_count(n), fast_s),
            BenchRow(
                n, "naive_pruned", count_naive_path(state), paper_naive_count(n), naive_s
            ),
        ]
    return rows
