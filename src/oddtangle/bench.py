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
from .fast_tangle import tangle_1_fast
from .qstate import PureState, check_odd_n
from .stategen import random_pure


@dataclass
class OpCounter:
    complex_mults: int = 0

    def add(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counter only increases")
        self.complex_mults += k


def paper_fast_count(n: int) -> int:
    return 2**n + 3


def paper_naive_count(n: int) -> int:
    return 3 * 2 ** (4 * n)


def count_fast_path(state: PureState) -> int:
    """Complex multiplications used by the reduced qubit-1 tangle."""
    counter = OpCounter()
    tangle_1_fast(state, counter=counter)
    return counter.complex_mults


def count_naive_path(state: PureState, i: int = 1, literal: bool = False) -> int:
    """Multiplication tally of the defining sum for qubit i.

    ``literal=True`` counts the full 2**(4n) quadruple loop (3 amplitude
    products per tuple, taken before the epsilon test; n <= 3 only); the
    default counts the pruned enumeration (3 per surviving tuple).
    """
    counter = OpCounter()
    naive_tangle.tangle_i_naive(state, i, full_sum=literal, counter=counter)
    return counter.complex_mults


@dataclass(frozen=True)
class BenchRow:
    n: int
    method: str
    mult_count: int
    paper_count: int
    median_seconds: float


def timing_sweep(n_list, repetitions: int = 5, seed: int = 0):
    """Median wall times of both methods on one seeded random state per n."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rows = []
    for n in n_list:
        check_odd_n(n)
        state = random_pure(n, seed=seed + n)
        fast_times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            tangle_1_fast(state)
            fast_times.append(time.perf_counter() - t0)
        naive_times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            naive_tangle.tangle_i_naive(state, 1)
            naive_times.append(time.perf_counter() - t0)
        rows.append(
            BenchRow(
                n=n,
                method="fast",
                mult_count=count_fast_path(state),
                paper_count=paper_fast_count(n),
                median_seconds=statistics.median(fast_times),
            )
        )
        rows.append(
            BenchRow(
                n=n,
                method="naive_pruned",
                mult_count=count_naive_path(state),
                paper_count=paper_naive_count(n),
                median_seconds=statistics.median(naive_times),
            )
        )
    return rows
