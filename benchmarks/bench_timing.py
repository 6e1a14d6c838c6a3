"""Shared timing helpers for the micro-benchmarks.

Live next to the bench scripts (benchmarks/ is on ``sys.path`` both
under pytest's rootdir insertion and when a script runs standalone), so
every ``BENCH_*.json`` uses the same methodology: best-of, or the
steady-state median.
"""

import statistics
import time


def best_of(fn, reps):
    """Minimum wall-clock of ``reps`` calls to ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def median_of(fn, reps, *args, warmup=1):
    """Steady-state median wall-clock of ``reps`` calls to
    ``fn(*args)`` (seconds), after ``warmup`` untimed calls."""
    for _ in range(warmup):
        fn(*args)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
