"""Timing harness: the O(n^2) trace kernel against the O(n^3) oracle.

The default ring is Z/(2^61 - 1): a large prime modulus keeps every residue
the same machine size, so the measurement isolates the n^2-vs-n^3 effect
from big-integer growth.  An integers-ring run is possible but measures the
mixed effect of both.  The oracle's two products run as packed big-integer
products (see Ring.matmul), so the speedup is that of the kernel over the
fastest exact product here, not over a dot loop.
"""

from __future__ import annotations

import random
import statistics
import time

from .kernels import naive_aba, structured_aba
from .rings import ModularRing, Ring, _Record
from .structure import outer, random_matrix

DEFAULT_BENCH_MODULUS = 2**61 - 1


class BenchResult(_Record):
    """One run_bench row: the naive and fast median seconds, their ratio, and the check done."""

    _fields = ("n", "ring", "reps", "naive_median", "fast_median", "speedup", "agreement_checked")


def run_bench(n: int, ring: Ring | None = None, reps: int = 5, seed: int = 0) -> BenchResult:
    """Time naive_aba vs structured_aba on one structured A and random B.

    The fast side is timed with its structure check on, as users run it;
    correctness is verified once, before timing, by comparing the two
    outputs exactly.  Medians over reps.
    """
    if ring is None:
        ring = ModularRing(DEFAULT_BENCH_MODULUS)
    rng = random.Random(seed)
    a = outer(random_matrix(rng, ring, n, 1), random_matrix(rng, ring, 1, n))
    b = random_matrix(rng, ring, n, n)

    fast = structured_aba(a, b)
    slow = naive_aba(a, b)
    if fast != slow:
        raise RuntimeError("kernel disagreement on generator-structured input")

    naive_times = []
    fast_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        naive_aba(a, b)
        naive_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        structured_aba(a, b)
        fast_times.append(time.perf_counter() - t0)

    naive_median = statistics.median(naive_times)
    fast_median = statistics.median(fast_times)
    return BenchResult(
        n=n,
        ring=ring,
        reps=reps,
        naive_median=naive_median,
        fast_median=fast_median,
        speedup=naive_median / fast_median if fast_median > 0 else float("inf"),
        agreement_checked=True,
    )
