#!/usr/bin/env python3
"""Sweep the kernel benchmark over matrix sizes and print a table.

The naive oracle does 2n^3 ring multiplications against the kernel's 2n^2,
but its products are packed big-integer products whose speed per
multiplication also grows with n, so the speedup grows more slowly than n.
"""

import argparse

from minortrace import run_bench
from minortrace.serialize import bench_result_to_obj, dumps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128,256",
                        help="comma-separated matrix orders")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit JSON lines instead")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not args.json:
        print(f"{'n':>6} {'naive (s)':>12} {'fast (s)':>12} {'speedup':>9}")
    for n in sizes:
        r = run_bench(n, reps=args.reps, seed=args.seed)
        if args.json:
            print(dumps(bench_result_to_obj(r)))
        else:
            print(f"{r.n:>6} {r.naive_median:>12.5f} {r.fast_median:>12.5f} {r.speedup:>8.1f}x")


if __name__ == "__main__":
    main()
