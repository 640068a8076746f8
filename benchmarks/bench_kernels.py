#!/usr/bin/env python3
"""Benchmark the compiled table kernels against the pure-Python fallback.

Times the hot loops on census-shaped workloads and prints per-backend
timings with the speedup. Run from the repository root:

    python benchmarks/bench_kernels.py [--repeat N] [--quick]
"""

import argparse
import random
import time
from itertools import product

from termalg import _kernels_py

try:
    from termalg import _kernels
except ImportError:
    _kernels = None

def all_tables(k, n):
    return [tuple(v) for v in product(range(k), repeat=k**n)]


def random_tables(rng, k, n, count):
    return [tuple(rng.randrange(k) for _ in range(k**n)) for _ in range(count)]


def workloads(quick):
    rng = random.Random(20240901)
    t23 = all_tables(2, 3)
    t32 = random_tables(rng, 3, 2, 200 if not quick else 50)
    t24 = random_tables(rng, 2, 4, 512 if not quick else 64)

    def essential_all(mod):
        for t in t23:
            mod.essential_mask(t, 2, 3)
        for t in t24:
            mod.essential_mask(t, 2, 4)

    def cp3_k2n3(mod):
        for t in t23:
            mod.cp3_counts(t, 2, 3)

    def cp3_k3n2(mod):
        for t in t32:
            mod.cp3_counts(t, 3, 2)

    def cp3_k2n4(mod):
        for t in t24:
            mod.cp3_counts(t, 2, 4)

    return [
        ("essential_mask, 768 tables", essential_all),
        ("cp3_counts, k=2 n=3, 256 tables", cp3_k2n3),
        (f"cp3_counts, k=3 n=2, {len(t32)} tables", cp3_k3n2),
        (f"cp3_counts, k=2 n=4, {len(t24)} tables", cp3_k2n4),
    ]


def best_of(fn, mod, repeat):
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(mod)
        timings.append(time.perf_counter() - start)
    return min(timings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    if _kernels is None:
        print("compiled kernels not built; timing the pure-Python lane only")

    width = max(len(name) for name, _ in workloads(args.quick))
    header = f"{'workload':<{width}}  {'python':>10}  {'compiled':>10}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads(args.quick):
        py = best_of(fn, _kernels_py, args.repeat)
        if _kernels is not None:
            cy = best_of(fn, _kernels, args.repeat)
            print(f"{name:<{width}}  {py * 1e3:>8.1f}ms  {cy * 1e3:>8.1f}ms  {py / cy:>7.1f}x")
        else:
            print(f"{name:<{width}}  {py * 1e3:>8.1f}ms  {'-':>10}  {'-':>8}")


if __name__ == "__main__":
    main()
