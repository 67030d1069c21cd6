#!/usr/bin/env python3
"""Time one operator evaluation at the stencils of the shipped studies.

Usage:
    python scripts/bench_apply.py

Prints microseconds per call of the difference loop
``NonlocalOperator.apply`` and of ``apply_corr`` (a direct correlation in
1D, a zero-padded FFT in 2D) on one random array: the best of REPEATS
batches, each sized to take about BATCH_S seconds.  Rows are keyed by dim,
nx (interior cells per axis) and K (nonzero stencil offsets).  The grids
are the ones the runs use: converge's three scales share the grid padded
for its largest eps.
"""

import time

import numpy as np

from nlbiharm import NonlocalOperator, discretize, get_kernel, make_domain, rescale

BATCH_S = 0.05
REPEATS = 5

# (study, dim, box, nx, eps, eps the grid is padded for)
CASES = [
    ("battery_1d", 1, (0.0, 1.0), 64, 0.2, 0.2),
    ("converge", 1, (0.0, 1.0), 256, 0.1, 0.4),
    ("converge", 1, (0.0, 1.0), 256, 0.2, 0.4),
    ("converge", 1, (0.0, 1.0), 256, 0.4, 0.4),
    ("denoise", 2, ((0.0, 64.0), (0.0, 64.0)), 64, 4.0, 4.0),
    ("evolve_2d", 2, ((0.0, 1.0), (0.0, 1.0)), 64, 0.2, 0.2),
]


def per_call_us(fn, values) -> float:
    start = time.perf_counter()
    fn(values)  # also builds the work arrays of apply_corr
    calls = max(1, int(BATCH_S / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(values)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"{'study':<11} {'dim':>3} {'nx':>4} {'nodes':>6} {'K':>4} "
          f"{'apply_us':>9} {'corr_us':>8} {'rel_diff':>9}")
    for study, dim, box, nx, eps, grid_eps in CASES:
        kern = get_kernel("tent", dim)
        spec = make_domain(dim, box, nx, kern, grid_eps)
        st = discretize(rescale(kern, eps), spec)
        op = NonlocalOperator(st, spec)
        values = rng.standard_normal(spec.padded_shape)
        exact = op.apply(values)
        diff = np.abs(op.apply_corr(values) - exact).max() / np.abs(exact).max()
        loop_us = per_call_us(op.apply, values)
        corr_us = per_call_us(op.apply_corr, values)
        k = sum(bool(np.any(d)) for d in st.offsets)
        print(f"{study:<11} {dim:>3} {nx:>4} {values.size:>6} {k:>4} "
              f"{loop_us:>9.1f} {corr_us:>8.1f} {diff:>9.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
