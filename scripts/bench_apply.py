#!/usr/bin/env python3
"""Time one operator evaluation, one direct Hessian solve and one implicit
step.

Usage:
    python scripts/bench_apply.py

The first table prints microseconds per call of the difference loop
``NonlocalOperator.apply`` and of the three evaluations of an implicit
step, all on the step window: ``apply_extended`` (A E on interior values),
``apply_restricted`` (E^T A on window values, read on the interior) and
``apply_squared`` (E^T A A E on interior values, as the p = 2 Hessian
products run it).  ``NonlocalOperator._step_maps`` builds all three: direct
correlations in 1D, with the taps and with their square; in 2D one
zero-padded FFT plan, whose kernel spectrum the square takes squared.  On
the 2D rows ``tau_us`` times the tau solve that preconditions the 2D p = 2
CG (``NonlocalOperator.tau_solve``, two dense DST-I products per axis).
Each
row shows the relative difference of each from the loop on random interior
values and random window values (``check_case``); the script stops with
exit status 1 before timing a case where one differs by more than
MAX_DIFF.
Rows are keyed by dim, nx (interior cells per axis) and K (nonzero
stencil offsets).  The padded grids, with ``nodes`` nodes, are
the runs' own: converge's three scales share the grid padded one kernel
support of its largest eps, 462 nodes.  The operator is timed on the step
grid that
``stepper.as_operator`` cuts from each, the interior plus the stencil's
reach, with ``step`` nodes.

The second table times the direct solve of one implicit step's model
I/h + A^T diag(c) A (``NonlocalOperator.normal_solve``): microseconds per
assembly of its blocks and per block LDL^T elimination, keyed by dim, n
(interior unknowns) and the bandwidth, with the block size and the relative
backward error ||M d - g|| / (||M||_1 ||d||) of the solve.  The weight c is
the p = 3 Newton curvature 2|A x| at a random state.

The third table runs one implicit step (``stepper._minimize_step``) for
each way of solving the step model: Newton-CG on converge's 1D K = 50
stencil at p = 3 and, tau-preconditioned, on evolve_2d's 2D K = 508 stencil
at p = 2 and on a 2D nx = 128, eps = 0.1 stencil (both from evolve_2d's
random start, seed 404; the quadratic step takes one Newton iteration),
direct Newton on the local 1D Hessian (n = 256), and the
direct reweighted step below p = 2.  Each step, the local one included,
runs on its step grid, as ``evolve`` runs it.  It prints the step's inner
iterations, operator applies (a squared correlation counts as one) and
the median, min and max milliseconds, keyed by dim, n and K.

A per-call time is the best of REPEATS batches, each sized to take about
BATCH_S seconds.  A step is timed over STEP_REPEATS single runs in this
process; their median is its row's time, and min and max show the spread
(the best of a few runs swung by 2x between invocations on a shared host).
"""

import time

import numpy as np

from nlbiharm import (
    NonlocalOperator, StepperConfig, default_bump, discretize, get_kernel, lp_norm,
    make_domain, zero_extend,
)
from nlbiharm.localref import local_stencil
from nlbiharm.nlop import BandedNormal
from nlbiharm.stepper import _minimize_step, as_operator, effective_inner_tol

BATCH_S = 0.05
REPEATS = 5
STEP_REPEATS = 20
MAX_DIFF = 1e-12
TENT = get_kernel("tent")

# (study, dim, box, nx, eps, eps the grid is padded for)
CASES = [
    ("battery_1d", 1, (0.0, 1.0), 64, 0.2, 0.2),
    ("converge", 1, (0.0, 1.0), 256, 0.1, 0.4),
    ("converge", 1, (0.0, 1.0), 256, 0.2, 0.4),
    ("converge", 1, (0.0, 1.0), 256, 0.4, 0.4),
    ("denoise", 2, ((0.0, 64.0), (0.0, 64.0)), 64, 4.0, 4.0),
    ("evolve_2d", 2, ((0.0, 1.0), (0.0, 1.0)), 64, 0.2, 0.2),
]

# (solve, dim, box, nx, eps of the stencil or None for the local one, grid
# eps): the local reference of converge, the 2D local Hessian at two sizes,
# and the battery's 1D nonlocal stencil (K = 24), the reweighted step's.
SOLVE_CASES = [
    ("local", 1, (0.0, 1.0), 256, None, 0.4),
    ("local", 2, ((0.0, 1.0), (0.0, 1.0)), 16, None, 0.2),
    ("local", 2, ((0.0, 1.0), (0.0, 1.0)), 64, None, 0.2),
    ("nonlocal", 1, (0.0, 1.0), 64, 0.2, 0.2),
]
SOLVE_H = 1e-4

# (solver, dim, nx, eps of the stencil or None for the local one, grid eps,
# p, h, start) on the unit box: converge_p3's first step at its middle scale
# and for its local reference, evolve_2d's step and the same step on a finer
# 2D grid, a p = 1.5 step on the battery's 1D stencil, and a p = 1.2 step
# whose reweighted direction once stalled in cancellation.
STEP_CASES = [
    ("newton_cg", 1, 256, 0.1, 0.4, 3.0, 1e-4, "bump"),
    ("newton_cg", 2, 64, 0.2, 0.2, 2.0, 5e-3, "random"),
    ("newton_cg", 2, 128, 0.1, 0.1, 2.0, 5e-3, "random"),
    ("newton_direct", 1, 256, None, 0.4, 3.0, 1e-4, "bump"),
    ("reweighted", 1, 64, 0.2, 0.2, 1.5, 1e-3, "bump"),
    ("reweighted", 1, 128, 0.2, 0.2, 1.2, 1e-4, "gaussian"),
]


def per_call_us(fn, values) -> float:
    start = time.perf_counter()
    fn(values)  # also builds the work arrays of the correlations
    calls = max(1, int(BATCH_S / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(values)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def check_case(case, rng):
    """The padded grid and step operator of one row of CASES, random
    interior and grid values, and the relative difference from the loop of
    ``apply_extended``, ``apply_restricted`` and ``apply_squared`` on them."""
    _, dim, box, nx, eps, grid_eps = case
    spec = make_domain(dim, box, nx, grid_eps)
    op = as_operator(discretize(TENT, eps, spec), spec)
    interior = rng.standard_normal(op.spec.nx)
    values = rng.standard_normal(op.spec.padded_shape)
    extended = op.apply(zero_extend(interior, op.spec).values)
    restricted = op.apply(values)[op.spec.interior_slices]
    squared = op.apply(extended)[op.spec.interior_slices]
    diffs = [np.abs(got - exact).max() / np.abs(exact).max() for got, exact in (
        (op.apply_extended(interior), extended),
        (op.apply_restricted(values), restricted),
        (op.apply_squared(interior), squared),
    )]
    return spec, op, interior, values, diffs


def step_case(case):
    """The padded grid and step operator of one row of STEP_CASES, the
    step's residual tolerance, and a function that runs the row's implicit
    step once from its start and returns the result."""
    _, dim, nx, eps, grid_eps, p, h, start = case
    spec = make_domain(dim, [(0.0, 1.0)] * dim, nx, grid_eps)
    st = local_stencil(spec) if eps is None else discretize(TENT, eps, spec)
    op = as_operator(st, spec)
    u0 = default_bump(spec)
    if start == "gaussian":
        x = spec.node_coords()[0][spec.interior_slices]
        u0 = zero_extend(np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2, spec)
    elif start == "random":  # evolve_2d's u0 = random, seed = 404
        u0 = zero_extend(np.random.default_rng(404).standard_normal(spec.nx), spec)
    tol = effective_inner_tol(op, lp_norm(u0, 2, "omega"))
    max_iters = StepperConfig(p=p, h=h, T=h).inner_max_iters
    return spec, op, tol, lambda: _minimize_step(op, u0.interior_values, p, h, tol, max_iters)


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"{'study':<11} {'dim':>3} {'nx':>4} {'nodes':>6} {'step':>6} {'K':>4} "
          f"{'apply_us':>9} {'ext_us':>7} {'res_us':>7} {'sq_us':>7} {'tau_us':>7} "
          f"{'ext_diff':>8} {'res_diff':>8} {'sq_diff':>8}")
    for case in CASES:
        spec, op, interior, values, diffs = check_case(case, rng)
        k = sum(bool(np.any(d)) for d in op.stencil.offsets)
        if max(diffs) > MAX_DIFF:
            print(f"{case[0]} K={k}: a correlation differs from the loop by "
                  "{:.1e} (apply_extended), {:.1e} (apply_restricted), "
                  "{:.1e} (apply_squared)".format(*diffs))
            return 1
        loop_us = per_call_us(op.apply, values)
        ext_us = per_call_us(op.apply_extended, interior)
        res_us = per_call_us(op.apply_restricted, values)
        sq_us = per_call_us(op.apply_squared, interior)
        tau = "-"
        if spec.dim == 2:  # the shift of evolve_2d's h = 5e-3
            tau = f"{per_call_us(op.tau_solve(1.0 / 5e-3), interior):.1f}"
        nodes = int(np.prod(spec.padded_shape))
        print(f"{case[0]:<11} {spec.dim:>3} {case[3]:>4} {nodes:>6} {values.size:>6} {k:>4} "
              f"{loop_us:>9.1f} {ext_us:>7.1f} {res_us:>7.1f} {sq_us:>7.1f} {tau:>7} "
              + " ".join(f"{d:>8.1e}" for d in diffs))

    print()
    print(f"{'solve':<11} {'dim':>3} {'n':>5} {'band':>4} {'block':>5} "
          f"{'asm_us':>9} {'solve_us':>9} {'back_err':>9}")
    for solve, dim, box, nx, eps, grid_eps in SOLVE_CASES:
        spec = make_domain(dim, box, nx, grid_eps)
        st = local_stencil(spec) if eps is None else discretize(TENT, eps, spec)
        op = NonlocalOperator(st, spec)
        x = np.zeros(spec.padded_shape)
        x[spec.interior_slices] = rng.standard_normal(spec.nx)
        curv = 2.0 * np.abs(op.apply(x))
        g = rng.standard_normal(spec.nx)
        model = BandedNormal(op)
        model.assemble(curv, 1.0 / SOLVE_H)
        d = model.eliminate(g)
        asm_us = per_call_us(lambda c: model.assemble(c, 1.0 / SOLVE_H), curv)
        solve_us = per_call_us(model.eliminate, g)
        err = backward_error(op, curv, d, g)
        print(f"{solve:<11} {dim:>3} {spec.n_interior:>5} {model.width:>4} "
              f"{model.block:>5} {asm_us:>9.1f} {solve_us:>9.1f} {err:>9.1e}")

    print()
    print(f"{'step':<13} {'p':>3} {'dim':>3} {'n':>5} {'K':>4} "
          f"{'iters':>6} {'applies':>7} {'ms':>8} {'min_ms':>8} {'max_ms':>8}")
    for case in STEP_CASES:
        spec, op, _, step = step_case(case)
        runs = []
        for _ in range(STEP_REPEATS):
            begin = time.perf_counter()
            res = step()
            runs.append(1e3 * (time.perf_counter() - begin))
        k = sum(bool(np.any(d)) for d in op.stencil.offsets)
        solver, p = case[0], case[5]
        print(f"{solver:<13} {p:>3g} {spec.dim:>3} {spec.n_interior:>5} {k:>4} "
              f"{res.iters:>6} {res.applies:>7} {np.median(runs):>8.1f} "
              f"{min(runs):>8.1f} {max(runs):>8.1f}")
    return 0


def backward_error(op, curv, d, g) -> float:
    """||M d - g|| / (||M||_1 ||d||), with M applied through the operator
    and ||M||_1 bounded by the column sums of |I/h| + |A|^T diag(c) |A|."""
    spec = op.spec
    full = np.zeros(spec.padded_shape)
    full[spec.interior_slices] = d
    md = d / SOLVE_H + op.apply(curv * op.apply(full))[spec.interior_slices]
    col = np.abs(op.stencil.weights).sum() + op.stencil.diag  # ||A||_1 bound
    norm = 1.0 / SOLVE_H + col * col * float(curv.max())
    return float(np.linalg.norm(md - g) / (norm * np.linalg.norm(d)))


if __name__ == "__main__":
    raise SystemExit(main())
