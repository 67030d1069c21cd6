#!/usr/bin/env python3
"""Time one operator evaluation, one direct Hessian solve, one implicit
step and one evolution.

Usage:
    python scripts/bench_apply.py

The first table prints microseconds per call of the difference loop
``NonlocalOperator.apply`` and of the three evaluations of an implicit
step, all on the step window: ``apply_extended`` (A E on interior values),
``apply_restricted`` (E^T A on window values, read on the interior) and,
on the 2D rows, ``apply_squared`` (E^T A A E on interior values, as the
2D p = 2 CG products run it; no 1D step takes it).
``NonlocalOperator._maps`` builds them: direct correlations with the taps
in 1D; in 2D one zero-padded FFT plan, whose kernel spectrum the square
takes squared.  On the 2D rows ``tau_us`` times the tau solve that
preconditions the 2D p = 2 CG (``NonlocalOperator.tau_solve``, two dense
DST-I products per axis).  Each row shows the relative difference of each
from the loop on random interior values and random window values
(``check_case``); the script stops with exit status 1 before timing a case
where one differs by more than MAX_DIFF.
Rows are keyed by dim, nx (interior cells per axis) and K (nonzero
stencil offsets).  The padded grids, with ``nodes`` nodes, are
the runs' own: converge's three scales share the grid padded one kernel
support of its largest eps, 462 nodes.  The operator is timed on the step
grid that
``stepper.as_operator`` cuts from each, the interior plus the stencil's
reach, with ``step`` nodes.

The second table times the direct solves of one implicit step's model
I/h + A^T diag(c) A, keyed by dim, n (interior unknowns) and the
bandwidth, with the block size and the number of partitions the cost rule
chose (``parts``).  For the p = 3 Newton curvature c = 2|A x| at a random
state (``NonlocalOperator.normal_solve``) it gives microseconds per
assembly of the blocks and per partitioned block LDL^T elimination
(``BandedNormal``); for the p = 2 model, c = 1
(``NonlocalOperator.p2_solve``), microseconds per factorization
(``BandedNormal.factor``, after one assembly) and per substitution with
the kept factor.  Each is the median, min and max of REPEATS batches.
``back_err`` and ``sub_err`` are the relative backward errors
||M d - g|| / (||M||_1 ||d||) of the elimination and of the substitution
(``solve_case``).

The third table runs one implicit step (``stepper._minimize_step``) for
each way of solving the step model: Newton-CG on converge's 1D K = 50
stencil at p = 3 and, tau-preconditioned, on evolve_2d's 2D K = 508 stencil
at p = 2 and on a 2D nx = 128, eps = 0.1 stencil (both from evolve_2d's
random start, seed 404; the quadratic step takes one Newton iteration),
direct Newton on the local 1D Hessian (n = 256), Newton with the kept p = 2
factor on decay_p2's grid and start (seed 606; the factor is made in the
first run and kept on the operator, as a run keeps it), and the direct
reweighted step below p = 2.  Each step, the local one included,
runs on its step grid, as ``evolve`` runs it.  It prints the step's inner
iterations, operator applies (a squared correlation counts as one) and
the median, min and max milliseconds, keyed by dim, n and K.

The fourth table runs ``stepper.evolve`` on the grid, stencil and start of
a shipped 1D study config (decay_p2 and decay_p3 from scripts/configs/),
where a step costs its fixed overhead more than its operator work.  It
prints the steps, the frozen steps (those that return their certified
start with no inner iteration), the operator applies (the step-0 loop
apply included), the median, min and max milliseconds per run, the
median microseconds per step, and the median milliseconds of writing the
run's trajectory CSV (``stepper.trajectory_to_csv``, into a temporary
directory).

A per-call time of the first table is the best of REPEATS batches, each
sized to take about BATCH_S seconds; the second table gives their median,
min and max.  A step is timed over STEP_REPEATS single runs in this
process, an evolution over EVOLVE_REPEATS; their median is its row's time,
and min and max show the spread (the best of a few runs swung by 2x
between invocations on a shared host).
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from nlbiharm import (
    NonlocalOperator, StepperConfig, default_bump, discretize, evolve, get_kernel, make_domain,
)
from nlbiharm.cli import _grid_and_stencil, _initial_state, parse_config
from nlbiharm.grid import lq_sum_norm
from nlbiharm.localref import local_stencil
from nlbiharm.nlop import BandedNormal
from nlbiharm.stepper import _minimize_step, as_operator, effective_inner_tol, trajectory_to_csv

BATCH_S = 0.05
REPEATS = 5
STEP_REPEATS = 20
EVOLVE_REPEATS = 10
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
# eps): the local reference of converge and the same band at n = 1024, the
# 2D local Hessian at two sizes, the battery's 1D nonlocal grid (K = 24),
# the n = 128, K = 50 stencil of a reweighted step, and converge_p2's three
# scales on its grid (at eps = 0.4 the band is the whole n = 256).
SOLVE_CASES = [
    ("local", 1, (0.0, 1.0), 256, None, 0.4),
    ("local", 1, (0.0, 1.0), 1024, None, 0.4),
    ("local", 2, ((0.0, 1.0), (0.0, 1.0)), 16, None, 0.2),
    ("local", 2, ((0.0, 1.0), (0.0, 1.0)), 64, None, 0.2),
    ("nonlocal", 1, (0.0, 1.0), 64, 0.2, 0.2),
    ("nonlocal", 1, (0.0, 1.0), 128, 0.2, 0.2),
    ("nonlocal", 1, (0.0, 1.0), 256, 0.1, 0.4),
    ("nonlocal", 1, (0.0, 1.0), 256, 0.2, 0.4),
    ("nonlocal", 1, (0.0, 1.0), 256, 0.4, 0.4),
]
SOLVE_H = 1e-4

# (solver, dim, nx, eps of the stencil or None for the local one, grid eps,
# p, h, start: "bump", "gaussian" or the seed of a random start) on the
# unit box: converge_p3's first step at its middle scale and for its local
# reference, evolve_2d's step and the same step on a finer 2D grid,
# decay_p2's first step, a p = 1.5 step on the battery's 1D stencil, and a
# p = 1.2 step whose reweighted direction once stalled in cancellation.
STEP_CASES = [
    ("newton_cg", 1, 256, 0.1, 0.4, 3.0, 1e-4, "bump"),
    ("newton_cg", 2, 64, 0.2, 0.2, 2.0, 5e-3, 404),
    ("newton_cg", 2, 128, 0.1, 0.1, 2.0, 5e-3, 404),
    ("newton_direct", 1, 256, None, 0.4, 3.0, 1e-4, "bump"),
    ("newton_factor", 1, 64, 0.2, 0.2, 2.0, 2e-3, 606),
    ("reweighted", 1, 64, 0.2, 0.2, 1.5, 1e-3, "bump"),
    ("reweighted", 1, 128, 0.2, 0.2, 1.2, 1e-4, "gaussian"),
]

# shipped study configs whose evolution the fourth table runs
EVOLVE_CASES = ["decay_p2", "decay_p3"]
CONFIG_DIR = Path(__file__).parent / "configs"


def batch_us(fn, values) -> list[float]:
    """Microseconds per call of ``fn(values)`` in each of REPEATS batches."""
    start = time.perf_counter()
    fn(values)  # also builds the work arrays of the correlations
    calls = max(1, int(BATCH_S / (time.perf_counter() - start)))
    batches = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(values)
        batches.append((time.perf_counter() - start) / calls * 1e6)
    return batches


def per_call_us(fn, values) -> float:
    return min(batch_us(fn, values))


def check_case(case, rng):
    """The padded grid and step operator of one row of CASES, random
    interior and grid values, and the relative difference from the loop of
    ``apply_extended``, ``apply_restricted`` and, in 2D, ``apply_squared``
    on them."""
    _, dim, box, nx, eps, grid_eps = case
    spec = make_domain(dim, box, nx, grid_eps)
    op = as_operator(discretize(TENT, eps, spec), spec)
    interior = rng.standard_normal(op.spec.nx)
    values = rng.standard_normal(op.spec.padded_shape)
    extended = op.apply(np.pad(interior, op.spec.pad_cells))
    pairs = [(op.apply_extended(interior), extended),
             (op.apply_restricted(values), op.apply(values)[op.spec.interior_slices])]
    if dim == 2:
        pairs.append((op.apply_squared(interior), op.apply(extended)[op.spec.interior_slices]))
    diffs = [np.abs(got - exact).max() / np.abs(exact).max() for got, exact in pairs]
    return spec, op, interior, values, diffs


def solve_case(case, rng):
    """The operator of one row of SOLVE_CASES, its ``BandedNormal``
    assembled for the p = 3 curvature c = 2|A x| at a random state x, a
    random right-hand side g, the backward error of the elimination of
    M d = g, the kept p = 2 factor's substitution (c = 1) and its backward
    error on the same g."""
    _, dim, box, nx, eps, grid_eps = case
    spec = make_domain(dim, box, nx, grid_eps)
    st = local_stencil(spec) if eps is None else discretize(TENT, eps, spec)
    op = NonlocalOperator(st, spec)
    x = np.zeros(spec.padded_shape)
    x[spec.interior_slices] = rng.standard_normal(spec.nx)
    curv = 2.0 * np.abs(op.apply(x))
    g = rng.standard_normal(spec.nx)
    model = BandedNormal(op)
    model.assemble(curv, 1.0 / SOLVE_H)
    err = backward_error(op, curv, model.eliminate(g), g)
    substitute = op.p2_solve(1.0 / SOLVE_H)
    sub_err = backward_error(op, np.ones(spec.padded_shape), substitute(g), g)
    return op, model, curv, g, err, substitute, sub_err


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
        u0 = np.exp(-50 * (x - 0.5) ** 2) * np.sin(np.pi * x) ** 2
    elif start != "bump":  # u0 = random with this seed, as the configs draw it
        u0 = np.random.default_rng(start).standard_normal(spec.nx)
    tol = effective_inner_tol(op, lq_sum_norm(u0.ravel(), 2, spec.cell_volume))
    max_iters = StepperConfig(p=p, h=h, T=h).inner_max_iters
    return spec, op, tol, lambda: _minimize_step(op, u0, p, h, tol, max_iters)


def evolve_case(name):
    """A function that runs the evolution of the shipped config ``name``
    once, from its own start on its own grid, and returns the trajectory."""
    cfg = parse_config(CONFIG_DIR / f"{name}.cfg")
    spec, st = _grid_and_stencil(cfg)
    u0 = _initial_state(cfg, spec)
    scfg = cfg.stepper_config()
    return lambda: evolve(u0, spec, st, scfg)


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"{'study':<11} {'dim':>3} {'nx':>4} {'nodes':>6} {'step':>6} {'K':>4} "
          f"{'apply_us':>9} {'ext_us':>7} {'res_us':>7} {'sq_us':>7} {'tau_us':>7} "
          f"{'ext_diff':>8} {'res_diff':>8} {'sq_diff':>8}")
    for case in CASES:
        spec, op, interior, values, diffs = check_case(case, rng)
        k = sum(bool(np.any(d)) for d in op.stencil.offsets)
        if max(diffs) > MAX_DIFF:
            names = ("apply_extended", "apply_restricted", "apply_squared")
            print(f"{case[0]} K={k}: a correlation differs from the loop by "
                  + ", ".join(f"{d:.1e} ({name})" for d, name in zip(diffs, names)))
            return 1
        loop_us = per_call_us(op.apply, values)
        ext_us = per_call_us(op.apply_extended, interior)
        res_us = per_call_us(op.apply_restricted, values)
        sq, tau, sq_diff = "-", "-", "-"
        if spec.dim == 2:  # tau at the shift of evolve_2d's h = 5e-3
            sq = f"{per_call_us(op.apply_squared, interior):.1f}"
            tau = f"{per_call_us(op.tau_solve(1.0 / 5e-3), interior):.1f}"
            sq_diff = f"{diffs[2]:.1e}"
        nodes = int(np.prod(spec.padded_shape))
        print(f"{case[0]:<11} {spec.dim:>3} {case[3]:>4} {nodes:>6} {values.size:>6} {k:>4} "
              f"{loop_us:>9.1f} {ext_us:>7.1f} {res_us:>7.1f} {sq:>7} {tau:>7} "
              f"{diffs[0]:>8.1e} {diffs[1]:>8.1e} {sq_diff:>8}")

    print()
    print(f"{'solve':<11} {'dim':>3} {'n':>5} {'band':>4} {'block':>5} {'parts':>5} "
          f"{'asm_us':>8} {'asm_min':>8} {'asm_max':>8} "
          f"{'solve_us':>8} {'sol_min':>8} {'sol_max':>8} {'back_err':>9} "
          f"{'fac_us':>8} {'fac_min':>8} {'fac_max':>8} "
          f"{'sub_us':>8} {'sub_min':>8} {'sub_max':>8} {'sub_err':>9}")
    for case in SOLVE_CASES:
        op, model, curv, g, err, substitute, sub_err = solve_case(case, rng)
        times = [batch_us(lambda c: model.assemble(c, 1.0 / SOLVE_H), curv),
                 batch_us(model.eliminate, g)]
        model.assemble(np.ones(op.spec.padded_shape), 1.0 / SOLVE_H)
        kept = [batch_us(lambda _: model.factor(), None), batch_us(substitute, g)]
        print(f"{case[0]:<11} {case[1]:>3} {op.spec.n_interior:>5} {model.width:>4} "
              f"{model.block:>5} {model.parts:>5} "
              + " ".join(f"{np.median(t):>8.1f} {min(t):>8.1f} {max(t):>8.1f}" for t in times)
              + f" {err:>9.1e} "
              + " ".join(f"{np.median(t):>8.1f} {min(t):>8.1f} {max(t):>8.1f}" for t in kept)
              + f" {sub_err:>9.1e}")

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

    print()
    print(f"{'evolve':<13} {'steps':>6} {'frozen':>6} {'applies':>7} "
          f"{'ms':>8} {'min_ms':>8} {'max_ms':>8} {'us_step':>8} {'csv_ms':>7}")
    for name in EVOLVE_CASES:
        run = evolve_case(name)
        runs = []
        for _ in range(EVOLVE_REPEATS):
            begin = time.perf_counter()
            traj = run()
            runs.append(1e3 * (time.perf_counter() - begin))
        writes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trajectory.csv"
            for _ in range(EVOLVE_REPEATS):
                begin = time.perf_counter()
                trajectory_to_csv(traj, path)
                writes.append(1e3 * (time.perf_counter() - begin))
        frozen = int(np.sum(traj.inner_iters[1:] == 0))
        applies = int(traj.applies.sum()) + 1  # and the step-0 loop apply
        ms = np.median(runs)
        print(f"{name:<13} {traj.n_steps:>6} {frozen:>6} {applies:>7} {ms:>8.1f} "
              f"{min(runs):>8.1f} {max(runs):>8.1f} {1e3 * ms / traj.n_steps:>8.1f} "
              f"{np.median(writes):>7.2f}")
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
