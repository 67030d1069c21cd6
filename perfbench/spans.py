"""Spans and counts recorded from wrappers that live in the benchmark.

Nothing here edits the package: ``install`` rebinds public names where the
package modules imported them (``cli.evolve``, ``analysis.evolve``,
``stepper.zero_extend``, ...) and wraps the ``apply`` methods on the operator
classes.  Every wrapped call becomes one span ``[name, start, end, parent,
tag]``; spans stay in memory until the child process reports them, and
``layer_metrics`` reduces them to the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
import time
import weakref

# Stencil sizes K the workloads use: 24 (1D, nx=64, eps=0.2), 44 (denoise,
# eps=4 pixels), 50/102/204 (1D, eps/dx = 25.6/51.2/102.4 in converge_p3 and
# in the consistency study), 508 (2D, nx=64, eps=0.2).  Calls at any other K
# are reported under ``nlop.apply_us.other``.
STENCIL_SIZES = (24, 44, 50, 102, 204, 508)

# Members of every workload, keyed as ``cli.study_s.<member>``.
MEMBERS = (
    "converge_p3",
    "evolve_2d",
    "dissipation_p2",
    "decay_p2",
    "decay_p3",
    "contraction",
    "consistency",
    "poincare",
    "denoise",
)

# The analysis entry points that ``cli`` dispatches to.
ANALYSIS_ENTRY_POINTS = (
    "energy_audit",
    "decay_fit",
    "contraction_study",
    "nonlocal_to_local_study",
    "consistency_study",
    "poincare_constant",
)

# Layer metrics that are counts of work done: they must repeat exactly.
COUNT_METRICS = (
    "nlop.apply_calls",
    "stepper.steps",
    "stepper.inner_iters",
    "stepper.frozen_steps",
    "localref.spsolve_calls",
    "grid.zero_extend_calls",
    "grid.lp_norm_calls",
    "analysis.states_recorded",
    "analysis.state_bytes",
    "cli.csv_bytes",
    "kernel.stencil_K",
)


def stencil_size(stencil) -> int:
    """K: the number of nonzero offsets of a stencil."""
    return int(sum(1 for d in stencil.offsets if any(int(c) != 0 for c in d)))


def loop_cost(op) -> tuple[float, float]:
    """Computed (flops, bytes) of one difference-form apply of ``op``.

    For each nonzero offset d the loop touches the n_d padded nodes whose
    neighbour i+d is in the array: one subtraction, one scaling and one
    accumulation (3 flops), and eight float64 transfers (read both operands,
    write the difference, read/write it when scaling, read/write the output
    and read the difference when accumulating).  Zeroing the output adds one
    write per node.  These are derived from the grid and stencil, not
    measured.
    """
    shape = op.spec.padded_shape
    pairs = 0
    nodes = 1
    for n in shape:
        nodes *= n
    for d in op.stencil.offsets:
        if not any(int(c) != 0 for c in d):
            continue
        count = 1
        for n, c in zip(shape, d):
            count *= max(n - abs(int(c)), 0)
        pairs += count
    return 3.0 * pairs, 8.0 * (8 * pairs + nodes)


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded runs)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.trajectories: list[tuple[int, int, int, int, int]] = []
        self.stencils: list[int] = []
        self.skipped: list[str] = []

    def span(self, name: str, fn, tag=None):
        """Run ``fn()`` inside one span; returns its result."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, tag_of=None, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            tag = tag_of(args) if tag_of is not None else None
            result = tracer.span(name, lambda: fn(*args, **kwargs), tag)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` with a traced wrapper, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, **kw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every package module."""
    import scipy.sparse.linalg

    from nlbiharm import analysis, cli, localref, nlop, stepper

    costs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def op_tag(args):
        op = args[0]
        tag = costs.get(op)
        if tag is None:
            tag = (stencil_size(op.stencil),) + loop_cost(op)
            costs[op] = tag
        return tag

    def record_trajectory(traj):
        iters = [int(i) for i in traj.inner_iters[1:]]
        state_bytes = sum(int(s.values.nbytes) for s in traj.states)
        tracer.trajectories.append(
            (len(iters), sum(iters), sum(1 for i in iters if i == 0),
             len(traj.states), state_bytes)
        )

    def record_stencil(st):
        tracer.stencils.append(stencil_size(st))

    tracer.patch(nlop.NonlocalOperator, "apply", "nlop.apply", tag_of=op_tag)
    tracer.patch(localref.LocalOperator, "apply", "localref.apply")
    for mod in (cli, analysis, localref):
        tracer.patch(mod, "evolve", "stepper.evolve", on_return=record_trajectory)
    tracer.patch(analysis, "local_evolve", "localref.local_evolve")
    tracer.patch(scipy.sparse.linalg, "spsolve", "scipy.spsolve")
    for mod in (cli, analysis, stepper):
        tracer.patch(mod, "zero_extend", "grid.zero_extend")
    for mod in (analysis, stepper):
        tracer.patch(mod, "lp_norm", "grid.lp_norm")
    for mod in (cli, analysis):
        tracer.patch(mod, "discretize", "kernel.discretize", on_return=record_stencil)
    for name in ANALYSIS_ENTRY_POINTS:
        tracer.patch(cli, name, f"analysis.{name}")
    tracer.patch(cli, "parse_config", "cli.parse_config")
    tracer.patch(cli, "trajectory_to_csv", "cli.csv_write")
    tracer.patch(analysis.StudyReport, "to_csv", "cli.csv_write")


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Reduce one traced run to its per-layer values (plain numbers)."""
    spans = tracer.spans
    own = _self_times(spans)
    dur = {}
    calls = {}
    self_s = {}
    for (name, t0, t1, _, _), s in zip(spans, own):
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s

    out: dict[str, float] = {}
    apply_s = dur.get("nlop.apply", 0.0)
    out["nlop.apply_calls"] = calls.get("nlop.apply", 0)
    out["nlop.apply_s"] = apply_s
    out["nlop.apply_share"] = apply_s / wall_s if wall_s > 0 else 0.0
    by_k: dict[int, list] = {}
    for name, t0, t1, _, tag in spans:
        if name == "nlop.apply":
            by_k.setdefault(tag[0], []).append((t1 - t0, tag[1], tag[2]))
    for k in STENCIL_SIZES:
        rows = by_k.get(k, [])
        out[f"nlop.apply_us.k{k}"] = (
            1e6 * statistics.median(r[0] for r in rows) if rows else 0.0
        )
        out[f"nlop.flops_per_call.k{k}"] = (
            sum(r[1] for r in rows) / len(rows) if rows else 0.0
        )
        out[f"nlop.bytes_per_call.k{k}"] = (
            sum(r[2] for r in rows) / len(rows) if rows else 0.0
        )
    other = [r[0] for k, rows in by_k.items() if k not in STENCIL_SIZES for r in rows]
    out["nlop.apply_us.other"] = 1e6 * statistics.median(other) if other else 0.0

    trajs = tracer.trajectories
    steps = sum(t[0] for t in trajs)
    iters = sum(t[1] for t in trajs)
    evolve_applies = sum(
        1
        for i, s in enumerate(spans)
        if s[0] in ("nlop.apply", "localref.apply")
        and _has_ancestor(spans, i, "stepper.evolve")
    )
    out["stepper.steps"] = steps
    out["stepper.inner_iters"] = iters
    out["stepper.frozen_steps"] = sum(t[2] for t in trajs)
    out["stepper.applies_per_iter"] = evolve_applies / iters if iters else 0.0
    out["stepper.self_s"] = self_s.get("stepper.evolve", 0.0)

    out["localref.evolve_s"] = dur.get("localref.local_evolve", 0.0)
    out["localref.spsolve_calls"] = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "scipy.spsolve" and _has_ancestor(spans, i, "localref.local_evolve")
    )

    out["grid.zero_extend_calls"] = calls.get("grid.zero_extend", 0)
    out["grid.zero_extend_s"] = dur.get("grid.zero_extend", 0.0)
    out["grid.lp_norm_calls"] = calls.get("grid.lp_norm", 0)

    out["analysis.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("analysis.")
    )
    out["analysis.poincare_s"] = dur.get("analysis.poincare_constant", 0.0)
    out["analysis.states_recorded"] = sum(t[3] for t in trajs)
    out["analysis.state_bytes"] = sum(t[4] for t in trajs)

    out["cli.parse_s"] = dur.get("cli.parse_config", 0.0)
    out["cli.csv_write_s"] = dur.get("cli.csv_write", 0.0)
    for member in MEMBERS:
        out[f"cli.study_s.{member}"] = dur.get(f"cli.study.{member}", 0.0)

    out["kernel.discretize_s"] = dur.get("kernel.discretize", 0.0)
    out["kernel.stencil_K"] = max(tracer.stencils, default=0)
    return out


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "nlop.apply_calls": "count",
        "nlop.apply_s": "s",
        "nlop.apply_share": "frac",
    }
    for k in STENCIL_SIZES:
        units[f"nlop.apply_us.k{k}"] = "us"
    units["nlop.apply_us.other"] = "us"
    for k in STENCIL_SIZES:
        units[f"nlop.flops_per_call.k{k}"] = "flop"
    for k in STENCIL_SIZES:
        units[f"nlop.bytes_per_call.k{k}"] = "B"
    units.update({
        "stepper.steps": "count",
        "stepper.inner_iters": "count",
        "stepper.frozen_steps": "count",
        "stepper.applies_per_iter": "frac",
        "stepper.self_s": "s",
        "localref.evolve_s": "s",
        "localref.spsolve_calls": "count",
        "grid.zero_extend_calls": "count",
        "grid.zero_extend_s": "s",
        "grid.lp_norm_calls": "count",
        "analysis.self_s": "s",
        "analysis.poincare_s": "s",
        "analysis.states_recorded": "count",
        "analysis.state_bytes": "B",
        "cli.parse_s": "s",
        "cli.csv_write_s": "s",
        "cli.csv_bytes": "B",
    })
    for member in MEMBERS:
        units[f"cli.study_s.{member}"] = "s"
    units.update({
        "kernel.discretize_s": "s",
        "kernel.stencil_K": "count",
        "setup.import_s": "s",
        "trace.overhead_frac": "frac",
    })
    return units
