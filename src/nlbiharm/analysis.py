"""Experiment procedures that check the qualitative theory numerically.

Each study returns a ``StudyReport`` (a small CSV-serializable table plus
metadata) and leaves pass/fail wiring to the caller.  Refinement studies
take strictly decreasing parameter lists and report fitted orders; audits
report worst-case slacks of the energy inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import DomainSpec, lq_sum_norm, write_csv
# lp_norm and zero_extend stay imported for the benchmark tracer (the contract
# in grid.py)
from .grid import lp_norm, zero_extend  # noqa: F401
from .kernel import Kernel, Stencil, discretize, kernel_is_nonincreasing
from .localref import local_evolve
from .nlop import NonlocalOperator
from .stepper import StepperConfig, Trajectory, as_operator, evolve


class DecayFitDegenerate(RuntimeError):
    """Squared norms underflowed inside the requested fit window."""


@dataclass(frozen=True)
class DecayFit:
    """Fitted large-time constants: exponential rate for p = 2, transformed
    linear law for p > 2."""

    model: str  # "exponential" | "polynomial"
    c1: float | None
    c2: float | None
    c3: float | None
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass
class StudyReport:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, self.rows)

    def summary_lines(self) -> list[str]:
        out = []
        for key, value in sorted(self.metadata.items()):
            if key.startswith("pass_"):
                out.append(f"{'PASS' if value else 'FAIL'} {self.name}.{key[5:]}")
        return out

    def all_passed(self) -> bool:
        return all(v for k, v in self.metadata.items() if k.startswith("pass_"))


def _linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ a + b t; returns (slope, intercept, r_squared)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    tbar = t.mean()
    ybar = y.mean()
    stt = float(np.sum((t - tbar) ** 2))
    sty = float(np.sum((t - tbar) * (y - ybar)))
    slope = sty / stt
    intercept = ybar - slope * tbar
    ss_res = float(np.sum((y - intercept - slope * t) ** 2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fitted_order(params: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares exponent s in error ~ C * param**s."""
    slope, _, _ = _linear_fit(np.log(np.asarray(params)), np.log(np.asarray(errors)))
    return slope


def _check_decreasing(values: Sequence[float], name: str) -> None:
    vals = list(values)
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must be strictly decreasing, got {vals}")


def _rate_rows(params: Sequence[float], errors: Sequence[float]) -> list[tuple]:
    rows = []
    for i, (par, err) in enumerate(zip(params, errors)):
        if i == 0 or errors[i] <= 0 or errors[i - 1] <= 0:
            rate = float("nan")
        else:
            rate = math.log(errors[i] / errors[i - 1]) / math.log(
                params[i] / params[i - 1]
            )
        rows.append((float(par), float(err), rate))
    return rows


def _require_monotone(kernel: Kernel) -> None:
    if not kernel_is_nonincreasing(kernel):
        raise ValueError(
            f"kernel {kernel.name!r} is not nonincreasing; the rescaling-limit "
            "studies require it"
        )


def default_bump(spec: DomainSpec) -> np.ndarray:
    """Smooth interior start vanishing to second order at the box boundary:
    sin^2 of the normalized coordinate, product form in 2D."""
    coords = spec.node_coords()
    interior = spec.interior_slices
    out = np.ones(spec.nx)
    for axis in range(spec.dim):
        x = coords[axis][interior]
        lo = spec.omega_lo[axis]
        hi = spec.omega_hi[axis]
        out = out * np.sin(np.pi * (x - lo) / (hi - lo)) ** 2
    return out


def fd4_laplacian(values: np.ndarray, dx: float, dim: int) -> np.ndarray:
    """Fourth-order central Laplacian of a smooth padded sample; valid two
    cells away from the array edge (everywhere on the interior box)."""
    out = np.zeros_like(values)
    for axis in range(dim):
        coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx * dx)
        for shift, c in zip((-2, -1, 0, 1, 2), coeff):
            sl_src = [slice(2, values.shape[a] - 2) for a in range(dim)]
            sl_src[axis] = slice(2 + shift, values.shape[axis] - 2 + shift)
            sl_dst = [slice(2, values.shape[a] - 2) for a in range(dim)]
            out[tuple(sl_dst)] += c * values[tuple(sl_src)]
    return out


def consistency_study(
    phi: Callable,
    kernel: Kernel,
    eps_list: Sequence[float],
    spec: DomainSpec,
) -> StudyReport:
    """Measure ||Delta_NL^eps phi - Delta phi||_{L^2(omega)} along eps.

    ``phi(*coords)`` samples the smooth function on the padded grid (its own
    smooth values stand in for the extension); the classical Laplacian is a
    fourth-order difference of the samples.

    Errors at the rounding floor of the two evaluations compared carry no
    order and count as consistent.  A double-precision sum of terms
    c_i phi_i rounds by about eps_mach sum_i |c_i| max|phi|.  The loop
    ``apply`` sums w_d (phi(x + d) - phi(x)), whose coefficients sum in
    magnitude to 2 sum_d w_d, its ``norm_bound()``; the fd4 target sums
    (-1, 16, -30, 16, -1) / (12 dx^2) along each axis, 64 dim / (12 dx^2)
    in magnitude.  So an error rounds by up to about eps_mach max|phi|
    (norm_bound + 64 dim / (12 dx^2)) at a node, and by that times
    |omega|^(1/2) in the L^2(omega) norm.  The order is fitted only when
    every error exceeds its floor; otherwise the order check passes.
    """
    _check_decreasing(eps_list, "eps_list")
    _require_monotone(kernel)
    coords = spec.node_coords()
    samples = np.asarray(phi(*coords), dtype=float)
    target = fd4_laplacian(samples, spec.dx, spec.dim)
    interior = spec.interior_slices
    vol = spec.cell_volume

    fd4_sum = 64.0 * spec.dim / (12.0 * spec.dx**2)
    scale = np.finfo(float).eps * float(np.abs(samples).max()) * (
        vol * spec.n_interior) ** 0.5

    errors = []
    resolved = True
    for eps in eps_list:
        st = discretize(kernel, eps, spec)
        op = NonlocalOperator(st, spec)
        diff = op.apply(samples)[interior] - target[interior]
        errors.append(lq_sum_norm(diff, 2, vol))
        resolved &= errors[-1] > scale * (op.norm_bound() + fd4_sum)

    rows = _rate_rows(eps_list, errors)
    order = (
        fitted_order(eps_list, errors)
        if len(eps_list) > 1 and resolved
        else float("nan")
    )
    return StudyReport(
        name="consistency",
        columns=("epsilon", "error", "pair_order"),
        rows=rows,
        metadata={
            "kernel": kernel.name,
            "nx": spec.nx,
            "fitted_order": order,
            # errors at the rounding floor are consistent by definition
            "pass_order_at_least_linear": bool(order >= 1.0 or not resolved),
        },
    )


# Past the step where l2_sq falls below this times l2_sq[0], an inexact inner
# solver pins the state and the recorded norms stop carrying decay
# information, so a decay fit ends there (ROADMAP item 4 removes the floor).
FIT_FLOOR_RATIO = 1e-18


def decay_window(times: np.ndarray, p: float, t_lo: float | None = None,
                 l2_sq: np.ndarray | None = None) -> np.ndarray:
    """Steps of a decay fit, as a mask over ``times``: those from ``t_lo``
    (by default the last 75% of the time range) to the end of the run, cut
    where ``l2_sq`` (when given) falls below ``FIT_FLOOR_RATIO * l2_sq[0]``.
    Without ``l2_sq`` it checks a fit before the run."""
    if p < 2:
        raise ValueError(f"decay fit covers p >= 2, got p = {p}")
    if len(times) < 20:
        raise ValueError(f"need at least 20 recorded steps, got {len(times)}")
    if t_lo is None:
        t_lo = times[0] + 0.25 * (times[-1] - times[0])
    t_hi = times[-1]
    if l2_sq is not None:
        alive = np.nonzero(l2_sq >= FIT_FLOOR_RATIO * l2_sq[0])[0]
        if alive.size:
            t_hi = min(t_hi, times[alive[-1]])
    sel = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(sel) < 5:
        raise ValueError(
            f"fit window [{t_lo:g}, {t_hi:g}] holds fewer than 5 recorded steps"
        )
    return sel


def decay_fit(traj: Trajectory, t_lo: float | None = None) -> DecayFit:
    """Fit the large-time law of the squared interior norm over the steps
    ``decay_window`` selects, by the law of the run's exponent."""
    p = traj.p
    times = np.asarray(traj.times)
    y = np.asarray(traj.l2_sq)
    sel = decay_window(times, p, t_lo, y)
    tw = times[sel]
    yw = y[sel]
    if np.any(yw < 1e-300):
        raise DecayFitDegenerate(
            f"l2_sq underflows inside the fit window [{tw[0]:g}, {tw[-1]:g}]"
        )
    if p == 2:
        slope, _, r2 = _linear_fit(tw, np.log(yw))
        return DecayFit(
            model="exponential",
            c1=-slope,
            c2=None,
            c3=None,
            r_squared=r2,
            window=(float(tw[0]), float(tw[-1])),
            n_points=int(tw.size),
        )
    slope, intercept, r2 = _linear_fit(tw, yw ** (-(p - 2.0) / 2.0))
    return DecayFit(
        model="polynomial",
        c1=None,
        c2=slope,
        c3=intercept,
        r_squared=r2,
        window=(float(tw[0]), float(tw[-1])),
        n_points=int(tw.size),
    )


def poincare_form(spec: DomainSpec, stencil: Stencil) -> Callable:
    """Matrix-free product B v = -2 (A v)_I + (A 1_I)_I v, one apply each,
    of the constrained difference form sum_{x in omega} sum_d w_d
    (u_ext(x + d) - u(x))^2 over flat interior values, A acting on zero
    extensions (volume factor dropped: it cancels against the L^2 norm).
    It reads A E v (``apply_extended``) only on the interior, so A runs on
    the step grid (``as_operator``)."""
    op = as_operator(stencil, spec)
    interior = op.spec.interior_slices
    shift = op.apply_extended(np.ones(spec.nx))[interior].ravel()

    def form(v: np.ndarray) -> np.ndarray:
        return shift * v - 2.0 * op.apply_extended(v.reshape(spec.nx))[interior].ravel()

    return form


def poincare_constant(spec: DomainSpec, stencil: Stencil) -> float:
    """Best constant in the discrete constrained Poincare inequality at q = 2:
    1 / lambda_min of ``poincare_form``, by Lanczos with full
    reorthogonalization (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM
    1998) from the ones vector, which overlaps the positive ground state,
    until the Ritz residual is at most 1e-10 times the Ritz value."""
    form = poincare_form(spec, stencil)
    n = spec.n_interior
    basis = [np.full(n, n**-0.5)]
    alpha, beta = [], []
    for _ in range(n):
        w = form(basis[-1])
        alpha.append(float(basis[-1] @ w))
        vecs = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= vecs.T @ (vecs @ w)
        beta.append(float(np.linalg.norm(w)))
        ritz, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1), UPLO="U")
        if beta[-1] * abs(y[-1, 0]) <= 1e-10 * ritz[0]:
            break
        basis.append(w / beta[-1])
    return float(1.0 / ritz[0])


def _distances(traj_a: Trajectory, traj_b: Trajectory, q: float) -> list[float]:
    """Interior L^q distance of two runs' recorded states, state by state."""
    vol = traj_a.spec.cell_volume
    return [lq_sum_norm((a - b).ravel(), q, vol)
            for a, b in zip(traj_a.interior, traj_b.interior)]


def nonlocal_to_local_study(
    u0: np.ndarray,
    spec: DomainSpec,
    kernel: Kernel,
    eps_list: Sequence[float],
    cfg: StepperConfig,
) -> StudyReport:
    """Sup-over-time L^p distance, p = ``cfg.p``, between rescaled nonlocal
    runs and the clamped local reference from interior values ``u0``, per eps.

    All runs share the grid ``spec`` (padded for the largest eps) and the
    same time step, so the supremum is taken over matching times.  Every
    eps is discretized before any run, so a collar narrower than some
    stencil's reach fails before the evolutions (``grid.check_collar``).
    """
    _check_decreasing(eps_list, "eps_list")
    _require_monotone(kernel)
    stencils = [discretize(kernel, eps, spec) for eps in eps_list]
    local = local_evolve(u0, spec, cfg)
    errors = [max(_distances(evolve(u0, spec, st, cfg), local, cfg.p)) for st in stencils]

    rows = _rate_rows(eps_list, errors)
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    return StudyReport(
        name="nonlocal_to_local",
        columns=("epsilon", "sup_t_error", "pair_order"),
        rows=rows,
        metadata={
            "kernel": kernel.name,
            "p": cfg.p,
            "nx": spec.nx,
            "h": cfg.h,
            "T": cfg.T,
            "pass_errors_decreasing": bool(decreasing),
        },
    )


def contraction_study(
    u0_a: np.ndarray, u0_b: np.ndarray, spec: DomainSpec, st, cfg: StepperConfig
) -> StudyReport:
    """Track the interior L^2 distance of two runs with identical configs
    on the grid ``spec``, from the interior values ``u0_a`` and ``u0_b``;
    an increase counts as a violation past 10 times the looser of the two
    runs' step tolerances.  Both runs step with one operator, and so share
    the factors it keeps (``as_operator``)."""
    op = as_operator(st, spec)
    traj_a = evolve(u0_a, spec, op, cfg)
    traj_b = evolve(u0_b, spec, op, cfg)
    slack = 10.0 * max(traj_a.inner_tol, traj_b.inner_tol)
    dists = _distances(traj_a, traj_b, 2)
    flags = [0] + [int(b - a > slack) for a, b in zip(dists, dists[1:])]
    violations = sum(flags)
    return StudyReport(
        name="contraction",
        columns=("time", "l2_distance", "violation"),
        rows=list(zip(map(float, traj_a.times), dists, flags)),
        metadata={
            "p": cfg.p,
            "h": cfg.h,
            "slack": slack,
            "violations": violations,
            "pass_nonincreasing": violations == 0,
        },
    )


def energy_audit(traj: Trajectory) -> StudyReport:
    """Audit the discrete dissipation chain of a recorded run.

    Checks, with slack tolerance ``1e-6 * (1/2 l2_0 + E_0)``:
      * per-step dissipation: inc_j/h + E_j <= E_{j-1};
      * its cumulative (telescoped) form;
      * monotonicity of the interior squared norm;
      * the aggregate a-priori bounds: each of sup_j 1/2 l2_sq, sum inc/h,
        and sup_j E is at most 1/2 l2_0 + E_0.
    The summed three-term form reduces to a false statement for nontrivial
    dissipative runs (the suprema sit at t = 0), so the three bounds are
    audited separately; see the report rows.
    """
    e = np.asarray(traj.energies)
    inc = np.asarray(traj.increments_sq)
    l2 = np.asarray(traj.l2_sq)
    h = traj.h
    rhs = 0.5 * l2[0] + e[0]
    tol = 1e-6 * max(rhs, 1e-300)

    per_step_slack = (e[:-1] - e[1:] - inc[1:] / h) if len(e) > 1 else np.array([0.0])
    cumulative_slack = e[0] - e[-1] - float(np.sum(inc[1:])) / h
    l2_slack = (l2[:-1] - l2[1:]) if len(l2) > 1 else np.array([0.0])
    rows = [
        ("per_step_dissipation_worst", float(per_step_slack.min()), float(tol)),
        ("cumulative_dissipation", float(cumulative_slack), float(tol)),
        ("l2_monotone_worst", float(l2_slack.min()), float(tol)),
        ("apriori_l2_sup", float(rhs - 0.5 * l2.max()), float(tol)),
        ("apriori_time_derivative", float(rhs - np.sum(inc[1:]) / h), float(tol)),
        ("apriori_energy_sup", float(rhs - e.max()), float(tol)),
    ]
    worst = min(r[1] for r in rows)
    return StudyReport(
        name="energy_audit",
        columns=("check", "slack", "tolerance"),
        rows=rows,
        metadata={
            "h": h,
            "p": traj.p,
            "worst_slack": worst,
            "pass_all_inequalities": bool(all(r[1] >= -r[2] for r in rows)),
        },
    )
