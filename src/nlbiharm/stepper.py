"""Rothe time stepping for the constrained evolution.

Each implicit step minimizes the per-step functional

    E(w) = 1/(2h) int_omega w^2 - 1/h int_omega u_prev w
           + 1/p int_padded |A w|^p

over interior values (the exterior stays pinned at zero), where A is the
injected operator (nonlocal Laplacian, or the finite-difference Laplacian of
the local reference solver) and the p-term runs over the whole padded domain.
The minimizer certifies the step through the Euler-Lagrange residual

    (w - u_prev)/h + A(|A w|^(p-2) A w)   restricted to the interior box.

One Armijo loop minimizes it: each inner iteration moves x <- x - t d and
backtracks t from t0 until E(x - t d) <= E(x) - c1 t slope, so the functional
never increases.  A direction rule, picked once per step by regime, supplies
(d, t0, slope):

* Barzilai-Borwein gradient descent, for the nonlocal operator at p >= 2
  (matrix free): d = g with the BB step length;
* damped Newton on sparse restricted matrices, for the local reference,
  whose step Hessian conditions like h/dx^4 and defeats first-order descent
  at fine grids;
* iteratively reweighted least squares for 1 < p < 2, where the flux
  curvature is unbounded at zeros of the operator value and first-order
  descent has unbounded crawl phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, Field, lp_norm, zero_extend
from .kernel import Stencil
from .nlop import NonlocalOperator, check_exponent, p_flux_values

ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


class InnerSolveFailed(RuntimeError):
    """Implicit step failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class StabilityViolation(RuntimeError):
    """Explicit step rejected because the energy increased."""


@dataclass
class StepperConfig:
    """Time-stepping parameters.

    ``inner_tol = None`` resolves to 1e-8 * max(1, ||u0||_2) at the start of
    a run, which keeps dissipation-slack checks scale invariant.
    """

    p: float
    h: float
    T: float
    mode: str = "implicit"
    inner_tol: float | None = None
    inner_max_iters: int = 5000
    record_every: int = 1

    def __post_init__(self):
        check_exponent(self.p)
        if self.h <= 0:
            raise ValueError(f"time step must be positive, got {self.h}")
        if self.T < self.h:
            raise ValueError(f"final time {self.T} must be at least one step {self.h}")
        if self.mode not in ("implicit", "explicit"):
            raise ValueError(f"mode must be implicit or explicit, got {self.mode!r}")
        if self.inner_tol is not None and self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise ValueError("inner_max_iters must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def resolve_inner_tol(cfg: StepperConfig, u0_l2: float) -> float:
    if cfg.inner_tol is not None:
        return cfg.inner_tol
    return 1e-8 * max(1.0, u0_l2)


def effective_inner_tol(op, cfg: StepperConfig, u0_l2: float) -> float:
    """Requested tolerance, floored at the evaluation noise of the gradient.

    One gradient evaluation composes the operator twice, so its floating
    point noise scales like eps_mach * bound**2 * scale where ``bound`` is
    the operator norm bound; residuals below that are not certifiable in
    double precision (the clamped Laplacian at fine grids hits this).  The
    floor is recorded per step through the trajectory residual column.
    """
    tol = resolve_inner_tol(cfg, u0_l2)
    bound = getattr(op, "norm_bound", None)
    if bound is None:
        return tol
    floor = np.finfo(float).eps * bound() ** 2 * max(1.0, u0_l2)
    return max(tol, floor)


@dataclass
class Trajectory:
    """Per-step scalars plus a recorded subset of states."""

    times: np.ndarray
    l2_sq: np.ndarray
    energies: np.ndarray
    increments_sq: np.ndarray
    inner_iters: np.ndarray
    residuals: np.ndarray
    state_steps: list[int]
    states: list[Field]
    p: float
    h: float

    def state_times(self) -> np.ndarray:
        return self.times[self.state_steps]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def as_operator(st, spec: DomainSpec):
    """Accept a Stencil or any object with apply/spec (plus restricted_matrix
    for the sparse direction rules)."""
    if isinstance(st, Stencil):
        return NonlocalOperator(st, spec)
    if not hasattr(st, "apply"):
        raise TypeError(f"expected a Stencil or an operator, got {type(st)!r}")
    if st.spec != spec:
        raise ValueError("operator bound to a different domain spec")
    return st


class _StepFunctional:
    """Energy/gradient of the per-step functional over interior values.

    ``apply`` evaluates the operator; it defaults to the exact difference
    loop ``op.apply``.
    """

    def __init__(self, op, spec: DomainSpec, u_prev: np.ndarray, p: float, h: float,
                 apply=None):
        self.op = op
        self.apply = op.apply if apply is None else apply
        self.spec = spec
        self.u_prev = u_prev
        self.p = p
        self.h = h
        self.vol = spec.cell_volume
        self._full = np.zeros(spec.padded_shape)

    def embed(self, x: np.ndarray) -> np.ndarray:
        self._full[:] = 0.0
        self._full[self.spec.interior_slices] = x
        return self._full

    def energy(self, x: np.ndarray, a: np.ndarray | None = None):
        """Return (E(x), A x) so the operator value can be reused; a known
        ``a = A x`` skips the apply."""
        if a is None:
            a = self.apply(self.embed(x))
        quad = (0.5 / self.h) * np.dot(x.ravel(), x.ravel())
        cross = (1.0 / self.h) * np.dot(self.u_prev.ravel(), x.ravel())
        return float(self.vol * (quad - cross) + self.p_energy(a)), a

    def p_energy(self, a: np.ndarray) -> float:
        return float(self.vol / self.p * np.sum(np.abs(a) ** self.p))

    def gradient(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        g2 = self.apply(p_flux_values(a, self.p))
        return (x - self.u_prev) / self.h + g2[self.spec.interior_slices]

    def l2(self, x: np.ndarray) -> float:
        return math.sqrt(self.vol * float(np.dot(x.ravel(), x.ravel())))


def step_energy(w: Field, u_prev: Field, st, cfg: StepperConfig) -> float:
    """The scalar per-step functional E(w); all integrals by grid quadrature."""
    _check_pair(w, u_prev)
    op = as_operator(st, w.spec)
    fn = _StepFunctional(op, w.spec, u_prev.interior_values, cfg.p, cfg.h)
    e, _ = fn.energy(w.interior_values)
    return e


def step_gradient(w: Field, u_prev: Field, st, cfg: StepperConfig) -> Field:
    """L2(omega) gradient of the per-step functional, zero on the exterior."""
    _check_pair(w, u_prev)
    op = as_operator(st, w.spec)
    fn = _StepFunctional(op, w.spec, u_prev.interior_values, cfg.p, cfg.h)
    _, a = fn.energy(w.interior_values)
    return zero_extend(fn.gradient(w.interior_values, a), w.spec)


def _check_pair(w: Field, u_prev: Field) -> None:
    if w.spec != u_prev.spec:
        raise ValueError("fields live on different domain specs")
    for f, what in ((w, "trial state"), (u_prev, "previous state")):
        if not f.is_zero_extended():
            raise ValueError(f"{what} must be exactly zero on exterior nodes")


@dataclass
class _StepResult:
    interior: np.ndarray
    iters: int
    residual: float
    p_energy: float


def _minimize_step(op, spec, u_prev_int, p, h, tol, max_iters) -> _StepResult:
    # Below p = 2 the flux curvature is unbounded at zeros of the operator
    # value and first-order descent has unbounded crawl phases, so every such
    # step uses the reweighted (majorize-minimize) rule.  The sparse rules
    # evaluate through the exact difference loop; the matrix-free gradient
    # rule through the FFT, with linear trials (below).
    if p < 2.0:
        label, make_rule, apply = "reweighted", _irls_rule, op.apply
    elif getattr(op, "inner_solver", "bb") == "newton":
        label, make_rule, apply = "Newton", _newton_rule, op.apply
    else:
        label, make_rule = "gradient", _bb_rule
        apply = getattr(op, "apply_fft", op.apply)
    fn = _StepFunctional(op, spec, u_prev_int, p, h, apply)
    rule = make_rule(fn)
    # Linear trials: A(x - t d) = A x - t A d costs one apply per iteration
    # and none per backtrack, and the trial energies differ only through
    # x and t.  Re-evaluating A at each trial instead adds the global FFT
    # rounding to every comparison; at small eps that is several times the
    # roundoff allowance, the search rejects good steps and the iteration
    # stagnates.  The carried A x drifts by rounding, so it is evaluated
    # afresh before a residual is certified.
    linear = make_rule is _bb_rule

    x = np.array(u_prev_int, dtype=float)
    e, a = fn.energy(x)
    g = fn.gradient(x, a)
    res = fn.l2(g)
    fresh = True
    t = None
    iters = 0
    while res > tol or not fresh:
        if res <= tol:  # met on the carried A x: recheck on a fresh one
            e, a = fn.energy(x)
            g = fn.gradient(x, a)
            res = fn.l2(g)
            fresh = True
            continue
        if iters >= max_iters:
            raise InnerSolveFailed(
                f"residual {res:.3e} above tolerance {tol:.3e} "
                f"after {max_iters} inner iterations",
                residual=res,
            )
        d, t, slope = rule(x, a, g, t)
        # the allowance absorbs floating-point cancellation in E when the
        # true decrease per step drops below the resolution of the energy
        roundoff = 10.0 * np.finfo(float).eps * abs(e)
        ad = fn.apply(fn.embed(d)) if linear else None
        for _ in range(MAX_BACKTRACKS):
            x_new = x - t * d
            e_new, a_new = fn.energy(x_new, None if ad is None else a - t * ad)
            if e_new <= e - ARMIJO_C1 * t * slope + roundoff:
                break
            t *= BACKTRACK_FACTOR
        else:
            raise InnerSolveFailed(
                f"{label} line search stalled at residual {res:.3e} "
                f"(tolerance {tol:.3e})",
                residual=res,
            )
        if not np.any(x_new != x):
            raise InnerSolveFailed(
                f"{label} iteration stagnated at residual {res:.3e} "
                f"(tolerance {tol:.3e})",
                residual=res,
            )
        x, e, a = x_new, e_new, a_new
        fresh = not linear
        g = fn.gradient(x, a)
        res = fn.l2(g)
        iters += 1
    return _StepResult(interior=x, iters=iters, residual=res, p_energy=fn.p_energy(a))


# Direction rules: rule(x, a, g, t_prev) -> (d, t0, slope) at the iterate x
# with operator value a = A x and gradient g; t_prev is the step accepted at
# the previous iterate (None at the first).


def _bb_rule(fn):
    """Steepest descent with the Barzilai-Borwein step <s,s>/<s,y>."""
    x_old = g_old = None

    def rule(x, a, g, t_prev):
        nonlocal x_old, g_old
        t = fn.h
        if x_old is not None:
            s = x - x_old
            y = g - g_old
            sy = float(np.dot(s.ravel(), y.ravel()))
            ss = float(np.dot(s.ravel(), s.ravel()))
            t = ss / sy if sy > 0 and np.isfinite(sy) else t_prev
            if not np.isfinite(t) or t <= 0:
                t = fn.h
        x_old, g_old = x, g
        return g, t, fn.vol * float(np.dot(g.ravel(), g.ravel()))

    return rule


def _sparse_model(fn):
    """theta -> eye/h + A^T diag(theta) A over interior values, from the
    operator's restricted matrix A."""
    import scipy.sparse

    mat = fn.op.restricted_matrix()
    mat_t = mat.T.tocsr()
    eye = scipy.sparse.identity(mat.shape[1], format="csr")
    return lambda theta: (eye / fn.h + mat_t @ mat.multiply(theta[:, None])).tocsc()


def _irls_rule(fn):
    """Iteratively reweighted least squares for exponents 1 < p < 2.

    The quadratic upper model with frozen weights |A x|^(p-2) (floored for
    numerical safety) majorizes the p-term for p < 2; its minimizer w gives
    the direction d = x - w with a unit first trial step.
    """
    import scipy.sparse.linalg

    model = _sparse_model(fn)
    rhs = fn.u_prev.ravel() / fn.h

    def rule(x, a, g, t_prev):
        mag = np.abs(a.ravel())
        floor = 1e-12 * max(float(mag.max()), 1e-300)
        theta = np.maximum(mag, floor) ** (fn.p - 2.0)
        w_model = scipy.sparse.linalg.spsolve(model(theta), rhs)
        direction = w_model.reshape(x.shape) - x
        gd = fn.vol * float(np.dot(g.ravel(), direction.ravel()))
        return -direction, 1.0, -min(gd, 0.0)

    return rule


def _newton_rule(fn):
    """Damped Newton for p >= 2: solve the sparse step Hessian
    eye/h + A^T diag((p-1)|A x|^(p-2)) A against the gradient."""
    import scipy.sparse.linalg

    model = _sparse_model(fn)

    def rule(x, a, g, t_prev):
        if fn.p == 2.0:
            curv = np.ones(a.size)
        else:
            curv = (fn.p - 1.0) * np.abs(a.ravel()) ** (fn.p - 2.0)
        direction = scipy.sparse.linalg.spsolve(model(curv), -g.ravel())
        direction = direction.reshape(x.shape)
        return -direction, 1.0, -fn.vol * float(np.dot(g.ravel(), direction.ravel()))

    return rule


def implicit_step(u_prev: Field, st, cfg: StepperConfig) -> Field:
    """Solve one implicit step by minimizing the per-step functional."""
    if not u_prev.is_zero_extended():
        raise ValueError("previous state must be exactly zero on exterior nodes")
    op = as_operator(st, u_prev.spec)
    tol = effective_inner_tol(op, cfg, lp_norm(u_prev, 2, "omega"))
    result = _minimize_step(
        op, u_prev.spec, u_prev.interior_values.copy(), cfg.p, cfg.h, tol,
        cfg.inner_max_iters,
    )
    return zero_extend(result.interior, u_prev.spec)


def explicit_stability_limit(st: Stencil) -> float:
    """Forward-Euler bound for p = 2 from the Gershgorin estimate of the
    squared operator: h <= 0.9 * 2 / (2 * sum w_d)**2."""
    return 0.9 * 2.0 / (2.0 * st.diag) ** 2


def explicit_step(u_prev: Field, st, cfg: StepperConfig) -> Field:
    """Forward-Euler convenience step with an energy guard."""
    if not u_prev.is_zero_extended():
        raise ValueError("previous state must be exactly zero on exterior nodes")
    op = as_operator(st, u_prev.spec)
    fn = _StepFunctional(op, u_prev.spec, u_prev.interior_values, cfg.p, cfg.h)
    x = u_prev.interior_values
    a = op.apply(fn.embed(x))
    e_prev = fn.p_energy(a)
    rhs = -op.apply(p_flux_values(a, cfg.p))[u_prev.spec.interior_slices]
    x_new = x + cfg.h * rhs
    a_new = op.apply(fn.embed(x_new))
    e_new = fn.p_energy(a_new)
    if e_new > e_prev * (1.0 + 1e-12) + 1e-300:
        raise StabilityViolation(
            f"energy increased {e_prev:.6e} -> {e_new:.6e}; reduce the time step"
        )
    return zero_extend(x_new, u_prev.spec)


def evolve(u0: Field, st, cfg: StepperConfig) -> Trajectory:
    """March ceil(T/h) steps, auditing norms, energies, and increments."""
    if not u0.is_zero_extended():
        raise ValueError("initial state must be exactly zero on exterior nodes")
    spec = u0.spec
    op = as_operator(st, spec)
    tol = effective_inner_tol(op, cfg, lp_norm(u0, 2, "omega"))
    m = math.ceil(cfg.T / cfg.h - 1e-12)
    vol = spec.cell_volume

    fn = _StepFunctional(op, spec, u0.interior_values, cfg.p, cfg.h)
    x = u0.interior_values.copy()
    a0 = op.apply(fn.embed(x))

    times = np.arange(m + 1) * cfg.h
    l2_sq = np.zeros(m + 1)
    energies = np.zeros(m + 1)
    increments_sq = np.zeros(m + 1)
    inner_iters = np.zeros(m + 1, dtype=int)
    residuals = np.zeros(m + 1)

    l2_sq[0] = vol * float(np.dot(x.ravel(), x.ravel()))
    energies[0] = fn.p_energy(a0)
    state_steps = [0]
    states = [zero_extend(x, spec)]

    for j in range(1, m + 1):
        try:
            if cfg.mode == "implicit":
                result = _minimize_step(
                    op, spec, x, cfg.p, cfg.h, tol, cfg.inner_max_iters
                )
                x_new = result.interior
                inner_iters[j] = result.iters
                residuals[j] = result.residual
                energies[j] = result.p_energy
            else:
                fld = explicit_step(zero_extend(x, spec), op, cfg)
                x_new = fld.interior_values.copy()
                a = op.apply(fn.embed(x_new))
                energies[j] = fn.p_energy(a)
        except (InnerSolveFailed, StabilityViolation) as err:
            raise type(err)(f"step {j} (t = {j * cfg.h:g}): {err}", *(
                (err.residual,) if isinstance(err, InnerSolveFailed) else ()
            )) from err
        delta = x_new - x
        increments_sq[j] = vol * float(np.dot(delta.ravel(), delta.ravel()))
        l2_sq[j] = vol * float(np.dot(x_new.ravel(), x_new.ravel()))
        x = x_new
        if j % cfg.record_every == 0 or j == m:
            state_steps.append(j)
            states.append(zero_extend(x, spec))

    return Trajectory(
        times=times,
        l2_sq=l2_sq,
        energies=energies,
        increments_sq=increments_sq,
        inner_iters=inner_iters,
        residuals=residuals,
        state_steps=state_steps,
        states=states,
        p=cfg.p,
        h=cfg.h,
    )


def trajectory_to_csv(traj: Trajectory, path, operator: str = "nonlocal") -> None:
    from .grid import format_float as ff

    with open(path, "w", newline="\n") as fh:
        fh.write("step,time,l2_sq,energy,increment_sq,inner_iters,residual,operator\n")
        for j in range(len(traj.times)):
            fh.write(
                ",".join(
                    [
                        str(j),
                        ff(traj.times[j]),
                        ff(traj.l2_sq[j]),
                        ff(traj.energies[j]),
                        ff(traj.increments_sq[j]),
                        str(int(traj.inner_iters[j])),
                        ff(traj.residuals[j]),
                        operator,
                    ]
                )
                + "\n"
            )
