"""Rothe time stepping for the constrained evolution.

Each implicit step minimizes the per-step functional

    E(w) = 1/(2h) int_omega w^2 - 1/h int_omega u_prev w
           + 1/p int_padded |A w|^p

over interior values (the exterior stays pinned at zero), where A is the
operator of the given stencil: the nonlocal Laplacian, or for the local
reference solver the finite-difference Laplacian's +-e_i stencil.  The
minimizer certifies the step through the Euler-Lagrange residual

    (w - u_prev)/h + A(|A w|^(p-2) A w)   restricted to the interior box.

A step runs on the step grid, the interior plus the stencil's reach per
side (``as_operator``), not on the caller's padded grid.  That is exact:
A w of a zero-extended w vanishes beyond reach of the interior, so the
p-term over interior +- reach carries all of it, and a window-edge node
drops only differences of two exterior zeros; the residual reads A(flux)
only at interior nodes, whose neighbourhoods lie inside the window.  So the
collar must cover the reach (the constraint set Omega_J of Andreu, Mazon,
Rossi & Toledo, Nonlocal Diffusion Problems, AMS 2010), or ``as_operator``
raises.  Only test doubles pass an operator instead of a stencil: its loop
keeps the operator's grid and its correlations the step window, whatever
its collar.  Recorded states are zero-extended onto the caller's grid.

One Armijo loop minimizes it: each inner iteration moves x <- x - t d and
backtracks t from 1 until E(x - t d) <= E(x) - c1 t slope, so the functional
never increases.  Every trial evaluates A(x - t d) afresh, so the accepted
iterate's residual is its certificate.  The direction is always d = M^-1 g
for the step model M = I/h + A^T diag(c) A at the iterate; only the weights
c depend on p:

* for p >= 2 they are the flux curvature (p-1)|A x|^(p-2), so M is the step
  Hessian and d the damped Newton direction;
* for 1 < p < 2 that curvature is unbounded at zeros of the operator value,
  and c = |A x|^(p-2) (floored) are the weights of the quadratic upper model
  that majorizes the p-term: iteratively reweighted least squares, here a
  quasi-Newton step (lagged diffusivity; Vogel & Oman, SIAM J. Sci. Comput.
  17, 1996).  Where no weight is floored M x - u_prev/h = g, so x - d is the
  model's minimizer, formed without the cancellation of the difference
  between it and x.

The solve and the operator evaluation follow from p and the stencil alone.
M is solved directly (block LDL^T on its band, ``NonlocalOperator.
normal_solve``), evaluating through the exact difference loop ``apply``,
below p = 2, where the weights |A x|^(p-2) amplify rounding at zeros of
A x, and for nearest-neighbour stencils (``reach == 1``), such as the local
reference's, whose narrow-banded Hessian conditions like h/dx^4 and leaves
residuals near the rounding floor.  Every other Hessian is solved matrix
free by conjugate gradients, evaluating through the two correlations of
the step: A E (E the zero extension of interior values) for energies and
trials, ``apply_extended``, and its transpose E^T A for the flux term,
``apply_restricted``; each product M v = v/h + E^T A (c A E v) costs two
operator applies.  Above p = 2 CG is truncated at a tolerance set by
Eisenstat-Walker forcing.  At p = 2 the step functional is quadratic and M
its exact Hessian, so one CG solve to the residual floor lands on the
minimizer, and the step certifies after one Newton iteration.  There
c = 1, and each product M v = v/h + E^T A^2 E v is one squared correlation
``apply_squared``, exact on the step grid for the reason above: a third
evaluation, which never forms A v.  In 2D that CG is preconditioned with
the operator's tau solve P^-1 = S diag(1 / (1/h + lambda^2)) S
(``NonlocalOperator.tau_solve``), whose DST-I basis is built on the first
solve and kept on the operator: on the evolve_2d step it cuts the CG
products from 45 to 17.  Everywhere else CG is plain: in 1D the tau solve
costs more than it saves (converge_p2 took 1,641 products without it and
2,015 with it), and above p = 2 it has not been measured.

An evolution resolves its residual tolerance once, from its initial state
(``effective_inner_tol``, kept as ``Trajectory.inner_tol``), records the
state of every step, and carries the operator value and the flux term of
each step's certified state into the next step, which starts from that
state.  ``implicit_step`` is a one-step evolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (DomainSpec, Field, check_collar, lp_norm, require_zero_extended,
                   write_csv, zero_extend)
from .kernel import Stencil
from .nlop import NonlocalOperator, check_exponent, p_flux_values

ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
# Eisenstat-Walker forcing, choice 2 (SIAM J. Sci. Comput. 17, 1996): CG
# stops at ||H d - g|| <= eta ||g||, eta = min(EW_ETA_MAX, EW_GAMMA *
# (||g|| / ||g_prev||)^EW_ALPHA), eta_0 = EW_ETA_MAX.  The paper's safeguard
# acts only when EW_GAMMA * eta_prev^EW_ALPHA > 0.1, never under this cap.
# Caps 0.9/0.5/0.3/0.1 took 13,813/13,092/12,062/12,168 applies in the
# nonlocal runs of converge_p3; 0.3 and 0.1 tied on the small studies.
# Not at p = 2, where H is the functional's own constant Hessian: a forced
# solve only splits one solve into restarts (evolve_2d's step took 4 Newton
# iterations and 130 applies with forcing, 1 and 95 without).
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_ETA_MAX = 0.3


class InnerSolveFailed(RuntimeError):
    """Implicit step failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class StepperConfig:
    """Time-stepping parameters.

    Every step certifies to one residual tolerance, which
    ``effective_inner_tol`` resolves from the initial state at the start of
    a run; the trajectory records every state.
    """

    p: float
    h: float
    T: float
    inner_max_iters: int = 5000

    def __post_init__(self):
        check_exponent(self.p)
        if not 0 < self.T < math.inf:
            raise ValueError(f"final time T must be positive and finite, got {self.T}")
        if not 0 < self.h < math.inf:
            raise ValueError(f"time step h must be positive and finite, got {self.h}")
        if self.T < self.h:
            raise ValueError(
                f"final time T = {self.T} must be at least one step h = {self.h}"
            )
        if not math.isfinite(self.T / self.h):
            raise ValueError(
                f"final time T = {self.T} over step h = {self.h} is not a finite step count"
            )
        if self.inner_max_iters < 1:
            raise ValueError(f"inner_max_iters must be >= 1, got {self.inner_max_iters}")

    def step_times(self) -> np.ndarray:
        """Times of step 0 to ceil(T/h), the times a trajectory records."""
        return np.arange(math.ceil(self.T / self.h - 1e-12) + 1) * self.h


def effective_inner_tol(op: NonlocalOperator, u0_l2: float) -> float:
    """Residual tolerance of every step of a run from a state of L^2 norm
    ``u0_l2``: 1e-8 * max(1, u0_l2), which keeps dissipation-slack checks
    scale invariant, floored at the evaluation noise of the gradient.

    One gradient evaluation composes the operator twice, so its floating
    point noise scales like eps_mach * bound**2 * scale where ``bound`` is
    the operator norm bound; residuals below that are not certifiable in
    double precision (the clamped Laplacian at fine grids hits this).  The
    floor is recorded per step through the trajectory residual column.
    """
    scale = max(1.0, u0_l2)
    return max(1e-8 * scale, np.finfo(float).eps * op.norm_bound() ** 2 * scale)


@dataclass
class Trajectory:
    """Per-step scalars and the state of every step.

    ``inner_iters`` and ``applies`` (operator evaluations, Hessian products
    included; a squared correlation counts as one) count the work of each
    step's solve; both are zero at step 0.
    ``inner_tol`` is the residual tolerance of every step, resolved once at
    the start of the run.
    """

    times: np.ndarray
    l2_sq: np.ndarray
    energies: np.ndarray
    increments_sq: np.ndarray
    inner_iters: np.ndarray
    applies: np.ndarray
    residuals: np.ndarray
    states: list[Field]
    p: float
    h: float
    inner_tol: float

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def as_operator(st, spec: DomainSpec) -> NonlocalOperator:
    """Bind a Stencil to the step grid, ``spec`` with its collar cut to the
    stencil's reach; a narrower collar raises (``grid.check_collar``).
    Only test doubles pass an operator; its step
    evaluations live on the step window whatever its collar (``nlop``)."""
    if not isinstance(st, (Stencil, NonlocalOperator)):
        raise TypeError(f"expected a Stencil or a NonlocalOperator, got {type(st)!r}")
    check_collar(spec.pad_cells, st.reach)
    if isinstance(st, Stencil):
        return NonlocalOperator(st, replace(spec, pad_cells=st.reach))
    if st.spec != spec:
        raise ValueError("operator bound to a different domain spec")
    return st


def _loop_maps(op):
    """A E and E^T A (``_StepFunctional``) through the exact difference
    loop ``op.apply``."""
    full = np.zeros(op.spec.padded_shape)  # zero beyond the interior
    interior = op.spec.interior_slices

    def extended(x):
        full[interior] = x
        return op.apply(full)

    def restricted(values):
        return op.apply(values)[interior]
    return extended, restricted


class _StepFunctional:
    """Energy/gradient/Hessian of the per-step functional over interior
    values.

    Operator evaluations go through the two maps of the step, each counted
    in ``applies``: ``extended``, A E x for interior values x, and its
    transpose ``restricted``, E^T A y on the interior for values y where A E
    lives.  ``maps`` is that pair of callables and defaults to the exact
    difference loop ``op.apply`` on the operator's grid (``_loop_maps``);
    the operator's correlations live on the step window (``nlop``).
    """

    def __init__(self, op, u_prev: np.ndarray, p: float, h: float, maps=None):
        self.op = op
        self._extended, self._restricted = _loop_maps(op) if maps is None else maps
        self.applies = 0
        self.u_prev = u_prev
        self.p = p
        self.h = h
        self.vol = op.spec.cell_volume

    def extended(self, x: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self._extended(x)

    def restricted(self, values: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self._restricted(values)

    def energy(self, x: np.ndarray, a: np.ndarray | None = None):
        """Return (E(x), A x) so the operator value can be reused; a known
        ``a = A x`` skips the apply."""
        if a is None:
            a = self.extended(x)
        quad = (0.5 / self.h) * np.dot(x.ravel(), x.ravel())
        cross = (1.0 / self.h) * np.dot(self.u_prev.ravel(), x.ravel())
        return float(self.vol * (quad - cross) + self.p_energy(a)), a

    def p_energy(self, a: np.ndarray) -> float:
        return float(self.vol / self.p * np.sum(np.abs(a) ** self.p))

    def flux_term(self, a: np.ndarray) -> np.ndarray:
        """Interior part of A flux(a), the p-term of the gradient at A x = a."""
        return self.restricted(p_flux_values(a, self.p))

    def gradient(self, x: np.ndarray, flux: np.ndarray) -> np.ndarray:
        return (x - self.u_prev) / self.h + flux

    def curvature(self, a: np.ndarray) -> np.ndarray:
        """Weights c of the step model I/h + A^T diag(c) A at a = A x: for
        p >= 2 the second derivative (p-1)|a|^(p-2) of |.|^p/p; below 2 the
        majorizing weights |a|^(p-2), with |a| floored at 1e-12 max|a|."""
        if self.p >= 2.0:
            return (self.p - 1.0) * np.abs(a) ** (self.p - 2.0)
        mag = np.abs(a)
        floor = 1e-12 * max(float(mag.max()), 1e-300)
        return np.maximum(mag, floor) ** (self.p - 2.0)

    def hessian_product(self, v: np.ndarray, curv: np.ndarray) -> np.ndarray:
        """H v for H = I/h + A^T diag(curv) A: two applies.  At p = 2, where
        curv is 1, A^T A v is one squared correlation (``op.apply_squared``),
        counted as one apply."""
        if self.p == 2.0:
            self.applies += 1
            return v / self.h + self.op.apply_squared(v)
        return v / self.h + self.restricted(curv * self.extended(v))

    def l2(self, x: np.ndarray) -> float:
        return math.sqrt(self.vol * float(np.dot(x.ravel(), x.ravel())))


def step_energy(w: Field, u_prev: Field, st, cfg: StepperConfig) -> float:
    """The scalar per-step functional E(w); all integrals by grid quadrature."""
    _check_pair(w, u_prev)
    op = as_operator(st, w.spec)
    fn = _StepFunctional(op, u_prev.interior_values, cfg.p, cfg.h)
    e, _ = fn.energy(w.interior_values)
    return e


def step_gradient(w: Field, u_prev: Field, st, cfg: StepperConfig) -> Field:
    """L2(omega) gradient of the per-step functional, zero on the exterior."""
    _check_pair(w, u_prev)
    op = as_operator(st, w.spec)
    fn = _StepFunctional(op, u_prev.interior_values, cfg.p, cfg.h)
    _, a = fn.energy(w.interior_values)
    return zero_extend(fn.gradient(w.interior_values, fn.flux_term(a)), w.spec)


def _check_pair(w: Field, u_prev: Field) -> None:
    if w.spec != u_prev.spec:
        raise ValueError("fields live on different domain specs")
    require_zero_extended(w, "trial state")
    require_zero_extended(u_prev, "previous state")


@dataclass
class _StepResult:
    """A step's solution and work; ``value`` (A x on the operator's grid)
    and ``flux`` (its flux term) are the fresh evaluations that certified
    it."""

    interior: np.ndarray
    iters: int
    applies: int
    residual: float
    p_energy: float
    value: np.ndarray
    flux: np.ndarray


def _minimize_step(op, u_prev_int, p, h, tol, max_iters, start=None) -> _StepResult:
    """Minimize one step from x = u_prev_int.  ``start = (value, flux)`` of
    the previous step's result, which certified this x with the same
    evaluation, replaces the two applies that open the step."""
    # One direction d = M^-1 g with the model weights of fn.curvature; the
    # solve and the evaluation follow from p and the stencil (module
    # docstring).
    if p < 2.0 or op.reach == 1:
        fn = _StepFunctional(op, u_prev_int, p, h)

        def solve(curv, g):
            return op.normal_solve(curv, 1.0 / h, g)
    else:
        fn = _StepFunctional(op, u_prev_int, p, h, (op.apply_extended, op.apply_restricted))
        solve = _cg_solve(fn, tol)
    label = "reweighted" if p < 2.0 else "Newton"

    x = np.array(u_prev_int, dtype=float)
    if start is None:
        e, a = fn.energy(x)
        flux = fn.flux_term(a)
    else:
        a, flux = start
        e, _ = fn.energy(x, a)
    g = fn.gradient(x, flux)
    res = fn.l2(g)
    iters = 0
    while res > tol:
        if iters >= max_iters:
            raise InnerSolveFailed(
                f"residual {res:.3e} above tolerance {tol:.3e} "
                f"after {max_iters} inner iterations",
                residual=res,
            )
        d = solve(fn.curvature(a), g)
        slope = fn.vol * float(np.dot(g.ravel(), d.ravel()))
        # the allowance absorbs floating-point cancellation in E when the
        # true decrease per step drops below the resolution of the energy
        roundoff = 10.0 * np.finfo(float).eps * abs(e)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x - t * d
            e_new, a_new = fn.energy(x_new)
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
        flux = fn.flux_term(a)
        g = fn.gradient(x, flux)
        res = fn.l2(g)
        iters += 1
    return _StepResult(
        interior=x, iters=iters, applies=fn.applies, residual=res,
        p_energy=fn.p_energy(a), value=a, flux=flux,
    )


def _cg_solve(fn, tol):
    """Conjugate gradients on H d = g, matrix free; at p = 2 in 2D
    preconditioned with the operator's tau solve (module docstring).

    CG stops at the forcing tolerance (none at p = 2), floored at half the
    relative accuracy the step tolerance asks for, or after one iteration
    per unknown, on the residual H d - g itself, with or without P.  Every
    iterate from d = 0 is a descent direction (H >= I/h, and P SPD).
    """
    g_prev = None  # ||g|| at the previous Newton iteration
    tau = fn.p == 2.0 and fn.op.spec.dim == 2

    def solve(curv, g):
        nonlocal g_prev
        rr = float(np.dot(g.ravel(), g.ravel()))
        g_norm = math.sqrt(rr)
        eta = EW_ETA_MAX if fn.p != 2.0 else 0.0  # no forcing at p = 2
        if g_prev is not None:
            eta = min(eta, EW_GAMMA * (g_norm / g_prev) ** EW_ALPHA)
        eta = max(eta, 0.5 * tol / fn.l2(g))
        g_prev = g_norm
        precondition = fn.op.tau_solve(1.0 / fn.h) if tau else None

        d = np.zeros_like(g)
        r = g.copy()
        z = r if precondition is None else precondition(r)
        s = z.copy()
        rz = rr if precondition is None else float(np.dot(r.ravel(), z.ravel()))
        stop = eta * eta * rr
        for _ in range(g.size):
            hs = fn.hessian_product(s, curv)
            alpha = rz / float(np.dot(s.ravel(), hs.ravel()))
            d += alpha * s
            r -= alpha * hs
            rr = float(np.dot(r.ravel(), r.ravel()))
            if rr <= stop:
                break
            if precondition is None:
                z, rz_new = r, rr
            else:
                z = precondition(r)
                rz_new = float(np.dot(r.ravel(), z.ravel()))
            s *= rz_new / rz
            s += z
            rz = rz_new
        return d

    return solve


def implicit_step(u_prev: Field, st, cfg: StepperConfig) -> Field:
    """Solve one implicit step by minimizing the per-step functional."""
    return evolve(u_prev, st, replace(cfg, T=cfg.h)).states[-1]


def evolve(u0: Field, st, cfg: StepperConfig) -> Trajectory:
    """March ceil(T/h) steps, auditing norms, energies, and increments."""
    require_zero_extended(u0, "initial state")
    spec = u0.spec
    op = as_operator(st, spec)
    tol = effective_inner_tol(op, lp_norm(u0, 2, "omega"))
    times = cfg.step_times()
    m = len(times) - 1
    vol = spec.cell_volume

    fn = _StepFunctional(op, u0.interior_values, cfg.p, cfg.h)
    x = u0.interior_values.copy()
    a0 = fn.extended(x)  # the loop apply, before any step's evaluation

    l2_sq = np.zeros(m + 1)
    energies = np.zeros(m + 1)
    increments_sq = np.zeros(m + 1)
    inner_iters = np.zeros(m + 1, dtype=int)
    applies = np.zeros(m + 1, dtype=int)
    residuals = np.zeros(m + 1)

    l2_sq[0] = vol * float(np.dot(x.ravel(), x.ravel()))
    energies[0] = fn.p_energy(a0)
    states = [zero_extend(x, spec)]

    start = None  # step 1 evaluates with its own rule's evaluation
    for j in range(1, m + 1):
        try:
            result = _minimize_step(op, x, cfg.p, cfg.h, tol, cfg.inner_max_iters, start)
        except InnerSolveFailed as err:
            raise InnerSolveFailed(
                f"step {j} (t = {j * cfg.h:g}): {err}", err.residual
            ) from err
        start = result.value, result.flux
        x_new = result.interior
        inner_iters[j] = result.iters
        applies[j] = result.applies
        residuals[j] = result.residual
        energies[j] = result.p_energy
        delta = x_new - x
        increments_sq[j] = vol * float(np.dot(delta.ravel(), delta.ravel()))
        l2_sq[j] = vol * float(np.dot(x_new.ravel(), x_new.ravel()))
        x = x_new
        states.append(zero_extend(x, spec))

    return Trajectory(
        times=times,
        l2_sq=l2_sq,
        energies=energies,
        increments_sq=increments_sq,
        inner_iters=inner_iters,
        applies=applies,
        residuals=residuals,
        states=states,
        p=cfg.p,
        h=cfg.h,
        inner_tol=tol,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the per-step scalars; the schema's ``operator`` column reads
    ``nonlocal`` on every row."""
    columns = (traj.times, traj.l2_sq, traj.energies, traj.increments_sq,
               traj.inner_iters, traj.residuals)
    write_csv(
        path,
        ("step", "time", "l2_sq", "energy", "increment_sq", "inner_iters",
         "residual", "operator"),
        zip(itertools.count(), *columns, itertools.repeat("nonlocal")),
    )
