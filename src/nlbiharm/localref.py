"""Finite-difference reference solver for the classical clamped evolution.

The second-order Laplacian reads zeros outside the interior box (the collar
supplies at least two ghost layers), which mirrors the volume constraint of
the nonlocal problem and realizes the clamped boundary data.  Time stepping
reuses the Rothe minimizer verbatim with this operator injected, so a
nonlocal-versus-local comparison isolates the spatial operator.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainSpec, Field, require_zero_extended
from .kernel import Stencil
from .nlop import NonlocalOperator, check_exponent, p_flux_values
from .stepper import StepperConfig, Trajectory, evolve


class LocalOperator(NonlocalOperator):
    """3-point (1D) / 5-point (2D) Laplacian with two-layer zero extension:
    the nonlocal operator with nearest-neighbour weights 1/dx^2.

    The step energy integrates |Delta_h u|^p over the padded domain, exactly
    like the nonlocal energy.  On the zero extension the operator is nonzero
    one layer outside the box, and that wall-flux term (value u/dx^2,
    quadrature weight dx^dim) penalizes the normal derivative at rate 1/dx,
    which selects the clamped rather than the hinged plate as dx -> 0.

    Being nearest-neighbour, it gets the stepper's direct solve of the step
    Hessian at every exponent (``normal_solve``, block LDL^T): the clamped
    bi-Laplacian Hessian conditions like h/dx^4 and defeats first-order
    inner solvers at fine grids, while its bandwidth of 2 (1D) or 2 nx (2D)
    makes direct factorization cheap.
    """

    def __init__(self, spec: DomainSpec):
        if spec.pad_cells < 2:
            raise ValueError(
                f"local operator needs two ghost layers, got pad_cells = {spec.pad_cells}"
            )
        # -e1, +e1, -e2, +e2: the order in which ``apply`` sums
        offsets = np.concatenate([(-e, e) for e in np.eye(spec.dim, dtype=np.int64)])
        weights = np.full(len(offsets), 1.0 / spec.dx**2)
        stencil = Stencil(
            offsets=offsets,
            weights=weights,
            dx=spec.dx,
            dim=spec.dim,
            diag=float(weights.sum()),
            half_moment=0.5 * float(np.sum(weights * (spec.dx) ** 2)),
        )
        super().__init__(stencil, spec)


def local_laplacian(u: Field) -> Field:
    """Central-difference Laplacian of a constrained field."""
    require_zero_extended(u, "local_laplacian input")
    op = LocalOperator(u.spec)
    return Field(u.spec, op.apply(u.values))


def local_evolve(u0: Field, cfg: StepperConfig) -> Trajectory:
    """Rothe evolution with the finite-difference Laplacian injected."""
    return evolve(u0, LocalOperator(u0.spec), cfg)


def weak_residual(traj: Trajectory, phi, p: float) -> float:
    """Discrete weak-form residual of a recorded local trajectory.

    ``phi(*coords, t)`` must evaluate a smooth test function, compactly
    supported in space-time, on meshgrid coordinate arrays.  The residual
    pairs the recorded states against the time derivative of the test
    function and the flux against its Laplacian, using trapezoidal weights in
    time and central time differences; it shrinks at O(h + dx^2) for a valid
    trajectory.
    """
    check_exponent(p)
    if not traj.states:
        raise ValueError("trajectory has no recorded states")
    steps = list(traj.state_steps)
    if steps != list(range(len(traj.times))):
        raise ValueError("weak_residual needs record_every = 1 trajectories")
    spec = traj.states[0].spec
    op = LocalOperator(spec)
    h = traj.h
    coords = spec.node_coords()
    times = traj.times

    phi_fields = [np.asarray(phi(*coords, t), dtype=float) for t in times]
    n = len(times)
    total = 0.0
    interior = spec.interior_slices
    vol = spec.cell_volume
    for j in range(n):
        if j == 0:
            dphi = (phi_fields[1] - phi_fields[0]) / h
        elif j == n - 1:
            dphi = (phi_fields[-1] - phi_fields[-2]) / h
        else:
            dphi = (phi_fields[j + 1] - phi_fields[j - 1]) / (2.0 * h)
        u_int = traj.states[j].interior_values
        term_time = -vol * float(np.sum(u_int * dphi[interior]))

        lap_u = op.apply(traj.states[j].values)
        flux = p_flux_values(lap_u, p)
        # zero-extend phi before differencing: the test function carries the
        # same constraint class as the states, and the pairing runs over the
        # padded domain like the scheme's own energy
        phi_ext = np.zeros(spec.padded_shape)
        phi_ext[interior] = phi_fields[j][interior]
        lap_phi = op.apply(phi_ext)
        term_flux = vol * float(np.sum(flux * lap_phi))

        weight = h if 0 < j < n - 1 else 0.5 * h
        total += weight * (term_time + term_flux)
    return float(total)
