"""Finite-difference reference solver for the classical clamped evolution.

The classical problem is the eps -> 0 limit of the same per-step functional
with the second-order Laplacian in place of the nonlocal one, so the
reference is a stencil (``local_stencil``) that ``local_evolve`` steps like
any nonlocal stencil.  The Laplacian reads zeros outside the interior box,
which mirrors the volume constraint of the nonlocal problem and realizes the
clamped boundary data; a nonlocal-versus-local comparison isolates the
spatial operator.  ``LocalOperator`` evaluates ``weak_residual`` on the
whole padded grid; it stays only while the benchmark tracer patches it
(ROADMAP item 7).
"""

from __future__ import annotations

import numpy as np

from .grid import DomainSpec
from .kernel import Stencil
from .nlop import NonlocalOperator, p_flux_values
from .stepper import StepperConfig, Trajectory, evolve


def local_stencil(spec: DomainSpec) -> Stencil:
    """3-point (1D) / 5-point (2D) Laplacian stencil: offsets -e1, +e1, -e2,
    +e2, each weighted 1/dx^2.  ``apply`` sums the pairs +-e1, then +-e2,
    each as the difference across +e_i, added at its lower node and
    subtracted at its upper one; that order fixes its rounding.

    The step energy integrates |Delta_h u|^p over the padded domain, exactly
    like the nonlocal energy.  On the zero extension the operator is nonzero
    one layer outside the box, and that wall-flux term (value u/dx^2,
    quadrature weight dx^dim) penalizes the normal derivative at rate 1/dx,
    which selects the clamped rather than the hinged plate as dx -> 0.

    Being nearest-neighbour, it gets the stepper's direct solve of the step
    Hessian at every exponent (``normal_solve``, block LDL^T): the clamped
    bi-Laplacian Hessian conditions like h/dx^4 and defeats first-order
    inner solvers at fine grids, while its bandwidth of 2 (1D) or 2 nx (2D)
    makes direct factorization cheap.  The 1D band is cut into partitions
    whose block chains are eliminated in one batched pass (13 at n = 256);
    a 2D band, 2 nx wide, is one chain (``nlop.BandedNormal``).
    """
    offsets = np.concatenate([(-e, e) for e in np.eye(spec.dim, dtype=np.int64)])
    return Stencil(offsets=offsets, weights=np.full(len(offsets), 1.0 / spec.dx**2),
                   dx=spec.dx)


class LocalOperator(NonlocalOperator):
    """``local_stencil`` on the whole padded grid, for ``weak_residual``;
    its reach of 1 needs a one-cell collar.  It stays while the
    benchmark tracer patches its ``apply``; deleting it is ROADMAP item 7's
    last step, after item 2."""

    def __init__(self, spec: DomainSpec):
        super().__init__(local_stencil(spec), spec)


def local_evolve(u0: np.ndarray, spec: DomainSpec, cfg: StepperConfig) -> Trajectory:
    """Rothe evolution of the finite-difference Laplacian's stencil on the
    grid ``spec`` from the interior values ``u0`` (``stepper.evolve``)."""
    return evolve(u0, spec, local_stencil(spec), cfg)


def weak_residual(traj: Trajectory, phi) -> float:
    """Discrete weak-form residual of a recorded local trajectory.

    ``phi(*coords, t)`` must evaluate a smooth test function, compactly
    supported in space-time, on meshgrid coordinate arrays.  The residual
    pairs the recorded states against the time derivative of the test
    function and the flux at the run's exponent against its Laplacian,
    using trapezoidal weights in time and central time differences; it
    shrinks at O(h + dx^2) for a valid trajectory.
    """
    spec = traj.spec
    op = LocalOperator(spec)
    h = traj.h
    coords = spec.node_coords()
    times = traj.times

    phi_fields = [np.asarray(phi(*coords, t), dtype=float) for t in times]
    n = len(times)
    total = 0.0
    interior = spec.interior_slices
    vol = spec.cell_volume
    ext = np.zeros(spec.padded_shape)  # zero beyond the interior
    for j in range(n):
        if j == 0:
            dphi = (phi_fields[1] - phi_fields[0]) / h
        elif j == n - 1:
            dphi = (phi_fields[-1] - phi_fields[-2]) / h
        else:
            dphi = (phi_fields[j + 1] - phi_fields[j - 1]) / (2.0 * h)
        u_int = traj.interior[j]
        term_time = -vol * float(np.sum(u_int * dphi[interior]))

        ext[interior] = u_int
        flux = p_flux_values(op.apply(ext), traj.p)
        # zero-extend phi before differencing: the test function carries the
        # same constraint class as the states, and the pairing runs over the
        # padded domain like the scheme's own energy
        ext[interior] = phi_fields[j][interior]
        lap_phi = op.apply(ext)
        term_flux = vol * float(np.sum(flux * lap_phi))

        weight = h if 0 < j < n - 1 else 0.5 * h
        total += weight * (term_time + term_flux)
    return float(total)
