"""Finite-difference reference solver for the classical clamped evolution.

The classical problem is the eps -> 0 limit of the same per-step functional
with the second-order Laplacian in place of the nonlocal one, so the
reference is a stencil (``local_stencil``) that ``local_evolve`` steps like
any nonlocal stencil.  The Laplacian reads zeros outside the interior box,
which mirrors the volume constraint of the nonlocal problem and realizes the
clamped boundary data; a nonlocal-versus-local comparison isolates the
spatial operator.  ``LocalOperator`` stays only for the benchmark tracer
(the contract in ``grid``).
"""

from __future__ import annotations

import numpy as np

from .grid import DomainSpec
from .kernel import Stencil
from .nlop import NonlocalOperator
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
    Hessian at every exponent (block LDL^T, ``nlop.BandedNormal``): the
    clamped bi-Laplacian Hessian conditions like h/dx^4 and defeats
    first-order inner solvers at fine grids, while its bandwidth of 2 (1D)
    or 2 nx (2D) makes direct factorization cheap.  At p = 2 the Hessian is
    factored once per run and kept (``p2_solve``); at other exponents it is
    eliminated on every call (``normal_solve``).  The 1D band is cut into
    partitions whose block chains are eliminated in one batched pass (13 at
    n = 256); a 2D band, 2 nx wide, is one chain.
    """
    offsets = np.concatenate([(-e, e) for e in np.eye(spec.dim, dtype=np.int64)])
    return Stencil(offsets=offsets, weights=np.full(len(offsets), 1.0 / spec.dx**2),
                   dx=spec.dx)


class LocalOperator(NonlocalOperator):
    """``local_stencil`` on the whole padded grid; its reach of 1 needs a
    one-cell collar.  No run builds it: it stays while the benchmark tracer
    wraps its ``apply`` (the contract in ``grid``), and goes with the
    tracer change of ROADMAP item 15."""

    def __init__(self, spec: DomainSpec):
        super().__init__(local_stencil(spec), spec)


def local_evolve(u0: np.ndarray, spec: DomainSpec, cfg: StepperConfig) -> Trajectory:
    """Rothe evolution of the finite-difference Laplacian's stencil on the
    grid ``spec`` from the interior values ``u0`` (``stepper.evolve``)."""
    return evolve(u0, spec, local_stencil(spec), cfg)

