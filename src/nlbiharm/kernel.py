"""Radial kernels and the stencils that discretize them at scale eps.

A kernel is a nonnegative, continuous, nonincreasing radial profile
supported on the unit ball; it holds no dimension.  The paper's rescaled
kernel J_eps(x) = C_J eps^-(N+2) J(|x|/eps) concentrates it at scale eps,
with C_J setting the half second moment to one, so the induced nonlocal
Laplacian is consistent with the classical Laplacian as eps shrinks.  The
dimension N enters only through the domain, and so does the stencil:
``discretize`` samples J(|d| dx/eps) at the grid offsets of the domain's
dimension and divides the samples by their discrete half second moment,
which stands in for C_J eps^-(N+2) and the cell volume dx^N together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import DomainSpec, check_collar, check_eps, check_resolved, support_cells


@dataclass(frozen=True)
class Kernel:
    """Radial profile r -> J(r) with support [0, 1): the unit ball, in any dimension."""

    name: str
    profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = r < 1.0
        out = np.zeros_like(r)
        if np.any(inside):
            out[inside] = self.profile(r[inside])
        return out


def _tent(r):
    return np.maximum(0.0, 1.0 - r)


def _quartic(r):
    return np.maximum(0.0, 1.0 - r**2) ** 2


def _cosine(r):
    return np.cos(0.5 * np.pi * r)


_PROFILES = {"tent": _tent, "quartic": _quartic, "cosine": _cosine}


def get_kernel(name: str) -> Kernel:
    """The kernel named ``tent``, ``quartic`` or ``cosine``."""
    if name not in _PROFILES:
        raise ValueError(f"unknown kernel {name!r}, expected one of {sorted(_PROFILES)}")
    return Kernel(name=name, profile=_PROFILES[name])


def kernel_is_nonincreasing(kernel: Kernel) -> bool:
    """Sampled monotonicity check (4096 samples) used by the rescaling-limit
    studies."""
    r = np.linspace(0.0, 1.0, 4096)
    j = kernel(r)
    if np.any(j < -1e-14):
        return False
    scale = max(float(j.max()), 1.0)
    return bool(np.all(np.diff(j) <= 1e-12 * scale))


def _half_moment(offsets: np.ndarray, weights: np.ndarray, dx: float) -> float:
    """Discrete half second moment (1/2) sum_d w_d |d dx|^2 of a stencil."""
    # hypot, not the root of the summed squares: the two differ in the last bit
    dist = np.hypot.reduce(np.abs(offsets).astype(float), axis=1) * dx
    return 0.5 * float(np.sum(weights * dist**2))


@dataclass(frozen=True)
class Stencil:
    """Quadrature stencil carrying the discretized rescaled kernel.

    ``offsets`` lists every integer node offset with |d|*dx strictly inside
    the support; they must be closed under negation, with equal weights at
    d and -d, or the constructor raises.  ``weights`` are the nodal kernel
    samples divided by their discrete half second moment, so that moment is
    exactly one.  The divisor
    stands in for the paper's C_J eps^-(N+2) times the cell volume dx^N;
    multiplying by that constant instead would leave the midpoint rule's
    moment defect, whose support-edge phase makes it oscillate under
    refinement.  Moment matching removes it and makes the induced operator
    exact on quadratics.  Only ``diag``, the weight sum, reads the
    zero-offset weight, so it tracks the kernel integral for diagnostics;
    the operator's taps drop it.  ``reach`` is the largest |offset|
    along any axis, in cells.
    """

    offsets: np.ndarray  # (K, dim) int
    weights: np.ndarray  # (K,)
    dx: float

    def __post_init__(self):
        for name in ("offsets", "weights"):
            arr = getattr(self, name)
            arr.flags.writeable = False
        # the operator pairs each offset d with -d (``NonlocalOperator.apply``)
        order = np.lexsort(self.offsets.T)
        mirror = np.lexsort(-self.offsets.T)
        if not np.array_equal(self.offsets[order], -self.offsets[mirror]):
            raise ValueError("stencil offsets are not closed under negation")
        if not np.array_equal(self.weights[order], self.weights[mirror]):
            raise ValueError("stencil weights differ between offsets d and -d")

    @property
    def dim(self) -> int:
        return self.offsets.shape[1]

    @property
    def diag(self) -> float:
        return float(self.weights.sum())

    @property
    def half_moment(self) -> float:
        return _half_moment(self.offsets, self.weights, self.dx)

    @property
    def reach(self) -> int:
        return int(np.abs(self.offsets).max())


def discretize(kernel: Kernel, eps: float, spec: DomainSpec) -> Stencil:
    """Sample the kernel at scale eps on the grid offsets of ``spec``, whose
    collar must cover the stencil's reach (``grid.check_collar``)."""
    check_eps(eps)
    dx = spec.dx
    check_resolved(eps, dx)
    dmax = support_cells(eps, dx) - 1
    check_collar(spec.pad_cells, dmax)
    axes = [np.arange(-dmax, dmax + 1)] * spec.dim
    offsets = np.column_stack([d.ravel() for d in np.meshgrid(*axes, indexing="ij")])
    dist_cells = np.hypot.reduce(np.abs(offsets).astype(float), axis=1)
    keep = dist_cells < eps / dx - 1e-12
    offsets = np.ascontiguousarray(offsets[keep], dtype=np.int64)
    samples = kernel(dist_cells[keep] * dx / eps)
    return Stencil(offsets=offsets, weights=samples / _half_moment(offsets, samples, dx), dx=dx)
