"""Radial kernels, the second-moment-normalized rescaled family, and stencils.

A kernel is a nonnegative, continuous, nonincreasing radial profile with
compact support.  Rescaling concentrates it at scale eps and normalizes the
half second moment to one, so the induced nonlocal Laplacian is consistent
with the classical Laplacian as eps shrinks.  Discretization samples the
rescaled kernel at node offsets and attaches the midpoint quadrature weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import DomainSpec, check_dim, check_resolved, write_csv


@dataclass(frozen=True)
class Kernel:
    """Radial profile r -> J(r) with support [0, support_radius)."""

    name: str
    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    support_radius: float = 1.0

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = r < self.support_radius
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


def get_kernel(name: str, dim: int) -> Kernel:
    if name not in _PROFILES:
        raise ValueError(f"unknown kernel {name!r}, expected one of {sorted(_PROFILES)}")
    check_dim(dim)
    return Kernel(name=name, profile=_PROFILES[name], dim=dim)


def kernel_is_nonincreasing(kernel: Kernel) -> bool:
    """Sampled monotonicity check (4096 samples) used by the rescaling-limit
    studies."""
    r = np.linspace(0.0, kernel.support_radius, 4096)
    j = kernel(r)
    if np.any(j < -1e-14):
        return False
    scale = max(float(j.max()), 1.0)
    return bool(np.all(np.diff(j) <= 1e-12 * scale))


# measure of the unit sphere S^(dim-1) in R^dim
_SPHERE = {1: 2.0, 2: 2.0 * np.pi}


def normalization_constant(kernel: Kernel) -> float:
    """Reciprocal half second moment of the kernel, by radial quadrature:
    int_{R^dim} J(|z|) |z|^2 dz = |S^(dim-1)| int_0^R J r^(dim+1) dr, by the
    midpoint rule with 8192 samples across the support.
    """
    check_dim(kernel.dim)
    dr = kernel.support_radius / 8192
    r = (np.arange(8192) + 0.5) * dr
    second_moment = _SPHERE[kernel.dim] * np.sum(kernel(r) * r ** (kernel.dim + 1)) * dr
    c_j = 2.0 / second_moment
    if not np.isfinite(c_j) or c_j <= 0:
        raise AssertionError(f"normalization constant is not finite: {c_j}")
    return float(c_j)


@dataclass(frozen=True)
class RescaledKernel:
    """J_eps(x) = c_j * eps**-(dim+2) * J(|x|/eps), supported on |x| < eps*R_J."""

    base: Kernel
    eps: float
    c_j: float

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def support_radius(self) -> float:
        return self.eps * self.base.support_radius

    def __call__(self, dist):
        dist = np.asarray(dist, dtype=float)
        scale = self.c_j * self.eps ** -(self.dim + 2)
        return scale * self.base(dist / self.eps)


def rescale(kernel: Kernel, eps: float) -> RescaledKernel:
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return RescaledKernel(base=kernel, eps=float(eps), c_j=normalization_constant(kernel))


def _half_moment(offsets: np.ndarray, weights: np.ndarray, dx: float) -> float:
    """Discrete half second moment (1/2) sum_d w_d |d dx|^2 of a stencil."""
    # hypot, not the root of the summed squares: the two differ in the last bit
    dist = np.hypot.reduce(np.abs(offsets).astype(float), axis=1) * dx
    return 0.5 * float(np.sum(weights * dist**2))


@dataclass(frozen=True)
class Stencil:
    """Quadrature stencil carrying the discretized rescaled kernel.

    ``offsets`` lists every integer node offset with |d|*dx strictly inside
    the support.  ``weights`` are nodal kernel values times dx**dim, rescaled
    by one global factor so the discrete half second moment is exactly one:
    raw midpoint sampling leaves an O(dx^2) moment defect with a large
    support-edge phase constant, and the rescaling (standard moment matching)
    removes it, making the induced operator exact on quadratics.  ``diag``,
    the weight sum, keeps the zero-offset weight so it tracks the kernel
    integral for diagnostics; the zero offset contributes nothing to the
    operator.  ``raw_half_moment`` is the pre-normalization moment, the
    fidelity diagnostic of the sampled weights.  ``reach`` is the largest
    |offset| along any axis, in cells.
    """

    offsets: np.ndarray  # (K, dim) int
    weights: np.ndarray  # (K,)
    dx: float
    raw_half_moment: float = 1.0

    def __post_init__(self):
        for name in ("offsets", "weights"):
            arr = getattr(self, name)
            arr.flags.writeable = False

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


def discretize(rk: RescaledKernel, spec: DomainSpec) -> Stencil:
    """Sample the rescaled kernel on the grid offsets of ``spec``."""
    if rk.dim != spec.dim:
        raise ValueError(f"kernel dim {rk.dim} does not match domain dim {spec.dim}")
    dx = spec.dx
    support = rk.support_radius
    check_resolved(support, dx)
    if spec.pad_cells * dx < 2.0 * support - 1e-12 * support:
        raise ValueError(f"domain padding {spec.pad_cells * dx:g} below "
                         f"containment minimum {2 * support:g}")
    reach = support / dx
    dmax = int(np.ceil(reach - 1e-12)) - 1
    axes = [np.arange(-dmax, dmax + 1)] * spec.dim
    offsets = np.column_stack([d.ravel() for d in np.meshgrid(*axes, indexing="ij")])
    dist_cells = np.hypot.reduce(np.abs(offsets).astype(float), axis=1)
    keep = dist_cells < reach - 1e-12
    offsets = np.ascontiguousarray(offsets[keep], dtype=np.int64)
    weights = rk(dist_cells[keep] * dx) * spec.cell_volume
    raw_half_moment = _half_moment(offsets, weights, dx)
    return Stencil(
        offsets=offsets,
        weights=weights / raw_half_moment,
        dx=dx,
        raw_half_moment=raw_half_moment,
    )


def stencil_to_csv(st: Stencil, path) -> None:
    header = ("dx_offset", "dy_offset")[: st.dim] + ("weight",)
    write_csv(path, header, zip(*st.offsets.T, st.weights))
