"""Cell-centered grids on a box domain with a zero-constraint collar.

The interior box carries the evolving solution; a collar of padding cells
around it carries the homogeneous volume constraint.  Nodes sit at cell
centers, so no node lies on the interior boundary and the interior/exterior
classification is unambiguous.  All quadrature is the midpoint rule with
uniform weight dx**dim per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REGIONS = ("omega", "omega_e", "exterior")


def write_csv(path, header, rows) -> None:
    """Write the column names ``header``, then stream one line per row:
    floats (``float`` and its subclasses, ``np.float64`` among them) render
    as ``%.17g``, everything else through ``str``, in one ``%`` call per row
    whose format is built once per sequence of cell types."""
    formats = {}

    def line(row):
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"
        return fmt % row

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line, rows))


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the padded uniform grid.

    Attributes:
        dim: spatial dimension, 1 or 2.
        omega_lo, omega_hi: interior box corners, one entry per axis.
        nx: interior cells per axis.
        dx: uniform grid spacing (identical on every axis).
        pad_cells: collar cells per side, at least the reach of every
            stencil on the grid (``check_collar``): the operator of a
            zero-extended state vanishes beyond it.  ``make_domain`` pads
            one kernel support, the reach + 1 of its scale's stencil.
    """

    dim: int
    omega_lo: tuple[float, ...]
    omega_hi: tuple[float, ...]
    nx: tuple[int, ...]
    dx: float
    pad_cells: int

    @cached_property
    def padded_shape(self) -> tuple[int, ...]:
        return tuple(n + 2 * self.pad_cells for n in self.nx)

    @cached_property
    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(self.pad_cells, self.pad_cells + n) for n in self.nx)

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @cached_property
    def n_interior(self) -> int:
        return int(np.prod(self.nx))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis of the padded grid."""
        n = self.nx[axis] + 2 * self.pad_cells
        lo = self.omega_lo[axis] - self.pad_cells * self.dx
        return lo + (np.arange(n) + 0.5) * self.dx

    def node_coords(self) -> list[np.ndarray]:
        """Padded node coordinates, one meshgrid ('ij') array per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.padded_shape, dtype=bool)
        mask[self.interior_slices] = True
        return mask


def check_dim(dim) -> None:
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")


def check_eps(eps) -> None:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def check_q(q) -> None:
    if not 1 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")


def check_resolved(eps: float, dx: float) -> None:
    """The rescaled support radius eps must span at least two grid cells."""
    if eps < 2.0 * dx:
        raise ValueError(
            f"kernel support under-resolved: eps = {eps:g} < 2*dx = {2 * dx:g}"
        )


def support_cells(eps: float, dx: float) -> int:
    """The support eps in whole cells: the reach + 1 of its stencil."""
    return math.ceil(eps / dx - 1e-12)


def check_collar(pad_cells: int, reach: int) -> None:
    """A collar must cover the stencil's reach wherever a stencil meets a grid."""
    if pad_cells < reach:
        raise ValueError(
            f"collar of {pad_cells} cells is narrower than the stencil's "
            f"reach of {reach} cells"
        )


def _as_axis_tuple(value, dim, name, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(dim))
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"{name} must have {dim} entries, got {len(out)}")
    return out


def make_domain(dim, box, nx, eps) -> DomainSpec:
    """Build the padded grid sized for a rescaled kernel of scale eps.

    ``box`` is (lo, hi) in 1D or ((lo, hi), (lo, hi)) in 2D; ``nx`` may be a
    scalar or per-axis.  The padding is the support eps in whole cells
    (``support_cells``), so it holds the stencil at eps or any smaller scale:
    every kernel is supported on the unit ball, so the grid needs no kernel.
    """
    check_dim(dim)
    check_eps(eps)
    if dim == 1 and np.isscalar(box[0]):
        box = (box,)
    lo = tuple(float(b[0]) for b in box)
    hi = tuple(float(b[1]) for b in box)
    if len(lo) != dim:
        raise ValueError(f"box must have {dim} axes, got {len(lo)}")
    nx_t = _as_axis_tuple(nx, dim, "nx", int)
    if any(n < 4 for n in nx_t):
        raise ValueError(f"nx must be >= 4 on every axis, got {nx_t}")
    if not all(map(math.isfinite, lo + hi)) or any(h <= l for l, h in zip(lo, hi)):
        raise ValueError(f"box must be finite with upper above lower bounds, got {lo}, {hi}")
    dxs = [(h - l) / n for l, h, n in zip(lo, hi, nx_t)]
    dx = dxs[0]
    if any(abs(d - dx) > 1e-12 * dx for d in dxs):
        raise ValueError(f"grid spacing must match across axes, got {dxs}")

    check_resolved(eps, dx)
    return DomainSpec(
        dim=dim,
        omega_lo=lo,
        omega_hi=hi,
        nx=nx_t,
        dx=dx,
        pad_cells=support_cells(eps, dx),
    )


@dataclass(frozen=True)
class Field:
    """Grid function on the padded grid.

    Values are stored for every padded node and frozen after construction;
    operations produce new fields.  Constrained fields (built by
    ``zero_extend`` or by the steppers) are exactly zero on exterior nodes.
    """

    spec: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.spec.padded_shape:
            raise ValueError(
                f"values shape {v.shape} does not match padded shape "
                f"{self.spec.padded_shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[self.spec.interior_slices]

    def exterior_max_abs(self) -> float:
        ext = np.abs(self.values[~self.spec.interior_mask()])
        return float(ext.max()) if ext.size else 0.0


def zero_extend(interior_values, spec: DomainSpec) -> Field:
    """Embed interior values into the padded grid with exact exterior zeros."""
    arr = np.asarray(interior_values, dtype=float)
    if arr.size != spec.n_interior:
        raise ValueError(
            f"interior values have {arr.size} entries, expected {spec.n_interior}"
        )
    arr = arr.reshape(spec.nx)
    full = np.zeros(spec.padded_shape)
    full[spec.interior_slices] = arr
    return Field(spec, full)


def _region_values(f: Field, region: str) -> np.ndarray:
    if region == "omega":
        return f.interior_values.ravel()
    if region == "omega_e":
        return f.values.ravel()
    if region == "exterior":
        return f.values[~f.spec.interior_mask()]
    raise ValueError(f"unknown region {region!r}, expected one of {REGIONS}")


def lp_norm(f: Field, q: float, region: str = "omega_e") -> float:
    """Midpoint-rule L^q norm over omega, omega_e, or the exterior collar."""
    check_q(q)
    return lq_sum_norm(_region_values(f, region), q, f.spec.cell_volume)


def lq_sum_norm(values: np.ndarray, q: float, cell_volume: float) -> float:
    """(cell_volume sum |v|^q)^(1/q).  Where that sum over- or underflows
    for nonzero data (a large q), it is taken over |v| / max|v| instead and
    the root scaled back by max|v|."""
    mag = np.abs(values)
    with np.errstate(over="ignore"):
        total = cell_volume * np.sum(mag ** q)
    if not 0.0 < total < math.inf:
        peak = float(mag.max(initial=0.0))
        if peak > 0.0:
            return float(peak * (cell_volume * np.sum((mag / peak) ** q)) ** (1.0 / q))
    return float(total ** (1.0 / q))


def inner_product(f: Field, g: Field, region: str = "omega_e") -> float:
    """Midpoint-rule L^2 pairing; both fields must share a spec."""
    if f.spec != g.spec:
        raise ValueError("fields live on different domain specs")
    fv = _region_values(f, region)
    gv = _region_values(g, region)
    return float(f.spec.cell_volume * np.dot(fv, gv))
