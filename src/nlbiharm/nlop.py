"""Discrete nonlocal Laplacian, p-flux nonlinearity, and composite operators.

The operator acts on the full padded array; a node near the outer edge of
the padded domain sees a truncated neighborhood, with both the neighbor and
the center contribution dropped together, matching an integral over the
padded domain only.  Differences are formed before scaling, so constants map
to exactly zero and the operator matrix is exactly symmetric.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainSpec, Field
from .kernel import Stencil


def check_exponent(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"flux exponent must satisfy 1 < p < inf, got {p}")
    return p


def _slice_pair(shape, offset):
    src, dst = [], []
    for n, d in zip(shape, offset):
        d = int(d)
        dst.append(slice(max(-d, 0), n - max(d, 0)))
        src.append(slice(max(d, 0), n + min(d, 0)))
    return tuple(src), tuple(dst)


class NonlocalOperator:
    """Matrix-free nonlocal Laplacian bound to one stencil and one grid."""

    name = "nonlocal"
    inner_solver = "bb"

    def __init__(self, stencil: Stencil, spec: DomainSpec):
        if stencil.dim != spec.dim:
            raise ValueError(f"stencil dim {stencil.dim} != domain dim {spec.dim}")
        if abs(stencil.dx - spec.dx) > 1e-12 * spec.dx:
            raise ValueError(f"stencil dx {stencil.dx:g} != domain dx {spec.dx:g}")
        self.spec = spec
        self.stencil = stencil
        shape = spec.padded_shape
        self._terms = [
            (_slice_pair(shape, d), float(w))
            for d, w in zip(stencil.offsets, stencil.weights)
            if np.any(d)
        ]
        self._restricted = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        for (src, dst), w in self._terms:
            diff = values[src] - values[dst]
            diff *= w
            out[dst] += diff
        return out

    def norm_bound(self) -> float:
        """Gershgorin bound 2 * sum(w_d) on the operator norm."""
        return 2.0 * self.stencil.diag

    def restricted_matrix(self):
        """Sparse matrix of (zero-extend, apply) : interior values -> operator
        values at every padded node.  Backs the sparse inner-step models
        (reweighted for exponents below two, Newton for the local stencil)."""
        if self._restricted is None:
            import scipy.sparse

            spec = self.spec
            stn = self.stencil
            n = spec.n_interior
            n_pad = int(np.prod(spec.padded_shape))
            pad_idx = np.arange(n_pad).reshape(spec.padded_shape)
            col_idx = np.arange(n).reshape(spec.nx)
            pc = spec.pad_cells
            rows, cols, vals = [], [], []
            for d, w in zip(stn.offsets, stn.weights):
                row_slices = tuple(
                    slice(pc - int(d[a]), pc - int(d[a]) + spec.nx[a])
                    for a in range(spec.dim)
                )
                rows.append(pad_idx[row_slices].ravel())
                cols.append(col_idx.ravel())
                vals.append(np.full(n, float(w)))
            interior_rows = pad_idx[spec.interior_slices].ravel()
            rows.append(interior_rows)
            cols.append(np.arange(n))
            # interior nodes never see the outer truncation (containment)
            vals.append(np.full(n, -stn.diag))
            self._restricted = scipy.sparse.csr_matrix(
                (
                    np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(n_pad, n),
            )
        return self._restricted


def nonlocal_laplacian(f: Field, st: Stencil) -> Field:
    """Apply the discrete nonlocal Laplacian on the padded grid."""
    op = NonlocalOperator(st, f.spec)
    return Field(f.spec, op.apply(f.values))


def p_flux_values(g: np.ndarray, p: float, delta: float = 0.0) -> np.ndarray:
    if p == 2.0:
        return g.copy()
    if delta > 0.0:
        return (g * g + delta * delta) ** (0.5 * (p - 2.0)) * g
    # hard-zero convention at g = 0; exponent p-1 > 0 keeps 0**(p-1) = 0
    return np.sign(g) * np.abs(g) ** (p - 1.0)


def p_flux(g: Field, p: float, delta: float = 0.0) -> Field:
    """Pointwise monotone nonlinearity sign(g)|g|^(p-1), exactly 0 at 0."""
    check_exponent(p)
    if delta < 0.0:
        raise ValueError(f"flux regularization must be >= 0, got {delta}")
    return Field(g.spec, p_flux_values(g.values, float(p), float(delta)))


def _require_zero_extended(u: Field, what: str) -> None:
    if not u.is_zero_extended():
        raise ValueError(f"{what} must be exactly zero on exterior nodes")


def p_biharmonic_rhs(u: Field, st: Stencil, p: float) -> Field:
    """Right-hand side -Delta_NL(|Delta_NL u|^(p-2) Delta_NL u), zero outside."""
    check_exponent(p)
    _require_zero_extended(u, "p_biharmonic_rhs input")
    op = NonlocalOperator(st, u.spec)
    a = op.apply(u.values)
    rhs = -op.apply(p_flux_values(a, float(p)))
    rhs[~u.spec.interior_mask()] = 0.0
    return Field(u.spec, rhs)


def dirichlet_energy(u: Field, st: Stencil, p: float) -> float:
    """(1/p) * ||Delta_NL u||_p^p over the padded domain."""
    check_exponent(p)
    _require_zero_extended(u, "dirichlet_energy input")
    op = NonlocalOperator(st, u.spec)
    a = op.apply(u.values)
    return float(u.spec.cell_volume / p * np.sum(np.abs(a) ** p))
