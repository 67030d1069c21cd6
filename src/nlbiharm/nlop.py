"""Discrete nonlocal Laplacian, p-flux nonlinearity, and composite operators.

The operator acts on the full padded array; a node near the outer edge of
the padded domain sees a truncated neighborhood, with both the neighbor and
the center contribution dropped together, matching an integral over the
padded domain only.

It has two evaluations of the same matrix:

* ``apply``, the difference loop over the K stencil offsets, O(K N).
  Differences are formed before scaling, so constants map to exactly zero,
  the operator matrix is exactly symmetric, and the rounding at a node
  depends only on its own neighborhood (local).
* ``apply_fft``, a zero-padded FFT correlation with the stencil weights
  minus the in-bounds weight sum times the value, O(N log N).  Its rounding
  is global: about eps_mach times the largest correlation in the whole
  array, at every node, however small the result there.

The implicit stepper's Newton steps for this operator at p >= 2, the bulk of
the work, evaluate through the FFT: gradients, trials and the two applies of
each Hessian-vector product of their CG solves.  Everything else keeps the
loop: the reweighted rule for p < 2, whose weights |A x|^(p-2) amplify
rounding at zeros of A x; Newton with the direct Hessian solve for the local
stencil, whose residuals sit near the rounding floor; one-off evaluations;
and the tests, where it is the oracle for the FFT.
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


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (a length numpy's FFT handles fast)."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


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
    hessian_solve = "cg"

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
        self._spectrum = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        for (src, dst), w in self._terms:
            diff = values[src] - values[dst]
            diff *= w
            out[dst] += diff
        return out

    def apply_fft(self, values: np.ndarray) -> np.ndarray:
        """The operator of ``apply`` through FFT correlation, O(N log N).

        Shifting by the first value keeps constants exactly zero; the
        rounding of the result is global (see the module docstring).
        """
        if self._spectrum is None:
            self._build_spectrum()
        spectrum, fft_shape, weight_sum = self._spectrum
        axes = tuple(range(values.ndim))
        v = values - values.flat[0]
        corr = np.fft.irfftn(
            np.fft.rfftn(v, fft_shape, axes) * spectrum, fft_shape, axes
        )
        out = corr[tuple(slice(0, n) for n in v.shape)]
        out -= weight_sum * v
        return out

    def _build_spectrum(self) -> None:
        """Kernel spectrum on a zero-padded grid of n + reach per axis (so
        the circular correlation never wraps) and the in-bounds weight sum
        of every node."""
        shape = self.spec.padded_shape
        st = self.stencil
        reach = np.abs(st.offsets).max(axis=0)
        fft_shape = tuple(_fast_len(n + int(r)) for n, r in zip(shape, reach))
        kern = np.zeros(fft_shape)
        weight_sum = np.zeros(shape)
        # out[i] = sum_d w_d v[i + d]: place w_d at -d (mod the FFT length)
        for d, w in zip(st.offsets, st.weights):
            if np.any(d):
                kern[tuple(-int(c) % n for c, n in zip(d, fft_shape))] = w
        for (_, dst), w in self._terms:
            weight_sum[dst] += w
        axes = tuple(range(len(shape)))
        self._spectrum = (np.fft.rfftn(kern, fft_shape, axes), fft_shape, weight_sum)

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
