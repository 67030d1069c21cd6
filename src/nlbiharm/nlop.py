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
* ``apply_corr``, the correlation sum_d w_d v(x + d) - S(x) v(x) of
  v = u - u.flat[0], with S the in-bounds weight sum.  In 1D a direct
  correlation, O(K N), whose outputs are K-term dot products of their
  neighbours: local rounding.  In 2D a zero-padded FFT, O(N log N), whose
  rounding is global: about eps_mach times the largest correlation in the
  whole array, at every node, however small the result there.

The stepper's Newton-CG steps at p >= 2, the bulk of the work, and the
Poincare constant's Lanczos solve evaluate through ``apply_corr``.
Everything else keeps the loop: the reweighted rule for p < 2, whose weights
|A x|^(p-2) amplify rounding at zeros of A x; Newton with the direct Hessian
solve for the local stencil, whose residuals sit near the rounding floor;
one-off evaluations; and the tests, where it is the oracle.
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
        self._corr = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        for (src, dst), w in self._terms:
            diff = values[src] - values[dst]
            diff *= w
            out[dst] += diff
        return out

    def apply_corr(self, values: np.ndarray) -> np.ndarray:
        """``apply`` in correlation form, as a new array (module docstring);
        shifting by the first value keeps constants exactly zero."""
        if self._corr is None:
            self._corr = self._build_corr()
        buf, inner, weight_sum, correlate = self._corr
        v = buf[inner]
        np.subtract(values, values.flat[0], out=v)
        return correlate(buf) - weight_sum * v

    def _build_corr(self):
        """Zero-padded work buffer, the values' slice of it, the in-bounds
        weight sum and the correlation of the buffer at the values' nodes."""
        shape = self.spec.padded_shape
        st = self.stencil
        reach = [int(r) for r in np.abs(st.offsets).max(axis=0)]
        weight_sum = np.zeros(shape)
        for (_, dst), w in self._terms:
            weight_sum[dst] += w
        if len(shape) == 1:  # taps[r + d] = w_d on a buffer of n + 2 r
            r = reach[0]
            taps = np.zeros(2 * r + 1)
            taps[r + st.offsets[:, 0]] = st.weights
            taps[r] = 0.0  # the zero offset contributes nothing
            inner = (slice(r, r + shape[0]),)
            return np.zeros(shape[0] + 2 * r), inner, weight_sum, (
                lambda b: np.correlate(b, taps, "valid"))
        # A circular correlation on n + reach per axis never wraps onto a
        # value.  Its arrays are reused: they exceed glibc's mmap threshold
        # and would fault in afresh on every call.  out[i] = sum_d w_d v[i + d]
        # puts w_d at -d (mod the FFT length).
        fft_shape = tuple(_fast_len(n + r) for n, r in zip(shape, reach))
        kern = np.zeros(fft_shape)
        kern[tuple((-st.offsets % fft_shape).T)] = st.weights
        kern[(0,) * len(shape)] = 0.0
        axes = tuple(range(len(shape)))
        spectrum = np.fft.rfftn(kern)
        freq = np.empty_like(spectrum)
        corr = np.empty(fft_shape)
        inner = tuple(slice(0, n) for n in shape)

        def correlate(b):
            np.fft.rfftn(b, out=freq)
            np.multiply(freq, spectrum, out=freq)
            return np.fft.irfftn(freq, fft_shape, axes, out=corr)[inner]

        return np.zeros(fft_shape), inner, weight_sum, correlate

    def norm_bound(self) -> float:
        """Gershgorin bound 2 * sum(w_d) on the operator norm."""
        return 2.0 * self.stencil.diag

    def restricted_matrix(self):
        """Sparse matrix of (zero-extend, apply) : interior values -> operator
        values at every padded node.  Backs the sparse inner-step models
        (reweighted for exponents below two, Newton for the local stencil)."""
        if self._restricted is None:
            import scipy.sparse

            spec, st, pc = self.spec, self.stencil, self.spec.pad_cells
            n = spec.n_interior
            pad_idx = np.arange(np.prod(spec.padded_shape)).reshape(spec.padded_shape)
            # column x holds w_d at row x - d for every offset d, and -diag at
            # x: interior nodes never see the outer truncation (containment)
            rows = [pad_idx[tuple(slice(pc - c, pc - c + m) for c, m in zip(d, spec.nx))]
                    for d in st.offsets] + [pad_idx[spec.interior_slices]]
            cols = np.tile(np.arange(n), len(rows))
            rows = np.concatenate([r.ravel() for r in rows])
            self._restricted = scipy.sparse.csr_matrix(
                (np.repeat(np.append(st.weights, -st.diag), n), (rows, cols)),
                shape=(pad_idx.size, n),
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
