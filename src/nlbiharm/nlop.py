"""Discrete nonlocal Laplacian, p-flux nonlinearity, and composite operators.

The operator acts on the full padded array; a node near the outer edge of
the padded domain sees a truncated neighborhood, with both the neighbor and
the center contribution dropped together, matching an integral over the
padded domain only.

It has four evaluations of the same matrix, one of them of its square:

* ``apply``, the difference loop over the K/2 pairs +-d of stencil
  offsets, O(K N): each pair's difference w_d (u(x + d) - u(x)) is added
  at x and subtracted at x + d.  Differences are formed before scaling, so
  constants map to exactly zero, the operator matrix is exactly symmetric,
  and the rounding at a node depends only on its own neighborhood (local).
* the three evaluations of an implicit step, all on the step window, the
  n + 2 reach nodes per axis within reach of the interior, whatever the
  operator's collar: ``apply_extended``, A E v, the operator on the zero
  extension E v of interior values v, which vanishes beyond the window;
  its transpose ``apply_restricted``, E^T A y, the operator on window
  values y read on the interior; and ``apply_squared``, E^T A A E v, the
  Hessian product at p = 2.  Once the collar covers the reach
  (``grid.check_collar``, as every operator checks) they are correlations
  with the taps t of A (w_d off the centre, -sum_(d != 0) w_d at it), and
  with t * t, which reaches 2 reach, for the square.  Each is exact for
  every input and computes only the values it returns.  In 1D they are
  direct correlations, O(K N), whose outputs are K-term dot products of
  their neighbours: local rounding.  In 2D one FFT plan of n + 2 reach per
  axis serves all three, O(N log N), with one kernel spectrum and one set
  of work arrays: v at offset reach for A E, y at offset 0 for E^T A, and
  v at offset 0 times ``spectrum**2`` for the square, so that none wraps
  onto a value.  Its rounding is global: about eps_mach times the largest
  correlation in the whole array, at every node, however small the result
  there.

``normal_solve`` solves the step model shift I + A^T diag(c) A over the
interior values directly: its bands come straight from the stencil taps and
a block LDL^T eliminates them (``BandedNormal``), in numpy alone.
``tau_solve`` inverts the tau-algebra approximation of the p = 2 model
shift I + E^T A^2 E, a (block) Toeplitz section with symbol lambda^2, where
lambda(xi) = sum_d t_d prod_a cos(xi_a d_a) is the symbol of the taps
(even along each axis): P^-1 = S diag(1 / (shift + lambda^2)) S at the
DST-I frequencies xi_a = pi k / (n_a + 1), k = 1..n_a, with S the
orthonormal DST-I per axis, its own inverse (Bini & Capovani, Linear
Algebra Appl. 52/53, 1983; Chan & Ng, SIAM Review 38, 1996).  It is built
for 2D grids, where S is kept as a dense n x n matrix per axis, so one solve
is two matrix products per axis and a scaling.  Which step uses which
evaluation and which solve is the stepper's choice.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainSpec, Field, check_collar, require_zero_extended
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
        dst.append(slice(max(-d, 0), n - max(d, 0)))
        src.append(slice(max(d, 0), n + min(d, 0)))
    return tuple(src), tuple(dst)


def _fft_correlations(taps: np.ndarray, fft_shape, placements):
    """The correlation out(x) = sum_d taps[m + d] v(x + d), dense taps of
    reach m per axis, as circular correlations on ``fft_shape``: for each
    (at, read, power) of ``placements`` a callable that writes its values
    at ``at`` of an array zero elsewhere and returns the correlation, made
    ``power`` times over (the kernel spectrum to that power), read at
    ``read``, as a new array.  The callables share the kernel spectrum and
    the work arrays, which are reused: they exceed glibc's mmap threshold
    and would fault in afresh on every call.  out[i] = sum_d taps[m + d]
    v[i + d] puts taps[m + d] at -d (mod the FFT length); taps that share a
    slot (2 power m >= length) must sit where no read sees a value."""
    m = taps.shape[0] // 2
    kern = np.zeros(fft_shape)
    kern[np.ix_(*(np.arange(m, -m - 1, -1) % n for n in fft_shape))] = taps
    axes = tuple(range(len(fft_shape)))
    spectrum = np.fft.rfftn(kern)
    freq = np.empty_like(spectrum)
    corr = np.empty(fft_shape)

    def correlation(at, read, power):
        buf = np.zeros(fft_shape)
        factor = spectrum if power == 1 else spectrum ** power

        def correlate(values):
            buf[at] = values
            np.fft.rfftn(buf, out=freq)
            np.multiply(freq, factor, out=freq)
            return np.fft.irfftn(freq, fft_shape, axes, out=corr)[read].copy()
        return correlate
    return [correlation(*placement) for placement in placements]


class NonlocalOperator:
    """Matrix-free nonlocal Laplacian bound to one stencil and one grid whose
    collar covers ``reach``, the ``Stencil.reach`` (``grid.check_collar``)."""

    def __init__(self, stencil: Stencil, spec: DomainSpec):
        if stencil.dim != spec.dim:
            raise ValueError(f"stencil dim {stencil.dim} != domain dim {spec.dim}")
        if abs(stencil.dx - spec.dx) > 1e-12 * spec.dx:
            raise ValueError(f"stencil dx {stencil.dx:g} != domain dx {spec.dx:g}")
        check_collar(spec.pad_cells, stencil.reach)
        self.spec = spec
        self.stencil = stencil
        self.reach = stencil.reach
        self._terms = None
        self._maps = None
        self._normal = None
        self._tau = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self._terms is None:
            self._terms = self._build_terms()
        out = np.zeros_like(values)
        for src, dst, w in self._terms:
            diff = values[src] - values[dst]
            diff *= w
            out[dst] += diff
            out[src] -= diff
        return out

    def _build_terms(self):
        """One (src, dst, w) per +-d pair, for the d whose first nonzero
        component is positive: the term at x + d of the offset -d is minus
        the term at x of d (``Stencil`` pairs the weights)."""
        shape = self.spec.padded_shape
        origin = (0,) * len(shape)
        return [
            (*_slice_pair(shape, d), w)
            for d, w in zip(map(tuple, self.stencil.offsets.tolist()),
                            self.stencil.weights.tolist())
            if d > origin
        ]

    def apply_extended(self, interior: np.ndarray) -> np.ndarray:
        """A E v: the operator on the zero extension of ``interior`` values,
        on the step window, as a new array (module docstring)."""
        return self._step_map(0)(interior)

    def apply_restricted(self, values: np.ndarray) -> np.ndarray:
        """E^T A y: the operator on step-window ``values``, read on the
        interior, as a new array (module docstring)."""
        return self._step_map(1)(values)

    def apply_squared(self, interior: np.ndarray) -> np.ndarray:
        """E^T A A E v on the interior, as a new array: one correlation with
        t * t (module docstring)."""
        return self._step_map(2)(interior)

    def _step_map(self, k: int):
        if self._maps is None:
            self._maps = self._step_maps()
        return self._maps[k]

    def _step_maps(self):
        """A E, E^T A and E^T A A E as callables on the step window, the
        interior plus the reach per axis, whatever the collar."""
        taps, r, nx = self._taps(), self.reach, self.spec.nx
        if taps.ndim == 1:
            # t is even, so t * t is t correlated with itself
            squared, m = np.convolve(taps, taps), 2 * r
            buf = np.zeros(nx[0] + 2 * m)

            def correlate_squared(values):
                buf[m:m + nx[0]] = values
                return np.correlate(buf, squared, "valid")
            return (lambda v: np.correlate(v, taps, "full"),
                    lambda y: np.correlate(y, taps, "valid"),
                    correlate_squared)
        inner = tuple(slice(r, r + n) for n in nx)
        whole = tuple(slice(0, n + 2 * r) for n in nx)
        first = tuple(slice(0, n) for n in nx)
        fft_shape = tuple(_fast_len(n + 2 * r) for n in nx)
        return _fft_correlations(
            taps, fft_shape, ((inner, whole, 1), (whole, inner, 1), (first, first, 2)))

    def _taps(self) -> np.ndarray:
        """The taps t of A, dense of reach r per axis: t[r + d] = w_d off the
        centre and -sum_(d != 0) w_d at it; the zero offset's weight drops
        out."""
        st, r = self.stencil, self.reach
        taps = np.zeros((2 * r + 1,) * st.dim)
        taps[tuple((st.offsets + r).T)] = st.weights
        centre = (r,) * st.dim
        taps[centre] = 0.0
        taps[centre] = -taps.sum()
        return taps

    def norm_bound(self) -> float:
        """Gershgorin bound 2 * sum(w_d) on the operator norm."""
        return 2.0 * self.stencil.diag

    def normal_solve(self, c: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (shift I + A^T diag(c) A) d = rhs over interior values, for
        A = apply after zero extension and a weight c >= 0 per padded node;
        block LDL^T on the band (``BandedNormal``), built on the first call
        and kept.  The stepper's direct direction solve, below p = 2 and for
        nearest-neighbour stencils (``reach == 1``)."""
        if self._normal is None:
            self._normal = BandedNormal(self)
        self._normal.assemble(c, shift)
        return self._normal.eliminate(rhs)

    def tau_solve(self, shift: float):
        """P^-1 = S diag(1 / (shift + lambda^2)) S over the interior values of
        a 2D grid, as a callable returning a new array (module docstring):
        the stepper's preconditioner for the p = 2 model shift I + E^T A^2 E.
        S, lambda^2 and two work arrays are built on the first call and
        kept, so a solve allocates only its result; a call computes only
        1 / (shift + lambda^2)."""
        if self._tau is None:
            self._tau = self._tau_basis()
        (s0, s1), symbol_sq, (work, moved) = self._tau
        scale = 1.0 / (shift + symbol_sq)

        def solve(values):
            # S_0 V S_1 (each S symmetric and its own inverse), scaled, and back
            np.matmul(s0, values, out=work)
            np.matmul(work, s1, out=moved)
            np.multiply(moved, scale, out=moved)
            np.matmul(s0, moved, out=work)
            return work @ s1
        return solve

    def _tau_basis(self):
        """The orthonormal DST-I matrix of each axis (one per distinct
        length), lambda^2 at the DST-I frequencies, and two work arrays, on
        the interior shape."""
        if self.spec.dim != 2:
            raise ValueError(f"the tau solve needs a 2D grid, got dim {self.spec.dim}")
        symbol, offsets = self._taps(), np.arange(-self.reach, self.reach + 1)
        sines = {}
        for n in self.spec.nx:
            k = np.arange(1, n + 1)
            xi = np.pi * k / (n + 1)
            if n not in sines:
                sines[n] = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, xi))
            # contracts the first offset axis left, appends this axis's frequencies
            symbol = symbol.T @ np.cos(np.outer(offsets, xi))
        work = (np.empty(self.spec.nx), np.empty(self.spec.nx))
        return [sines[n] for n in self.spec.nx], symbol ** 2, work


# Smallest block of the block LDL^T solve.  Blocks are max(bandwidth,
# BLOCK_MIN) wide: narrower blocks of a narrow band cost more LAPACK calls
# than they save in flops (measured on the local 1D Hessian, n = 256).
BLOCK_MIN = 32


class BandedNormal:
    """M = shift I + A^T diag(c) A over the interior values, as a banded
    matrix, and its block LDL^T (block Thomas) solve.

    A[y, x] = t_(x-y) for an interior node x and any padded node y, with the
    nonzero taps t of ``NonlocalOperator._taps`` (interior nodes never see
    the outer truncation), so M[i, i + k] = shift [k = 0] +
    sum_(e_b - e_a = k) t_a t_b c(i - e_a): one product of the tap-product
    matrix with c gathered at i - e_a per assembly.  Only k with a nonnegative
    flat offset are kept, and only pairs (i, i + k) that are both interior.

    The band, padded with identity rows to whole blocks, is block
    tridiagonal; M is SPD, so block elimination needs no pivoting across
    blocks (Golub & Van Loan, Matrix Computations, 4th ed., ch. 4).  Only
    the first ``width`` (the bandwidth) columns of an off-diagonal block
    are nonzero.
    """

    def __init__(self, op: NonlocalOperator):
        spec = op.spec
        dim, nx, n = spec.dim, spec.nx, spec.n_interior
        full = op._taps()
        offs = np.argwhere(full) - op.reach
        taps = full[full != 0.0]
        pad_strides = np.cumprod((spec.padded_shape[1:] + (1,))[::-1])[::-1]
        int_strides = np.cumprod((nx[1:] + (1,))[::-1])[::-1]
        coords = np.indices(nx).reshape(dim, n)
        # c at i - e_a for every tap a and interior node i
        self._gather = ((coords.T + spec.pad_cells) @ pad_strides)[None, :] - (
            offs @ pad_strides)[:, None]
        diff = offs[None, :, :] - offs[:, None, :]  # e_b - e_a at [a, b]
        a_idx, b_idx = np.nonzero(diff @ int_strides >= 0)
        ks, k_inv = np.unique(diff[a_idx, b_idx], axis=0, return_inverse=True)
        self._products = np.zeros((len(ks), len(offs)))
        np.add.at(self._products, (k_inv.ravel(), a_idx), taps[a_idx] * taps[b_idx])
        self._centre = int(np.flatnonzero(~ks.any(axis=1))[0])

        inside = np.ones((len(ks), n), dtype=bool)
        for ax in range(dim):
            moved = coords[ax][None, :] + ks[:, ax][:, None]
            inside &= (moved >= 0) & (moved < nx[ax])
        k_of, i = np.nonzero(inside)
        j = i + (ks @ int_strides)[k_of]
        src = k_of * n + i
        width = int((j - i).max())
        m = min(max(width, BLOCK_MIN), n)
        nb = -(-n // m)
        bi, bj, ri, rj = i // m, j // m, i % m, j % m
        same = bi == bj
        mirror = same & (i != j)  # the lower triangle of a diagonal block
        self._diag_src = np.concatenate([src[same], src[mirror]])
        self._diag_dst = np.concatenate([
            ((bi * m + ri) * m + rj)[same], ((bi * m + rj) * m + ri)[mirror]])
        self._off_src = src[~same]
        self._off_dst = ((bi * m + ri) * (width + 1) + rj)[~same]
        self.block, self.width = m, width
        pad = np.arange(n, nb * m)
        self._diag = np.zeros((nb, m, m))
        self._diag[pad // m, pad % m, pad % m] = 1.0
        # the last column of each off-diagonal block holds a right-hand side
        self._off = np.zeros((nb - 1, m, width + 1))

    def assemble(self, c: np.ndarray, shift: float) -> None:
        """Write the blocks of M for the weight c (padded shape)."""
        bands = self._products @ c.ravel()[self._gather]
        bands[self._centre] += shift
        self._diag.ravel()[self._diag_dst] = bands.ravel()[self._diag_src]
        self._off.ravel()[self._off_dst] = bands.ravel()[self._off_src]

    def eliminate(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M d = rhs (interior shape) with the assembled blocks."""
        diag, off, w = self._diag, self._off, self.width
        y = np.zeros(diag.shape[:2])
        y.ravel()[: rhs.size] = rhs.ravel()
        # forward: S_j = D_j - B_(j-1)^T x_(j-1) with x_j = S_j^-1 B_j, and
        # y_j = S_j^-1 (rhs_j - B_(j-1)^T y_(j-1)); B_j reaches only the
        # first w unknowns of block j + 1.  Back: d_j = y_j - x_j d_(j+1).
        xs = []
        schur = diag[0]
        for j in range(len(off)):
            off[j, :, w] = y[j]
            sol = np.linalg.solve(schur, off[j])
            xs.append(sol[:, :w])
            y[j] = sol[:, w]
            b_t = off[j, :, :w].T
            schur = diag[j + 1].copy()
            schur[:w, :w] -= b_t @ xs[j]
            y[j + 1, :w] -= b_t @ y[j]
        y[-1] = np.linalg.solve(schur, y[-1])
        for j in range(len(off) - 1, -1, -1):
            y[j] -= xs[j] @ y[j + 1, :w]
        return y.ravel()[: rhs.size].reshape(rhs.shape)


def nonlocal_laplacian(f: Field, st: Stencil) -> Field:
    """Apply the discrete nonlocal Laplacian on the padded grid."""
    op = NonlocalOperator(st, f.spec)
    return Field(f.spec, op.apply(f.values))


def p_flux_values(g: np.ndarray, p: float) -> np.ndarray:
    if p == 2.0:
        return g.copy()
    # hard-zero convention at g = 0; exponent p-1 > 0 keeps 0**(p-1) = 0
    return np.sign(g) * np.abs(g) ** (p - 1.0)


def p_flux(g: Field, p: float) -> Field:
    """Pointwise monotone nonlinearity sign(g)|g|^(p-1), exactly 0 at 0."""
    check_exponent(p)
    return Field(g.spec, p_flux_values(g.values, float(p)))


def p_biharmonic_rhs(u: Field, st: Stencil, p: float) -> Field:
    """Right-hand side -Delta_NL(|Delta_NL u|^(p-2) Delta_NL u), zero outside."""
    check_exponent(p)
    require_zero_extended(u, "p_biharmonic_rhs input")
    op = NonlocalOperator(st, u.spec)
    a = op.apply(u.values)
    rhs = -op.apply(p_flux_values(a, float(p)))
    rhs[~u.spec.interior_mask()] = 0.0
    return Field(u.spec, rhs)


def dirichlet_energy(u: Field, st: Stencil, p: float) -> float:
    """(1/p) * ||Delta_NL u||_p^p over the padded domain."""
    check_exponent(p)
    require_zero_extended(u, "dirichlet_energy input")
    op = NonlocalOperator(st, u.spec)
    a = op.apply(u.values)
    return float(u.spec.cell_volume / p * np.sum(np.abs(a) ** p))
