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
  Hessian product of the 2D p = 2 CG.  Once the collar covers the reach
  (``grid.check_collar``, as every operator checks) they are correlations
  with the taps t of A (w_d off the centre, -sum_(d != 0) w_d at it), and
  in 2D with t * t, which reaches 2 reach, for the square.  Each is exact
  for every input and computes only the values it returns.  In 1D A E and
  E^T A are direct correlations, O(K N), whose outputs are K-term dot
  products of their neighbours: local rounding; no 1D step takes the
  square (a 1D p = 2 step solves with the kept factor), which there is
  their composition.  In 2D one FFT plan of n + 2 reach per axis serves
  all three, O(N log N), with one kernel spectrum and one set of work
  arrays: v at offset reach for A E, y at offset 0 for E^T A, and v at
  offset 0 times ``spectrum**2`` for the square, so that none wraps onto a
  value.  Its rounding is global: about eps_mach times the largest
  correlation in the whole array, at every node, however small the result
  there.

``normal_solve`` solves the step model shift I + A^T diag(c) A over the
interior values directly: its bands come straight from the stencil taps,
and a partitioned block LDL^T eliminates them (``BandedNormal``), in numpy
alone.  A narrow band is cut into partitions with separators between them
(the SPIKE layout of Polizzi & Sameh, Parallel Computing 32, 2006), whose
block chains are eliminated in one batched pass before a small dense
separator system; a wide band is one chain.  ``p2_solve`` keeps the
factor of the p = 2 model shift I + E^T A^2 E (c = 1), which every step of
a run shares: it is made once per shift, and each solve is a substitution
of batched matrix products (the factor-once, substitute-many split of
Golub & Van Loan, Matrix Computations, 4th ed., ch. 4).
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

from functools import cached_property

import numpy as np

from .grid import DomainSpec, check_collar
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

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        for src, dst, w in self._terms:
            diff = values[src] - values[dst]
            diff *= w
            out[dst] += diff
            out[src] -= diff
        return out

    @cached_property
    def _terms(self):
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
        return self._maps[0](interior)

    def apply_restricted(self, values: np.ndarray) -> np.ndarray:
        """E^T A y: the operator on step-window ``values``, read on the
        interior, as a new array (module docstring)."""
        return self._maps[1](values)

    def apply_squared(self, interior: np.ndarray) -> np.ndarray:
        """E^T A A E v on the interior, as a new array: one correlation with
        t * t (module docstring)."""
        return self._maps[2](interior)

    @cached_property
    def _maps(self):
        """A E, E^T A and E^T A A E as callables on the step window, the
        interior plus the reach per axis, whatever the collar."""
        taps, r, nx = self._taps(), self.reach, self.spec.nx
        if taps.ndim == 1:
            def extended(v):
                return np.correlate(v, taps, "full")

            def restricted(y):
                return np.correlate(y, taps, "valid")
            return extended, restricted, lambda v: restricted(extended(v))
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
        partitioned block LDL^T on the band (``BandedNormal``), built on the
        first call and kept, assembled and eliminated again on every call.
        The stepper's direct direction solve below p = 2, and above it for
        nearest-neighbour stencils (``reach == 1``); at p = 2, where M does
        not change, ``p2_solve`` keeps its factor."""
        self._normal.assemble(c, shift)
        return self._normal.eliminate(rhs)

    @cached_property
    def _normal(self):
        return BandedNormal(self)

    def p2_solve(self, shift: float):
        """M^-1 for the p = 2 step model M = shift I + E^T A^2 E over the
        interior values (``normal_solve`` at c = 1), as a callable returning
        a new array: ``BandedNormal``'s kept factor, built on the first call
        for each shift and kept, so a solve is only its substitution.  The
        stepper's direction solve at p = 2 wherever the band is narrow: in
        1D and for nearest-neighbour stencils (``reach == 1``)."""
        if shift not in self._p2_factors:
            self._normal.assemble(np.ones(self.spec.padded_shape), shift)
            self._p2_factors[shift] = self._normal.factor()
        return self._p2_factors[shift]

    @cached_property
    def _p2_factors(self):
        return {}

    def tau_solve(self, shift: float):
        """P^-1 = S diag(1 / (shift + lambda^2)) S over the interior values of
        a 2D grid, as a callable returning a new array (module docstring):
        the stepper's preconditioner for the p = 2 model shift I + E^T A^2 E.
        S, lambda^2 and two work arrays are built on the first call and
        kept, so a solve allocates only its result; a call computes only
        1 / (shift + lambda^2)."""
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

    @cached_property
    def _tau(self):
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


# Cost of one ``BandedNormal.eliminate`` in us, fitted to its timings with
# the number of partitions P forced (1D local and nonlocal bands, width 2 to
# 64, n = 64 to 2,048, P = 1 to 64) on one OpenBLAS thread of a shared
# 2-vCPU VM: STEP_US per step of the block chains (the Python and call
# overhead of one batched block solve and its products), MATRIX_US per
# block matrix of a batched solve, FLOP_NS per flop of the block LUs, their
# right-hand sides and the separator solve, and SEPARATE_US for the rest of
# the separator stage.  Median relative error 9% over the 68 timed layouts
# of the fit.
STEP_US, MATRIX_US, FLOP_NS, SEPARATE_US = 15.0, 1.5, 0.25, 40.0


def _layout(n: int, width: int):
    """The number of partitions P and the block length of least modelled
    cost (STEP_US above) for n unknowns in flat order with a separator of
    ``width`` between two partitions: each partition a chain of blocks,
    padded to whole blocks.

    A chain of c blocks of b unknowns, with k right-hand sides (1 at P = 1,
    and the 2 width coupling columns besides at P > 1), costs c block LUs,
    the solves of its first c - 1 blocks with the width columns of the next
    block's coupling besides, the last block's solve, and the c - 1 Schur
    and back-substitution products: c 2/3 b^3 + 2 b^2 k + (c - 1)
    (2 b^2 (width + k) + 2 width^2 b + 4 width b k) flops.  The P chains
    are eliminated together, one batched solve per step, and P > 1 adds a
    dense separator system of (P - 1) width unknowns.  Only partitions at
    least 2 width long are weighed, so that each one reaches past both its
    coupling edges, and only blocks at least ``width`` long, so that a
    block's coupling reaches no further than the next block.

    Checked on the same VM, us per elimination: the 1D nonlocal band of
    width 24 at n = 64 (the battery grid) is one block of 64 (36 us; 56 as
    two blocks of 32); the 1D local Hessian (width 2) gets P = 13 blocks of
    18 at n = 256 (104 us; 213 us at P = 1, 96 at P = 26); the 1D band of
    width 204 at n = 256 (converge's eps = 0.4) is one block (580 us; 2.3
    ms as two blocks of 204); every 2D local band (width 2 nx) keeps one
    partition."""
    if width == 0:  # a single unknown
        return 1, n
    parts = np.arange(1, max(1, (n + width) // (3 * width)) + 1)[:, None]
    length = -(-(n - (parts - 1) * width) // parts)
    block = -(-length // np.arange(1, max(1, length.max() // width) + 1))
    chain = -(-length // block)
    cols = np.where(parts > 1, 1 + 2 * width, 1)
    seps = (parts - 1) * width
    flops = parts * (chain * 2 / 3 * block ** 3 + 2 * block ** 2 * cols + (chain - 1) * (
        2 * block ** 2 * (width + cols) + 2 * width ** 2 * block + 4 * width * block * cols)
    ) + 2 / 3 * seps ** 3
    cost = (STEP_US * chain + MATRIX_US * parts * chain + 1e-3 * FLOP_NS * flops
            + SEPARATE_US * (parts > 1))
    cost[(block < width) & (chain > 1)] = np.inf
    p, c = np.unravel_index(np.argmin(cost), cost.shape)
    return int(parts[p, 0]), int(block[p, c])


class BandedNormal:
    """M = shift I + A^T diag(c) A over the interior values, as a banded
    matrix, and its partitioned block LDL^T solve.

    A[y, x] = t_(x-y) for an interior node x and any padded node y, with the
    nonzero taps t of ``NonlocalOperator._taps`` (interior nodes never see
    the outer truncation), so M[i, i + k] = shift [k = 0] +
    sum_(e_b - e_a = k) t_a t_b c(i - e_a): one product of the tap-product
    matrix with c gathered at i - e_a per assembly.  Only k with a nonnegative
    flat offset are kept, and only pairs (i, i + k) that are both interior.

    Layout: the unknowns, in flat order, fall into ``parts`` partitions of
    ``length`` with a separator of ``width`` (the bandwidth) between two,
    and identity rows pad the layout past the last unknown.  The band
    reaches ``width`` off the diagonal, so no two partitions couple, and a
    partition couples only to the separators on either side of it (the
    SPIKE layout; Polizzi & Sameh, Parallel Computing 32, 2006).  Each
    partition is a chain of blocks of ``block`` unknowns, block
    tridiagonal, and only the first ``width`` columns of an off-diagonal
    block are nonzero.  ``assemble`` scatters the bands straight into the
    diagonal and off-diagonal blocks, the coupling columns M_(I_p, s) of
    each partition p and the separators' own matrix M_ss.

    ``eliminate``: M is SPD, so block elimination needs no pivoting across
    blocks (Golub & Van Loan, Matrix Computations, 4th ed., ch. 4).  Every
    partition's chain is eliminated at once, along a leading partition
    axis, on the right-hand sides [rhs | M_(I_p, s_(p-1)) |
    M_(I_p, s_p)]; the separators' Schur complement, (parts - 1) width
    unknowns, is formed by one batched product and one scatter and solved
    densely; one batched product back-substitutes it.  ``_layout``
    chooses ``parts`` and ``block`` by a measured cost model; with one
    partition this is the block Thomas solve of the whole chain, op for op.

    ``factor`` splits the same elimination into a factorization, made once
    for the assembled M, and a substitution made only of batched matrix
    products, for a matrix that many solves share.  numpy has no triangular
    solve, so the factor keeps inverses: each Schur block's S_j^-1, the
    X_j = S_j^-1 B_j, the partitions' coupling solves Y_p = A_p^-1 C_p and
    the inverse of the separators' Schur complement.
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
        w = int((j - i).max())
        parts, m = _layout(n, w)
        length = -(-(n - (parts - 1) * w) // parts)
        length = -(-length // m) * m  # padded to whole blocks
        chain, seps, cols = length // m, (parts - 1) * w, 1 if parts == 1 else 1 + 2 * w
        self.parts, self.block, self.width, self.length = parts, m, w, length

        # position of each unknown: partition p at offset o, or separator p
        pi, oi = i // (length + w), i % (length + w)
        pj, oj = j // (length + w), j % (length + w)
        in_i, in_j = oi < length, oj < length
        bi, bj, ri, rj = pi * chain + oi // m, pj * chain + oj // m, oi % m, oj % m
        same = in_i & in_j & (bi == bj)
        mirror = same & (i != j)  # the lower triangle of a diagonal block
        nxt = in_i & in_j & (bj == bi + 1)
        self._diag_src = np.concatenate([src[same], src[mirror]])
        self._diag_dst = np.concatenate([
            ((bi * m + ri) * m + rj)[same], ((bi * m + rj) * m + ri)[mirror]])
        # the last columns of each off-diagonal block hold right-hand sides
        self._off_src = src[nxt]
        self._off_dst = (((bi - pi) * m + ri) * (w + cols) + rj)[nxt]
        self._off = np.zeros((parts, chain - 1, m, w + cols))
        # identity rows pad the layout past the last unknown
        pad = np.arange(n, parts * (length + w) - w)
        pp, po = pad // (length + w), pad % (length + w)
        rows, pad_p = po[po < length], pp[po < length]
        self._diag = np.zeros((parts, chain, m, m))
        self._diag.reshape(-1, m, m)[pad_p * chain + rows // m, rows % m, rows % m] = 1.0
        if parts == 1:
            return
        si, sj = pi * w + oi - length, pj * w + oj - length
        sep = ~in_i & ~in_j
        sep_mirror = sep & (i != j)
        right = in_i & ~in_j  # partition p, then separator p
        left = ~in_i & in_j  # separator p - 1, then partition p
        self._sep_src = np.concatenate([src[sep], src[sep_mirror]])
        self._sep_dst = np.concatenate([(si * seps + sj)[sep], (sj * seps + si)[sep_mirror]])
        self._cpl_src = np.concatenate([src[right], src[left]])
        self._cpl_dst = np.concatenate([
            ((pi * length + oi) * 2 * w + w + (sj - pi * w))[right],
            ((pj * length + oj) * 2 * w + (si - (pj - 1) * w))[left]])
        self._sep = np.zeros((seps, seps))
        pad_s = (pp * w + po - length)[po >= length]
        self._sep[pad_s, pad_s] = 1.0
        self._couple = np.zeros((parts, length, 2 * w))
        # row a and column b of partition p's products C_p^T [z | Y_l | Y_r]
        # (``eliminate``) land on separator unknown (p - 1) w + a and on
        # (p - 1) w + b - 1, or on the right-hand side for b = 0; the first
        # partition's left rows and the last one's right ones are dropped
        p, a, b = np.indices((parts, 2 * w, cols))
        row = (p - 1) * w + a
        col = np.where(b == 0, seps, (p - 1) * w + b - 1)
        keep = (row >= 0) & (row < seps) & (col >= 0) & ((b == 0) | (col < seps))
        self._schur_dst = np.where(keep, row * (seps + 1) + col, seps * (seps + 1)).ravel()

    def assemble(self, c: np.ndarray, shift: float) -> None:
        """Write the blocks of M for the weight c (padded shape)."""
        bands = self._products @ c.ravel()[self._gather]
        bands[self._centre] += shift
        flat = bands.ravel()
        self._diag.ravel()[self._diag_dst] = flat[self._diag_src]
        self._off.ravel()[self._off_dst] = flat[self._off_src]
        if self.parts > 1:
            self._sep.ravel()[self._sep_dst] = flat[self._sep_src]
            self._couple.ravel()[self._cpl_dst] = flat[self._cpl_src]

    def eliminate(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M d = rhs (interior shape) with the assembled blocks."""
        diag, off, w = self._diag, self._off, self.width
        parts, length, n = self.parts, self.length, rhs.size
        # the right-hand sides [rhs | M_(I_p, s_(p-1)) | M_(I_p, s_p)] of
        # each partition p, one column at P = 1
        lay = np.zeros((parts, length + w))
        lay.ravel()[:n] = rhs.ravel()
        y = np.zeros(diag.shape[:3] + (off.shape[-1] - w,))
        y[..., 0] = lay[:, :length].reshape(y.shape[:3])
        if parts > 1:
            y[..., 1:] = self._couple.reshape(y.shape[:3] + (2 * w,))
        # forward: S_j = D_j - B_(j-1)^T x_(j-1) with x_j = S_j^-1 B_j, and
        # y_j = S_j^-1 (rhs_j - B_(j-1)^T y_(j-1)); B_j reaches only the
        # first w unknowns of block j + 1.  Back: d_j = y_j - x_j d_(j+1).
        xs = []
        schur = diag[:, 0]
        for j in range(off.shape[1]):
            off[:, j, :, w:] = y[:, j]
            sol = np.linalg.solve(schur, off[:, j])
            xs.append(sol[..., :w])
            y[:, j] = sol[..., w:]
            b_t = off[:, j, :, :w].transpose(0, 2, 1)
            schur = diag[:, j + 1].copy()
            schur[:, :w, :w] -= b_t @ xs[j]
            y[:, j + 1, :w] -= b_t @ y[:, j]
        y[:, -1] = np.linalg.solve(schur, y[:, -1])
        for j in range(off.shape[1] - 1, -1, -1):
            y[:, j] -= xs[j] @ y[:, j + 1, :w]
        if parts == 1:
            return y.ravel()[:n].reshape(rhs.shape)
        # separators: (M_ss - sum_p C_p^T Y_p) x_s = rhs_s - sum_p C_p^T z_p
        # for C_p = [M_(I_p, s_(p-1)) | M_(I_p, s_p)], one scatter of the
        # products C_p^T [z | Y] into the rows of both separators of p
        z = y.reshape(parts, length, -1)
        seps = (parts - 1) * w
        prods = self._couple.transpose(0, 2, 1) @ z
        aug = np.bincount(self._schur_dst, prods.ravel(), seps * (seps + 1) + 1)[:-1]
        aug = aug.reshape(seps, seps + 1)
        x_s = np.linalg.solve(self._sep - aug[:, :seps], lay[:-1, length:].ravel() - aug[:, seps])
        # d_p = z_p - Y_l x_(p-1) - Y_r x_p, a zero x beyond either end
        x_s = x_s.reshape(parts - 1, w)
        sides = np.zeros((parts, 2 * w, 1))
        sides[1:, :w, 0] = x_s
        sides[:-1, w:, 0] = x_s
        out = np.empty((parts, length + w))
        out[:, :length] = z[..., 0] - (z[..., 1:] @ sides)[..., 0]
        out[:-1, length:] = x_s
        return out.ravel()[:n].reshape(rhs.shape)

    def factor(self):
        """The kept factor of the assembled M, as a callable that solves
        M d = rhs (interior shape) by substitution and returns a new array.
        It copies what it keeps, so a later ``assemble`` leaves it as it is."""
        diag, w, length = self._diag, self.width, self.length
        parts, chain, m = diag.shape[:3]
        b = self._off[..., :w].copy()
        b_t = b.transpose(0, 1, 3, 2)
        inv = np.empty_like(diag)
        xs = np.empty_like(b)
        schur = diag[:, 0]
        for j in range(chain - 1):
            inv[:, j] = np.linalg.inv(schur)
            xs[:, j] = inv[:, j] @ b[:, j]
            schur = diag[:, j + 1].copy()
            schur[:, :w, :w] -= b_t[:, j] @ xs[:, j]
        inv[:, -1] = np.linalg.inv(schur)

        def chains(y):
            """A_p^-1 y for every partition p at once, y of shape (parts,
            chain, m, columns), in place: y_j = S_j^-1 (y_j - B_(j-1)^T
            y_(j-1)), then d_j = y_j - X_j d_(j+1)."""
            for j in range(chain - 1):
                y[:, j] = inv[:, j] @ y[:, j]
                y[:, j + 1, :w] -= b_t[:, j] @ y[:, j]
            y[:, -1] = inv[:, -1] @ y[:, -1]
            for j in range(chain - 2, -1, -1):
                y[:, j] -= xs[:, j] @ y[:, j + 1, :w]
            return y.reshape(parts, length, -1)

        if parts > 1:
            # the separators' Schur complement M_ss - sum_p C_p^T Y_p,
            # scattered as ``eliminate`` scatters it, with a zero rhs column
            couple = self._couple.copy()
            c_t = couple.transpose(0, 2, 1)
            ys = chains(couple.reshape(parts, chain, m, 2 * w).copy())
            seps = (parts - 1) * w
            prods = np.zeros((parts, 2 * w, 1 + 2 * w))
            prods[..., 1:] = c_t @ ys
            aug = np.bincount(self._schur_dst, prods.ravel(), seps * (seps + 1) + 1)[:-1]
            sep_inv = np.linalg.inv(self._sep - aug.reshape(seps, seps + 1)[:, :seps])

        def solve(rhs):
            lay = np.zeros((parts, length + w))
            lay.ravel()[:rhs.size] = rhs.ravel()
            z = chains(lay[:, :length].reshape(parts, chain, m, 1))[..., 0]
            if parts > 1:
                # x_s = S_ss^-1 (rhs_s - sum_p C_p^T z_p); d_p = z_p - Y_p x
                t = (c_t @ z[..., None])[..., 0]
                x_s = sep_inv @ (lay[:-1, length:] - t[1:, :w] - t[:-1, w:]).ravel()
                x_s = x_s.reshape(parts - 1, w)
                sides = np.zeros((parts, 2 * w, 1))
                sides[1:, :w, 0] = x_s
                sides[:-1, w:, 0] = x_s
                z = z - (ys @ sides)[..., 0]
                lay[:-1, length:] = x_s
            lay[:, :length] = z
            return lay.ravel()[:rhs.size].reshape(rhs.shape)
        return solve


def p_flux_values(g: np.ndarray, p: float) -> np.ndarray:
    """Pointwise monotone nonlinearity sign(g)|g|^(p-1), exactly 0 at 0, for
    an exponent that passed ``check_exponent``."""
    if p == 2.0:
        return g.copy()
    # hard-zero convention at g = 0; exponent p-1 > 0 keeps 0**(p-1) = 0
    return np.sign(g) * np.abs(g) ** (p - 1.0)
