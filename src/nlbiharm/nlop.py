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
Golub & Van Loan, Matrix Computations, 4th ed., ch. 4).  Above p = 2 a
run's ``LaggedFactor`` keeps the same kind of factor for an earlier
iterate's weights, as the preconditioner of CG on the current model.
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

import math
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

    @cached_property
    def step_window(self):
        """The step window, the interior plus the reach per axis, as slices
        of the operator's padded grid."""
        pad = self.spec.pad_cells
        return tuple(slice(pad - self.reach, pad + n + self.reach) for n in self.spec.nx)

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
        A = apply after zero extension and a weight c >= 0 per node of the
        padded grid or of the step window; partitioned block LDL^T on the
        band (``BandedNormal``), built on the first call and kept, assembled
        and eliminated again on every call.  The stepper's direction solve
        below p = 2; at p = 2, where M does not change, ``p2_solve`` keeps
        its factor, and above p = 2 a 1D or nearest-neighbour step
        preconditions CG with a lagged one where it pays (``LaggedFactor``)."""
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

    def lagged_factor(self, shift: float) -> "LaggedFactor":
        """A new ``LaggedFactor`` of the step model shift I + A^T diag(c) A
        for one run's p > 2 steps.  It factors through the operator's
        ``BandedNormal`` and keeps its own copy, apart from ``p2_solve``'s
        exact factors, which the operator keeps per shift: the two never
        mix."""
        return LaggedFactor(self, shift)

    @cached_property
    def _band(self):
        """The band of the step model over the interior values in flat order,
        which ``BandedNormal`` assembles and ``LaggedFactor``'s cost model
        reads, made without a per-pair array: the number of A's nonzero
        taps, the distinct differences k = e_b - e_a of two of their offsets
        with a nonnegative flat offset on the interior, in lexicographic
        order, the bandwidth, the largest flat offset of a k that couples two
        interior nodes (each |k_a| below n_a), and the layout of ``_layout``
        for it: the partitions, the block length and the partitions' length,
        padded to whole blocks."""
        nx, r, dim = self.spec.nx, self.reach, self.spec.dim
        # each tap offset e_a as one key, a mixed radix over [0, 4 reach] per
        # axis of e_a + reach: a difference of keys is the key of e_b - e_a
        # shifted by that of 2 reach, so the distinct differences are the
        # lags where the autocorrelation of the keys' indicator, a count of
        # pairs, is nonzero, and ascending lags are lexicographic order
        shape = (4 * r + 1,) * dim
        keys = np.ravel_multi_index(tuple(np.argwhere(self._taps()).T), shape)
        hits = np.zeros(keys[-1] + 1)
        hits[keys] = 1.0
        lags = np.flatnonzero(np.correlate(hits, hits, "full")) - keys[-1]
        lags += np.ravel_multi_index((2 * r,) * dim, shape)
        ks = np.stack(np.unravel_index(lags, shape), axis=-1) - 2 * r
        strides = _strides(nx)
        ks = ks[ks @ strides >= 0]  # a nonnegative flat offset
        n = self.spec.n_interior
        width = int((ks[np.all(np.abs(ks) < nx, axis=1)] @ strides).max())
        parts, block = _layout(n, width)
        length = -(-(n - (parts - 1) * width) // parts)
        length = -(-length // block) * block  # padded to whole blocks
        return len(keys), ks, width, parts, block, length

    def product_us(self) -> float:
        """Modelled cost in us of one step-model product v/h + E^T A (c A E
        v) of a step that solves with a ``LaggedFactor`` (``_kept_us``): two
        correlations in 1D, two loop applies in 2D."""
        if self.spec.dim == 1:
            return _kept_us(6, 4 * self.spec.n_interior * np.count_nonzero(self._taps()))
        pairs, nodes = len(self._terms), int(np.prod(self.spec.padded_shape))
        return _kept_us(7 + 8 * pairs, 8 * pairs * nodes)

    def substitution_us(self) -> float:
        """Modelled cost in us of one substitution with a kept factor of
        ``BandedNormal`` (``_kept_us``): a forward and a back sweep of
        batched matrix-vector products along the chains and, with several
        partitions, the three products of the separator stage."""
        _, _, w, parts, m, length = self._band
        chain, seps = length // m, (parts - 1) * w
        flops = parts * (chain * 2 * m * m + (chain - 1) * 4 * w * m)
        calls = 6 * chain + 4
        if parts > 1:
            flops += 4 * seps * parts * length + 2 * seps * seps
            calls += 6
        return _kept_us(calls, flops)

    def band_us(self) -> float:
        """Modelled cost in us of setting up the operator's ``BandedNormal``
        (KEPT_BAND_US): its index maps, one entry per interior node and band
        offset k."""
        return KEPT_BAND_US + 1e-3 * KEPT_ENTRY_NS * len(self._band[1]) * self.spec.n_interior

    def factor_us(self) -> float:
        """Modelled cost in us of one ``BandedNormal.assemble`` and
        ``factor`` (``_kept_us``): the bands' product, a batched inverse and
        the Schur products per chain step and, with several partitions, the
        coupling solves, the separators' inverse and the separator stage's
        maps."""
        taps, ks, w, parts, m, length = self._band
        chain, seps = length // m, (parts - 1) * w
        flops = 2 * len(ks) * taps * self.spec.n_interior + parts * (
            chain * 2 * m ** 3 + (chain - 1) * (2 * m * m * w + 2 * w * w * m))
        calls, inverses = 7 * chain + 12, parts * chain
        if parts > 1:
            flops += parts * (chain * 4 * w * m * m + (chain - 1) * 8 * w * w * m) + (
                8 * parts * length * w * w + 2 * seps ** 3
                + 2 * seps * seps * parts * length)
            calls += 6 * chain + 16
            inverses += 1
        return _kept_us(calls, flops, inverses)

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


# Modelled cost in us of the lagged factor's operations (``LaggedFactor``):
# a step-model product, a substitution with the kept factor, and an
# assembly plus factorization.  Each is KEPT_CALL_US per numpy call it
# makes, KEPT_INVERSE_US more per batched inverse, and KEPT_FLOP_NS per
# flop, fitted to timings of the three on 1D nonlocal bands (n = 64 to 512,
# width 12 to 204), the 1D local band (n = 64 to 1,024) and the 2D local one
# (nx = 16 to 48), on one OpenBLAS thread of a shared 2-vCPU VM.  Median
# relative error 18% over the 63 timings of the fit.
KEPT_CALL_US, KEPT_INVERSE_US, KEPT_FLOP_NS = 0.9, 12.0, 0.11
# Setting up a ``BandedNormal`` costs KEPT_BAND_US and KEPT_ENTRY_NS per
# entry of its index maps, one per interior node and band offset, fitted to
# 24 set-ups (1D nonlocal bands of n = 64 to 512 and width 6 to 408, the 1D
# and 2D local ones) on the same VM: median relative error 24%, and up to
# 51% low on the widest bands, whose tap pairs grow as the width squared.
KEPT_BAND_US, KEPT_ENTRY_NS = 130.0, 54.0
# Plain CG's products for one solve of the step model at the stiffness
# sigma = ||A||^2 max(c) / shift, ||A|| bounded by ``norm_bound``
# (``LaggedFactor``): KEPT_CG_PRODUCTS sqrt(1 + sigma), after the square
# root of the bound 1 + sigma on the condition number of M / shift.  Fitted
# so that the prediction sums to the 7,331 products that the 1,859
# plain-CG solves of converge_p3's three nonlocal runs and decay_p3 took;
# solve by solve the ratio spreads from 0.16 (median at eps = 0.1) to 0.70
# (eps = 0.4).
KEPT_CG_PRODUCTS = 0.22


def _kept_us(calls: int, flops: float, inverses: int = 0) -> float:
    return KEPT_CALL_US * calls + KEPT_INVERSE_US * inverses + 1e-3 * KEPT_FLOP_NS * flops


def _strides(shape) -> np.ndarray:
    """Flat-order strides, in elements, of an array of ``shape``."""
    return np.cumprod((tuple(shape[1:]) + (1,))[::-1])[::-1]


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
        _, ks, w, parts, m, length = op._band
        # the index in ks of e_b - e_a at [a, b], -1 where it is not there,
        # through one integer key per difference: a mixed radix over [-2
        # reach, 2 reach] per axis, counted from 0
        r = op.reach
        radix = (4 * r + 1) ** np.arange(dim - 1, -1, -1)
        index = np.full((4 * r + 1) ** dim, -1)
        index[(ks + 2 * r) @ radix] = np.arange(len(ks))
        keys = offs @ radix
        pairs = index[keys[None, :] - keys[:, None] + 2 * r * int(radix.sum())]
        a_idx, b_idx = np.nonzero(pairs >= 0)
        k_inv = pairs[a_idx, b_idx]
        self._window_shape = tuple(k + 2 * r for k in nx)
        self._window = op.step_window
        win_strides = _strides(self._window_shape)
        int_strides = _strides(nx)
        coords = np.indices(nx).reshape(dim, n)
        # c at i - e_a on the step window for every tap a and interior node i
        self._gather = ((coords.T + r) @ win_strides)[None, :] - (offs @ win_strides)[:, None]
        self._products = np.zeros((len(ks), len(offs)))
        np.add.at(self._products, (k_inv.ravel(), a_idx), taps[a_idx] * taps[b_idx])
        self._centre = int(np.flatnonzero(~ks.any(axis=1))[0])

        # the pairs (i, j = i + k) of interior unknowns, as k n + i
        inside = np.ones((len(ks),) + nx, dtype=bool)
        for ax, size in enumerate(nx):
            moved = np.arange(size) + ks[:, ax, None]
            shape = (len(ks),) + (1,) * ax + (size,) + (1,) * (dim - ax - 1)
            inside &= ((moved >= 0) & (moved < size)).reshape(shape)
        src = np.flatnonzero(inside)
        k_of, i = np.divmod(src, n)
        j = (ks @ int_strides)[k_of]
        j += i
        del inside, k_of  # the set-up's peak memory is its pair arrays
        chain, seps, cols = length // m, (parts - 1) * w, 1 if parts == 1 else 1 + 2 * w
        self.parts, self.block, self.width, self.length = parts, m, w, length

        # where each unknown sits: partition ``part`` at offset ``at``, there
        # in block ``blk`` at row ``pos``, or separator unknown ``sep_of``;
        # each map below is formed on the pairs it keeps
        part, at = np.divmod(np.arange(n), length + w)
        inner = at < length
        blk, pos, sep_of = part * chain + at // m, at % m, part * w + at - length
        in_i, in_j = inner[i], inner[j]
        steps = blk[j] - blk[i]
        same = in_i & in_j & (steps == 0)
        nxt = in_i & in_j & (steps == 1)
        del steps
        ii, jj, kept = i[same], j[same], src[same]
        flip = ii != jj  # the lower triangle of a diagonal block
        self._diag_src = np.concatenate([kept, kept[flip]])
        self._diag_dst = np.concatenate([
            (blk[ii] * m + pos[ii]) * m + pos[jj], ((blk[ii] * m + pos[jj]) * m + pos[ii])[flip]])
        # the last columns of each off-diagonal block hold right-hand sides
        ii, jj = i[nxt], j[nxt]
        self._off_src = src[nxt]
        self._off_dst = ((blk[ii] - part[ii]) * m + pos[ii]) * (w + cols) + pos[jj]
        self._off = np.zeros((parts, chain - 1, m, w + cols))
        # identity rows pad the layout past the last unknown
        pad = np.arange(n, parts * (length + w) - w)
        pp, po = pad // (length + w), pad % (length + w)
        rows, pad_p = po[po < length], pp[po < length]
        self._diag = np.zeros((parts, chain, m, m))
        self._diag.reshape(-1, m, m)[pad_p * chain + rows // m, rows % m, rows % m] = 1.0
        if parts == 1:
            return
        sep = ~in_i & ~in_j
        ii, jj, kept = i[sep], j[sep], src[sep]
        flip = ii != jj
        self._sep_src = np.concatenate([kept, kept[flip]])
        self._sep_dst = np.concatenate([
            sep_of[ii] * seps + sep_of[jj], (sep_of[jj] * seps + sep_of[ii])[flip]])
        right = in_i & ~in_j  # partition p, then separator p
        left = ~in_i & in_j  # separator p - 1, then partition p
        ir, jr, il, jl = i[right], j[right], i[left], j[left]
        self._cpl_src = np.concatenate([src[right], src[left]])
        self._cpl_dst = np.concatenate([
            (part[ir] * length + at[ir]) * 2 * w + w + sep_of[jr] - part[ir] * w,
            (part[jl] * length + at[jl]) * 2 * w + sep_of[il] - (part[jl] - 1) * w])
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
        """Write the blocks of M for the weight c, given on the step window
        or on the operator's padded grid, where it is read on the window."""
        if c.shape != self._window_shape:
            c = c[self._window]
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
            # C^T and Y = A^-1 C as dense maps between the partitions'
            # unknowns and the separators: partition q + 1 couples through
            # its first w columns to separator q, partition q through its
            # last w to separator q; x_s = S_ss^-1 rhs_s - (S_ss^-1 C^T) z
            q = np.arange(parts - 1)
            c_map = np.zeros((parts - 1, w, parts, length))
            c_map[q, :, q + 1] = c_t[1:, :w]
            c_map[q, :, q] = c_t[:-1, w:]
            w_map = sep_inv @ c_map.reshape(seps, parts * length)
            y_map = np.zeros((parts, length, parts - 1, w))
            y_map[q + 1, :, q] = ys[1:, :, :w]
            y_map[q, :, q] = ys[:-1, :, w:]
            y_map = y_map.reshape(parts * length, seps)

        def solve(rhs):
            lay = np.zeros((parts, length + w))
            lay.ravel()[:rhs.size] = rhs.ravel()
            z = chains(lay[:, :length].reshape(parts, chain, m, 1))
            if parts > 1:
                # x_s = S_ss^-1 (rhs_s - C^T z); d = z - Y x_s
                z = z.ravel()
                x_s = sep_inv @ lay[:-1, length:].ravel() - w_map @ z
                z = (z - y_map @ x_s).reshape(parts, length, 1)
                lay[:-1, length:] = x_s.reshape(parts - 1, w)
            lay[:, :length] = z[..., 0]
            return lay.ravel()[:rhs.size].reshape(rhs.shape)
        return solve


class LaggedFactor:
    """A kept factor of the step model M = shift I + A^T diag(c) A for the
    weights c of an earlier Newton iterate, the preconditioner of CG on the
    current M: the lagged Jacobian of Jacobian-free Newton-Krylov practice
    (Knoll & Keyes, J. Comput. Phys. 193, 2004).  A run holds one
    (``NonlocalOperator.lagged_factor``); the stepper asks it whether a
    solve takes the factor (``pays``) and reports each CG product of such
    a solve to it (``charge``).  All costs are modelled from the stencil
    and the band layout (``_kept_us``), with ``BandedNormal`` built only
    for the first factorization; nothing is timed.

    Refactor: a factor made at a solve's own weights is the direct solve
    of its M, one substitution t_s.  With a kept factor, a CG solve of k
    products takes k substitutions too, k (t_p + t_s) for a product t_p
    (``NonlocalOperator.product_us``), so it costs k t_p + (k - 1) t_s more.
    Once that excess, summed product by product since the last
    factorization, reaches the cost t_f of an assembly and factorization,
    the factor is stale: a solve that has not converged by then factors M
    at its own weights and solves directly, and otherwise the next solve
    that takes the factor does.  This is the break-even rule of ski rental:
    the refactorizations cost no more than the extra work they save, and
    the total stays within twice that of the best schedule in hindsight
    (Karlin, Manasse, Rudolph & Sleator, Algorithmica 3, 1988).

    Choice: plain CG would take about k = KEPT_CG_PRODUCTS sqrt(1 + sigma)
    products at the stiffness sigma = ||A||^2 max(c) / shift, and a solve
    with the factor one product and one substitution, so the factor saves
    s = (k - 1) t_p - t_s.  A kept factor is taken wherever it saves.  A
    stale one is made again for a solve whose saving, spread over as many
    solves as the last factor served, pays for a factorization.  The run's
    first factor also pays for setting up ``BandedNormal`` (``band_us``).
    It is made once the savings predicted so far pay for both, ski rental
    again, and once the solve's own saving, spread over as many solves as
    the run has asked about, pays too: the stiffness decays along a run,
    and a factor bought after the stiff solves are past does not pay back
    (converge's eps = 0.2 run banks its price where its saving has fallen
    to half of it).
    """

    def __init__(self, op: NonlocalOperator, shift: float):
        self._op = op
        self.shift = shift
        self._stiffness = op.norm_bound() ** 2 / shift
        self._product_us = op.product_us()
        self._substitution_us = op.substitution_us()
        self._factor_us = op.factor_us()
        self._band_us = op.band_us()
        self.factors = 0
        self._solve = None  # the kept substitution; None when stale
        self._excess = 0.0  # us of CG work past the direct solve's
        self._banked = 0.0  # us of savings predicted before the first factor
        self._served = 0  # solves asked about before it, then served by the last one

    def pays(self, c: np.ndarray) -> bool:
        """Whether the solve of M at the weights ``c`` takes the factor,
        kept or made for it, rather than plain CG (class docstring); before
        the run's first factor it banks and counts the solve."""
        plain = KEPT_CG_PRODUCTS * math.sqrt(1.0 + self._stiffness * float(c.max()))
        saving = (plain - 1.0) * self._product_us - self._substitution_us
        if self._solve is not None:
            return saving > 0.0
        if self.factors == 0:
            self._banked += max(saving, 0.0)
            self._served += 1
            price = self._band_us + self._factor_us
            return min(self._banked, saving * self._served) >= price
        return saving * self._served >= self._factor_us

    def preconditioner(self, c: np.ndarray):
        """The kept substitution and whether it was made for this solve, at
        its weights ``c``, because there was none or it was stale: then it
        is the direct solve of M itself."""
        if self._solve is None:
            normal = self._op._normal
            normal.assemble(c, self.shift)
            self._solve = normal.factor()
            self.factors += 1
            self._excess = 0.0
            self._served = 1
            return self._solve, True
        self._served += 1
        return self._solve, False

    def charge(self, product: int) -> bool:
        """Count the ``product``-th step-model product of a CG solve with
        the kept factor, and its substitution past the first; whether the
        factor has now gone stale."""
        self._excess += self._product_us + (self._substitution_us if product > 1 else 0.0)
        if self._excess >= self._factor_us:
            self._solve = None
        return self._solve is None


def p_flux_values(g: np.ndarray, p: float) -> np.ndarray:
    """Pointwise monotone nonlinearity sign(g)|g|^(p-1), exactly 0 at 0, for
    an exponent that passed ``check_exponent``."""
    if p == 2.0:
        return g.copy()
    # hard-zero convention at g = 0; exponent p-1 > 0 keeps 0**(p-1) = 0
    return np.sign(g) * np.abs(g) ** (p - 1.0)
