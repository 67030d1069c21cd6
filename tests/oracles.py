"""Independent reference implementations used only to check the package.

Everything here is deliberately written against the math, not against the
package's internals: dense matrices come from direct node-pair loops over
kernel evaluations, and integrals from scipy's adaptive quadrature, so they
share no code path with the implementations they verify.  ``weak_residual``
is the exception: it checks a recorded local trajectory against the weak
form, with the package's local stencil as its Laplacian.
"""

import numpy as np
import scipy.integrate

from nlbiharm.localref import local_stencil
from nlbiharm.nlop import NonlocalOperator, p_flux_values


def kernel_second_moment(profile, dim, radius=1.0):
    """Half second moment (1/2) int J(|z|) |z|^2 dz by adaptive quadrature;
    reciprocal of the paper's normalization constant C_J."""
    if dim == 1:
        val, _ = scipy.integrate.quad(lambda r: profile(r) * r**2, 0.0, radius)
        return val  # = 0.5 * int_R J z^2 dz for an even profile
    val, _ = scipy.integrate.quad(lambda r: profile(r) * r**3, 0.0, radius)
    return np.pi * val


def kernel_mass(profile, dim, radius=1.0):
    """Kernel integral int J(|z|) dz by adaptive quadrature."""
    if dim == 1:
        val, _ = scipy.integrate.quad(profile, 0.0, radius)
        return 2.0 * val
    val, _ = scipy.integrate.quad(lambda r: profile(r) * r, 0.0, radius)
    return 2.0 * np.pi * val


def interior_mask(spec):
    """Boolean mask of the interior nodes on the padded grid."""
    mask = np.zeros(spec.padded_shape, dtype=bool)
    mask[spec.interior_slices] = True
    return mask


def node_coords_flat(spec):
    coords = spec.node_coords()
    return np.column_stack([c.ravel() for c in coords])


def dense_nonlocal_matrix(kernel, eps, spec):
    """Nonlocal Laplacian matrix over all padded nodes from direct kernel
    evaluation J(|x - y|/eps) at node distances (truncated at the array
    edge), with the same unit-moment normalization the package applies: the
    sampled weights are scaled so that half the second moment of one full
    (untruncated) row equals one."""
    pts = node_coords_flat(spec)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    mat = np.asarray(kernel(dist / eps))
    np.fill_diagonal(mat, 0.0)
    # moment of a full row: take the row of a node in the middle of the
    # padded block, whose neighborhood is never truncated
    center = int(np.ravel_multi_index(
        tuple(s // 2 for s in spec.padded_shape), spec.padded_shape
    ))
    moment = 0.5 * float(np.sum(mat[center] * dist[center] ** 2))
    mat /= moment
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


def dense_operator_matrix(op, max_nodes=6000):
    """Explicit matrix of an operator on the padded grid.

    Assembled from the stencil weights by direct index arithmetic, not by
    applying ``op``, so it is an independent realization of the truncation
    rule.
    """
    spec = op.spec
    shape = spec.padded_shape
    n = int(np.prod(shape))
    if n > max_nodes:
        raise ValueError(f"dense matrix limited to {max_nodes} nodes, got {n}")
    mat = np.zeros((n, n))
    strides = [int(np.prod(shape[a + 1 :])) for a in range(spec.dim)]
    for flat in range(n):
        idx = np.unravel_index(flat, shape)
        for d, w in zip(op.stencil.offsets, op.stencil.weights):
            if not np.any(d):
                continue
            j = [idx[a] + int(d[a]) for a in range(spec.dim)]
            if any(not (0 <= j[a] < shape[a]) for a in range(spec.dim)):
                continue
            jflat = sum(j[a] * strides[a] for a in range(spec.dim))
            mat[flat, jflat] += w
            mat[flat, flat] -= w
    return mat


def restricted_matrix(op):
    """Dense matrix of (zero-extend, apply): interior values -> operator
    values at every padded node.

    Column x holds w_d at row x - d for every stencil offset d, and -diag
    at x: interior nodes never see the outer truncation (containment).
    """
    spec, st, pc = op.spec, op.stencil, op.spec.pad_cells
    n = spec.n_interior
    pad_idx = np.arange(int(np.prod(spec.padded_shape))).reshape(spec.padded_shape)
    mat = np.zeros((pad_idx.size, n))
    cols = np.arange(n)
    for d, w in zip(st.offsets, st.weights):
        rows = pad_idx[tuple(slice(pc - c, pc - c + m) for c, m in zip(d, spec.nx))]
        mat[rows.ravel(), cols] += w
    mat[pad_idx[spec.interior_slices].ravel(), cols] -= st.diag
    return mat


def dense_local_matrix(spec):
    """Padded-grid central-difference Laplacian matrix with zero fill."""
    shape = spec.padded_shape
    n = int(np.prod(shape))
    w = 1.0 / spec.dx**2
    mat = np.zeros((n, n))
    for flat in range(n):
        idx = np.unravel_index(flat, shape)
        for axis in range(spec.dim):
            for step in (-1, 1):
                j = list(idx)
                j[axis] += step
                if 0 <= j[axis] < shape[axis]:
                    jflat = np.ravel_multi_index(tuple(j), shape)
                    mat[flat, jflat] += w
                    mat[flat, flat] -= w
    return mat


def extension_matrix(spec):
    """Zero-extension matrix: interior dof -> padded nodes."""
    n_pad = int(np.prod(spec.padded_shape))
    ext = np.zeros((n_pad, spec.n_interior))
    ext[interior_mask(spec).ravel(), np.arange(spec.n_interior)] = 1.0
    return ext


def implicit_p2_trajectory(mat, spec, u0_int, h, m):
    """Linear implicit-Euler trajectory for p = 2 from a padded operator
    matrix: solves (I + h B) u_next = u with B = E^T M^T M E."""
    ext = extension_matrix(spec)
    me = mat @ ext
    b = me.T @ me
    n = spec.n_interior
    lu = np.linalg.inv(np.eye(n) + h * b)  # small n only
    states = [u0_int.copy()]
    u = u0_int.copy()
    for _ in range(m):
        u = lu @ u
        states.append(u.copy())
    return states


def poincare_dense_matrix(kernel, eps, spec):
    """Constrained difference-form matrix over interior nodes from direct
    kernel evaluation: sum_{x in omega} sum_{y in omega_e} J(x-y)(u~(y)-u(x))^2,
    J = kernel(|x - y|/eps), with the package's unit-moment weight
    normalization."""
    pts = node_coords_flat(spec)
    interior = interior_mask(spec).ravel()
    int_idx = np.nonzero(interior)[0]
    center = int(np.ravel_multi_index(
        tuple(s // 2 for s in spec.padded_shape), spec.padded_shape
    ))
    dist_c = np.sqrt(((pts - pts[center]) ** 2).sum(axis=1))
    wc = np.asarray(kernel(dist_c / eps))
    moment = 0.5 * float(np.sum(wc * dist_c**2))
    n = int_idx.size
    mat = np.zeros((n, n))
    col_of = {int(flat): k for k, flat in enumerate(int_idx)}
    for a, flat_a in enumerate(int_idx):
        d = np.sqrt(((pts - pts[flat_a]) ** 2).sum(axis=1))
        w = np.asarray(kernel(d / eps)) / moment
        for flat_b in range(pts.shape[0]):
            if flat_b == flat_a:
                continue
            wb = w[flat_b]
            if wb == 0.0:
                continue
            mat[a, a] += wb
            if interior[flat_b]:
                b = col_of[flat_b]
                mat[b, b] += wb
                mat[a, b] -= wb
                mat[b, a] -= wb
    return mat


def weak_residual(traj, phi):
    """Discrete weak-form residual of a recorded local trajectory.

    ``phi(*coords, t)`` must evaluate a smooth test function, compactly
    supported in space-time, on meshgrid coordinate arrays.  The residual
    pairs the recorded states against the time derivative of the test
    function and the flux at the run's exponent against its Laplacian,
    using trapezoidal weights in time and central time differences; it
    shrinks at O(h + dx^2) for a valid trajectory.
    """
    spec = traj.spec
    op = NonlocalOperator(local_stencil(spec), spec)
    h = traj.h
    coords = spec.node_coords()
    times = traj.times

    phi_fields = [np.asarray(phi(*coords, t), dtype=float) for t in times]
    n = len(times)
    total = 0.0
    interior = spec.interior_slices
    vol = spec.cell_volume
    ext = np.zeros(spec.padded_shape)  # zero beyond the interior
    for j in range(n):
        if j == 0:
            dphi = (phi_fields[1] - phi_fields[0]) / h
        elif j == n - 1:
            dphi = (phi_fields[-1] - phi_fields[-2]) / h
        else:
            dphi = (phi_fields[j + 1] - phi_fields[j - 1]) / (2.0 * h)
        u_int = traj.interior[j]
        term_time = -vol * float(np.sum(u_int * dphi[interior]))

        ext[interior] = u_int
        flux = p_flux_values(op.apply(ext), traj.p)
        # zero-extend phi before differencing: the test function carries the
        # same constraint class as the states, and the pairing runs over the
        # padded domain like the scheme's own energy
        ext[interior] = phi_fields[j][interior]
        lap_phi = op.apply(ext)
        term_flux = vol * float(np.sum(flux * lap_phi))

        weight = h if 0 < j < n - 1 else 0.5 * h
        total += weight * (term_time + term_flux)
    return float(total)
