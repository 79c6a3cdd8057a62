"""The stage pipeline with the components last, as it ran before the
coefficients became a component-major buffer: a reference for the tests.

Coefficients are C-ordered (nc, nm, d); the GEMMs read them mode-major as
(nm, nc * d), edge states are (2, ne, Q, d), endpoint values (2, 2, ne, d) and
jets (n_derivs, 3, nc, d). Euler's normal flux is the F_x n1 + F_y n2 form
with v1, v2 and p, not the rho v.n form. The reference-element matrices and
the boundary rules come from the operator under test.
"""

import numpy as np

from tridg.dg import ModalState
from tridg.oe import EPS_DEVIATION
from tridg.physics import Burgers, Euler, ScaledModel


def cf(a):
    """Components first, (..., d) -> (d, ...): the models' kernel layout."""
    return np.moveaxis(np.asarray(a, dtype=float), -1, 0)


def flux_last(model, u):
    """The flux of states u (..., d) as (..., 2, d), components last,
    assembled with np.stack as the models once did."""
    if isinstance(model, ScaledModel):
        return model.lam * flux_last(model.base, u)
    if isinstance(model, Euler):
        rho, m1, m2, E = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
        v1, v2 = m1 / rho, m2 / rho
        p = (model.gamma - 1.0) * (E - 0.5 * (m1 * v1 + m2 * v2))
        f1 = np.stack([m1, m1 * v1 + p, m2 * v1, (E + p) * v1], axis=-1)
        f2 = np.stack([m2, m1 * v2, m2 * v2 + p, (E + p) * v2], axis=-1)
        return np.stack([f1, f2], axis=-2)
    f = 0.5 * u * u if isinstance(model, Burgers) else u
    return np.stack([f, f], axis=-2)


def normal_flux(model, u, n):
    """F_x n1 + F_y n2 for states u (..., d) and normals n (..., 2): (..., d)."""
    f = flux_last(model, u)
    return f[..., 0, :] * n[..., 0, None] + f[..., 1, :] * n[..., 1, None]


def vertex_derivatives(op, coeffs, j):
    """Order-j mixed physical derivatives at the cell vertices.

    Returns (nc, 3, j+1, d); axis 2 indexes alpha = (j - aidx, aidx).
    """
    return op.vertex_jets(coeffs)[op.deriv_rows[j]].transpose(3, 1, 0, 2)


def assert_close_to_max(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def modes_first(coeffs):
    nc, nm, d = coeffs.shape
    return np.ascontiguousarray(coeffs).transpose(1, 0, 2).reshape(nm, nc * d)


def trace_sides(op):
    """Rows (local edge, point, cell) of the (3Q * nc, d) trace GEMM."""
    mesh, Q = op.mesh, op.Q
    nc = mesh.n_cells
    il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
    lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    q = np.arange(Q)
    left = (il[:, None] * Q + q) * nc + lc[:, None]
    right = (ir[:, None] * Q + (Q - 1 - q)) * nc + rc[:, None]
    return np.stack([left, np.where(rc[:, None] >= 0, right, left)])


def endpoint_sides(op):
    """Rows (local vertex, cell) of node-major vertex arrays, (2, 2, ne)."""
    mesh = op.mesh
    nc = mesh.n_cells
    il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
    lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    lv_end = np.stack([(il + 1) % 3, (il + 2) % 3], axis=1)
    rv_end = np.stack([(ir + 2) % 3, (ir + 1) % 3], axis=1)
    left = lv_end.T * nc + lc
    return np.stack([left, np.where(rc >= 0, rv_end.T * nc + rc, left)])


def edge_states(op, coeffs, t):
    """Two-sided edge states (2, ne, Q, d)."""
    d = coeffs.shape[2]
    TR = (op.ref_trace @ modes_first(coeffs)).reshape(-1, d)
    U = np.take(TR, trace_sides(op), axis=0)
    bi = op.boundary_ids
    if len(bi):
        U[1, bi] = op.boundary_ghost_values(U[0, bi], op.bnd_points,
                                            op.bnd_normals, t)
    return U


def residual(op, coeffs, alpha, t):
    mesh, Q = op.mesh, op.Q
    nc, nm, d = coeffs.shape
    modes = modes_first(coeffs)
    U = edge_states(op, coeffs, t)
    f = normal_flux(op.model, U, op.edge_normal[:, None, :])
    fhat = 0.5 * (f[0] + f[1] - alpha * (U[1] - U[0]))
    Ui = (op.basis_int @ modes).reshape(op.n_int, nc, d)
    contravariant = np.ascontiguousarray(
        (mesh.area[:, None, None] * mesh.jac_inv).transpose(1, 0, 2))[:, None]
    Fc = normal_flux(op.model, Ui, contravariant)
    R = op._vol_ref @ Fc.reshape(2 * op.n_int, nc * d)
    fwd = mesh.cell_edge_forward
    q = np.arange(Q)
    gq = np.where(fwd[:, :, None], q, Q - 1 - q)
    rows = (mesh.cell_edges[:, :, None] * Q + gq).reshape(nc, 3 * Q).T
    sign = np.where(fwd, -1.0, 1.0)
    wgt = ((sign * mesh.edge_len)[:, :, None] * op.edge_w[gq]).reshape(
        nc, 3 * Q).T[:, :, None]
    F = np.take(fhat.reshape(-1, d), rows, axis=0) * wgt
    R += op._scatter_ref @ F.reshape(3 * Q, nc * d)
    return R.reshape(nm, nc, d).transpose(1, 0, 2) * (
        0.5 / mesh.area[:, None, None])


def vertex_jets(op, coeffs):
    """(n_derivs, 3, nc, d)."""
    nc, _, d = coeffs.shape
    ref = (op._jet_ref @ modes_first(coeffs)).reshape(op.n_derivs, 3, nc, d)
    out = np.empty_like(ref)
    out[0] = ref[0]
    for T, rows in zip(op._jet_transforms, op.deriv_rows[1:]):
        np.einsum("arc,rvcd->avcd", T, ref[rows], out=out[rows])
    return out


def damping_exponents(f, coeffs, dt, t):
    """OEFilter.damping_exponents: (nc, k, d)."""
    op, k = f.op, f.k
    mesh = op.mesh
    nc, _, d = coeffs.shape
    V = vertex_jets(op, coeffs).reshape(op.n_derivs, 3 * nc, d)
    W = np.take(V, endpoint_sides(op), axis=1)               # (R,2,2,ne,d)
    J = W[:, 0] - W[:, 1]
    u = W[0]
    bi = op.boundary_ids
    if len(bi):
        ghost = op.boundary_ghost_values(
            u[0][:, bi].transpose(1, 0, 2), op.bnd_endpoints,
            op.bnd_endpoint_normals, t)
        u[1][:, bi] = ghost.transpose(1, 0, 2)
        sid = f.state_ids
        J[:, :, sid] = W[:, 0][:, :, sid]
        J[0][:, sid] -= u[1][:, sid]
    R, _, ne, _ = J.shape
    if f.mom:
        m1, m2 = J[..., f.mom[0]], J[..., f.mom[1]]
        n1, n2 = op.edge_normal[:, 0], op.edge_normal[:, 1]
        jn = n1 * m1 + n2 * m2
        J[..., f.mom[1]] = -n2 * m1 + n1 * m2
        J[..., f.mom[0]] = jn
    S = f.weights @ (J * J).reshape(2 * R, ne * d)
    root = np.sqrt(S).reshape(k + 1, ne, d)
    means = np.ascontiguousarray(coeffs)[:, 0, :]
    ubar = mesh.area @ means / mesh.area.sum()
    vals = (op.basis_int @ np.ascontiguousarray(coeffs).transpose(1, 2, 0)
            .reshape(op.nm, d * nc)).reshape(-1, d, nc) - ubar[:, None]
    dev = np.abs(vals).max(axis=2).max(axis=0)
    active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
    inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
    G = root * inv_dev
    if f.mom:
        mom = f.mom
        m1, m2 = vals[:, mom[0]], vals[:, mom[1]]
        mdev = float(np.sqrt((m1 * m1 + m2 * m2).max()))
        dhat = 0.0
        if mdev > EPS_DEVIATION * max(1.0, float(np.hypot(*ubar[mom]))):
            dhat = (np.maximum(root[..., mom[0]], root[..., mom[1]])
                    / mdev)[..., None]
        G[..., mom] = dhat
    speed = (op.model.wavespeed_clamped if f.guard_wavespeed
             else op.model.wavespeed)
    s = speed(cf(u), op.edge_normal.T)                       # (2, 2, ne)
    beta = np.maximum(s[0], s[1]).max(axis=0)
    ce = mesh.cell_edges.T
    GG = np.take(G, ce, axis=1) * (beta[ce] * f.A_h)[..., None]
    sigma = GG[:, 0] + GG[:, 1] + GG[:, 2]                   # (k+1,nc,d)
    return dt * np.cumsum(sigma, axis=0)[1:].transpose(1, 0, 2)


def limit(lim, state):
    """BPLimiter.apply on a C-ordered copy of the state."""
    op, model = lim.op, lim.op.model
    coeffs = np.array(state.coeffs, order="C")
    nc, _, d = coeffs.shape
    mean = coeffs[:, 0, :]
    tr = op.traces(coeffs)
    vals = [tr.reshape(nc, -1, d)]
    if lim.vert_ids is not None:
        vv = op.vertex_values(coeffs)
        vals.append(np.take_along_axis(vv, lim.vert_ids[:, 0].T[:, :, None],
                                       axis=1))
    if lim.k == 2:
        avg = np.einsum("q,ciqd->cid", op.edge_w, tr)
        num = mean - (lim.w_local[:, :, None] * avg).sum(axis=1)
        vals.append((num / (1.0 - lim.sum_w)[:, None])[:, None, :])
    vals = np.concatenate(vals, axis=1)

    def theta(m, node_min, floor):
        th = np.ones_like(m)
        np.divide(m - floor, m - node_min, out=th, where=node_min < floor)
        return np.clip(th, 0.0, 1.0)

    if not lim.positivity:
        lo, hi = lim.bounds
        u = vals[..., 0]
        th = np.minimum(theta(mean[:, 0], u.min(axis=1), lo),
                        theta(-mean[:, 0], -u.max(axis=1), -hi))
        coeffs[:, 1:, 0] *= th[:, None]
        return ModalState(state.k, coeffs, state.t)
    rho_bar, e_bar = mean[:, 0].copy(), model.internal_energy(mean)
    theta1 = theta(rho_bar, vals[..., 0].min(axis=1),
                   np.minimum(rho_bar, lim.EPS))
    coeffs[:, 1:, 0] *= theta1[:, None]
    cut = theta1 < 1.0
    rb = rho_bar[cut, None]
    vals[cut, :, 0] = rb + theta1[cut, None] * (vals[cut, :, 0] - rb)
    theta2 = theta(e_bar, model.internal_energy(vals).min(axis=1),
                   np.minimum(e_bar, lim.EPS))
    coeffs[:, 1:, :] *= theta2[:, None, None]
    return ModalState(state.k, coeffs, state.t)
