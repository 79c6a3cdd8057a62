"""Semi-discrete DG spatial operator on modal coefficients.

The operator precomputes all basis/quadrature tables for a fixed (mesh, degree,
model, boundary rules) so that residual evaluation is a few matrix products
over cell and edge arrays. The working coefficients are component-major: a
C-contiguous (nm, d, nc) buffer, of which ModalState.coeffs is the (nc, nm, d)
view. On affine triangles every modal operator is a reference-element matrix
shared by all cells, applied as one GEMM to that buffer read as (nm, d * nc),
times a few per-cell Jacobian factors: edge orientation lives in precomputed
gather indices that also carry the component offset, so one take gives the
component-first edge states (d, 2, ne, Q) the models work on; the volume term
weighs the flux by each cell's contravariant vectors and the vertex
derivatives go through per-cell transforms of order j, both along the cell
axis. No table couples a cell to the modes. Interior edge fluxes are computed
once per edge and scattered with opposite signs, which makes the scheme
discretely conservative.
"""

from dataclasses import dataclass

import numpy as np

from . import basis, quadrature
from .errors import AdmissibilityError, ConfigError

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def component_major(coeffs, copy=False):
    """The (nm, d, nc) buffer behind coefficients coeffs (nc, nm, d).

    A view when coeffs is already the modal view of such a buffer; otherwise,
    or with copy=True, a new C-contiguous buffer.
    """
    buf = coeffs.transpose(1, 2, 0)
    return np.array(buf, order="C") if copy else np.ascontiguousarray(buf)


def modal_view(buf):
    """The (nc, nm, d) view of a component-major buffer (nm, d, nc)."""
    return buf.transpose(2, 0, 1)


@dataclass
class ModalState:
    """Per-cell modal coefficients u_K^(l) in R^d, l = 0..L_k."""

    k: int
    # (n_cells, n_modes, d). The solver's states are modal views of a
    # component-major (n_modes, d, n_cells) buffer and keep that layout;
    # any other layout is accepted and read through a copy.
    coeffs: np.ndarray
    t: float = 0.0

    @property
    def n_cells(self):
        return self.coeffs.shape[0]

    @property
    def d(self):
        return self.coeffs.shape[2]

    def copy(self):
        # order "K" keeps the buffer's layout; the default is C order
        return ModalState(self.k, self.coeffs.copy(order="K"), self.t)

    def cell_averages(self):
        # Psi^(0) = 1 and orthogonality make mode 0 the cell average
        return self.coeffs[:, 0, :]


# ---------------------------------------------------------------------------
# boundary rules
# ---------------------------------------------------------------------------

class BoundaryRule:
    # 'copy' rules reuse the interior polynomial (zero jump in the OE filter);
    # 'state' rules prescribe a pointwise exterior state (degree-0 ghost).
    kind = "state"

    def ghost(self, model, u_int, x, n, t):
        raise NotImplementedError


class Outflow(BoundaryRule):
    kind = "copy"

    def ghost(self, model, u_int, x, n, t):
        return np.array(u_int, copy=True)


class Inflow(BoundaryRule):
    """Fixed exterior state, or a function (x, y, t) -> state."""

    def __init__(self, state):
        self.state = state

    def ghost(self, model, u_int, x, n, t):
        if callable(self.state):
            return np.asarray(self.state(x[..., 0], x[..., 1], t), dtype=float)
        out = np.empty_like(np.asarray(u_int, dtype=float))
        out[...] = np.asarray(self.state, dtype=float)
        return out


class Reflective(BoundaryRule):
    def ghost(self, model, u_int, x, n, t):
        return model.reflect(u_int, n)


class CustomBC(BoundaryRule):
    """fn(model, u_int, x, n, t) -> ghost states (vectorized)."""

    def __init__(self, fn):
        self.fn = fn

    def ghost(self, model, u_int, x, n, t):
        return np.asarray(self.fn(model, u_int, x, n, t), dtype=float)


DEFAULT_RULES = {"OUT": Outflow, "WALL": Reflective}


# ---------------------------------------------------------------------------
# spatial operator
# ---------------------------------------------------------------------------

class SpatialOperator:
    """DG residual evaluator for a fixed mesh, degree, model and boundary set."""

    def __init__(self, mesh, model, k, boundary=None):
        if not 1 <= k <= 4:
            raise ConfigError(f"k={k} outside supported range 1..4")
        self.mesh = mesh
        self.model = model
        self.k = k
        self.d = model.n_components
        self.nm = basis.n_modes(k)
        self.Q = k + 1

        # boundary rules
        boundary = dict(boundary or {})
        tags = {t for t in mesh.edge_tag if t is not None}
        for tag in tags:
            if tag not in boundary:
                if tag in DEFAULT_RULES:
                    boundary[tag] = DEFAULT_RULES[tag]()
                else:
                    raise ConfigError(f"boundary tag {tag!r} has no rule")
        self.boundary = boundary

        # interior quadrature tables
        self.int_pts, self.int_w = quadrature.interior_points_ref(k)
        self.basis_int = basis.eval_modes(k, self.int_pts)           # (N, nm)
        self.n_int = len(self.int_w)

        # edge quadrature tables; point p of local edge i runs from vertex
        # (i+1)%3 to (i+2)%3, the cell's own traversal order
        tq, wq = quadrature.edge_rule(self.Q)
        self.edge_t, self.edge_w = tq, wq
        ref_edge = np.empty((3, self.Q, 2))
        for i in range(3):
            a = REF_VERTICES[(i + 1) % 3]
            b = REF_VERTICES[(i + 2) % 3]
            ref_edge[i] = a[None, :] + tq[:, None] * (b - a)[None, :]
        # reference trace matrix, rows (local edge, point): (3Q, nm)
        self.ref_trace = basis.eval_modes(k, ref_edge.reshape(3 * self.Q, 2))

        self.vertex_basis = basis.eval_modes(k, REF_VERTICES)        # (3, nm)
        # rows of the order-j mixed derivatives within the stacked vertex
        # derivative axis: one row per alpha = (j - aidx, aidx), j = 0..k
        self.deriv_rows = [slice(j * (j + 1) // 2, (j + 1) * (j + 2) // 2)
                           for j in range(k + 1)]
        self.n_derivs = self.deriv_rows[-1].stop

        # geometry gathered per edge (left-cell view)
        lc, ll = mesh.edge_cells[:, 0], mesh.edge_local[:, 0]
        self.edge_normal = mesh.normal[lc, ll]                       # (ne, 2)
        # component-first, the models' normal layout: (2, ne)
        self.edge_normal_cf = np.ascontiguousarray(self.edge_normal.T)
        pa = mesh.vertices[mesh.edge_vertices[:, 0]]
        pb = mesh.vertices[mesh.edge_vertices[:, 1]]
        self.edge_points = pa[:, None, :] + tq[None, :, None] * (pb - pa)[:, None, :]
        self.edge_endpoints = np.stack([pa, pb], axis=1)             # (ne, 2, 2)

        self.boundary_ids = bi = mesh.boundary_edge_ids
        # boundary geometry at the edge Gauss points and the edge endpoints
        self.bnd_points = self.edge_points[bi]                       # (nb,Q,2)
        self.bnd_normals = np.broadcast_to(
            self.edge_normal[bi][:, None, :], (len(bi), self.Q, 2))
        self.bnd_endpoints = self.edge_endpoints[bi]                 # (nb,2,2)
        self.bnd_endpoint_normals = np.broadcast_to(
            self.edge_normal[bi][:, None, :], (len(bi), 2, 2))
        groups = {}
        for pos, eid in enumerate(self.boundary_ids):
            groups.setdefault(mesh.edge_tag[eid], []).append(pos)
        # (rule, positions of its edges within boundary_ids)
        self.groups = [(self.boundary[tag], np.array(pos))
                       for tag, pos in sorted(groups.items())]

        # physical interior quadrature points, x = v0 + J xi term by term
        v0 = mesh.vertices[mesh.cells[:, 0]]
        xi, jac = self.int_pts, mesh.jac
        self.int_points_phys = v0[:, None, :] + (
            xi[None, :, 0, None] * jac[:, None, :, 0]
            + xi[None, :, 1, None] * jac[:, None, :, 1])

        self._gather_tables()
        self._build_operators()

    def _build_operators(self):
        """Reference matrices and per-cell Jacobian factors of the residual.

        The mass matrix 2|K| diag(||Psi_l||^2) splits into the reference
        norms, folded into the rows of the volume and scatter matrices, and
        1 / |det J| = 1 / (2|K|), applied per cell.
        """
        mesh, k = self.mesh, self.k
        inv_norms = 1.0 / basis.REF_NORMS[: self.nm, None]
        # volume term: w_q dPsi/dxi_a, columns (a, q), against the flux
        # projected on the contravariant vectors |K| (row a of J^-1)
        wg = self.int_w[:, None, None] * basis.eval_grad(k, self.int_pts)
        self._vol_ref = inv_norms * wg.transpose(1, 2, 0).reshape(self.nm, -1)
        self._scatter_ref = inv_norms * self.ref_trace.T             # (nm, 3Q)
        # (2, 2, 1, nc) for (b, a, node, cell), component-first like the
        # models' normals and C-contiguous: the models' broadcasts over
        # (N, nc) run several times slower on a strided view
        self._contravariant = np.ascontiguousarray(
            (mesh.area[:, None, None] * mesh.jac_inv).transpose(2, 1, 0)
        )[:, :, None]
        self._inv_det = 0.5 / mesh.area
        # vertex jets: reference mixed derivatives d^(j-ridx)_xi d^ridx_eta,
        # rows (stacked alpha, vertex), and per order j >= 1 the transform
        # to physical derivatives as (j+1, j+1, nc)
        self._jet_ref = np.concatenate([
            basis.eval_modes(k, REF_VERTICES, r=j - ridx, s=ridx)
            for j in range(k + 1) for ridx in range(j + 1)])         # (3R, nm)
        self._jet_transforms = [np.ascontiguousarray(
            basis.physical_derivative_transform(mesh.jac_inv, j)
            .transpose(1, 2, 0)) for j in range(1, k + 1)]

    def _gather_tables(self):
        """Flat gather indices between cell-local and global edge orders.

        Node-major GEMM results (n_nodes, d, nc) are read flat, at index
        (node * d + component) * nc + cell, so one take returns its values
        component-first. trace_take (d, 2, ne, Q) reads the trace GEMM at the
        edge Gauss points of both sides in global edge-point order;
        endpoint_take (2, 2, d, ne) reads node-major vertex arrays for (side,
        endpoint, component, edge). A boundary edge reads its own cell on
        side 1, where the ghost is written afterwards. The edge scatter
        gathers the flux (d, ne, Q) at every (local edge, point, component,
        cell) through _flux_take (3Q, d, nc) and weighs it by _flux_weights
        (3Q, 1, nc), -sign * length * w_q, the minus of the edge term folded
        in.
        """
        mesh = self.mesh
        nc, Q, d = mesh.n_cells, self.Q, self.d
        ne = mesh.n_edges
        comp = np.arange(d)
        il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
        lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        # the left cell traverses its local edge in global order, the right
        # cell reversed: global point q is its reference point Q-1-q
        q = np.arange(Q)
        left = (il[:, None] * Q + q) * (d * nc) + lc[:, None]
        right = (ir[:, None] * Q + (Q - 1 - q)) * (d * nc) + rc[:, None]
        sides = np.stack([left, np.where(rc[:, None] >= 0, right, left)])
        self.trace_take = comp[:, None, None, None] * nc + sides
        fwd = mesh.cell_edge_forward
        gq = np.where(fwd[:, :, None], q, Q - 1 - q)                 # (nc,3,Q)
        rows = (mesh.cell_edges[:, :, None] * Q + gq).reshape(nc, 3 * Q).T
        self._flux_take = comp[:, None] * (ne * Q) + rows[:, None, :]
        sign = np.where(fwd, -1.0, 1.0)
        wgt = (sign * mesh.edge_len)[:, :, None] * self.edge_w[gq]
        self._flux_weights = np.ascontiguousarray(
            wgt.reshape(nc, 3 * Q).T)[:, None, :]
        # left cell traverses (il+1)%3 -> (il+2)%3 in global order; the
        # right cell traverses its local edge reversed
        lv_end = np.stack([(il + 1) % 3, (il + 2) % 3], axis=1)
        rv_end = np.stack([(ir + 2) % 3, (ir + 1) % 3], axis=1)
        left = lv_end.T * (d * nc) + lc
        sides = np.stack([
            left, np.where(rc >= 0, rv_end.T * (d * nc) + rc, left)])
        self.endpoint_take = sides[:, :, None, :] + comp[:, None] * nc

    # -- evaluation helpers -------------------------------------------------

    def at_nodes(self, ref, buf):
        """Values at reference nodes of the buffer buf (nm, d, nc): one GEMM,
        node-major and component-first per node, (n_nodes, d, nc)."""
        return (ref @ buf.reshape(self.nm, -1)).reshape(len(ref), self.d, -1)

    def traces(self, coeffs):
        """Solution values at edge Gauss points: (nc, 3, Q, d), a view.

        Point p of local edge i is in the cell's own traversal order, from
        local vertex (i+1)%3 to (i+2)%3: global edge-point order for the
        left cell of an edge, reversed for the right cell.
        """
        TR = self.at_nodes(self.ref_trace, component_major(coeffs))
        return TR.reshape(3, self.Q, self.d, -1).transpose(3, 0, 1, 2)

    def interior_values(self, coeffs):
        """Solution values at interior quadrature nodes: (nc, N, d), a view."""
        return self.at_nodes(self.basis_int,
                              component_major(coeffs)).transpose(2, 0, 1)

    def vertex_values(self, coeffs):
        """Solution values at the 3 cell vertices: (nc, 3, d), a view."""
        return self.at_nodes(self.vertex_basis,
                              component_major(coeffs)).transpose(2, 0, 1)

    def vertex_jets(self, coeffs):
        """Mixed physical derivatives of every order j <= k at cell vertices.

        Returns (n_derivs, 3, d, nc), derivative-major and component-first:
        deriv_rows[j] selects order j on axis 0, whose entries are
        alpha = (j - aidx, aidx).
        """
        ref = self.at_nodes(self._jet_ref, component_major(coeffs)).reshape(
            self.n_derivs, 3, self.d, -1)
        out = np.empty_like(ref)
        out[0] = ref[0]
        # d^alpha u = sum_ridx T[aidx, ridx] * reference derivative ridx,
        # along the cells
        for T, rows in zip(self._jet_transforms, self.deriv_rows[1:]):
            np.einsum("arc,rvdc->avdc", T, ref[rows], out=out[rows])
        return out

    def evaluate(self, state, cell, points):
        """Evaluate the per-cell polynomial at physical points (…, 2)."""
        ref = self.mesh.physical_to_reference(cell, points)
        vals = basis.eval_modes(self.k, np.atleast_2d(ref))
        # the cell's (nm, d) block C-ordered: the product's path, and so its
        # bits, depend on the operand's layout
        return vals @ np.ascontiguousarray(state.coeffs[cell])

    # -- ghosts -------------------------------------------------------------

    def boundary_ghost_values(self, u_int_b, X_b, n_b, t):
        """Exterior states for all boundary edges, components last.

        The arrays are indexed by position within self.boundary_ids; the
        boundary rules see and return (..., d) states.
        """
        u_ext = np.empty_like(u_int_b)
        for rule, pos in self.groups:
            u_ext[pos] = rule.ghost(self.model, u_int_b[pos], X_b[pos],
                                    n_b[pos], t)
        return u_ext

    def endpoint_ghosts(self, UE, t):
        """Write the ghosts into side 1 of endpoint values UE (d, 2, 2, ne).

        Axes are (component, side, endpoint, edge); side 1 of a boundary
        edge holds its own cell's value until this call. Only the boundary
        edges are transposed for the rules.
        """
        bi = self.boundary_ids
        if len(bi):
            u_int = UE[:, 0][:, :, bi].transpose(2, 1, 0)            # (nb,2,d)
            UE[:, 1][:, :, bi] = self.boundary_ghost_values(
                u_int, self.bnd_endpoints, self.bnd_endpoint_normals,
                t).transpose(2, 1, 0)

    def _edge_states(self, coeffs, t, buf=None):
        """Two-sided states at the edge Gauss points: (d, 2, ne, Q).

        Side 0 is the left cell's trace; side 1 is the right cell's trace on
        interior edges and the boundary rule's ghost on boundary edges.
        buf: component_major(coeffs), when the caller already has it.
        """
        if buf is None:
            buf = component_major(coeffs)
        U = np.take(self.at_nodes(self.ref_trace, buf), self.trace_take)
        bi = self.boundary_ids
        if len(bi):
            U[:, 1, bi] = self.boundary_ghost_values(
                U[:, 0, bi].transpose(1, 2, 0), self.bnd_points,
                self.bnd_normals, t).transpose(2, 0, 1)
        return U

    def _reject_inadmissible(self, ok):
        """Raise for the first inadmissible (edge, side) in edge order.

        ok: (2, ne, Q) admissibility of the two-sided edge states. The error
        names the cell that owns the bad trace: the right cell for side 1 of
        an interior edge, the boundary cell for a ghost.
        """
        eid, side = np.argwhere(~ok.all(axis=2).T)[0]
        cell = self.mesh.edge_cells[eid, side]
        if cell < 0:
            cell = self.mesh.edge_cells[eid, 0]
        raise AdmissibilityError(
            "inadmissible trace at edge quadrature point",
            cell=int(cell), edge=int(eid))

    # -- residual -----------------------------------------------------------

    def residual(self, coeffs, alpha, t=0.0, states=None):
        """d(coeffs)/dt of the semi-discrete scheme: the (nc, nm, d) view of
        a component-major buffer.

        states: the two-sided edge states of coeffs at t, when the caller
        already built them with _edge_states.
        """
        buf = component_major(coeffs)
        # each term's temporaries are freed before the next term's
        R = self._edge_term(coeffs, alpha, t, buf, states)
        R += self._volume_term(buf)
        R = R.reshape(buf.shape)
        R *= self._inv_det
        return modal_view(R)

    def _edge_term(self, coeffs, alpha, t, buf, states):
        """-sign * l * sum_nu w_nu fhat Psi, in each cell's traversal order,
        through the shared reference matrix: (nm, d * nc)."""
        U = self._edge_states(coeffs, t, buf) if states is None else states
        try:
            fhat = self.model.lf_flux(U, self.edge_normal_cf[:, :, None],
                                      alpha)
        except AdmissibilityError:
            # the flux tests admissibility in its own pass; name the cell
            # and edge only on this failure path
            ok = self.model.admissible(U)
            if not ok.all():
                self._reject_inadmissible(ok)
            raise
        F = np.take(fhat, self._flux_take)                           # (3Q,d,nc)
        F *= self._flux_weights
        return self._scatter_ref @ F.reshape(3 * self.Q, -1)

    def _volume_term(self, buf):
        """sum_a sum_q w_q dPsi/dxi_a F(u) . (|K| row a of J^-1), with the
        flux written node-major (a, q, d, nc) for the GEMM: (nm, d * nc)."""
        _, d, nc = buf.shape
        Ui = self.at_nodes(self.basis_int, buf)                     # (N,d,nc)
        Fc = np.empty((2, self.n_int, d, nc))
        self.model.normal_flux(Ui.transpose(1, 0, 2)[:, None],
                               self._contravariant,
                               out=Fc.transpose(2, 0, 1, 3))
        return self._vol_ref @ Fc.reshape(2 * self.n_int, d * nc)

    # -- projection ---------------------------------------------------------

    def project(self, fn, t=0.0):
        """L2 projection of u0(x, y) onto the modal space; returns ModalState."""
        X = self.int_points_phys
        vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
        if vals.ndim == 2:  # scalar models
            vals = vals[..., None]
        coeffs = np.einsum("q,cqd,ql->cld", self.int_w, vals, self.basis_int)
        coeffs /= (2.0 * basis.REF_NORMS[: self.nm])[None, :, None]
        return ModalState(self.k, modal_view(component_major(coeffs)), t)

    # -- wavespeed bound ----------------------------------------------------

    def max_wavespeed(self, coeffs, t=0.0, mode="edge_gauss", states=None):
        """Global LF viscosity parameter.

        mode 'cell_average': max over cells/edges of the wavespeed of the cell
        average. mode 'edge_gauss': max over the edge quadrature traces of
        both sides (the states entering the cell-average update; this is what
        limited runs control). states: the two-sided edge states of coeffs at
        t, when the caller already built them with _edge_states.
        """
        if mode == "cell_average":
            ubar = coeffs[:, 0, :].T                                 # (d, nc)
            s = self.model.wavespeed(ubar[:, :, None],
                                     self.mesh.normal.transpose(2, 0, 1))
            return float(np.max(s))
        if mode != "edge_gauss":
            raise ConfigError(f"unknown wavespeed mode {mode!r}")
        U = self._edge_states(coeffs, t) if states is None else states
        return float(np.max(self.model.wavespeed(
            U, self.edge_normal_cf[:, :, None])))
