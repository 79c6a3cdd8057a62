"""Semi-discrete DG spatial operator on modal coefficients.

The operator precomputes all basis/quadrature tables for a fixed (mesh, degree,
model, boundary rules) so that residual evaluation is a few matrix products
over cell and edge arrays. The working coefficients are component-major: a
C-contiguous (d, nm, nc) buffer, of which ModalState.coeffs is the (nc, nm, d)
view. On affine triangles every modal operator is a reference-element matrix
shared by all cells, applied to that buffer as one stacked product over the
components, times a few per-cell Jacobian factors: edge orientation lives in
precomputed gather indices over the flattened (node, cell) axis, so one take
gives the component-first edge states (d, 2, ne, Q) the models work on; the
volume term weighs the flux by each cell's contravariant vectors along the
cell axis. No table couples a cell to the modes or to a component. Interior
edge fluxes are computed once per edge and scattered with opposite signs,
which makes the scheme discretely conservative.
"""

from dataclasses import dataclass

import numpy as np

from . import basis, quadrature
from .errors import AdmissibilityError, ConfigError

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def modal_view(buf):
    """The (nc, nm, d) view of a component-major buffer (d, nm, nc), and
    back: the transpose is its own inverse."""
    return buf.transpose(2, 1, 0)


def component_major(coeffs, copy=False):
    """The (d, nm, nc) buffer behind coefficients coeffs (nc, nm, d).

    A view when coeffs is already the modal view of such a buffer; otherwise,
    or with copy=True, a new C-contiguous buffer.
    """
    buf = modal_view(coeffs)
    return np.array(buf, order="C") if copy else np.ascontiguousarray(buf)


@dataclass
class ModalState:
    """Per-cell modal coefficients u_K^(l) in R^d, l = 0..L_k."""

    k: int
    # (n_cells, n_modes, d). The solver's states are modal views of a
    # component-major (d, n_modes, n_cells) buffer and keep that layout;
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
    """The exterior state of a boundary edge at its nodes."""

    def ghost(self, model, u_int, x, n, t):
        raise NotImplementedError


class Outflow(BoundaryRule):
    """The exterior state is the interior one. Side 1 of a boundary edge
    already holds its own cell's values, so the operator writes no ghost."""


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
        bi = mesh.boundary_edge_ids
        bnd_tags = [mesh.edge_tag[eid] for eid in bi.tolist()]
        for tag in set(bnd_tags):
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

        # geometry gathered per edge (left-cell view)
        lc, ll = mesh.edge_cells[:, 0], mesh.edge_local[:, 0]
        self.edge_normal = mesh.normal[lc, ll]                       # (ne, 2)
        # component-first, the models' normal layout: (2, ne)
        self.edge_normal_cf = np.ascontiguousarray(self.edge_normal.T)

        # ghost edges: the boundary edges whose rule writes a state, grouped
        # by tag as (rule, edge ids, their slice of ghost_ids). Outflow
        # edges are in no group: the gather is their ghost.
        groups = {}
        for eid, tag in zip(bi.tolist(), bnd_tags):
            if not isinstance(self.boundary[tag], Outflow):
                groups.setdefault(tag, []).append(eid)
        self.groups, gi = [], []
        for tag, eids in sorted(groups.items()):
            pos = slice(len(gi), len(gi) + len(eids))
            self.groups.append((self.boundary[tag], np.array(eids), pos))
            gi += eids
        self.ghost_ids = np.array(gi, dtype=int)
        self.ghost_gauss = self.ghost_nodes(
            lambda a, b: a[:, None] + tq[None, :, None] * (b - a)[:, None])

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

    def _gather_tables(self):
        """Flat gather indices between cell-local and global edge orders.

        The values (d, n_nodes, nc) of at_nodes are read along their
        flattened (node, cell) axis, at index node * nc + cell, one take for
        all components. side_cells (2, ne), the table of a one-node set,
        holds the cell each side reads. trace_take (2, ne, Q) reads the
        trace product at the edge Gauss points of both sides in global
        edge-point order. The edge scatter gathers the flux (d, ne, Q) at
        every (local edge, point, cell) through _flux_take (3Q, nc) and
        weighs it by _flux_weights (3Q, nc), -sign * length * w_q, the minus
        of the edge term folded in.
        """
        mesh = self.mesh
        nc, Q = mesh.n_cells, self.Q
        self.side_cells = self.two_sided_take(np.zeros((3, 1), int))[..., 0]
        q = np.arange(Q)
        self.trace_take = self.two_sided_take(q + Q * np.arange(3)[:, None])
        fwd = mesh.cell_edge_forward
        gq = np.where(fwd[:, :, None], q, Q - 1 - q)                 # (nc,3,Q)
        self._flux_take = np.ascontiguousarray(
            (mesh.cell_edges[:, :, None] * Q + gq).reshape(nc, 3 * Q).T)
        sign = np.where(fwd, -1.0, 1.0)
        wgt = (sign * mesh.edge_len)[:, :, None] * self.edge_w[gq]
        self._flux_weights = np.ascontiguousarray(wgt.reshape(nc, 3 * Q).T)

    def two_sided_take(self, rows):
        """Flat gather indices (2, ne, P), row * nc + cell, of a node set on
        both sides of every edge in global edge-point order. rows (3, P):
        the node row of point p of local edge i in the cell's traversal
        order, which is global order for the left cell and reversed for the
        right cell. Side 1 of a boundary edge reads the left cell: the
        outflow state, which write_ghosts overwrites on ghost edges."""
        mesh = self.mesh
        ec, nc = mesh.edge_cells, mesh.n_cells
        left = rows[mesh.edge_local[:, 0]] * nc + ec[:, :1]
        right = rows[mesh.edge_local[:, 1], ::-1] * nc + ec[:, 1:]
        return np.stack([left, np.where(ec[:, 1:] >= 0, right, left)])

    def ghost_nodes(self, nodes):
        """The (points, normals) of the ghost edges at a node set, for
        write_ghosts: nodes(a, b) -> (ng, P, 2) places the P nodes on the
        edges from a to b, (ng, 2) each, in global order."""
        mesh, gi = self.mesh, self.ghost_ids
        a, b = mesh.vertices[mesh.edge_vertices[gi]].transpose(1, 0, 2)
        X = nodes(a, b)
        return X, np.broadcast_to(self.edge_normal[gi][:, None, :], X.shape)

    # -- evaluation helpers -------------------------------------------------

    @staticmethod
    def at_nodes(ref, buf):
        """Values at reference nodes, ref (n_nodes, nm), of the buffer buf
        (d, nm, nc): (d, n_nodes, nc), one product per component."""
        return ref @ buf

    def traces(self, coeffs):
        """Solution values at edge Gauss points: (nc, 3, Q, d), a view.

        Point p of local edge i is in the cell's own traversal order, from
        local vertex (i+1)%3 to (i+2)%3: global edge-point order for the
        left cell of an edge, reversed for the right cell.
        """
        TR = self.at_nodes(self.ref_trace, component_major(coeffs))
        return TR.reshape(self.d, 3, self.Q, -1).transpose(3, 1, 2, 0)

    def interior_values(self, coeffs):
        """Solution values at interior quadrature nodes: (nc, N, d), a view."""
        return modal_view(self.at_nodes(self.basis_int,
                                        component_major(coeffs)))

    def vertex_values(self, coeffs):
        """Solution values at the 3 cell vertices: (nc, 3, d), a view."""
        return modal_view(self.at_nodes(self.vertex_basis,
                                        component_major(coeffs)))

    def evaluate(self, state, cell, points):
        """Evaluate the per-cell polynomial at physical points (…, 2)."""
        ref = self.mesh.physical_to_reference(cell, points)
        vals = basis.eval_modes(self.k, np.atleast_2d(ref))
        # the cell's (nm, d) block C-ordered: the product's path, and so its
        # bits, depend on the operand's layout
        return vals @ np.ascontiguousarray(state.coeffs[cell])

    # -- ghosts -------------------------------------------------------------

    def write_ghosts(self, U, nodes, t):
        """Write the ghosts into side 1 of two-sided values U (d, 2, ne, P).

        U is component-first, (component, side, edge, node); side 1 of a
        boundary edge holds its own cell's values until this call, which
        stays the outflow state. nodes: the (points, normals) of the ghost
        edges at U's P nodes, ghost_gauss or the filter's ghost_endpoints.
        The rules see and return (..., d) states.
        """
        X, n = nodes
        for rule, eids, pos in self.groups:
            U[:, 1, eids] = rule.ghost(
                self.model, U[:, 0, eids].transpose(1, 2, 0), X[pos], n[pos],
                t).transpose(2, 0, 1)

    def _edge_states(self, coeffs, t, buf=None):
        """Two-sided states at the edge Gauss points: (d, 2, ne, Q).

        Side 0 is the left cell's trace; side 1 is the right cell's trace on
        interior edges and the boundary rule's ghost on boundary edges.
        buf: component_major(coeffs), when the caller already has it.
        """
        if buf is None:
            buf = component_major(coeffs)
        TR = self.at_nodes(self.ref_trace, buf)
        U = np.take(TR.reshape(self.d, -1), self.trace_take, axis=-1)
        self.write_ghosts(U, self.ghost_gauss, t)
        return U

    def _reject_inadmissible(self, ok):
        """Raise for the first inadmissible (edge, side) in edge order.

        ok: (2, ne, Q) admissibility of the two-sided edge states. The error
        names the cell that owns the bad trace: the right cell for side 1 of
        an interior edge, the boundary cell for a ghost.
        """
        eid, side = np.argwhere(~ok.all(axis=2).T)[0]
        raise AdmissibilityError(
            "inadmissible trace at edge quadrature point",
            cell=int(self.side_cells[side, eid]), edge=int(eid))

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
        R *= self._inv_det
        return modal_view(R)

    def _edge_term(self, coeffs, alpha, t, buf, states):
        """-sign * l * sum_nu w_nu fhat Psi, in each cell's traversal order,
        through the shared reference matrix: (d, nm, nc)."""
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
        F = np.take(fhat.reshape(self.d, -1), self._flux_take, axis=-1)
        F *= self._flux_weights                                  # (d,3Q,nc)
        return self._scatter_ref @ F

    def _volume_term(self, buf):
        """sum_a sum_q w_q dPsi/dxi_a F(u) . (|K| row a of J^-1), the flux
        (d, a, q, nc) against the reference matrix: (d, nm, nc)."""
        Ui = self.at_nodes(self.basis_int, buf)                     # (d,N,nc)
        Fc = self.model.normal_flux(Ui[:, None], self._contravariant)
        return self._vol_ref @ Fc.reshape(self.d, 2 * self.n_int, -1)

    # -- projection ---------------------------------------------------------

    def project(self, fn):
        """L2 projection of u0(x, y) onto the modal space: a ModalState at
        t = 0."""
        X = self.int_points_phys
        vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
        if vals.ndim == 2:  # scalar models
            vals = vals[..., None]
        coeffs = np.einsum("q,cqd,ql->cld", self.int_w, vals, self.basis_int)
        coeffs /= (2.0 * basis.REF_NORMS[: self.nm])[None, :, None]
        return ModalState(self.k, modal_view(component_major(coeffs)))

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
