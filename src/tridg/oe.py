"""Oscillation-eliminating filter: per-stage exponential modal damping.

After each RK stage, the modes of total degree m >= 1 in every cell are scaled
by exp(-dt * sum_{j<=m} sigma_K^j), where sigma_K^j accumulates, over the three
cell edges, dimensionless jump measures of the j-th mixed derivatives at the
edge endpoints weighted by the local wavespeed over the cell height. Cell
averages are never touched, so the filter is locally conservative.

Two variants: 'componentwise' damps every solution component from its own
jumps; 'rioe' replaces the two momentum jump measures by the maximum of the
normal/tangential momentum jump measures, which restores rotational
equivariance for rotation-invariant systems.
"""

from math import comb, factorial

import numpy as np

from . import basis
from .dg import REF_VERTICES, ModalState, component_major, modal_view
from .errors import ConfigError, UnsupportedOperationError

EPS_DEVIATION = 1e-12

MODES = ("componentwise", "rioe")


def damping_prefactor(k, j):
    """Degree-dependent constant (2j+1) / ((2k-1) j!)."""
    return (2 * j + 1) / ((2 * k - 1) * factorial(j))


class OEFilter:
    """Bound to a SpatialOperator; stateless apart from precomputed tables.

    The filter owns its jet and endpoint tables; the operator keeps only what
    the residual, the limiter and the wavespeed bound read.
    """

    def __init__(self, op, mode="componentwise", guard_wavespeed=False):
        # guard_wavespeed: use a clamped wavespeed estimate at edge endpoints;
        # enabled in BP-limited runs, where the limiter controls the edge
        # Gauss nodes but not every vertex trace
        if mode not in MODES:
            raise ConfigError(f"oe mode {mode!r} not in {MODES}")
        if mode == "rioe" and not op.model.momentum_components:
            raise UnsupportedOperationError(
                "rioe requires a model with a rotation action")
        self.op = op
        self.mode = mode
        self.guard_wavespeed = guard_wavespeed
        self.k = k = op.k
        self.mom = list(op.model.momentum_components) if mode == "rioe" else []
        mesh = op.mesh
        # A^{k,j} h^(j-1) per order j and cell edge: (k+1, 3, nc)
        h = mesh.height.T
        self.A_h = np.stack([damping_prefactor(k, j) * h ** (j - 1)
                             for j in range(k + 1)])
        # jets: the mixed derivatives d^(j-ridx)_xi d^ridx_eta of the orders
        # j < k at the three vertices, rows (stacked alpha, vertex), then
        # those of order k once: a degree-k polynomial's order-k derivatives
        # are constant on an affine cell. deriv_rows[j] selects order j < k
        # on the stacked alpha axis, alpha = (j - aidx, aidx).
        self.deriv_rows = [slice(j * (j + 1) // 2, (j + 1) * (j + 2) // 2)
                           for j in range(k)]
        self.n_derivs = k * (k + 1) // 2
        self._jet_ref = np.concatenate(
            [basis.eval_modes(k, REF_VERTICES, r=j - ridx, s=ridx)
             for j in range(k) for ridx in range(j + 1)]
            + [basis.eval_modes(k, REF_VERTICES[:1], r=k - ridx, s=ridx)
               for ridx in range(k + 1)])             # (3 n_derivs + k+1, nm)
        # per order j >= 1 the transform to physical derivatives, (j+1, j+1,
        # nc) along the cells
        self._jet_transforms = [np.ascontiguousarray(
            basis.physical_derivative_transform(mesh.jac_inv, j)
            .transpose(1, 2, 0)) for j in range(1, k + 1)]
        self._gather_tables()
        # trapezoidal weights 0.5 binom(j, aidx) on the rows (stacked alpha,
        # endpoint) of the squared jumps of order j < k, and binom(k, aidx)
        # on the one row per alpha of order k, whose jump is the same at
        # both endpoints: (k+1, 2 n_derivs + k+1)
        w = np.zeros((k + 1, 2 * self.n_derivs + k + 1))
        for j, rows in enumerate(self.deriv_rows):
            w[j, 2 * rows.start:2 * rows.stop] = np.repeat(
                [0.5 * comb(j, a) for a in range(j + 1)], 2)
        w[k, 2 * self.n_derivs:] = [comb(k, a) for a in range(k + 1)]
        self.weights = w

    def _gather_tables(self):
        """Flat gather indices from the jets to the two sides of each edge.

        The jets are read along their cell axis, the orders below k
        flattened with the vertex axis at index vertex * nc + cell, so that
        endpoint_take (2, 2, ne) returns them for (side, endpoint, edge), and
        those of order k through cell_take (2, ne) for (side, edge): the
        operator's two-sided tables, whose side 1 of a boundary edge is its
        own cell. ghost_endpoints holds the (points, normals) of the ghost
        edges at their endpoints, the exact vertices, for write_ghosts.
        """
        op = self.op
        # endpoint p of local edge i is local vertex (i + 1 + p) % 3. The
        # edges last for the weights GEMM, C-contiguous: np.take copies a
        # strided index array on every call
        ends = op.two_sided_take((np.arange(3)[:, None] + [1, 2]) % 3)
        self.endpoint_take = np.ascontiguousarray(ends.transpose(0, 2, 1))
        self.cell_take = op.side_cells
        self.ghost_endpoints = op.ghost_nodes(
            lambda a, b: np.stack([a, b], axis=1))

    # -- deviations ---------------------------------------------------------

    def global_deviation(self, coeffs):
        """(global average, per-component max deviation, momentum-magnitude
        max deviation).

        Maxima are taken over the interior quadrature nodes of all cells; the
        last value is None unless the model carries momentum components.
        """
        op = self.op
        mesh = op.mesh
        # the averages read with a row stride, as from a C-ordered state,
        # whatever the layout: BLAS sums a strided product in another order
        # than a contiguous one
        means = np.ascontiguousarray(coeffs[:, :2, :])[:, 0, :]
        ubar = mesh.area @ means / mesh.area.sum()
        # interior values component-major, (d, N, nc), so that every
        # reduction runs along the cells
        vals = op.at_nodes(op.basis_int, component_major(coeffs))
        vals -= ubar[:, None, None]
        mdev = None
        mom = op.model.momentum_components
        if mom:
            m1, m2 = vals[mom[0]], vals[mom[1]]
            mdev = float(np.sqrt((m1 * m1 + m2 * m2).max()))
        dev = np.abs(vals, out=vals).max(axis=2).max(axis=1)
        return ubar, dev, mdev

    # -- jump assembly ------------------------------------------------------

    def vertex_jets(self, coeffs):
        """Mixed physical derivatives of every order j <= k, component-first.

        Returns the orders j < k at the cell vertices, (d, n_derivs, 3, nc)
        with deriv_rows[j] selecting order j on the stacked alpha axis, and
        the order-k derivatives, the same at every point of the cell, (d,
        k+1, nc): two C-contiguous arrays, which np.take reads without a
        copy.
        """
        nd = self.n_derivs
        ref = self.op.at_nodes(self._jet_ref, component_major(coeffs))
        d, _, nc = ref.shape
        ref_lo = ref[:, :3 * nd].reshape(d, nd, 3, nc)
        lo = np.empty((d, nd, 3, nc))
        lo[:, 0] = ref_lo[:, 0]
        # d^alpha u = sum_ridx T[aidx, ridx] * reference derivative ridx,
        # along the cells
        for T, rows in zip(self._jet_transforms, self.deriv_rows[1:]):
            np.einsum("arc,drvc->davc", T, ref_lo[:, rows], out=lo[:, rows])
        top = np.einsum("arc,drc->dac", self._jet_transforms[-1],
                        ref[:, 3 * nd:])
        return lo, top

    def _endpoint_pass(self, coeffs, t):
        """Jumps of every derivative order and the states at edge endpoints.

        Returns J (d, 2 n_derivs + k+1, ne), rows (stacked alpha, endpoint)
        for the orders j < k and one row per alpha for order k, whose jump
        is the same at both endpoints; and the two-sided point values u (d,
        2, 2, ne) indexed by (component, side, endpoint, edge): side 0 the
        left cell's, side 1 the right cell's or the ghost. Each block takes
        both sides in one gather. Side 1 of a boundary edge is its own cell,
        so outflow edges have zero jumps of every order. On a ghost edge,
        side 1 becomes the degree-0 ghost jet, zero in every derivative,
        before one subtraction per block forms the jumps of every edge.
        """
        op = self.op
        lo, top = self.vertex_jets(coeffs)
        d, nd, _, nc = lo.shape
        # (d, nd, 2, 2, ne) and (d, k+1, 2, ne)
        W = np.take(lo.reshape(d, nd, 3 * nc), self.endpoint_take, axis=-1)
        C = np.take(top, self.cell_take, axis=-1)
        gi = op.ghost_ids
        W[:, 1:, 1][..., gi] = 0.0
        C[:, :, 1][..., gi] = 0.0
        # the order-0 values, each component contiguous
        u = W[:, 0]
        op.write_ghosts(u.transpose(0, 1, 3, 2), self.ghost_endpoints, t)
        J = np.empty((d, 2 * nd + self.k + 1, C.shape[-1]))
        np.subtract(W[:, :, 0], W[:, :, 1],
                    out=J[:, :2 * nd].reshape(d, nd, 2, -1))
        np.subtract(C[:, :, 0], C[:, :, 1], out=J[:, 2 * nd:])
        return J, u

    def _edge_measures(self, coeffs, J, rotated):
        """sqrt(S^j) over the global deviation, per edge: (d, k+1, ne).

        S^j is the trapezoidal endpoint sum of the binom-weighted squared
        order-j jumps. rotated: the momentum entries become the larger of the
        normal and tangential momentum measures over the momentum-magnitude
        deviation. J (d, rows, ne) is overwritten.
        """
        if rotated:
            # the momentum rows carry the normal and tangential jumps; their
            # component-wise measures would be overwritten by dhat below
            m1, m2 = J[self.mom[0]], J[self.mom[1]]              # (R, ne)
            n1, n2 = self.op.edge_normal_cf
            jn = n1 * m1
            jn += n2 * m2
            jt = n1 * m2
            jt -= n2 * m1
            m1[...] = jn
            m2[...] = jt
        # squared jumps: rows (alpha, endpoint), columns the edges
        np.square(J, out=J)
        root = np.sqrt(self.weights @ J)

        ubar, dev, mdev = self.global_deviation(coeffs)
        # component guard: quiescent components are not damped
        active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
        inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
        G = root * inv_dev[:, None, None]
        if rotated:
            mom = self.mom
            dhat = 0.0
            if mdev > EPS_DEVIATION * max(
                    1.0, float(np.hypot(ubar[mom[0]], ubar[mom[1]]))):
                dhat = np.maximum(root[mom[0]], root[mom[1]]) / mdev
            G[mom] = dhat
        return G

    def _beta(self, u):
        """Max wavespeed per edge of the two-sided endpoint values u."""
        speed = (self.op.model.wavespeed_clamped if self.guard_wavespeed
                 else self.op.model.wavespeed)
        # (2, 2, ne) over (side, endpoint, edge), or (ne,) for a speed that
        # does not depend on the state
        s = speed(u, self.op.edge_normal_cf)
        for _ in range(s.ndim - 1):
            s = np.maximum(s[0], s[1])
        return s

    # -- damping ------------------------------------------------------------

    def _exponents(self, coeffs, dt, t):
        """damping_exponents component-major: (d, k, nc)."""
        J, u = self._endpoint_pass(coeffs, t)
        G = self._edge_measures(coeffs, J, rotated=bool(self.mom))
        G *= self._beta(u)
        GG = np.take(G, self.op.mesh.cell_edges.T, axis=2)       # (d,k+1,3,nc)
        GG *= self.A_h
        sigma = GG[:, :, 0] + GG[:, :, 1] + GG[:, :, 2]
        # running sum over the orders, the additions of np.cumsum in order
        X = np.empty((sigma.shape[0], self.k, sigma.shape[2]))
        acc = sigma[:, 0]
        for m in range(1, self.k + 1):
            acc = acc + sigma[:, m]
            X[:, m - 1] = acc
        return dt * X

    def damping_exponents(self, coeffs, dt, t=0.0):
        """Exponents X[c, m-1, d] = dt * sum_{j<=m} sigma_K^j for m = 1..k.

        sigma_K^j = sum over the cell's edges of beta / h * delta^j, with
        delta^j = A^{k,j} h^j sqrt(S^j) / deviation. A (nc, k, d) view.
        """
        return modal_view(self._exponents(coeffs, dt, t))

    def apply(self, state, dt):
        """Damp high-order modal blocks at the state's time; the cell
        averages are untouched."""
        if dt < 0:
            raise ConfigError("dt must be non-negative")
        X = self._exponents(state.coeffs, dt, state.t)           # (d, k, nc)
        np.negative(X, out=X)
        np.exp(X, out=X)
        # one factor per degree, over the m + 1 modes of degree m
        coeffs = component_major(state.coeffs, copy=True)
        for m in range(1, self.k + 1):
            coeffs[:, m * (m + 1) // 2:(m + 1) * (m + 2) // 2] *= \
                X[:, m - 1, None]
        return ModalState(state.k, modal_view(coeffs), state.t)
