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

from .basis import MODE_DEGREE
from .dg import ModalState, component_major, modal_view
from .errors import ConfigError, UnsupportedOperationError

EPS_DEVIATION = 1e-12

MODES = ("componentwise", "rioe")


def damping_prefactor(k, j):
    """Degree-dependent constant (2j+1) / ((2k-1) j!)."""
    return (2 * j + 1) / ((2 * k - 1) * factorial(j))


class OEFilter:
    """Bound to a SpatialOperator; stateless apart from precomputed tables."""

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
        # A^{k,j} h^(j-1) per order j and cell edge: (k+1, 3, nc)
        h = op.mesh.height.T
        self.A_h = np.stack([damping_prefactor(k, j) * h ** (j - 1)
                             for j in range(k + 1)])
        # trapezoidal weights 0.5 binom(j, aidx) on the rows (stacked alpha,
        # endpoint) of the squared jumps: (k+1, 2 n_derivs)
        w = np.zeros((k + 1, op.n_derivs))
        for j, rows in enumerate(op.deriv_rows):
            w[j, rows] = [0.5 * comb(j, a) for a in range(j + 1)]
        self.weights = np.repeat(w, 2, axis=1)

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
        # interior values component-major, (N, d, nc), so that every
        # reduction runs along the cells
        vals = op.at_nodes(op.basis_int, component_major(coeffs))
        vals -= ubar[:, None]
        mdev = None
        mom = op.model.momentum_components
        if mom:
            m1, m2 = vals[:, mom[0]], vals[:, mom[1]]
            mdev = float(np.sqrt((m1 * m1 + m2 * m2).max()))
        dev = np.abs(vals, out=vals).max(axis=2).max(axis=0)
        return ubar, dev, mdev

    # -- jump assembly ------------------------------------------------------

    def _endpoint_pass(self, coeffs, t):
        """Jumps of every derivative order and the states at edge endpoints.

        Returns J (n_derivs, 2, d, ne) indexed by (stacked alpha, endpoint,
        component, edge), and the two-sided point values u (d, 2, 2, ne)
        indexed by (component, side, endpoint, edge): side 0 the left
        cell's, side 1 the right cell's or the ghost. Side 0 is gathered
        into J and side 1 subtracted one order at a time; only the order-0
        values are gathered for both sides. Side 1 of a boundary edge is its
        own cell, so outflow edges have zero jumps of every order, and ghost
        edges jump from side 0 to a degree-0 ghost.
        """
        op = self.op
        V = op.vertex_jets(coeffs).reshape(op.n_derivs, -1)      # (R,3*d*nc)
        side0, side1 = op.endpoint_take                         # (2,d,ne)
        J = np.take(V, side0, axis=1)                            # (R,2,d,ne)
        u = np.take(V[0], op.endpoint_take).transpose(2, 0, 1, 3)
        gi = op.ghost_ids
        ghost_jumps = J[..., gi]
        for a in range(op.n_derivs):
            J[a] -= np.take(V[a], side1)
        # (d, 2, ne, 2) view: write_ghosts writes through to u
        op.write_ghosts(u.transpose(0, 1, 3, 2), op.ghost_endpoints, t)
        ghost_jumps[0] -= u[:, 1][..., gi].transpose(1, 0, 2)
        J[..., gi] = ghost_jumps
        return J, u

    def _edge_measures(self, coeffs, J, rotated):
        """sqrt(S^j) over the global deviation, per edge: (k+1, d, ne).

        S^j is the trapezoidal endpoint sum of the binom-weighted squared
        order-j jumps. rotated: the momentum entries become the larger of the
        normal and tangential momentum measures over the momentum-magnitude
        deviation. J (n_derivs, 2, d, ne) is overwritten.
        """
        R, _, d, ne = J.shape
        if rotated:
            # the momentum rows carry the normal and tangential jumps; their
            # component-wise measures would be overwritten by dhat below
            m1, m2 = J[:, :, self.mom[0]], J[:, :, self.mom[1]]  # (R,2,ne)
            n1, n2 = self.op.edge_normal_cf
            jn = n1 * m1 + n2 * m2
            J[:, :, self.mom[1]] = -n2 * m1 + n1 * m2
            J[:, :, self.mom[0]] = jn
        # squared jumps: rows (alpha, endpoint), columns (component, edge)
        np.square(J, out=J)
        S = self.weights @ J.reshape(2 * R, d * ne)
        root = np.sqrt(S).reshape(self.k + 1, d, ne)

        ubar, dev, mdev = self.global_deviation(coeffs)
        # component guard: quiescent components are not damped
        active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
        inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
        G = root * inv_dev[:, None]
        if rotated:
            mom = self.mom
            dhat = 0.0
            if mdev > EPS_DEVIATION * max(
                    1.0, float(np.hypot(ubar[mom[0]], ubar[mom[1]]))):
                dhat = (np.maximum(root[:, mom[0]], root[:, mom[1]])
                        / mdev)[:, None]
            G[:, mom] = dhat
        return G

    def _beta(self, u):
        """Max wavespeed per edge of the two-sided endpoint values u."""
        speed = (self.op.model.wavespeed_clamped if self.guard_wavespeed
                 else self.op.model.wavespeed)
        s = speed(u, self.op.edge_normal_cf)                     # (2, 2, ne)
        s = np.maximum(s[0], s[1])
        return np.maximum(s[0], s[1])

    # -- damping ------------------------------------------------------------

    def _exponents(self, coeffs, dt, t):
        """damping_exponents component-major: (k, d, nc)."""
        J, u = self._endpoint_pass(coeffs, t)
        G = self._edge_measures(coeffs, J, rotated=bool(self.mom))
        ce = self.op.mesh.cell_edges.T                           # (3, nc)
        w = self._beta(u)[ce] * self.A_h                         # (k+1,3,nc)
        GG = np.take(G, ce, axis=2)                              # (k+1,d,3,nc)
        GG *= w[:, None]
        sigma = GG[:, :, 0] + GG[:, :, 1] + GG[:, :, 2]
        # running sum over the orders, the additions of np.cumsum in order
        X = np.empty((self.k,) + sigma.shape[1:])
        acc = sigma[0]
        for m in range(1, self.k + 1):
            acc = acc + sigma[m]
            X[m - 1] = acc
        return dt * X

    def damping_exponents(self, coeffs, dt, t=0.0):
        """Exponents X[c, m-1, d] = dt * sum_{j<=m} sigma_K^j for m = 1..k.

        sigma_K^j = sum over the cell's edges of beta / h * delta^j, with
        delta^j = A^{k,j} h^j sqrt(S^j) / deviation. A (nc, k, d) view.
        """
        return self._exponents(coeffs, dt, t).transpose(2, 0, 1)

    def apply(self, state, dt, t=None):
        """Damp high-order modal blocks; the cell averages are untouched."""
        if dt < 0:
            raise ConfigError("dt must be non-negative")
        t = state.t if t is None else t
        X = self._exponents(state.coeffs, dt, t)                 # (k, d, nc)
        # one factor per degree, 1.0 for the cell average, spread to modes
        scale = np.empty((self.k + 1,) + X.shape[1:])
        scale[0] = 1.0
        np.exp(-X, out=scale[1:])
        coeffs = (component_major(state.coeffs)
                  * np.take(scale, MODE_DEGREE[:self.op.nm], axis=0))
        return ModalState(state.k, modal_view(coeffs), state.t)
