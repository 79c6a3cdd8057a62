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

from .dg import ModalState
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
        # total degree of every mode: degree m owns m + 1 modes
        self.mode_degree = np.repeat(np.arange(k + 1), np.arange(1, k + 2))
        self.mom = list(op.model.momentum_components) if mode == "rioe" else []
        mesh = op.mesh
        # A^{k,j} h^(j-1) per cell edge and order j: (nc, 3, k+1)
        self.A_h = np.stack([damping_prefactor(k, j) * mesh.height ** (j - 1)
                             for j in range(k + 1)], axis=2)
        # trapezoidal weights 0.5 binom(j, aidx) on the stacked derivative
        # rows of the vertex jets, for both edge endpoints: (2 n_derivs, k+1)
        w = np.zeros((op.n_derivs, k + 1))
        for j, rows in enumerate(op.deriv_rows):
            w[rows, j] = [0.5 * comb(j, a) for a in range(j + 1)]
        self.weights = np.vstack([w, w])
        # boundary edges read their own cell on side 1 of op.endpoint_sides,
        # so their jumps start at zero: 'copy' boundary edges keep zero jumps
        # of every order; 'state' edges jump against a degree-0 ghost
        bi = op.boundary_ids
        state = [bi[pos] for rule, pos in op.groups if rule.kind != "copy"]
        self.state_ids = (np.concatenate(state) if state
                          else np.array([], dtype=int))

    # -- deviations ---------------------------------------------------------

    def global_deviation(self, coeffs):
        """(global average, per-component max deviation, momentum-magnitude
        max deviation).

        Maxima are taken over the interior quadrature nodes of all cells; the
        last value is None unless the model carries momentum components.
        """
        mesh = self.op.mesh
        ubar = mesh.area @ coeffs[:, 0, :] / mesh.area.sum()
        # interior values component-major, (N, d, nc), so that every
        # reduction runs along the cells
        nc, nm, d = coeffs.shape
        vals = (self.op.basis_int
                @ coeffs.transpose(1, 2, 0).reshape(nm, d * nc))
        vals = vals.reshape(-1, d, nc)
        vals -= ubar[:, None]
        mdev = None
        mom = self.op.model.momentum_components
        if mom:
            m1, m2 = vals[:, mom[0]], vals[:, mom[1]]
            mdev = float(np.sqrt((m1 * m1 + m2 * m2).max()))
        dev = np.abs(vals, out=vals).max(axis=2).max(axis=0)
        return ubar, dev, mdev

    # -- jump assembly ------------------------------------------------------

    def _endpoint_pass(self, coeffs, t):
        """Jumps of every derivative order and the states at edge endpoints.

        Returns J (ne, 2, n_derivs, d) indexed by (edge, endpoint, stacked
        alpha, component), and the two-sided point values u (2, ne, 2, d):
        side 0 the left cell's, side 1 the right cell's or the ghost. 'copy'
        boundary edges have zero jumps.
        """
        op = self.op
        nc, d = len(coeffs), coeffs.shape[2]
        V = op.vertex_jets(coeffs).reshape(3 * nc, op.n_derivs, d)
        W = np.take(V, op.endpoint_sides, axis=0)                # (2,ne,2,R,d)
        J = W[0] - W[1]
        u = W[:, :, :, 0, :]
        bi = op.boundary_ids
        if len(bi):
            u[1, bi] = op.boundary_ghost_values(
                u[0, bi], op.bnd_endpoints, op.bnd_endpoint_normals, t)
            sid = self.state_ids
            J[sid] = W[0, sid]
            J[sid, :, 0, :] -= u[1, sid]
        return J, u

    def _edge_measures(self, coeffs, J, rotated):
        """sqrt(S^j) over the global deviation, per edge: (ne, d, k+1).

        S^j is the trapezoidal endpoint sum of the binom-weighted squared
        order-j jumps. rotated: the momentum entries become the larger of the
        normal and tangential momentum measures over the momentum-magnitude
        deviation.
        """
        ne, _, R, d = J.shape
        # squared jumps as (edge, component, endpoint, alpha) rows of the GEMM
        sq = J.transpose(0, 3, 1, 2).copy()                      # (ne,d,2,R)
        if rotated:
            # the momentum rows carry the normal and tangential jumps; their
            # component-wise measures would be overwritten by dhat below
            m1, m2 = J[..., self.mom[0]], J[..., self.mom[1]]    # (ne,2,R)
            nrm = self.op.edge_normal[:, None, None, :]
            n1, n2 = nrm[..., 0], nrm[..., 1]
            sq[:, self.mom[0]] = n1 * m1 + n2 * m2
            sq[:, self.mom[1]] = -n2 * m1 + n1 * m2
        np.square(sq, out=sq)
        S = sq.reshape(ne * d, 2 * R) @ self.weights
        root = np.sqrt(S).reshape(ne, d, self.k + 1)

        ubar, dev, mdev = self.global_deviation(coeffs)
        # component guard: quiescent components are not damped
        active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
        inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
        G = root * inv_dev[None, :, None]
        if rotated:
            mom = self.mom
            dhat = 0.0
            if mdev > EPS_DEVIATION * max(
                    1.0, float(np.hypot(ubar[mom[0]], ubar[mom[1]]))):
                dhat = (np.maximum(root[:, mom[0]], root[:, mom[1]])
                        / mdev)[:, None, :]
            G[:, mom, :] = dhat
        return G

    def _edge_jumps(self, coeffs, t):
        """Derivative jumps at edge endpoints for j = 0..k.

        Returns a list; element j has shape (ne, 2, j+1, d) indexed by
        (edge, endpoint, alpha, component). 'copy' boundary edges are zero.
        """
        J = self._endpoint_pass(coeffs, t)[0]
        return [J[:, :, rows, :] for rows in self.op.deriv_rows]

    def _edge_wavespeed(self, coeffs, t):
        """beta per edge: max wavespeed over the two endpoints and both sides."""
        return self._beta(self._endpoint_pass(coeffs, t)[1])

    def _beta(self, u):
        """Max wavespeed per edge of the two-sided endpoint values u."""
        n = self.op.edge_normal[:, None, :]
        speed = (self.op.model.wavespeed_clamped if self.guard_wavespeed
                 else self.op.model.wavespeed)
        s = speed(u, n)                                          # (2, ne, 2)
        s = np.maximum(s[0], s[1])
        return np.maximum(s[:, 0], s[:, 1])

    def jump_measures(self, coeffs, t=0.0):
        """Dimensionless jump measures delta[cell, edge, j, component].

        Component-wise definition; the rotation-equivariant variant replaces
        the momentum entries inside damping_exponents.
        """
        J = self._endpoint_pass(coeffs, t)[0]
        G = self._edge_measures(coeffs, J, rotated=False)
        mesh = self.op.mesh
        Ah = mesh.height[:, :, None] * self.A_h
        return np.einsum("cej,cedj->cejd", Ah,
                         np.take(G, mesh.cell_edges, axis=0))

    def edge_wavespeeds(self, coeffs, t=0.0):
        """Local wavespeed estimate beta per edge (max over endpoints/sides)."""
        return self._edge_wavespeed(coeffs, t)

    # -- damping ------------------------------------------------------------

    def damping_exponents(self, coeffs, dt, t=0.0):
        """Exponents X[c, m-1, d] = dt * sum_{j<=m} sigma_K^j for m = 1..k.

        sigma_K^j = sum over the cell's edges of beta / h * delta^j, with
        delta^j = A^{k,j} h^j sqrt(S^j) / deviation.
        """
        J, u = self._endpoint_pass(coeffs, t)
        G = self._edge_measures(coeffs, J, rotated=bool(self.mom))
        ce = self.op.mesh.cell_edges
        w = self._beta(u)[ce][:, :, None] * self.A_h             # (nc,3,k+1)
        GG = np.take(G, ce, axis=0)                              # (nc,3,d,k+1)
        GG *= w[:, :, None, :]
        sigma = GG[:, 0] + GG[:, 1] + GG[:, 2]
        # running sum over the orders, the additions of np.cumsum in order
        X = np.empty((len(coeffs), self.k, coeffs.shape[2]))
        acc = sigma[:, :, 0]
        for m in range(1, self.k + 1):
            acc = acc + sigma[:, :, m]
            X[:, m - 1] = acc
        return dt * X

    def apply(self, state, dt, t=None):
        """Damp high-order modal blocks; the cell averages are untouched."""
        if dt < 0:
            raise ConfigError("dt must be non-negative")
        t = state.t if t is None else t
        X = self.damping_exponents(state.coeffs, dt, t)
        # one factor per degree, 1.0 for the cell average, spread to modes
        nc, _, d = state.coeffs.shape
        scale = np.empty((nc, self.k + 1, d))
        scale[:, 0] = 1.0
        np.exp(-X, out=scale[:, 1:])
        coeffs = state.coeffs * np.take(scale, self.mode_degree, axis=1)
        return ModalState(state.k, coeffs, state.t)
