"""Bound preservation: convex decompositions, BP CFL numbers, and the limiter.

A convex decomposition rewrites the cell average as a positive combination of
edge-Gauss line averages and internal point values; its edge weights determine
the largest provably bound-preserving CFL number C_BP = min_i w_i / l^(i).
Edge lengths are always taken in the sorted order l1 >= l2 >= l3, with the
vertex v^(i) opposite edge i carried along.
"""

from math import sqrt

import numpy as np

from .dg import ModalState, component_major, modal_view
from .errors import AdmissibilityError, ConfigError

SCHEMES = ("dcw", "zxs")
NODE_MERGE_TOL = 1e-12

_S3 = sqrt(3.0)

# c_{s,i} coefficient rows (s=1,2; i=1..3) as combinations of (l1, l2, l3):
# value = row0 @ l + sqrt(3) * row1 @ l
_C_COEF = np.array([
    [[3, 3, 0], [0, 1, -1]],
    [[0, 6, 0], [-1, 0, 1]],
    [[0, 3, 3], [1, -1, 0]],
    [[3, 3, 0], [0, -1, 1]],
    [[0, 6, 0], [1, 0, -1]],
    [[0, 3, 3], [-1, 1, 0]],
], dtype=float).reshape(2, 3, 2, 3)

_M = np.array([
    # M_{1,1}, M_{1,2}, M_{1,3}
    [[[6, 1, -2], [1, 2 * _S3 + 6, -_S3 - 2], [-2, -_S3 - 2, 6]],
     [[6, -_S3 - 2, -2], [-_S3 - 2, 12, _S3 - 2], [-2, _S3 - 2, 6]],
     [[6, _S3 - 2, -2], [_S3 - 2, 6 - 2 * _S3, 1], [-2, 1, 6]]],
    # M_{2,1}, M_{2,2}, M_{2,3}
    [[[6, 1, -2], [1, 6 - 2 * _S3, _S3 - 2], [-2, _S3 - 2, 6]],
     [[6, _S3 - 2, -2], [_S3 - 2, 12, -_S3 - 2], [-2, -_S3 - 2, 6]],
     [[6, -_S3 - 2, -2], [-_S3 - 2, 2 * _S3 + 6, 1], [-2, 1, 6]]],
])  # (2, 3, 3, 3)


def p2_shape_length(l):
    """Root-mean-square edge combination entering the P2 weights.

    l: (..., 3) sorted edge lengths. Equals the common edge length on
    equilateral cells.
    """
    l = np.asarray(l, dtype=float)
    sq = (l ** 2).sum(axis=-1)
    cross = l[..., 0] * l[..., 1] + l[..., 1] * l[..., 2] + l[..., 2] * l[..., 0]
    return np.sqrt(sq - (2.0 / 3.0) * cross)


def optimal_p1_weights(l):
    """Edge weights, internal-node weight and barycentric coordinates, P1.

    l: (..., 3) sorted descending. Returns (w (...,3), omega (...,),
    bary (...,3)) where bary is w.r.t. the sorted vertices (v_i opposite edge
    i); the third barycentric coordinate is identically zero, i.e. the node
    lies on the shortest edge. omega == 0 on equilateral cells (no node).
    """
    l = np.asarray(l, dtype=float)
    s12 = l[..., 0] + l[..., 1]
    w = 2.0 * l / (3.0 * s12[..., None])
    num = s12 - 2.0 * l[..., 2]
    omega = num / (3.0 * s12)
    safe = np.where(num > 0, num, 1.0)
    bary = np.zeros(l.shape)
    bary[..., 0] = np.where(num > 0, (l[..., 0] - l[..., 2]) / safe, 0.0)
    bary[..., 1] = np.where(num > 0, (l[..., 1] - l[..., 2]) / safe, 0.0)
    return w, omega, bary


def optimal_p2_weights(l):
    """Edge weights and the two internal nodes, P2.

    Returns (w (...,3), omega (...,) weight of each node, bary (...,2,3)).
    """
    l = np.asarray(l, dtype=float)
    lbar = l.mean(axis=-1)
    lhat = p2_shape_length(l)
    w = 2.0 * l / (9.0 * lbar + 3.0 * lhat)[..., None]
    omega = (lbar + lhat) / (6.0 * lbar + 2.0 * lhat)
    quad = np.einsum("...i,srij,...j->...sr", l, _M, l)     # (...,2,3)
    cpart = (np.einsum("srkj,...j->...srk", _C_COEF, l))
    c = cpart[..., 0] + _S3 * cpart[..., 1]                  # (...,2,3)
    denom = 18.0 * (lbar + lhat) * (l[..., 1] + lhat)
    bary = (quad + 2.0 * c * lhat[..., None, None]) / denom[..., None, None]
    return w, omega, bary


def optimal_cfl(l, k):
    """C_BP of the optimal decomposition: min_i w_i / l^(i)."""
    l = np.asarray(l, dtype=float)
    if k == 1:
        return 2.0 / (3.0 * (l[..., 0] + l[..., 1]))
    if k == 2:
        return 2.0 / (9.0 * l.mean(axis=-1) + 3.0 * p2_shape_length(l))
    raise ConfigError(f"optimal decomposition is defined for k in (1, 2), got {k}")


def classical_cfl(l, k):
    """BP CFL number of the classical decomposition: 1/(9 lbar), 1/(27 lbar)."""
    lbar = np.asarray(l, dtype=float).mean(axis=-1)
    if k == 1:
        return 1.0 / (9.0 * lbar)
    if k == 2:
        return 1.0 / (27.0 * lbar)
    raise ConfigError(f"classical CFL is defined for k in (1, 2), got {k}")


def chen_shu_cfl(l, k):
    """Comparison CFL number 1/(6 l^(1)) (same for k = 1, 2)."""
    if k not in (1, 2):
        raise ConfigError(f"Chen-Shu CFL is defined for k in (1, 2), got {k}")
    return 1.0 / (6.0 * np.asarray(l, dtype=float)[..., 0])


def cfl_number(l, k, scheme):
    if scheme == "dcw":
        return optimal_cfl(l, k)
    if scheme == "zxs":
        return classical_cfl(l, k)
    raise ConfigError(f"unknown decomposition scheme {scheme!r}")


# ---------------------------------------------------------------------------
# single-cell decomposition object (CLI / inspection / feasibility tests)
# ---------------------------------------------------------------------------

class ConvexDecomposition:
    """Decomposition of one triangular cell's average.

    Edge weights are indexed in the sorted-edge order. `nodes` holds
    (barycentric coordinates w.r.t. sorted vertices, weight) pairs after
    merging coincident nodes; `raw_nodes` keeps the unmerged ones for
    inspection.
    """

    def __init__(self, k, lengths, vertices, edge_weights, nodes, cfl,
                 raw_nodes):
        self.k = k
        self.lengths = lengths              # sorted descending
        self.vertices = vertices    # (3, 2), vertex i opposite sorted edge i
        self.edge_weights = edge_weights    # (3,)
        self.nodes = nodes                  # [(bary (3,), weight)]
        self.cfl = cfl
        self.raw_nodes = raw_nodes          # [(bary (3,), weight)]

    def node_points(self):
        return np.array([b @ self.vertices for b, _ in self.nodes]).reshape(-1, 2)


def sorted_cell(vertices):
    """Sort a single triangle: returns (lengths desc, vertices opposite them)."""
    v = np.asarray(vertices, dtype=float)
    lens = np.array([np.hypot(*(v[(i + 2) % 3] - v[(i + 1) % 3]))
                     for i in range(3)])
    order = np.argsort(-lens, kind="stable")
    return lens[order], v[order]


def decomposition(vertices, k):
    """Build the optimal ConvexDecomposition of one triangle given by its
    vertices.

    Weights and nodes depend on the shape alone: they are evaluated on the
    lengths over the longest one, l / l1, the node merge tolerance is
    relative to l1 and C_BP scales as 1 / l1, so any size whose vertices
    are finite gives the same decomposition.
    """
    l, v = sorted_cell(vertices)
    shape = l / l[0]
    if k == 1:
        w, omega, bary = optimal_p1_weights(shape)
        raw = [(bary, float(omega))]
        # near-equilateral cells produce a node of vanishing weight; drop it
        nodes = [] if omega <= 1e-14 else [(bary, float(omega))]
    elif k == 2:
        w, omega, bary = optimal_p2_weights(shape)
        raw = [(bary[0], float(omega)), (bary[1], float(omega))]
        if np.hypot(*((bary[0] - bary[1]) @ v)) <= NODE_MERGE_TOL * l[0]:
            nodes = [(0.5 * (bary[0] + bary[1]), 2.0 * float(omega))]
        else:
            nodes = [(bary[0], float(omega)), (bary[1], float(omega))]
    else:
        raise ConfigError(f"optimal decomposition is defined for k in (1, 2), got {k}")
    return ConvexDecomposition(
        k=k, lengths=l, vertices=v, edge_weights=w, nodes=nodes,
        cfl=float(optimal_cfl(shape, k) / l[0]), raw_nodes=raw)


def decomposition_residual(dec, ab):
    """Decomposition error for the monomial x^a y^b (analytic oracle).

    Uses closed-form segment/triangle integrals of monomials of total degree
    <= 2, independent of any quadrature used elsewhere.
    """
    a, b = ab
    v = dec.vertices
    lhs = _triangle_monomial_mean(v, a, b)
    rhs = 0.0
    for i in range(3):
        va, vb = v[(i + 1) % 3], v[(i + 2) % 3]
        rhs += dec.edge_weights[i] * _segment_monomial_mean(va, vb, a, b)
    for bary, wt in dec.nodes:
        p = bary @ v
        rhs += wt * p[0] ** a * p[1] ** b
    return lhs - rhs


def _segment_monomial_mean(va, vb, a, b):
    # (1/l) * line integral of x^a y^b over [va, vb]; exact for a+b <= 2
    x0, y0 = va
    x1, y1 = vb
    if a + b == 0:
        return 1.0
    if (a, b) == (1, 0):
        return 0.5 * (x0 + x1)
    if (a, b) == (0, 1):
        return 0.5 * (y0 + y1)
    if (a, b) == (2, 0):
        return (x0 * x0 + x0 * x1 + x1 * x1) / 3.0
    if (a, b) == (0, 2):
        return (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
    if (a, b) == (1, 1):
        return (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) / 6.0
    raise ValueError("oracle only covers total degree <= 2")


def _triangle_monomial_mean(v, a, b):
    # (1/|K|) * integral of x^a y^b; exact for a+b <= 2
    x, y = v[:, 0], v[:, 1]
    if a + b == 0:
        return 1.0
    if (a, b) == (1, 0):
        return x.mean()
    if (a, b) == (0, 1):
        return y.mean()
    if (a, b) == (2, 0):
        return ((x ** 2).sum() + x[0] * x[1] + x[1] * x[2] + x[2] * x[0]) / 6.0
    if (a, b) == (0, 2):
        return ((y ** 2).sum() + y[0] * y[1] + y[1] * y[2] + y[2] * y[0]) / 6.0
    if (a, b) == (1, 1):
        return ((2 * (x * y).sum() + x[0] * y[1] + x[1] * y[0] + x[1] * y[2]
                 + x[2] * y[1] + x[0] * y[2] + x[2] * y[0]) / 12.0)
    raise ValueError("oracle only covers total degree <= 2")


# ---------------------------------------------------------------------------
# time-step bounds
# ---------------------------------------------------------------------------

def step_factor(mesh, k, scheme=None):
    """The mesh-only factor of the time step, dt = (C_SSP / alpha) * factor.

    scheme 'dcw'/'zxs': min_K C_K |K| of that decomposition; None: the non-BP
    CFL bound min_K |K| / ((2k+1) sum_i l_i).
    """
    if scheme is None:
        return float(
            np.min(mesh.area / ((2 * k + 1) * mesh.edge_len.sum(axis=1))))
    lsorted = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
    return float(np.min(cfl_number(lsorted, k, scheme) * mesh.area))


def bp_timestep(mesh, alpha, c_ssp, scheme, k):
    """dt = (C_SSP / alpha) * step_factor(mesh, k, scheme)."""
    factor = step_factor(mesh, k, scheme)
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    return c_ssp / alpha * factor


# ---------------------------------------------------------------------------
# limiter
# ---------------------------------------------------------------------------

def _below_floor(mean, node_min, floor):
    """The cells whose node minimum is below their floor, and their
    Zhang-Shu scale factors: the largest theta in [0, 1] with
    mean + theta * (node_min - mean) >= floor. Every other cell's factor is
    1, which scales nothing. floor: per cell, or one for all. With no cell
    below its floor the factors are None."""
    cells = np.flatnonzero(node_min < floor)
    if not len(cells):
        return cells, None
    mean = mean[cells]
    theta = mean - (floor[cells] if np.ndim(floor) else floor)
    theta /= mean - node_min[cells]
    # np.clip(theta, 0, 1) bit for bit: with 0.0 first, a -0.0 stays -0.0
    np.maximum(0.0, theta, out=theta)
    return cells, np.minimum(theta, 1.0, out=theta)


class BPLimiter:
    """Two-step scaling limiter enforcing admissibility at the check nodes.

    Check nodes (`check_values`): the edge Gauss points always; for k=1 with
    the optimal decomposition also the two vertices opposite the longest
    edges; for k=2 the conserved remainder state u* of the decomposition.
    Scalar models enforce the maximum principle on a fixed interval
    `bounds`; positivity-constrained models (Euler) enforce positive density
    then positive internal energy. Cell averages are never modified.
    """

    EPS = 1e-13

    def __init__(self, op, scheme="dcw", bounds=None):
        if scheme not in SCHEMES:
            raise ConfigError(f"bp scheme {scheme!r} not in {SCHEMES}")
        if op.k not in (1, 2):
            raise ConfigError("the BP limiter supports k = 1 and 2 only")
        self.op = op
        self.k = op.k
        self.scheme = scheme    # 'dcw' | 'zxs': also the run's CFL rule
        mesh = op.mesh
        self.positivity = op.model.positivity_constrained
        if not self.positivity:
            if bounds is None:
                raise ConfigError("scalar BP limiting needs bounds=(lo, hi)")
            self.bounds = (float(bounds[0]), float(bounds[1]))

        lsorted = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
        if scheme == "dcw":
            if self.k == 1:
                w, _, _ = optimal_p1_weights(lsorted)
            else:
                w, _, _ = optimal_p2_weights(lsorted)
        else:
            # classical edge weights 2 w1_GL / 3 with L = ceil((k+3)/2)
            L = -(-(self.k + 3) // 2)
            w = np.full_like(lsorted, 2.0 / (3.0 * L * (L - 1)))
        # scatter sorted-order weights back to local edge order
        self.w_local = np.empty_like(w)
        np.put_along_axis(self.w_local, mesh.sort_order, w, axis=1)
        self.sum_w = self.w_local.sum(axis=1)
        # the vertices opposite the two longest edges, for k=1 dcw only: flat
        # indices vertex * nc + cell (2, nc) into vertex values (d, 3, nc)
        self.vertex_take = None
        if self.k == 1 and scheme == "dcw":
            nc = mesh.n_cells
            self.vertex_take = (np.ascontiguousarray(mesh.sort_order[:, :2].T)
                                * nc + np.arange(nc))

        self.violations = 0                      # cells scaled so far

    def check_values(self, coeffs):
        """Conserved state at every check node: (nc, n_nodes, d), a view.

        Nodes: the 3*Q edge Gauss points (in the cell's traversal order, as
        SpatialOperator.traces gives them), then the two vertices (k=1 dcw) or
        the remainder u* = (mean - sum_i w_i avg_i) / (1 - sum w) (k=2).
        """
        return modal_view(self._node_values(component_major(coeffs)))

    def _node_values(self, buf):
        """check_values of the buffer buf (d, nm, nc): (d, n_nodes, nc)."""
        op = self.op
        d, _, nc = buf.shape
        tr = op.at_nodes(op.ref_trace, buf)                     # (d,3Q,nc)
        vals = [tr]
        if self.vertex_take is not None:
            vv = op.at_nodes(op.vertex_basis, buf)               # (d,3,nc)
            vals.append(np.take(vv.reshape(d, -1), self.vertex_take,
                                axis=-1))
        if self.k == 2:
            avg = np.einsum("q,diqc->dic", op.edge_w,
                            tr.reshape(d, 3, op.Q, nc))
            num = buf[:, 0] - (self.w_local.T * avg).sum(axis=1)
            vals.append((num / (1.0 - self.sum_w))[:, None])
        return np.concatenate(vals, axis=1) if len(vals) > 1 else tr

    def apply(self, state):
        buf = component_major(state.coeffs, copy=True)           # (d,nm,nc)
        mean = buf[:, 0]
        model = self.op.model
        if self.positivity:
            rho_bar, e_bar = mean[0], model.internal_energy(mean.T)
            bad = (rho_bar <= 0) | (e_bar <= 0)
            msg = "inadmissible cell average (CFL violation or upstream bug)"
        else:
            lo, hi = self.bounds
            bad = (mean[0] < lo - 1e-12) | (mean[0] > hi + 1e-12)
            msg = "cell average outside the invariant interval"
        if np.any(bad):
            raise AdmissibilityError(msg, cell=int(np.argmax(bad)))
        vals = self._node_values(buf)                            # (d,n,nc)
        # only the cells below a floor are scaled: a factor of 1 scales
        # nothing, and a cell counts in violations when its factor is < 1

        if not self.positivity:
            u = vals[0]
            # the upper bound is the lower bound of -u
            cells, theta = _below_floor(mean[0], u.min(axis=0), lo)
            hi_cells, hi_theta = _below_floor(-mean[0], -u.max(axis=0), -hi)
            if len(cells) and len(hi_cells):
                # a cell outside both bounds takes the smaller factor
                full = np.ones(len(mean[0]))
                full[cells] = theta
                full[hi_cells] = np.minimum(full[hi_cells], hi_theta)
                cells = np.flatnonzero(full != 1.0)
                theta = full[cells]
            elif len(hi_cells):
                cells, theta = hi_cells, hi_theta
            if len(cells):
                buf[0][1:, cells] *= theta
                self.violations += int(np.count_nonzero(theta < 1.0))
            return ModalState(state.k, modal_view(buf), state.t)

        # step 1: density positivity
        rho = vals[0]
        cells, theta1 = _below_floor(rho_bar, rho.min(axis=0),
                                     np.minimum(rho_bar, self.EPS))
        if len(cells):
            buf[0][1:, cells] *= theta1
            # a cell below its floor may still round to theta1 = 1
            cut = theta1 < 1.0
            cells, theta1 = cells[cut], theta1[cut]
        if len(cells):
            # node values are linear in the modes: the density-fixed state
            # has rho_bar + theta1 (rho - rho_bar) at every node, u*
            # included; only scaled cells are rewritten, so the others keep
            # their exact values
            rb = rho_bar[cells]
            rho[:, cells] = rb + theta1 * (rho[:, cells] - rb)

        # step 2: internal energy positivity on the density-fixed state
        e_nodes = model.internal_energy(vals.transpose(1, 2, 0))  # (n, nc)
        cells2, theta2 = _below_floor(e_bar, e_nodes.min(axis=0),
                                      np.minimum(e_bar, self.EPS))
        if len(cells2):
            buf[:, 1:, cells2] *= theta2
            cells2 = cells2[theta2 < 1.0]
        # a cell scaled in both steps counts once
        if len(cells) and len(cells2):
            scaled = np.zeros(len(rho_bar), dtype=bool)
            scaled[cells] = scaled[cells2] = True
            self.violations += int(np.count_nonzero(scaled))
        else:
            self.violations += len(cells) + len(cells2)
        return ModalState(state.k, modal_view(buf), state.t)
