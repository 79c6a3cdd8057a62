"""Interior and edge quadrature rules.

Interior rules are stored as barycentric node coordinates with weights that sum
to one, so `integral over K = |K| * sum_mu w_mu f(x_mu)`. Rules for degrees
1..3 are the fixed 3/6/12-point symmetric tables; degree 4 residual/projection
work uses a collapsed tensor Gauss rule that is exact through total degree 9.
Edge rules are Gauss-Legendre nodes mapped to [0, 1], weights summing to one.
"""

import numpy as np

# 3-point rule, algebraic precision 2
_RULE_3 = (
    np.array([
        [1 / 6, 1 / 6, 2 / 3],
        [1 / 6, 2 / 3, 1 / 6],
        [2 / 3, 1 / 6, 1 / 6],
    ]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
)

# 6-point rule, algebraic precision 4
_RULE_6 = (
    np.array([
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.091576213509771, 0.091576213509771, 0.816847572980458],
        [0.091576213509771, 0.816847572980458, 0.091576213509771],
        [0.816847572980458, 0.091576213509771, 0.091576213509771],
    ]),
    np.array([
        0.223381589678010, 0.223381589678010, 0.223381589678010,
        0.109951743655322, 0.109951743655322, 0.109951743655322,
    ]),
)

# 12-point rule, algebraic precision 6
_RULE_12 = (
    np.array([
        [0.063089014491502, 0.063089014491502, 0.873821971016996],
        [0.063089014491502, 0.873821971016996, 0.063089014491502],
        [0.873821971016996, 0.063089014491502, 0.063089014491502],
        [0.249286745170910, 0.249286745170910, 0.501426509658180],
        [0.249286745170910, 0.501426509658180, 0.249286745170910],
        [0.501426509658180, 0.249286745170910, 0.249286745170910],
        [0.053145049844817, 0.636502499121399, 0.310352451033784],
        [0.636502499121399, 0.053145049844817, 0.310352451033784],
        [0.053145049844817, 0.310352451033784, 0.636502499121399],
        [0.636502499121399, 0.310352451033784, 0.053145049844817],
        [0.310352451033784, 0.053145049844817, 0.636502499121399],
        [0.310352451033784, 0.636502499121399, 0.053145049844817],
    ]),
    np.array([
        0.050844906370207, 0.050844906370207, 0.050844906370207,
        0.116786275726379, 0.116786275726379, 0.116786275726379,
        0.082851075618374, 0.082851075618374, 0.082851075618374,
        0.082851075618374, 0.082851075618374, 0.082851075618374,
    ]),
)


# Gauss-Legendre rules on [0, 1] for q = 1..5 points, (nodes, weights):
# the reprs of 0.5 * (x + 1.0) and 0.5 * w for (x, w) = leggauss(q) of
# numpy 2.4.6; the tests hold them to leggauss bit for bit
_GAUSS_01 = {
    1: ((0.5,), (1.0,)),
    2: ((0.21132486540518713, 0.7886751345948129), (0.5, 0.5)),
    3: ((0.1127016653792583, 0.5, 0.8872983346207417),
        (0.27777777777777785, 0.4444444444444444, 0.27777777777777785)),
    4: ((0.06943184420297371, 0.33000947820757187, 0.6699905217924281,
         0.9305681557970262),
        (0.17392742256872679, 0.3260725774312732, 0.3260725774312732,
         0.17392742256872679)),
    5: ((0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415,
         0.9530899229693319),
        (0.11846344252809464, 0.23931433524968315, 0.28444444444444433,
         0.23931433524968315, 0.11846344252809464)),
}


def edge_rule(q):
    """Gauss nodes/weights on [0, 1] for q = 1..5 nodes; weights sum to one,
    nodes symmetric."""
    if q not in _GAUSS_01:
        raise ValueError(f"no edge rule with {q} nodes")
    t, w = _GAUSS_01[q]
    return np.array(t), np.array(w)


def _collapsed_rule(n):
    # Tensor Gauss rule on the unit square mapped by (u, v) -> (u, v(1-u)),
    # Jacobian (1-u). Exact for total degree <= 2n-2 (and more in eta alone).
    t, wt = edge_rule(n)
    U, V = np.meshgrid(t, t, indexing="ij")
    WU, WV = np.meshgrid(wt, wt, indexing="ij")
    xi = U.ravel()
    eta = (V * (1.0 - U)).ravel()
    wts = (WU * WV * (1.0 - U)).ravel()
    wts = wts / wts.sum()  # normalize to mean-value weights
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return bary, wts

_RULE_COLLAPSED_5 = _collapsed_rule(5)

def interior_rule(k):
    """(barycentric nodes (N,3), weights (N,)) with precision >= 2k for degree k."""
    if k == 1:
        return _RULE_3
    if k == 2:
        return _RULE_6
    if k == 3:
        return _RULE_12
    if k == 4:
        return _RULE_COLLAPSED_5
    raise ValueError(f"no interior rule for degree {k}")


def interior_points_ref(k):
    """Interior nodes in reference coordinates (xi, eta), with weights.

    Barycentric (b1, b2, b3) maps to (xi, eta) = (b2, b3) since the reference
    vertices are (0,0), (1,0), (0,1).
    """
    bary, w = interior_rule(k)
    return bary[:, 1:3].copy(), w
