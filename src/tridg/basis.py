"""Orthogonal modal basis on the reference triangle, up to degree 4.

The reference element is T = {(xi, eta) : xi >= 0, eta >= 0, xi + eta <= 1}
with local vertices v1 -> (0,0), v2 -> (1,0), v3 -> (0,1). Each mode is stored
as an integer monomial-coefficient table c[p, q] for xi^p eta^q, which makes
exact reference integrals and arbitrary mixed derivatives cheap.
"""

from math import comb

import numpy as np

DEGREE_MAX = 4

# mode -> {(p, q): coefficient}; modes are grouped by total degree:
# 0 | 1 2 | 3 4 5 | 6 7 8 9 | 10 11 12 13 14
_COEFFS = [
    {(0, 0): 1},
    {(1, 0): 4, (0, 1): 2, (0, 0): -2},
    {(0, 1): 3, (0, 0): -1},
    {(2, 0): 24, (1, 1): 24, (0, 2): 4, (1, 0): -24, (0, 1): -8, (0, 0): 4},
    {(1, 1): 20, (0, 2): 10, (1, 0): -4, (0, 1): -12, (0, 0): 2},
    {(0, 2): 10, (0, 1): -8, (0, 0): 1},
    {(3, 0): 160, (2, 1): 240, (1, 2): 96, (0, 3): 8, (2, 0): -240,
     (1, 1): -192, (0, 2): -24, (1, 0): 96, (0, 1): 24, (0, 0): -8},
    {(2, 1): 168, (1, 2): 168, (0, 3): 28, (2, 0): -24, (1, 1): -192,
     (0, 2): -60, (1, 0): 24, (0, 1): 36, (0, 0): -4},
    {(1, 2): 84, (0, 3): 42, (1, 1): -48, (0, 2): -66, (1, 0): 4,
     (0, 1): 26, (0, 0): -2},
    {(0, 3): 35, (0, 2): -45, (0, 1): 15, (0, 0): -1},
    {(4, 0): 1120, (3, 1): 2240, (2, 2): 1440, (1, 3): 320, (0, 4): 16,
     (3, 0): -2240, (2, 1): -2880, (1, 2): -960, (0, 3): -64,
     (2, 0): 1440, (1, 1): 960, (0, 2): 96, (1, 0): -320, (0, 1): -64,
     (0, 0): 16},
    {(3, 1): 1440, (2, 2): 2160, (1, 3): 864, (0, 4): 72,
     (3, 0): -160, (2, 1): -2400, (1, 2): -1824, (0, 3): -224,
     (2, 0): 240, (1, 1): 1056, (0, 2): 240, (1, 0): -96, (0, 1): -96,
     (0, 0): 8},
    {(2, 2): 864, (1, 3): 864, (0, 4): 144, (2, 1): -384, (1, 2): -1248,
     (0, 3): -352, (2, 0): 24, (1, 1): 408, (0, 2): 276, (1, 0): -24,
     (0, 1): -72, (0, 0): 4},
    {(1, 3): 336, (0, 4): 168, (1, 2): -336, (0, 3): -336, (1, 1): 84,
     (0, 2): 210, (1, 0): -4, (0, 1): -44, (0, 0): 2},
    {(0, 4): 126, (0, 3): -224, (0, 2): 126, (0, 1): -24, (0, 0): 1},
]

# degree of each mode
MODE_DEGREE = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4])


def n_modes(k):
    """Dimension of P^k: (k+1)(k+2)/2."""
    return (k + 1) * (k + 2) // 2


def _dense(coeffs):
    c = np.zeros((DEGREE_MAX + 1, DEGREE_MAX + 1))
    for (p, q), v in coeffs.items():
        c[p, q] = v
    return c

_DENSE = np.stack([_dense(c) for c in _COEFFS])  # (15, 5, 5)

# exact reference L2 norms ||Psi_l||^2_T, the sums of c1 c2 p! q! / (p+q+2)!
# over each mode's monomial pairs; an int quotient rounds as float(Fraction)
REF_NORMS = np.array([
    1 / 2, 1 / 3, 1 / 4, 8 / 15, 2 / 9, 1 / 6, 8 / 7, 2 / 5, 1 / 6, 1 / 8,
    128 / 45, 32 / 35, 8 / 25, 2 / 15, 1 / 10,
])


def _deriv_coeffs(dense, r, s):
    # coefficient table of d^(r+s)/dxi^r deta^s applied to each mode
    c = dense
    for _ in range(r):
        c = c[:, 1:, :] * np.arange(1, c.shape[1])[None, :, None]
    for _ in range(s):
        c = c[:, :, 1:] * np.arange(1, c.shape[2])[None, None, :]
    return c


def eval_modes(k, points, r=0, s=0):
    """Values of d^r_xi d^s_eta Psi_l at reference points, shape (npts, n_modes(k)).

    Evaluation outside the reference triangle is allowed (used for ghost logic).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nm = n_modes(k)
    c = _deriv_coeffs(_DENSE[:nm], r, s)
    px = pts[:, 0][:, None] ** np.arange(c.shape[1])[None, :]
    py = pts[:, 1][:, None] ** np.arange(c.shape[2])[None, :]
    return np.einsum("lpq,np,nq->nl", c, px, py)


def eval_grad(k, points):
    """Reference gradients (d/dxi, d/deta) of all modes: (npts, n_modes, 2)."""
    gx = eval_modes(k, points, r=1, s=0)
    gy = eval_modes(k, points, r=0, s=1)
    return np.stack([gx, gy], axis=-1)


def physical_derivative_transform(jac_inv, j):
    """Per-cell matrices mapping reference to physical mixed derivatives of order j.

    Returns T of shape (..., j+1, j+1) such that
        d^(a1)_x d^(a2)_y u = sum_ridx T[..., aidx, ridx] * d^(j-ridx)_xi d^(ridx)_eta u
    where aidx indexes alpha = (j - aidx, aidx). Valid for affine cell maps.
    """
    ji = np.asarray(jac_inv, dtype=float)
    xi_x, xi_y = ji[..., 0, 0], ji[..., 0, 1]
    eta_x, eta_y = ji[..., 1, 0], ji[..., 1, 1]
    T = np.zeros(ji.shape[:-2] + (j + 1, j + 1))
    for aidx in range(j + 1):
        a1, a2 = j - aidx, aidx
        # (xi_x dxi + eta_x deta)^a1 (xi_y dxi + eta_y deta)^a2
        for a in range(a1 + 1):
            for b in range(a2 + 1):
                r = a + b              # dxi order
                ridx = j - r           # our ridx convention: eta order
                T[..., aidx, ridx] += (
                    comb(a1, a) * comb(a2, b)
                    * xi_x ** a * eta_x ** (a1 - a)
                    * xi_y ** b * eta_y ** (a2 - b)
                )
    return T
