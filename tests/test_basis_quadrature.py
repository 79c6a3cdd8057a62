from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from tridg import basis, quadrature
from tridg.mesh import build_mesh


def ref_monomial_integral(p, q, exact=False):
    """Integral of xi^p eta^q over the reference triangle: p! q! / (p+q+2)!."""
    v = Fraction(factorial(p) * factorial(q), factorial(p + q + 2))
    return v if exact else float(v)


def oracle_integral_of_product(ca, cb):
    """Exact reference-triangle integral of a product of coefficient tables."""
    total = Fraction(0)
    for (p1, q1), v1 in ca.items():
        for (p2, q2), v2 in cb.items():
            total += Fraction(int(v1) * int(v2)) * ref_monomial_integral(
                p1 + p2, q1 + q2, exact=True)
    return total


def coeff_dict(l):
    c = basis._DENSE[l]
    return {(p, q): c[p, q] for p in range(5) for q in range(5) if c[p, q]}


def test_mode_counts():
    assert [basis.n_modes(k) for k in range(1, 5)] == [3, 6, 10, 15]
    assert list(basis.MODE_DEGREE) == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3,
                                       4, 4, 4, 4, 4]


def test_degree_blocks_cover_modes():
    # P^k holds the modes of degree <= k, degree m owning m + 1 of them in a
    # row: the table the OE filter spreads its per-degree factors with
    for k in range(1, 5):
        assert list(basis.MODE_DEGREE[:basis.n_modes(k)]) == list(
            np.repeat(np.arange(k + 1), np.arange(1, k + 2)))


def test_mode_zero_is_one():
    pts = np.random.default_rng(0).random((20, 2)) * 0.5
    vals = basis.eval_modes(4, pts)
    assert np.allclose(vals[:, 0], 1.0)


def test_printed_values():
    # Psi1 = 4 xi + 2 eta - 2 at the origin
    assert basis.eval_modes(1, [0.0, 0.0])[0, 1] == pytest.approx(-2.0)
    # gradient of Psi2 = 3 eta - 1 is (0, 3) everywhere
    gx, gy = basis.eval_grad(2, [0.37, 0.11])[0, 2]
    assert (gx, gy) == (pytest.approx(0.0, abs=1e-14), pytest.approx(3.0))


def test_orthogonality_against_oracle():
    for a in range(15):
        for b in range(a):
            v = oracle_integral_of_product(coeff_dict(a), coeff_dict(b))
            assert abs(float(v)) <= 1e-12, (a, b)


def test_reference_norms_match_oracle():
    for l in range(15):
        v = oracle_integral_of_product(coeff_dict(l), coeff_dict(l))
        assert basis.REF_NORMS[l] == float(v), l


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    pts = rng.random((100, 2))
    pts = pts[pts.sum(axis=1) < 1.0][:50]
    h = 1e-6
    g = basis.eval_grad(4, pts)
    gx_fd = (basis.eval_modes(4, pts + [h, 0]) - basis.eval_modes(4, pts - [h, 0])) / (2 * h)
    gy_fd = (basis.eval_modes(4, pts + [0, h]) - basis.eval_modes(4, pts - [0, h])) / (2 * h)
    scale = np.abs(g).max()
    assert np.abs(g[..., 0] - gx_fd).max() <= 1e-6 * max(1, scale)
    assert np.abs(g[..., 1] - gy_fd).max() <= 1e-6 * max(1, scale)


def quad_monomial(bary, w, p, q):
    # quadrature value of the mean of xi^p eta^q (weights sum to 1)
    xi, eta = bary[:, 1], bary[:, 2]
    return float(np.sum(w * xi ** p * eta ** q))


@pytest.mark.parametrize("k,npts,precision", [(1, 3, 2), (2, 6, 4),
                                              (3, 12, 6), (4, 25, 8)])
def test_interior_rules_exact(k, npts, precision):
    bary, w = quadrature.interior_rule(k)
    assert len(w) == npts
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(bary > 0) and np.all(bary < 1)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-14)
    for p in range(precision + 1):
        for q in range(precision + 1 - p):
            want = 2.0 * ref_monomial_integral(p, q)  # mean value
            got = quad_monomial(bary, w, p, q)
            assert got == pytest.approx(want, abs=1e-12), (p, q)


def test_three_point_rule_values():
    bary, w = quadrature.interior_rule(1)
    assert np.allclose(sorted(bary[0]), [1 / 6, 1 / 6, 2 / 3])
    assert np.allclose(w, 1 / 3)


def test_six_point_rule_weights():
    _, w = quadrature.interior_rule(2)
    assert np.count_nonzero(np.isclose(w, 0.223381589678010)) == 3


def test_twelve_point_rule_degree_six():
    bary, w = quadrature.interior_rule(3)
    got = quad_monomial(bary, w, 3, 3)
    assert got == pytest.approx(2 * ref_monomial_integral(3, 3),
                                abs=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_edge_rule_exactness(q):
    t, w = quadrature.edge_rule(q)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    for deg in range(2 * q):
        exact = 1.0 / (deg + 1)  # mean of t^deg on [0,1]
        assert np.sum(w * t ** deg) == pytest.approx(exact, abs=1e-13)


def leggauss_01(q):
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def collapsed_rule_leggauss(n):
    # reference: the collapsed rule built on leggauss nodes and weights
    t, wt = leggauss_01(n)
    U, V = np.meshgrid(t, t, indexing="ij")
    WU, WV = np.meshgrid(wt, wt, indexing="ij")
    xi = U.ravel()
    eta = (V * (1.0 - U)).ravel()
    wts = (WU * WV * (1.0 - U)).ravel()
    wts = wts / wts.sum()
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return bary, wts


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_edge_rule_table_is_leggauss(q):
    assert_same_bits(quadrature.edge_rule(q), leggauss_01(q))


def test_collapsed_rule_table_is_leggauss():
    assert_same_bits(quadrature.interior_rule(4), collapsed_rule_leggauss(5))


@pytest.mark.parametrize("q", [0, 6])
def test_edge_rule_outside_table_raises(q):
    with pytest.raises(ValueError, match="no edge rule"):
        quadrature.edge_rule(q)


def test_edge_rule_small_cases():
    t1, w1 = quadrature.edge_rule(1)
    assert t1 == pytest.approx([0.5]) and w1 == pytest.approx([1.0])
    t2, _ = quadrature.edge_rule(2)
    assert sorted(t2) == pytest.approx([0.5 - 1 / (2 * np.sqrt(3)),
                                        0.5 + 1 / (2 * np.sqrt(3))])


def test_edge_nodes_on_physical_edge():
    # gauss-2 nodes on the segment (0,0)-(1,0)
    t, w = quadrature.edge_rule(2)
    pts = np.array([[0.0, 0.0]]) + t[:, None] * np.array([[1.0, 0.0]])
    assert sorted(pts[:, 0]) == pytest.approx(
        [0.5 - 1 / (2 * np.sqrt(3)), 0.5 + 1 / (2 * np.sqrt(3))])
    assert np.all(pts[:, 1] == 0)
    # mean of x on a random segment equals the midpoint value for linear x
    rng = np.random.default_rng(5)
    a, b = rng.random(2), rng.random(2)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    assert np.sum(w * pts[:, 0]) == pytest.approx((a[0] + b[0]) / 2, abs=1e-14)


def test_cell_mass():
    tri = build_mesh([(0, 0), (2, 0), (0, 3)], [(0, 1, 2)],
                     [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])
    # integral of Psi_l^2 over the cell: |det J| = 2|K| times the reference
    # norm, the mass the residual divides by
    a = 2.0 * tri.area[0] * basis.REF_NORMS[:basis.n_modes(2)]
    assert a[0] == pytest.approx(tri.area[0], rel=1e-14)      # Psi0 = 1
    assert a[2] == pytest.approx(tri.area[0] / 2, rel=1e-14)  # (3 eta - 1)^2
    assert np.all(a > 0)


def test_physical_derivative_transform_first_order():
    rng = np.random.default_rng(9)
    jac = rng.standard_normal((4, 2, 2)) + 2 * np.eye(2)
    jinv = np.linalg.inv(jac)
    T = basis.physical_derivative_transform(jinv, 1)
    # ridx is the eta-order: ridx 0 -> d/dxi, ridx 1 -> d/deta
    for c in range(4):
        assert T[c, 0, 0] == pytest.approx(jinv[c, 0, 0])  # dxi/dx
        assert T[c, 0, 1] == pytest.approx(jinv[c, 1, 0])  # deta/dx
        assert T[c, 1, 0] == pytest.approx(jinv[c, 0, 1])  # dxi/dy
        assert T[c, 1, 1] == pytest.approx(jinv[c, 1, 1])  # deta/dy


def test_physical_derivative_transform_second_order():
    # verify d2/dx2 of a known quadratic through the transform
    jac = np.array([[[2.0, 0.5], [0.3, 1.5]]])
    jinv = np.linalg.inv(jac)
    T = basis.physical_derivative_transform(jinv, 2)
    # field u(xiєta) = xi^2: ref derivs (d2xi, dxideta, d2eta) = (2, 0, 0)
    ref = np.array([2.0, 0.0, 0.0])  # ridx = eta-order: (r=2,s=0) at ridx 0
    # our ridx convention: index = eta order; (2,0) -> ridx 0
    dxx = T[0, 0] @ ref
    # analytic: xi = jinv[0,0] x + jinv[0,1] y + const: d2(xi^2)/dx2 = 2 (dxi/dx)^2
    assert dxx == pytest.approx(2 * jinv[0, 0, 0] ** 2, rel=1e-13)
