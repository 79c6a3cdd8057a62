import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridg import bp
from tridg.dg import ModalState, SpatialOperator
from tridg.errors import AdmissibilityError, ConfigError
from tridg.harness import random_triangle_lengths
from tridg.mesh import generate_structured
from tridg.physics import Advection, Euler

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
RIGHT_ISO = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])  # hypotenuse 1
TRI_345 = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


def check_feasible(dec, k):
    # (i) exact on monomials, (ii) positive weights summing to one,
    # (iii) nodes inside the closed cell
    for a in range(k + 1):
        for b in range(k + 1 - a):
            r = bp.decomposition_residual(dec, (a, b))
            assert abs(r) <= 1e-12 * max(1.0, abs(r) + 1.0), (a, b, r)
    total = dec.edge_weights.sum() + sum(w for _, w in dec.nodes)
    assert total == pytest.approx(1.0, abs=1e-13)
    assert np.all(dec.edge_weights > 0)
    for bary, w in dec.nodes:
        assert w > 0
        assert np.all(np.asarray(bary) >= -1e-13)
        assert np.all(np.asarray(bary) <= 1 + 1e-13)


def test_equilateral_p1():
    dec = bp.decomposition(EQUILATERAL, 1)
    assert np.allclose(dec.edge_weights, 1 / 3, atol=1e-12)
    assert dec.nodes == []
    assert dec.zero_internal_mass
    assert dec.cfl == pytest.approx(1 / 3, abs=1e-12)
    check_feasible(dec, 1)


def test_right_isosceles_p1():
    dec = bp.decomposition(RIGHT_ISO, 1)
    assert dec.cfl == pytest.approx(0.3905, abs=1e-4)
    assert len(dec.nodes) == 1
    check_feasible(dec, 1)


def test_345_p1_exact_on_linears():
    dec = bp.decomposition(TRI_345, 1)
    check_feasible(dec, 1)


def test_equilateral_p2():
    dec = bp.decomposition(EQUILATERAL, 2)
    assert dec.cfl == pytest.approx(1 / 6, abs=1e-12)
    # the two raw nodes coincide at one interior point (the centroid)
    assert len(dec.raw_nodes) == 2
    assert len(dec.nodes) == 1
    node = dec.nodes[0][0] @ dec.vertices
    assert np.allclose(node, EQUILATERAL.mean(axis=0), atol=1e-12)
    check_feasible(dec, 2)


def test_right_isosceles_p2():
    dec = bp.decomposition(RIGHT_ISO, 2)
    want = 2 / (3 * math.sqrt(2) + math.sqrt(15 - 6 * math.sqrt(2)) + 3)
    assert dec.cfl == pytest.approx(want, rel=1e-12)
    assert dec.cfl == pytest.approx(0.2042, abs=1e-4)
    assert len(dec.nodes) == 2
    check_feasible(dec, 2)


def test_classical_and_chen_shu_values():
    eq = np.ones(3)
    assert bp.classical_cfl(eq, 1) == pytest.approx(1 / 9)
    assert bp.classical_cfl(eq, 2) == pytest.approx(1 / 27)
    assert bp.chen_shu_cfl(eq, 1) == pytest.approx(1 / 6)
    ri = np.array([1.0, math.sqrt(2) / 2, math.sqrt(2) / 2])
    assert bp.classical_cfl(ri, 1) == pytest.approx(1 / (3 * (1 + math.sqrt(2))))
    assert bp.classical_cfl(ri, 1) == pytest.approx(0.1381, abs=1e-4)
    assert bp.classical_cfl(ri, 2) == pytest.approx(0.0460, abs=1e-4)
    assert bp.optimal_cfl(eq, 2) / bp.classical_cfl(eq, 2) == pytest.approx(4.5)
    with pytest.raises(ConfigError):
        bp.classical_cfl(eq, 3)


def random_triangle_vertices(rng, n):
    v = rng.random((n, 3, 2)) * 2 - 1
    areas = 0.5 * ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                   - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
    flip = areas < 0
    v[flip] = v[flip][:, [0, 2, 1]]
    keep = np.abs(areas) > 1e-3
    return v[keep]


@pytest.mark.parametrize("k", [1, 2])
def test_feasibility_random_sample(k):
    rng = np.random.default_rng(11)
    for v in random_triangle_vertices(rng, 300):
        dec = bp.decomposition(v, k)
        check_feasible(dec, k)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 1.5))
def test_feasibility_property(bx, cx, cy):
    v = np.array([[0.0, 0.0], [bx, 0.0], [cx, cy]])
    area = 0.5 * bx * cy
    if area < 1e-4:
        return
    for k in (1, 2):
        check_feasible(bp.decomposition(v, k), k)


def test_p1_node_on_shortest_edge():
    rng = np.random.default_rng(5)
    for v in random_triangle_vertices(rng, 200):
        dec = bp.decomposition(v, 1)
        for bary, _ in dec.nodes:
            assert abs(bary[2]) <= 1e-13  # on edge e^(3), opposite v^(3)


def test_needle_triangles_within_ratio_bounds():
    # aspect ratio ~1e3 needles
    needles = np.array([[1.0, 0.999, 1e-3], [1.0, 1.0, 1.3e-3],
                        [2.0, 1.999, 2e-3]])
    needles = -np.sort(-needles, axis=1)
    for k in (1, 2):
        r = bp.optimal_cfl(needles, k) / bp.classical_cfl(needles, k)
        if k == 1:
            assert np.all(r >= 2 - 1e-9) and np.all(r <= 3 + 1e-9)
        else:
            assert np.all(r >= 3.8038 - 1e-4) and np.all(r <= 4.5 + 1e-9)
        rc = bp.optimal_cfl(needles, k) / bp.chen_shu_cfl(needles, k)
        if k == 2:
            assert np.all(rc >= 1 - 1e-9) and np.all(rc <= 1.4202 + 1e-4)


def test_bp_timestep():
    mesh = generate_structured((0, 0, 1, 1), 1, 1, diagonal="uniform")
    # single-cell formula check on an equilateral cell
    eq = EQUILATERAL.copy()
    from tridg.mesh import build_mesh
    m1 = build_mesh(eq, [(0, 1, 2)],
                    [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])
    dt = bp.bp_timestep(m1, alpha=1.0, c_ssp=1.0, scheme="dcw", k=1)
    assert dt == pytest.approx((1 / 3) * (math.sqrt(3) / 4), rel=1e-12)
    # optimal vs classical ratio within [2, 3] for k=1 on any mesh
    dt_opt = bp.bp_timestep(mesh, 1.0, 1.0, "dcw", 1)
    dt_cls = bp.bp_timestep(mesh, 1.0, 1.0, "zxs", 1)
    assert 2 - 1e-12 <= dt_opt / dt_cls <= 3 + 1e-12
    with pytest.raises(ConfigError):
        bp.bp_timestep(mesh, 0.0, 1.0, "dcw", 1)


def test_generic_timestep():
    m = generate_structured((0, 0, 1, 1), 2, 2, diagonal="uniform")
    dt = bp.generic_timestep(m, alpha=2.0, c_ssp=1.0, k=1)
    want = 0.5 * np.min(m.area / (3 * m.edge_len.sum(axis=1)))
    assert dt == pytest.approx(want, rel=1e-14)


# --- limiter ----------------------------------------------------------------

def euler_op(k=1, n=4):
    mesh = generate_structured((0, 0, 1, 1), n, n)
    return SpatialOperator(mesh, Euler(), k)


def test_limiter_identity_on_safe_state(rng):
    op = euler_op(k=1)
    lim = bp.BPLimiter(op, "dcw")
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 4))
    coeffs[:, 0] = Euler().from_primitive(1.0, 0.1, -0.2, 1.0)
    coeffs[:, 1:] = 0.01 * rng.standard_normal(coeffs[:, 1:].shape)
    st = ModalState(1, coeffs)
    out = lim.apply(st)
    assert np.allclose(out.coeffs, st.coeffs, atol=0)
    assert lim.violations == 0


def test_limiter_enforces_density_floor():
    op = euler_op(k=1)
    model = Euler()
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 4))
    coeffs[:, 0] = model.from_primitive(1.0, 0.0, 0.0, 1.0)
    # steep density gradient: goes to -0.1 at a vertex somewhere
    coeffs[0, 1, 0] = 1.0
    st = ModalState(1, coeffs)
    lim = bp.BPLimiter(op, "dcw")
    out = lim.apply(st)
    # averages untouched
    assert np.array_equal(out.coeffs[:, 0, :], st.coeffs[:, 0, :])
    # all check-node densities now >= eps1
    tr = op.traces(out.coeffs)[..., 0]
    vv = op.vertex_values(out.coeffs)[..., 0]
    vsel = np.take_along_axis(vv, op.mesh.sort_order[:, :2], axis=1)
    eps1 = min(1.0, lim.EPS)
    assert tr.min() >= eps1 - 1e-15
    assert vsel.min() >= eps1 - 1e-15
    assert lim.violations >= 1


@pytest.mark.parametrize("k,scheme", [(1, "dcw"), (2, "dcw"), (1, "zxs"),
                                      (2, "zxs")])
def test_limiter_idempotent(k, scheme, rng):
    op = euler_op(k=k)
    model = Euler()
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 4))
    coeffs[:, 0] = model.from_primitive(1.0, 0.3, -0.1, 0.7)
    coeffs[:, 1:] = 0.8 * rng.standard_normal(coeffs[:, 1:].shape)
    st = ModalState(k, coeffs)
    lim = bp.BPLimiter(op, scheme)
    once = lim.apply(st)
    twice = lim.apply(once)
    assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-14


def test_limiter_rejects_inadmissible_average():
    op = euler_op(k=1)
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 4))
    coeffs[:, 0] = Euler().from_primitive(1.0, 0.0, 0.0, 1.0)
    coeffs[3, 0] = [-1.0, 0.0, 0.0, 1.0]
    with pytest.raises(AdmissibilityError) as e:
        bp.BPLimiter(op, "dcw").apply(ModalState(1, coeffs))
    assert e.value.cell == 3


def test_scalar_limiter_clamps_to_bounds(rng):
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 2)
    lim = bp.BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    coeffs = np.zeros((mesh.n_cells, op.nm, 1))
    coeffs[:, 0, 0] = rng.uniform(0.2, 0.8, mesh.n_cells)
    coeffs[:, 1:, 0] = rng.standard_normal((mesh.n_cells, op.nm - 1))
    out = lim.apply(ModalState(2, coeffs))
    tr = op.traces(out.coeffs)[..., 0]
    assert tr.min() >= -1e-12 and tr.max() <= 1 + 1e-12
    star = lim._star(tr, out.coeffs[:, 0, 0])
    assert star.min() >= -1e-12 and star.max() <= 1 + 1e-12
    assert np.array_equal(out.coeffs[:, 0, :], coeffs[:, 0, :])


def test_scalar_limiter_requires_bounds():
    mesh = generate_structured((0, 0, 1, 1), 2, 2)
    op = SpatialOperator(mesh, Advection(), 1)
    with pytest.raises(ConfigError):
        bp.BPLimiter(op, "dcw")


def test_limiter_rejects_unsupported_degree():
    mesh = generate_structured((0, 0, 1, 1), 2, 2)
    op = SpatialOperator(mesh, Advection(), 3)
    with pytest.raises(ConfigError):
        bp.BPLimiter(op, "dcw", bounds=(0, 1))


def test_seeded_ensemble_matches_acceptance_shape():
    lengths = random_triangle_lengths(500, seed=3)
    assert lengths.shape == (500, 3)
    assert np.all(lengths[:, 0] >= lengths[:, 1])
    assert np.all(lengths[:, 1] >= lengths[:, 2])
    # triangle inequality holds for real triangles
    assert np.all(lengths[:, 0] <= lengths[:, 1] + lengths[:, 2] + 1e-12)


def test_scaled_euler_keeps_positivity_paths():
    # dispatch follows the model's capability, not its name string
    from tridg.physics import ScaledModel
    mesh = generate_structured((0, 0, 1, 1), 4, 4)
    plain = SpatialOperator(mesh, Euler(), 1)
    scaled = SpatialOperator(mesh, ScaledModel(Euler(), 2.0), 1)
    coeffs = np.zeros((mesh.n_cells, plain.nm, 4))
    coeffs[:, 0] = Euler().from_primitive(1.0, 0.0, 0.0, 1.0)
    coeffs[0, 1, 0] = 1.0                      # negative density at a node
    st = ModalState(1, coeffs)
    # BP: positivity limiting without scalar bounds, same result as Euler
    out = bp.BPLimiter(scaled, "dcw").apply(st)
    assert np.array_equal(out.coeffs, bp.BPLimiter(plain, "dcw").apply(st).coeffs)
    assert not np.array_equal(out.coeffs, coeffs)
    # residual: the trace admissibility check still runs
    with pytest.raises(AdmissibilityError, match="inadmissible trace"):
        scaled.residual(coeffs, 1.0)
    assert np.array_equal(scaled.residual(out.coeffs, 1.0),
                          2.0 * plain.residual(out.coeffs, 0.5))
