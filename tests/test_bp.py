import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridg import bp
from tridg.dg import ModalState, SpatialOperator, component_major, modal_view
from tridg.errors import AdmissibilityError, ConfigError
from tridg.harness import random_triangle_lengths
from tridg.mesh import generate_structured, perturb
from tridg.physics import Advection, Burgers, Euler

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


@pytest.mark.parametrize("k", [1, 2])
def test_decomposition_is_scale_invariant(k):
    # weights and node count are the shape's, node points scale with the
    # triangle and C_BP with its inverse, down to 1e-150 and up to 1e200,
    # where squared lengths would underflow the merge tolerance or overflow;
    # the needle's short edge is a difference without cancellation, so
    # scaling its vertices keeps its shape to round-off
    shapes = [EQUILATERAL, RIGHT_ISO, TRI_345,
              np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-3]]),
              np.array([[0.2, -0.1], [1.3, 0.4], [-0.6, 0.9]])]
    for v in shapes:
        ref = bp.decomposition(v, k)
        size = np.abs(v).max()
        for s in (1e-150, 1e-100, 1e-30, 1e-3, 1e3, 1e100, 2e153, 1e200):
            dec = bp.decomposition(s * v, k)
            np.testing.assert_allclose(dec.edge_weights, ref.edge_weights,
                                       rtol=1e-14, atol=0)
            assert len(dec.nodes) == len(ref.nodes)
            np.testing.assert_allclose([w for _, w in dec.nodes],
                                       [w for _, w in ref.nodes],
                                       rtol=1e-14, atol=0)
            assert np.abs(dec.node_points() - s * ref.node_points()).max(
                initial=0.0) <= 1e-14 * s * size
            assert dec.cfl == pytest.approx(ref.cfl / s, rel=1e-14, abs=0)


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
    dt = bp.bp_timestep(m, alpha=2.0, c_ssp=1.0, scheme=None, k=1)
    want = 0.5 * np.min(m.area / (3 * m.edge_len.sum(axis=1)))
    assert dt == pytest.approx(want, rel=1e-14)


def test_step_factor_gives_the_timestep_bytes():
    # the per-step formulas as they were before the mesh factor was split off
    def bp_dt(mesh, alpha, c_ssp, scheme, k):
        lsorted = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
        c = bp.cfl_number(lsorted, k, scheme)
        return c_ssp / alpha * float(np.min(c * mesh.area))

    def generic_dt(mesh, alpha, c_ssp, k):
        return c_ssp / alpha * float(
            np.min(mesh.area / ((2 * k + 1) * mesh.edge_len.sum(axis=1))))

    mesh = perturb(generate_structured((0, 0, 1, 1), 6, 5), 0.3, seed=1)
    for k in (1, 2):
        for alpha in (0.37, 1.0, 13.1):
            for c_ssp in (1.0, 2.0 / 3.0):
                for scheme in ("dcw", "zxs"):
                    want = bp_dt(mesh, alpha, c_ssp, scheme, k)
                    assert bp.bp_timestep(mesh, alpha, c_ssp, scheme,
                                          k) == want
                    assert c_ssp / alpha * bp.step_factor(
                        mesh, k, scheme) == want
                want = generic_dt(mesh, alpha, c_ssp, k)
                assert bp.bp_timestep(mesh, alpha, c_ssp, None, k) == want
                assert c_ssp / alpha * bp.step_factor(mesh, k) == want


def test_step_factor_rejects_other_schemes():
    # the Chen-Shu number is a comparison in decomp and cflscan, not a step
    mesh = generate_structured((0, 0, 1, 1), 2, 2)
    with pytest.raises(ConfigError, match="unknown decomposition scheme"):
        bp.step_factor(mesh, 1, "cs")


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
    star = lim.check_values(out.coeffs)[:, -1, 0]
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


# --- limiter check nodes ------------------------------------------------------

class _ParentBPLimiter:
    """Reference: the limiter as it was before `check_values`, which gathered
    the check nodes once per step and applied the remainder formula to the
    internal energies of the P2 step 2 (an upper bound on e(u*))."""

    EPS = 1e-13

    def __init__(self, op, scheme="dcw", bounds=None):
        self.op = op
        self.k = op.k
        mesh = op.mesh
        self.positivity = op.model.positivity_constrained
        if not self.positivity:
            self.bounds = (float(bounds[0]), float(bounds[1]))
        lsorted = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
        if scheme == "dcw":
            if self.k == 1:
                w, _, _ = bp.optimal_p1_weights(lsorted)
            else:
                w, _, _ = bp.optimal_p2_weights(lsorted)
        else:
            L = -(-(self.k + 3) // 2)
            w = np.full_like(lsorted, 2.0 / (3.0 * L * (L - 1)))
        self.w_local = np.empty_like(w)
        np.put_along_axis(self.w_local, mesh.sort_order, w, axis=1)
        self.sum_w = self.w_local.sum(axis=1)
        self.use_star = self.k == 2
        self.use_vertices = self.k == 1 and scheme == "dcw"
        self.vert_ids = mesh.sort_order[:, :2]

    def _star(self, values_edge, mean):
        avg = np.einsum("q,ciq->ci", self.op.edge_w, values_edge)
        num = mean - (self.w_local * avg).sum(axis=1)
        return num / (1.0 - self.sum_w)

    def apply(self, state):
        if self.positivity:
            return self._apply_positivity(state)
        return self._apply_scalar(state)

    def _apply_scalar(self, state):
        lo, hi = self.bounds
        coeffs = state.coeffs.copy()
        mean = coeffs[:, 0, 0]
        tr = self.op.traces(coeffs)[..., 0]
        vals = [tr.reshape(len(mean), -1)]
        if self.use_vertices:
            vv = self.op.vertex_values(coeffs)[..., 0]
            vals.append(np.take_along_axis(vv, self.vert_ids, axis=1))
        if self.use_star:
            vals.append(self._star(tr, mean)[:, None])
        allv = np.concatenate(vals, axis=1)
        vmin, vmax = allv.min(axis=1), allv.max(axis=1)
        theta = np.ones(len(mean))
        low = vmin < lo
        np.divide(mean - lo, mean - vmin, out=theta, where=low)
        th_hi = np.ones(len(mean))
        high = vmax > hi
        np.divide(hi - mean, vmax - mean, out=th_hi, where=high)
        theta = np.clip(np.minimum(theta, th_hi), 0.0, 1.0)
        coeffs[:, 1:, 0] *= theta[:, None]
        return ModalState(state.k, coeffs, state.t)

    def _apply_positivity(self, state):
        model = self.op.model
        coeffs = state.coeffs.copy()
        mean = coeffs[:, 0, :]
        rho_bar = mean[:, 0]
        e_bar = model.internal_energy(mean)
        tr = self.op.traces(coeffs)
        rho_nodes = [tr[..., 0].reshape(len(rho_bar), -1)]
        if self.use_vertices:
            vv = self.op.vertex_values(coeffs)[..., 0]
            rho_nodes.append(np.take_along_axis(vv, self.vert_ids, axis=1))
        if self.use_star:
            rho_nodes.append(self._star(tr[..., 0], rho_bar)[:, None])
        rho_min = np.concatenate(rho_nodes, axis=1).min(axis=1)
        eps1 = np.minimum(rho_bar, self.EPS)
        need = rho_min < eps1
        theta1 = np.ones(len(rho_bar))
        np.divide(rho_bar - eps1, rho_bar - rho_min, out=theta1, where=need)
        theta1 = np.clip(theta1, 0.0, 1.0)
        coeffs[:, 1:, 0] *= theta1[:, None]
        tr = self.op.traces(coeffs)
        e_nodes = [model.internal_energy(tr).reshape(len(rho_bar), -1)]
        if self.use_vertices:
            ev = model.internal_energy(self.op.vertex_values(coeffs))
            e_nodes.append(np.take_along_axis(ev, self.vert_ids, axis=1))
        if self.use_star:
            e_nodes.append(self._star(model.internal_energy(tr), e_bar)[:, None])
        e_min = np.concatenate(e_nodes, axis=1).min(axis=1)
        eps2 = np.minimum(e_bar, self.EPS)
        need2 = e_min < eps2
        theta2 = np.ones(len(rho_bar))
        np.divide(e_bar - eps2, e_bar - e_min, out=theta2, where=need2)
        theta2 = np.clip(theta2, 0.0, 1.0)
        coeffs[:, 1:, :] *= theta2[:, None, None]
        return ModalState(state.k, coeffs, state.t)


def perturbed_op(model, k, seed, periodic=()):
    mesh = generate_structured((0, 0, 1, 1), 4, 4, diagonal="alternating",
                               periodic=periodic)
    return SpatialOperator(perturb(mesh, amplitude=0.3, seed=seed), model, k)


def random_euler_state(op, rng, scale):
    nc = op.mesh.n_cells
    rho = rng.uniform(0.5, 1.5, nc)
    vx, vy = rng.normal(0.0, 1.0, (2, nc))
    p = rng.uniform(0.05, 1.0, nc)
    coeffs = np.zeros((nc, op.nm, 4))
    coeffs[:, 0] = np.stack(
        [rho, rho * vx, rho * vy, p / 0.4 + 0.5 * rho * (vx ** 2 + vy ** 2)],
        axis=1)
    coeffs[:, 1:] = scale * rng.standard_normal(coeffs[:, 1:].shape)
    return coeffs


@pytest.mark.parametrize("scheme", ["dcw", "zxs"])
@pytest.mark.parametrize("k", [1, 2])
def test_scalar_limiter_matches_parent(k, scheme, rng):
    scaled = 0
    for seed in range(5):
        op = perturbed_op(Advection(), k, seed, periodic=("x", "y"))
        nc = op.mesh.n_cells
        coeffs = np.zeros((nc, op.nm, 1))
        coeffs[:, 0, 0] = rng.uniform(0.05, 0.95, nc)
        coeffs[:, 1:, 0] = 0.5 * rng.standard_normal((nc, op.nm - 1))
        st = ModalState(k, coeffs, 0.25)
        lim = bp.BPLimiter(op, scheme, bounds=(0.0, 1.0))
        out = lim.apply(st)
        ref = _ParentBPLimiter(op, scheme, bounds=(0.0, 1.0)).apply(st)
        assert np.array_equal(out.coeffs, ref.coeffs)
        assert out.t == 0.25
        scaled += lim.violations
    assert scaled > 0


@pytest.mark.parametrize("scheme", ["dcw", "zxs"])
def test_euler_p1_limiter_matches_parent(scheme, rng):
    # Step 2 sees the density-fixed nodes as rho_bar + theta1 (rho - rho_bar)
    # instead of re-evaluating the traces of the scaled modes. The two differ
    # by rounding in the cells step 1 scaled; e = E - |m|^2 / (2 rho) can
    # cancel and amplify that, so those cells get rtol 1e-12 of the cell's
    # largest high-order coefficient (5e-14 seen). Every other cell is
    # bitwise equal.
    model = Euler()
    step1_cells = 0
    for seed in range(5):
        op = perturbed_op(model, 1, seed)
        coeffs = random_euler_state(op, rng, 0.5)
        st = ModalState(1, coeffs)
        lim = bp.BPLimiter(op, scheme)
        out = lim.apply(st).coeffs
        ref = _ParentBPLimiter(op, scheme).apply(st).coeffs
        rho_bar = coeffs[:, 0, 0]
        rho_min = lim.check_values(coeffs)[..., 0].min(axis=1)
        cut = rho_min < np.minimum(rho_bar, lim.EPS)
        assert np.array_equal(out[~cut], ref[~cut])
        scale = np.abs(coeffs[cut, 1:]).max(axis=(1, 2))
        assert np.all(np.abs(out[cut] - ref[cut]).max(axis=(1, 2))
                      <= 1e-12 * scale)
        assert 0 < lim.violations
        step1_cells += cut.sum()
    assert step1_cells > 0


@pytest.mark.parametrize("scheme", ["dcw", "zxs"])
def test_euler_p2_limiter_matches_parent_when_remainder_is_admissible(
        scheme, rng):
    # Keep only cells whose remainder state u* (after step 1) has an internal
    # energy no lower than the smallest one at the Gauss points; the parent's
    # upper bound on e(u*) is then not binding either, and the two limiters
    # agree as in the P1 test. Other cells are made constant.
    model = Euler()
    kept = 0
    for seed in range(5):
        op = perturbed_op(model, 2, seed)
        lim = bp.BPLimiter(op, scheme)
        coeffs = random_euler_state(op, rng, 0.3)
        rho_bar = coeffs[:, 0, 0]
        floor = np.minimum(rho_bar, lim.EPS)
        rho_min = lim.check_values(coeffs)[..., 0].min(axis=1)
        theta1 = np.ones_like(rho_bar)
        cut = rho_min < floor
        theta1[cut] = (rho_bar[cut] - floor[cut]) / (rho_bar[cut] - rho_min[cut])
        fixed = coeffs.copy()
        fixed[:, 1:, 0] *= theta1[:, None]
        e = model.internal_energy(lim.check_values(fixed))
        keep = e[:, -1] >= e[:, :-1].min(axis=1)
        coeffs[~keep, 1:] = 0.0
        st = ModalState(2, coeffs)
        out = lim.apply(st).coeffs
        ref = _ParentBPLimiter(op, scheme).apply(st).coeffs
        cut &= keep
        assert np.array_equal(out[~cut], ref[~cut])
        scale = np.abs(coeffs[cut, 1:]).max(axis=(1, 2))
        assert np.all(np.abs(out[cut] - ref[cut]).max(axis=(1, 2))
                      <= 1e-12 * scale)
        assert lim.violations > 0
        kept += keep.sum()
    assert kept > 0


@pytest.mark.parametrize("k,scheme", [(1, "dcw"), (1, "zxs"), (2, "dcw"),
                                      (2, "zxs")])
@pytest.mark.parametrize("model", [Advection(), Euler()],
                         ids=["scalar", "euler"])
def test_limiter_evaluates_check_nodes_once(model, k, scheme, rng):
    op = perturbed_op(model, k, seed=0)
    # the limiter evaluates its check nodes straight from the buffer, one
    # product per reference matrix
    calls = {"ref_trace": 0, "vertex_basis": 0}
    at_nodes = op.at_nodes

    def counted(ref, buf):
        for name in calls:
            calls[name] += ref is getattr(op, name)
        return at_nodes(ref, buf)
    op.at_nodes = counted
    if model.positivity_constrained:
        coeffs = random_euler_state(op, rng, 0.5)
        lim = bp.BPLimiter(op, scheme)
    else:
        coeffs = np.zeros((op.mesh.n_cells, op.nm, 1))
        coeffs[:, 0, 0] = 0.5
        coeffs[:, 1:, 0] = rng.standard_normal((op.mesh.n_cells, op.nm - 1))
        lim = bp.BPLimiter(op, scheme, bounds=(0.0, 1.0))
    lim.apply(ModalState(k, coeffs))
    assert lim.violations > 0
    assert calls["ref_trace"] == 1
    assert calls["vertex_basis"] == (k == 1 and scheme == "dcw")


@pytest.mark.parametrize("scheme", ["dcw", "zxs"])
def test_limited_p2_euler_states_are_admissible_at_every_check_node(
        scheme, rng):
    # The P2 remainder u* = (mean - sum_i w_i avg_i) / (1 - sum w) is a
    # conserved state; e(u*) must be positive, not only the remainder
    # formula applied to Gauss-point internal energies (its upper bound).
    model = Euler()
    for seed in range(3):
        op = perturbed_op(model, 2, seed)
        lim = bp.BPLimiter(op, scheme)
        for _ in range(40):
            out = lim.apply(ModalState(2, random_euler_state(op, rng, 0.3)))
            nodes = lim.check_values(out.coeffs)
            tr = op.traces(out.coeffs)
            avg = np.einsum("q,ciqd->cid", op.edge_w, tr)
            star = ((out.coeffs[:, 0] - np.einsum("ci,cid->cd", lim.w_local, avg))
                    / (1.0 - lim.w_local.sum(axis=1))[:, None])
            assert np.allclose(nodes[:, -1], star, rtol=1e-12, atol=1e-12)
            assert np.array_equal(nodes[:, :-1], tr.reshape(len(tr), -1, 4))
            assert nodes[..., 0].min() > 0
            assert model.internal_energy(nodes).min() > 0


def former_theta(mean, node_min, floor):
    """bp._theta as it was written with np.ones_like and np.clip."""
    theta = np.ones_like(mean)
    np.divide(mean - floor, mean - node_min, out=theta,
              where=node_min < floor)
    return np.clip(theta, 0.0, 1.0)


def test_theta_matches_former_bit_for_bit():
    # node minima above, at and below the floor; floors at and above the
    # mean (theta 0, or a negative ratio the clip lifts to 0), signed zeros
    # and a NaN node value
    rng = np.random.default_rng(11)
    mean = rng.uniform(-1.0, 2.0, 600)
    floor = np.minimum(mean, bp.BPLimiter.EPS)
    floor[:100] = mean[:100] + rng.choice([0.0, 1e-13, 0.5], 100)
    node_min = floor + rng.choice([-1.0, -1e-15, 0.0, 1e-15, 1.0], 600)
    node_min[100:150] = floor[100:150]
    mean[150:160], floor[150:160], node_min[150:160] = -0.0, 0.0, -1.0
    node_min[160] = np.nan
    # the cells below their floor carry their factor; every other cell's
    # factor is 1, which _below_floor leaves out
    cells, theta = bp._below_floor(mean, node_min, floor)
    assert cells.tolist() == np.flatnonzero(node_min < floor).tolist()
    got = np.ones_like(mean)
    got[cells] = theta
    want = former_theta(mean, node_min, floor)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert (got[100:150] == 1.0).all() and ((0.0 < got) & (got < 1.0)).any()
    # -0.0 / 1 stays -0.0, as np.clip left it
    assert (got[150:160] == 0.0).all() and np.signbit(got[150:160]).all()


@pytest.mark.parametrize("seed", [1, 2])
def test_vertex_take_is_the_take_along_axis_gather(seed, rng):
    # the k = 1 dcw vertex check nodes: one flat take through vertex_take
    # reads what take_along_axis read through the sorted local vertices
    op = perturbed_op(Euler(), 1, seed, periodic=("x",))
    lim = bp.BPLimiter(op, "dcw")
    assert lim.vertex_take.flags.c_contiguous
    assert lim.vertex_take.dtype == np.intp
    assert bp.BPLimiter(op, "zxs").vertex_take is None
    vv = op.at_nodes(op.vertex_basis, np.ascontiguousarray(
        rng.standard_normal((4, op.nm, op.mesh.n_cells))))
    want = np.take_along_axis(
        vv, np.ascontiguousarray(op.mesh.sort_order[:, :2].T)[None], axis=1)
    got = np.take(vv.reshape(4, -1), lim.vertex_take, axis=-1)
    assert np.array_equal(got, want)


# -- the limiter against its former every-cell form ---------------------------

def former_apply(lim, state):
    """BPLimiter.apply as it was before it scaled only the cells below their
    floor: every cell scaled by its theta, 1 above the floor. Returns the
    coefficients and the number of cells it counted as scaled."""
    buf = component_major(state.coeffs, copy=True)
    mean = buf[:, 0]
    vals = lim._node_values(buf).copy()
    if not lim.positivity:
        lo, hi = lim.bounds
        u = vals[0]
        theta = np.minimum(former_theta(mean[0], u.min(axis=0), lo),
                           former_theta(-mean[0], -u.max(axis=0), -hi))
        buf[0, 1:] *= theta
        return modal_view(buf), int(np.sum(theta < 1.0))
    model = lim.op.model
    rho_bar, e_bar = mean[0], model.internal_energy(mean.T)
    theta1 = former_theta(rho_bar, vals[0].min(axis=0),
                          np.minimum(rho_bar, lim.EPS))
    buf[0, 1:] *= theta1
    cut = theta1 < 1.0
    if cut.any():
        rb = rho_bar[cut]
        rho = vals[0]
        rho[:, cut] = rb + theta1[cut] * (rho[:, cut] - rb)
    e_nodes = model.internal_energy(vals.transpose(1, 2, 0))
    theta2 = former_theta(e_bar, e_nodes.min(axis=0),
                          np.minimum(e_bar, lim.EPS))
    buf[:, 1:] *= theta2
    return modal_view(buf), int(np.sum(cut | (theta2 < 1.0)))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# high-order amplitudes at which no cell, a few cells and most cells are
# scaled on the 8x8 perturbed mesh (128 cells)
SCALES = {"idle": 1e-3, "few": 0.03, "many": 3.0}


@pytest.mark.parametrize("level", list(SCALES))
@pytest.mark.parametrize("model,k,scheme", [
    (Euler(), 1, "dcw"), (Euler(), 1, "zxs"), (Euler(), 2, "dcw"),
    (Euler(), 2, "zxs"), (Burgers(), 1, "dcw"), (Burgers(), 2, "zxs")],
    ids=lambda v: getattr(v, "name", v))
def test_limiter_matches_its_former_every_cell_form(model, k, scheme, level):
    # the cells above their floor are skipped, which a factor of 1 would
    # leave as they are: the coefficients and the count are the former
    # ones bit for bit, the input is untouched and the result is new
    rng = np.random.default_rng(k + 7 * len(scheme))
    mesh = perturb(generate_structured((0, 0, 1, 1), 8, 8,
                                       diagonal="alternating"),
                   amplitude=0.3, seed=k)
    op = SpatialOperator(mesh, model, k)
    nc = mesh.n_cells
    if model.positivity_constrained:
        coeffs = random_euler_state(op, rng, SCALES[level])
        lim = bp.BPLimiter(op, scheme)
    else:
        coeffs = np.zeros((nc, op.nm, 1))
        coeffs[:, 0, 0] = rng.uniform(0.05, 0.95, nc)
        coeffs[:, 1:, 0] = SCALES[level] * rng.standard_normal(
            (nc, op.nm - 1))
        lim = bp.BPLimiter(op, scheme, bounds=(0.0, 1.0))
    # a C-ordered state and the modal view of a component-major buffer
    for st in (ModalState(k, coeffs, 0.5),
               ModalState(k, modal_view(component_major(coeffs, copy=True)),
                          0.5)):
        before = st.coeffs.copy()
        v0 = lim.violations
        out = lim.apply(st)
        want, counted = former_apply(lim, st)
        assert np.array_equal(bits(out.coeffs), bits(want))
        assert lim.violations - v0 == counted
        assert np.array_equal(bits(st.coeffs), bits(before))
        assert not np.shares_memory(out.coeffs, st.coeffs)
        assert out.t == 0.5
        if level == "idle":
            assert counted == 0
        elif level == "few":
            assert 0 < counted <= nc // 4
        else:
            assert counted >= nc // 2
