import math

import numpy as np
import pytest

from tridg.bp import BPLimiter, step_factor
from tridg.dg import SpatialOperator, component_major
from tridg.errors import ConfigError
from tridg.harness import (_rotate_mesh, build_solver, cfl_ratio_scan,
                           convergence_study, error_norms,
                           random_triangle_lengths, rotated_twin_discrepancy,
                           rotation_experiment, run_fixed_steps, solve_problem)
from tridg.mesh import generate_structured, perturb
from tridg.oe import OEFilter
from tridg.physics import Advection, rotate_vector
from tridg.problems import PROBLEMS, get_problem
from tridg.timestepping import advance, default_scheme_for, run

from components_last import boundary_ghosts


def test_problem_registry():
    for name in ("advection_smooth", "advection_flower", "burgers_smooth",
                 "burgers_riemann1", "burgers_riemann2", "euler_implosion",
                 "euler_implosion_mild", "euler_double_rarefaction"):
        assert name in PROBLEMS
    with pytest.raises(ConfigError):
        get_problem("nope")


def test_error_norms_identical_fields():
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 2)
    st = op.project(lambda x, y: x + 2 * y)  # degree <= k: projection exact
    e = error_norms(op, st, lambda x, y, t: x + 2 * y)
    assert max(e) <= 1e-13


def test_error_norms_constant_offset():
    mesh = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.full_like(x, 2.0))
    e = error_norms(op, st, lambda x, y, t: np.full_like(x, 1.25))
    assert e[0] == pytest.approx(0.75, rel=1e-12)
    assert e[1] == pytest.approx(0.75, rel=1e-12)
    assert e[2] == pytest.approx(0.75, rel=1e-12)


def test_convergence_study_orders_advection():
    rows = convergence_study("advection_smooth", 1, 3)
    assert all(rows[i].l1 > rows[i + 1].l1 for i in range(len(rows) - 1))
    assert rows[-1].order1 >= 1.8
    assert np.isnan(rows[0].order1)


def test_convergence_requires_exact_solution():
    with pytest.raises(ConfigError):
        convergence_study("euler_implosion", 1, 2)


def test_convergence_respects_cell_cap():
    rows = convergence_study("advection_smooth", 1, 10, max_cells=600)
    assert all(r.n_cells <= 600 for r in rows)


def test_initial_projections_admissible_after_limiting():
    # every library problem's projected IC passes one limiter sweep
    from tridg.bp import BPLimiter
    for name, prob in PROBLEMS.items():
        if prob.external_mesh:
            continue
        model = prob.make_model()
        mesh = prob.make_mesh(0)
        op = SpatialOperator(mesh, model, 1, boundary=prob.boundary(model))
        st = op.project(prob.ic)
        bounds = prob.bp_bounds
        if model.name != "euler" and bounds is None:
            continue
        lim = BPLimiter(op, "dcw", bounds=bounds)
        out = lim.apply(st)
        if model.name == "euler":
            tr = op.traces(out.coeffs)
            assert np.all(model.admissible(np.moveaxis(tr, -1, 0)))


def test_cfl_scan_seeded_reproducible():
    a = cfl_ratio_scan(n=500, k=1, seed=9)
    b = cfl_ratio_scan(n=500, k=1, seed=9)
    assert a == b
    c = cfl_ratio_scan(n=500, k=1, seed=10)
    assert c != a


def test_cfl_scan_on_mesh():
    mesh = generate_structured((0, 0, 1, 1), 4, 4)
    r = cfl_ratio_scan(k=2, mesh=mesh)
    assert r["n"] == mesh.n_cells
    assert r["dcw_zxs_min"] >= 3.8038 - 1e-4


def test_random_triangles_are_triangles():
    l = random_triangle_lengths(1000, seed=1)
    assert np.all(l[:, 0] <= l[:, 1] + l[:, 2] + 1e-12)
    assert np.all(l > 0)


def test_rotation_experiment_zero_angle():
    eps = rotation_experiment(mode="rioe", k=1, n=6, steps=5, phi=0.0)
    assert eps["max"] == 0.0


def test_rotation_experiment_small():
    eps = rotation_experiment(mode="rioe", k=1, n=8, steps=10)
    assert eps["max"] <= 1e-12
    eps_cw = rotation_experiment(mode="componentwise", k=1, n=8, steps=10)
    assert eps_cw["max"] > eps["max"]


def test_rioe_equivariant_at_random_angles_on_perturbed_mesh():
    prob = get_problem("euler_implosion_mild")
    mesh = perturb(prob.make_rect_mesh(8), seed=3)
    for phi in np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 3):
        assert rotated_twin_discrepancy(prob, mesh, "rioe", 1, 10,
                                        phi)["max"] <= 1e-12
        assert rotated_twin_discrepancy(prob, mesh, "componentwise", 1, 10,
                                        phi)["max"] >= 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_rioe_equivariant_on_perturbed_mesh_with_the_limiter_active(k):
    # limited double rarefaction: the filter reads wavespeed_clamped, which
    # only limited runs call; the rotated twin matches to round-off and its
    # limiter scales the same number of cells
    prob = get_problem("euler_double_rarefaction")
    model = prob.make_model()
    mesh = perturb(prob.make_rect_mesh(32), seed=3)
    phi = 0.7

    def ic_rotated(x, y):
        back = rotate_vector(np.stack([x, y], axis=-1), -phi)
        return model.rotate_state(prob.ic(back[..., 0], back[..., 1]), phi)

    averages, scaled = [], []
    for m, ic in ((mesh, prob.ic), (_rotate_mesh(mesh, phi), ic_rotated)):
        op, state, oe, bp = build_solver(prob, m, k, "rioe", "dcw", ic=ic)
        res = run(op, state, math.inf, oe=oe, bp=bp, max_steps=40)
        assert res.steps == 40
        averages.append(res.state.cell_averages())
        scaled.append(res.bp_violations)
    ubar, ubar_r = averages
    v = ubar[:, 1:3] / ubar[:, :1]
    v_r = rotate_vector(ubar_r[:, 1:3] / ubar_r[:, :1], -phi)
    eps = max(np.abs(ubar[:, 0] - ubar_r[:, 0]).max(), np.abs(v - v_r).max(),
              np.abs(model.pressure(ubar) - model.pressure(ubar_r)).max())
    assert eps <= 1e-12
    assert scaled[0] == scaled[1] > 0


def sup_wavespeed(op, coeffs, t):
    """The bound fixed-step runs once took: the edge Gauss traces and the
    edge endpoint traces of both sides, ghosts included."""
    V = op.at_nodes(op.vertex_basis, component_major(coeffs))   # (d,3,nc)
    UE = np.take(V.reshape(op.d, -1), OEFilter(op).endpoint_take, axis=-1)
    bi = op.mesh.boundary_edge_ids
    UE[:, 1][:, :, bi] = boundary_ghosts(
        op, UE[:, 0][:, :, bi].transpose(2, 1, 0), t,
        endpoints=True).transpose(2, 1, 0)
    return max(op.max_wavespeed(coeffs, t=t, mode="edge_gauss"),
               float(np.max(op.model.wavespeed(UE, op.edge_normal_cf))))


def test_run_fixed_steps_matches_its_own_loop_on_advection():
    # the loop run_fixed_steps ran before it went through timestepping.run,
    # with the sup bound and the non-BP step; advection's wavespeed does not
    # depend on the state, so run's cell-average bound gives the same alpha
    mesh = perturb(generate_structured((0, 0, 1, 1), 5, 5,
                                       periodic=("x", "y")), 0.3, seed=2)
    op = SpatialOperator(mesh, Advection(), 2)
    state = op.project(lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * (x + y)))
    oe = OEFilter(op)
    scheme = default_scheme_for(op.k)
    want = state
    for _ in range(20):
        alpha = sup_wavespeed(op, want.coeffs, want.t)
        dt = scheme.c_ssp / alpha * step_factor(mesh, op.k)
        want = advance(want, dt, lambda c, t: op.residual(c, alpha, t),
                       scheme, oe=oe)
    got = run_fixed_steps(op, state, 20, oe=oe)
    assert np.array_equal(got.coeffs, want.coeffs) and got.t == want.t


@pytest.mark.parametrize("name,k,oe_mode,bp_scheme", [
    ("advection_smooth", 1, "componentwise", None),
    ("advection_smooth", 1, "componentwise", "dcw"),
    ("advection_flower", 2, "off", "zxs"),
    ("euler_implosion_mild", 2, "rioe", "dcw"),
    ("euler_double_rarefaction", 1, "rioe", None)])
def test_build_solver_returns_the_limiter_its_state_starts_from(
        name, k, oe_mode, bp_scheme):
    # one limiter per run, built with the problem's bounds; the filter
    # guards its wavespeed exactly when the run is limited
    prob = get_problem(name)
    mesh = perturb(prob.make_rect_mesh(8), seed=1)
    op, state, oe, bp = build_solver(prob, mesh, k, oe_mode, bp_scheme)
    assert (oe is None) == (oe_mode == "off")
    if oe is not None:
        assert oe.guard_wavespeed == (bp_scheme is not None)
    projected = op.project(prob.ic)
    if bp_scheme is None:
        assert bp is None
        assert np.array_equal(state.coeffs, projected.coeffs)
        return
    assert isinstance(bp, BPLimiter) and bp.op is op
    assert bp.scheme == bp_scheme
    if prob.bp_bounds is not None:
        assert bp.bounds == prob.bp_bounds
    # the state is the limited projection, bit for bit, and the limiter's
    # count holds the cells that limiting scaled
    fresh = BPLimiter(op, bp_scheme, bounds=prob.bp_bounds)
    want = fresh.apply(projected)
    assert np.array_equal(state.coeffs, want.coeffs)
    assert bp.violations == fresh.violations
    assert name != "advection_smooth" or bp.violations > 0


def test_run_starts_from_the_state_it_is_given():
    # a limited run does not limit its input: snapshot 0 is the given state,
    # whether the limiter would scale it (a bare projection) or not
    prob = get_problem("advection_smooth")
    op, state, oe, bp = build_solver(prob, prob.make_rect_mesh(8), 1,
                                     "componentwise", "dcw")
    projected = op.project(prob.ic)
    assert not np.array_equal(state.coeffs, projected.coeffs)
    violations = bp.violations
    res = run(op, projected, projected.t, oe=oe, bp=bp)
    assert res.steps == 0 and bp.violations == violations
    assert np.array_equal(res.snapshots[0][1].coeffs, projected.coeffs)
    assert np.array_equal(res.state.coeffs, projected.coeffs)
    res = run(op, state, math.inf, oe=oe, bp=bp, max_steps=1)
    t0, first = res.snapshots[0]
    assert t0 == state.t and first is not state
    assert np.array_equal(first.coeffs, state.coeffs)
    assert res.steps == 1 and res.bp_violations == bp.violations


def test_solve_problem_smoke():
    op, res = solve_problem("burgers_riemann2", 1, level=0, t_end=0.02)
    assert res.steps > 0
    assert np.all(np.isfinite(res.state.coeffs))


def test_burgers_riemann1_boundary_switches():
    op, res = solve_problem("burgers_riemann1", 1, level=0, t_end=0.02)
    assert np.all(np.isfinite(res.state.coeffs))


def test_flower_problem_bounds():
    op, res = solve_problem("advection_flower", 1, level=0, t_end=0.01,
                            bp_scheme="dcw")
    u = res.state.coeffs[:, 0, 0]
    assert u.min() >= -1e-12 and u.max() <= 1 + 1e-12


# the aspect ratio each problem once stored: ny = max(2, round(nx * aspect))
# unless it was 1.0
FORMER_ASPECT = {"euler_double_rarefaction": 0.1}


def test_rect_mesh_rows_follow_the_domain(monkeypatch):
    import tridg.problems as problems
    monkeypatch.setattr(problems, "generate_structured",
                        lambda domain, nx, ny, **kwargs: (nx, ny))
    checked = 0
    for name, prob in PROBLEMS.items():
        if prob.external_mesh:
            continue
        aspect = FORMER_ASPECT.get(name, 1.0)
        for nx in range(1, 71):
            ny = nx if aspect == 1.0 else max(2, round(nx * aspect))
            assert prob.make_rect_mesh(nx) == (nx, ny), (name, nx)
        checked += 1
    assert checked > len(FORMER_ASPECT)
