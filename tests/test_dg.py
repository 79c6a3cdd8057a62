import copy

import numpy as np
import pytest

from tridg import basis
from tridg.dg import (ExactBC, Inflow, ModalState, Outflow, Reflective,
                      SpatialOperator, ghost_state)
from tridg.errors import AdmissibilityError, ConfigError
from tridg.mesh import build_mesh, generate_structured, perturb
from tridg.physics import Advection, Burgers, Euler, ScaledModel


def single_ref_cell():
    return build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                      [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])


def test_evaluate_constant_and_single_modes():
    m = single_ref_cell()
    op = SpatialOperator(m, Advection(), 2)
    st = ModalState(2, np.zeros((1, op.nm, 1)))
    st.coeffs[0, 0, 0] = 3.5
    pts = np.array([[0.2, 0.3], [0.1, 0.1], [0.6, 0.2]])
    assert np.allclose(op.evaluate(st, 0, pts), 3.5)
    # mode-1-only state evaluates to 4 xi + 2 eta - 2 (cell is the ref cell)
    st.coeffs[:] = 0
    st.coeffs[0, 1, 0] = 1.0
    vals = op.evaluate(st, 0, pts)[:, 0]
    want = 4 * pts[:, 0] + 2 * pts[:, 1] - 2
    assert np.allclose(vals, want, atol=1e-14)


def test_project_constant(periodic_square):
    op = SpatialOperator(periodic_square, Advection(), 2)
    st = op.project(lambda x, y: np.full_like(x, 2.25))
    assert np.abs(st.coeffs[:, 0, 0] - 2.25).max() <= 1e-14
    assert np.abs(st.coeffs[:, 1:, :]).max() <= 1e-14


def test_project_reproduces_basis_mode():
    m = single_ref_cell()
    op = SpatialOperator(m, Advection(), 2)
    # u0 = Psi1 on the reference cell: coefficients (0, 1, 0, ...)
    st = op.project(lambda x, y: 4 * x + 2 * y - 2)
    want = np.zeros(op.nm)
    want[1] = 1.0
    assert np.allclose(st.coeffs[0, :, 0], want, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projection_error_order(k):
    # L2 projection error at cell centroids decays at O(h^(k+1))
    errs = []
    for n in (8, 16, 32):
        mesh = generate_structured((0, 0, 1, 1), n, n, periodic=("x", "y"))
        op = SpatialOperator(mesh, Advection(), k)
        st = op.project(lambda x, y: np.sin(2 * np.pi * (x + y)))
        cx = mesh.centroid
        got = np.array([op.evaluate(st, c, cx[c])[0, 0]
                        for c in range(mesh.n_cells)])
        diff = got - np.sin(2 * np.pi * cx.sum(axis=1))
        errs.append(np.sqrt(mesh.area @ diff ** 2))
    order = np.log2(errs[-2] / errs[-1])
    assert order >= k + 0.7


def test_ghost_state_rules():
    model = Euler()
    u = np.array([1.0, 1.0, 0.0, 3.0])
    n = np.array([1.0, 0.0])
    x = np.array([0.0, 0.5])
    spec = {"OUT": Outflow(), "WALL": Reflective(),
            "IN": Inflow(np.array([1.4, 4.2, 0.0, 8.8])),
            "EXACT": ExactBC(lambda xx, yy, t: np.stack(
                [np.ones_like(xx), xx, yy, np.full_like(xx, 3.0)], axis=-1))}
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "OUT"), u)
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "WALL"),
                       [1.0, -1.0, 0.0, 3.0])
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "IN"),
                       [1.4, 4.2, 0.0, 8.8])
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "EXACT"),
                       [1.0, 0.0, 0.5, 3.0])
    with pytest.raises(ConfigError):
        ghost_state(spec, model, u, x, n, 0.0, "P0")


def test_missing_boundary_rule_is_config_error():
    m = generate_structured((0, 0, 1, 1), 2, 2,
                            tags={"left": "IN", "right": "OUT",
                                  "bottom": "OUT", "top": "OUT"})
    with pytest.raises(ConfigError):
        SpatialOperator(m, Advection(), 1, boundary={})  # IN has no default


def test_free_stream_periodic(irregular_mesh):
    op = SpatialOperator(irregular_mesh, Advection(), 2)
    st = op.project(lambda x, y: np.ones_like(x))
    R = op.residual(st.coeffs, alpha=np.sqrt(2.0))
    assert np.abs(R).max() <= 1e-12


def test_free_stream_outflow_and_reflective():
    m = generate_structured((0, 0, 1, 1), 4, 4,
                            tags={"left": "WALL", "right": "WALL",
                                  "bottom": "OUT", "top": "OUT"})
    m = perturb(m, 0.25, seed=2)
    model = Euler()
    op = SpatialOperator(m, model, 2)
    st = op.project(lambda x, y: np.broadcast_to(
        model.from_primitive(1.0, 0.0, 0.0, 1.0), x.shape + (4,)))
    R = op.residual(st.coeffs, alpha=1.2)
    assert np.abs(R).max() <= 1e-12


def test_mode0_residual_is_edge_flux_sum(unit_square_2x2):
    rng = np.random.default_rng(0)
    m = unit_square_2x2
    op = SpatialOperator(m, Advection(), 1)
    coeffs = rng.standard_normal((m.n_cells, op.nm, 1)) * 0.1
    alpha = np.sqrt(2.0)
    R = op.residual(coeffs, alpha)
    # reconstruct mode-0 residual from the edge fluxes directly
    u = op._edge_states(coeffs, 0.0)
    fhat = op.model.lf_flux(u, op.edge_normal[:, None, :], alpha)
    for c in range(m.n_cells):
        total = 0.0
        for i in range(3):
            eid = m.cell_edges[c, i]
            sgn = 1.0 if m.cell_edge_forward[c, i] else -1.0
            total -= sgn * m.edge_len[c, i] * np.sum(op.edge_w * fhat[eid, :, 0])
        assert R[c, 0, 0] == pytest.approx(total / m.area[c], rel=1e-12)


def test_global_average_conserved_periodic(periodic_square):
    rng = np.random.default_rng(1)
    op = SpatialOperator(periodic_square, Advection(), 2)
    st = op.project(lambda x, y: np.sin(2 * np.pi * (x + y)))
    R = op.residual(st.coeffs, alpha=np.sqrt(2.0))
    drift = (periodic_square.area[:, None] * R[:, 0, :]).sum()
    assert abs(drift) <= 1e-13 * max(1.0, np.abs(R).max())


def test_residual_rejects_inadmissible_trace():
    m = generate_structured((0, 0, 1, 1), 2, 2)
    model = Euler()
    op = SpatialOperator(m, model, 1)
    coeffs = np.zeros((m.n_cells, op.nm, 4))
    coeffs[:, 0] = model.from_primitive(1.0, 0.0, 0.0, 1.0)
    coeffs[0, 1, 3] = -10.0  # energy dips negative inside cell 0
    with pytest.raises(AdmissibilityError) as e:
        op.residual(coeffs, alpha=2.0)
    assert e.value.cell is not None


def uniform_euler_p1(mesh, inflow_rho=1.0):
    """P1 Euler operator and a uniform admissible state; IN ghosts carry
    density inflow_rho."""
    model = Euler()
    op = SpatialOperator(mesh, model, 1, boundary={
        "IN": Inflow(model.from_primitive(inflow_rho, 0.2, 0.0, 1.0))})
    coeffs = np.zeros((mesh.n_cells, op.nm, 4))
    coeffs[:, 0] = model.from_primitive(1.0, 0.0, 0.0, 1.0)
    return op, coeffs


def test_inadmissible_right_trace_names_its_own_cell():
    # periodic: every edge is interior; pick a cell whose lowest edge id has
    # it as the right cell, so the first bad (edge, side) is a side-1 trace
    mesh = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    for cell in range(mesh.n_cells):
        eid = mesh.cell_edges[cell].min()
        if mesh.edge_cells[eid, 1] == cell:
            break
    else:
        pytest.fail("no cell is the right cell of its lowest edge")
    op, coeffs = uniform_euler_p1(mesh)
    coeffs[cell, 0, 3] = -1.0  # every trace of the cell is inadmissible
    with pytest.raises(AdmissibilityError) as e:
        op.residual(coeffs, alpha=2.0)
    assert (e.value.cell, e.value.edge) == (cell, eid)
    assert mesh.edge_cells[eid, 0] != cell


def test_inadmissible_ghost_names_the_boundary_cell():
    mesh = generate_structured((0, 0, 1, 1), 2, 2, tags={
        "left": "IN", "right": "IN", "bottom": "IN", "top": "IN"})
    op, coeffs = uniform_euler_p1(mesh, inflow_rho=-1.0)
    with pytest.raises(AdmissibilityError) as e:
        op.residual(coeffs, alpha=2.0)
    eid = mesh.boundary_edge_ids.min()
    assert (e.value.cell, e.value.edge) == (mesh.edge_cells[eid, 0], eid)


def test_smooth_advection_average_decay(periodic_square):
    # d/dt of the global average vanishes under periodic BCs
    op = SpatialOperator(periodic_square, Advection(), 1)
    st = op.project(lambda x, y: np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
    R = op.residual(st.coeffs, np.sqrt(2.0))
    tot = (periodic_square.area[:, None] * R[:, 0, :]).sum()
    assert abs(tot) <= 1e-13


def test_max_wavespeed_modes(periodic_square):
    op = SpatialOperator(periodic_square, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))
    for mode in ("cell_average", "edge_gauss", "sup"):
        a = op.max_wavespeed(st.coeffs, mode=mode)
        assert a == pytest.approx(np.sqrt(2.0), rel=1e-12)
    with pytest.raises(ConfigError):
        op.max_wavespeed(st.coeffs, mode="bogus")


def test_vertex_derivatives_match_polynomial():
    # quadratic with known mixed derivatives
    m = perturb(generate_structured((0, 0, 1, 1), 3, 3), 0.2, seed=4)
    op = SpatialOperator(m, Advection(), 2)
    st = op.project(lambda x, y: x * x + 3 * x * y - 2 * y * y + x - y + 0.5)
    verts = m.vertices[m.cells]  # (nc, 3, 2)
    d1 = op.vertex_derivatives(st.coeffs, 1)[..., 0]  # (nc, 3, 2)
    ux = 2 * verts[..., 0] + 3 * verts[..., 1] + 1
    uy = 3 * verts[..., 0] - 4 * verts[..., 1] - 1
    assert np.allclose(d1[..., 0], ux, atol=1e-11)
    assert np.allclose(d1[..., 1], uy, atol=1e-11)
    d2 = op.vertex_derivatives(st.coeffs, 2)[..., 0]  # alpha = (2,0),(1,1),(0,2)
    assert np.allclose(d2[..., 0], 2.0, atol=1e-10)
    assert np.allclose(d2[..., 1], 3.0, atol=1e-10)
    assert np.allclose(d2[..., 2], -4.0, atol=1e-10)


def test_exact_bc_run():
    # advect through EXACT boundaries fed by the known solution
    m = generate_structured((0, 0, 1, 1), 8, 8,
                            tags={s: "EXACT" for s in
                                  ("left", "right", "bottom", "top")})
    exact = lambda x, y, t: np.sin(2 * np.pi * (x + y - 2 * t))
    op = SpatialOperator(m, Advection(), 2, boundary={
        "EXACT": ExactBC(lambda x, y, t: exact(x, y, t)[..., None])})
    st = op.project(lambda x, y: exact(x, y, 0.0))
    from tridg.timestepping import run
    res = run(op, st, t_end=0.05)
    from tridg.harness import error_norms
    e = error_norms(op, res.state, lambda x, y, t: exact(x, y, t))
    assert e[0] <= 5e-3


def test_p4_pipeline():
    # degree-4 path: projection converges at 5th order, filtered run works
    from tridg.harness import error_norms
    errs = []
    for n in (6, 12):
        m = generate_structured((0, 0, 1, 1), n, n, periodic=("x", "y"))
        op = SpatialOperator(m, Advection(), 4)
        assert op.nm == 15 and op.n_int == 25
        st = op.project(lambda x, y: np.sin(2 * np.pi * (x + y)))
        errs.append(error_norms(
            op, st, lambda x, y, t: np.sin(2 * np.pi * (x + y)))[0])
    assert np.log2(errs[0] / errs[1]) >= 4.7

    from tridg.oe import OEFilter
    from tridg.timestepping import run
    res = run(op, st, t_end=0.01, oe=OEFilter(op))
    e = error_norms(op, res.state,
                    lambda x, y, t: np.sin(2 * np.pi * (x + y - 2 * t)))
    assert e[0] <= 1e-4
    assert res.steps > 0


# -- the residual against the stack-and-einsum flux code it replaced --------

def stacked_flux(model, u):
    """F(u) as (..., 2, d), assembled with np.stack as the models once did."""
    if isinstance(model, Euler):
        rho, m1, m2, E = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
        v1, v2 = m1 / rho, m2 / rho
        p = (model.gamma - 1.0) * (E - 0.5 * (m1 * v1 + m2 * v2))
        f1 = np.stack([m1, m1 * v1 + p, m2 * v1, (E + p) * v1], axis=-1)
        f2 = np.stack([m2, m1 * v2, m2 * v2 + p, (E + p) * v2], axis=-1)
        return np.stack([f1, f2], axis=-2)
    f = 0.5 * u * u if isinstance(model, Burgers) else u
    return np.stack([f, f], axis=-2)


def with_stacked_fluxes(model):
    """A copy of `model` whose residual path uses stacked F and einsum F.n."""
    ref = copy.copy(model)

    def lf_flux(u, n, alpha):
        fi = np.einsum("...kd,...k->...d", stacked_flux(model, u[0]), n)
        fe = np.einsum("...kd,...k->...d", stacked_flux(model, u[1]), n)
        return 0.5 * (fi + fe - alpha * (u[1] - u[0]))

    ref.lf_flux = lf_flux
    ref.flux_unchecked = lambda u: stacked_flux(model, u)
    return ref


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler()],
                         ids=lambda m: m.name)
def test_residual_matches_stacked_flux_reference(k, model):
    rng = np.random.default_rng(k)
    mesh = perturb(generate_structured((0, 0, 1, 1), 5, 4, tags={
        "left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"}),
        0.25, seed=k)
    if isinstance(model, Euler):
        mean = model.from_primitive(1.0, 0.3, -0.2, 1.0)
        inflow = Inflow(model.from_primitive(1.2, 0.5, 0.1, 0.9))
    else:
        mean = 0.5
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    boundary = {"IN": inflow, "OUT": Outflow(), "WALL": Reflective()}
    op = SpatialOperator(mesh, model, k, boundary=boundary)
    ref = SpatialOperator(mesh, with_stacked_fluxes(model), k,
                          boundary=boundary)
    coeffs = 0.05 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean
    assert np.array_equal(op.residual(coeffs, 2.5, t=0.3),
                          ref.residual(coeffs, 2.5, t=0.3))


# -- one edge-state buffer shared by the wavespeed bound and the residual ----

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler(),
                                   ScaledModel(Euler(), 2.5)],
                         ids=lambda m: m.name)
def test_shared_edge_states_match_unshared_calls(k, model):
    rng = np.random.default_rng(20 + k)
    mesh = perturb(generate_structured((0, 0, 1, 1), 5, 4, tags={
        "left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"}),
        0.25, seed=k)
    if model.positivity_constrained:
        mean = Euler().from_primitive(1.0, 0.3, -0.2, 1.0)
        inflow = Inflow(Euler().from_primitive(1.2, 0.5, 0.1, 0.9))
    else:
        mean = 0.5
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    op = SpatialOperator(mesh, model, k, boundary={
        "IN": inflow, "OUT": Outflow(), "WALL": Reflective()})
    coeffs = 0.02 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean
    states = op._edge_states(coeffs, 0.3)
    assert states.shape == (2, mesh.n_edges, op.Q, op.d)
    assert np.array_equal(op.residual(coeffs, 2.5, t=0.3, states=states),
                          op.residual(coeffs, 2.5, t=0.3))
    for mode in ("edge_gauss", "sup"):
        assert (op.max_wavespeed(coeffs, t=0.3, mode=mode, states=states)
                == op.max_wavespeed(coeffs, t=0.3, mode=mode))
