import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tridg import basis
from tridg.dg import (REF_VERTICES, Inflow, ModalState, Outflow,
                      Reflective, SpatialOperator)
from tridg.errors import AdmissibilityError, ConfigError
from tridg.mesh import build_mesh, generate_structured, perturb, refine_uniform
from tridg.oe import OEFilter
from tridg.physics import Advection, Burgers, Euler, ScaledModel

import components_last as cl
from components_last import (assert_close_to_max, boundary_ghosts, cf,
                             flux_last, vertex_derivatives)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def ghost_state(spec, model, u_int, x, n, t, tag):
    """Exterior state for one boundary sample under the rule for `tag`."""
    if tag not in spec:
        raise ConfigError(f"boundary tag {tag!r} has no rule")
    u = np.asarray(u_int, dtype=float)[None, :]
    xx = np.asarray(x, dtype=float)[None, :]
    nn = np.asarray(n, dtype=float)[None, :]
    return spec[tag].ghost(model, u, xx, nn, t)[0]


def test_ghost_state_rules():
    model = Euler()
    u = np.array([1.0, 1.0, 0.0, 3.0])
    n = np.array([1.0, 0.0])
    x = np.array([0.0, 0.5])
    spec = {"WALL": Reflective(),
            "IN": Inflow(np.array([1.4, 4.2, 0.0, 8.8])),
            "EXACT": Inflow(lambda xx, yy, t: np.stack(
                [np.ones_like(xx), xx, yy, np.full_like(xx, 3.0)], axis=-1))}
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "WALL"),
                       [1.0, -1.0, 0.0, 3.0])
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "IN"),
                       [1.4, 4.2, 0.0, 8.8])
    assert np.allclose(ghost_state(spec, model, u, x, n, 0.0, "EXACT"),
                       [1.0, 0.0, 0.5, 3.0])
    with pytest.raises(ConfigError):
        ghost_state(spec, model, u, x, n, 0.0, "P0")
    # outflow is the gather: side 1 of its edges is the edge's own cell at
    # the Gauss points, and the filter sees zero jumps of every order there
    mesh = perturb(generate_structured((0, 0, 1, 1), 4, 3, tags={
        "left": "IN", "right": "OUT", "bottom": "WALL", "top": "OUT"}),
        0.25, seed=1)
    op = SpatialOperator(mesh, model, 2, boundary={
        "IN": Inflow(model.from_primitive(1.2, 0.5, 0.1, 0.9))})
    coeffs = 0.02 * np.random.default_rng(0).standard_normal(
        (mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += model.from_primitive(1.0, 0.3, -0.2, 1.0)
    bi = mesh.boundary_edge_ids
    out = bi[[mesh.edge_tag[eid] == "OUT" for eid in bi]]
    assert len(out) and len(out) < len(bi)
    U = op._edge_states(coeffs, 0.3)
    assert np.array_equal(U[:, 1, out], U[:, 0, out])
    assert not np.array_equal(U[:, 1, bi], U[:, 0, bi])
    J, _ = OEFilter(op)._endpoint_pass(coeffs, 0.3)
    assert np.all(J[..., out] == 0.0) and np.any(J[..., bi] != 0.0)
    # an all-outflow mesh writes no ghost
    op = SpatialOperator(generate_structured((0, 0, 1, 1), 3, 3), model, 1)
    assert op.groups == [] and len(op.ghost_ids) == 0


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
    fhat = op.model.lf_flux(u, op.edge_normal_cf[:, :, None], alpha)
    for c in range(m.n_cells):
        total = 0.0
        for i in range(3):
            eid = m.cell_edges[c, i]
            sgn = 1.0 if m.cell_edge_forward[c, i] else -1.0
            total -= sgn * m.edge_len[c, i] * np.sum(op.edge_w * fhat[0, eid])
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


def uniform_euler_p1(mesh, inflow=(1.0, 0.2, 0.0, 1.0)):
    """P1 Euler operator and a uniform admissible state; IN ghosts carry
    the primitive state inflow."""
    model = Euler()
    op = SpatialOperator(mesh, model, 1, boundary={
        "IN": Inflow(model.from_primitive(*inflow))})
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
    assert mesh.edge_cells[eid, 0] != cell
    # every trace of the cell is inadmissible: negative or NaN energy, zero
    # density
    for comp, value in ((3, -1.0), (3, np.nan), (0, 0.0)):
        op, coeffs = uniform_euler_p1(mesh)
        coeffs[cell, 0, comp] = value
        with pytest.raises(AdmissibilityError) as e:
            op.residual(coeffs, alpha=2.0)
        assert (e.value.cell, e.value.edge) == (cell, eid)


def test_inadmissible_ghost_names_the_boundary_cell():
    mesh = generate_structured((0, 0, 1, 1), 2, 2, tags={
        "left": "IN", "right": "IN", "bottom": "IN", "top": "IN"})
    eid = mesh.boundary_edge_ids.min()
    # negative density, NaN energy, zero density in every ghost
    for inflow in ((-1.0, 0.2, 0.0, 1.0), (1.0, 0.2, 0.0, np.nan),
                   (0.0, 0.2, 0.0, 1.0)):
        op, coeffs = uniform_euler_p1(mesh, inflow)
        with pytest.raises(AdmissibilityError) as e:
            op.residual(coeffs, alpha=2.0)
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
    for mode in ("cell_average", "edge_gauss"):
        a = op.max_wavespeed(st.coeffs, mode=mode)
        assert a == pytest.approx(np.sqrt(2.0), rel=1e-12)
    for mode in ("bogus", "sup"):
        with pytest.raises(ConfigError):
            op.max_wavespeed(st.coeffs, mode=mode)


def test_vertex_derivatives_match_polynomial():
    # quadratic with known mixed derivatives
    m = perturb(generate_structured((0, 0, 1, 1), 3, 3), 0.2, seed=4)
    op = SpatialOperator(m, Advection(), 2)
    st = op.project(lambda x, y: x * x + 3 * x * y - 2 * y * y + x - y + 0.5)
    verts = m.vertices[m.cells]  # (nc, 3, 2)
    d1 = vertex_derivatives(op, st.coeffs, 1)[..., 0]  # (nc, 3, 2)
    ux = 2 * verts[..., 0] + 3 * verts[..., 1] + 1
    uy = 3 * verts[..., 0] - 4 * verts[..., 1] - 1
    assert np.allclose(d1[..., 0], ux, atol=1e-11)
    assert np.allclose(d1[..., 1], uy, atol=1e-11)
    d2 = vertex_derivatives(op, st.coeffs, 2)[..., 0]  # alpha = (2,0),(1,1),(0,2)
    assert np.allclose(d2[..., 0], 2.0, atol=1e-10)
    assert np.allclose(d2[..., 1], 3.0, atol=1e-10)
    assert np.allclose(d2[..., 2], -4.0, atol=1e-10)
    # the filter's order-k jets, one value per cell
    top = OEFilter(op).vertex_jets(st.coeffs)[1][0]  # (3, nc)
    assert np.allclose(top, [[2.0], [3.0], [-4.0]], atol=1e-10)


def test_exact_bc_run():
    # advect through EXACT boundaries fed by the known solution
    m = generate_structured((0, 0, 1, 1), 8, 8,
                            tags={s: "EXACT" for s in
                                  ("left", "right", "bottom", "top")})
    exact = lambda x, y, t: np.sin(2 * np.pi * (x + y - 2 * t))
    op = SpatialOperator(m, Advection(), 2, boundary={
        "EXACT": Inflow(lambda x, y, t: exact(x, y, t)[..., None])})
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

def with_stacked_fluxes(model):
    """A copy of `model` whose residual path uses stacked F and einsum F.n,
    components last."""
    ref = copy.copy(model)

    def normal_flux(u, n):
        return cf(np.einsum("...kd,...k->...d",
                            flux_last(model, np.moveaxis(u, 0, -1)),
                            np.moveaxis(n, 0, -1)))

    def lf_flux(u, n, alpha):
        f = normal_flux(u, n)
        return 0.5 * (f[:, 0] + f[:, 1] - alpha * (u[:, 1] - u[:, 0]))

    ref.lf_flux = lf_flux
    ref.normal_flux = normal_flux
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
    got, want = op.residual(coeffs, 2.5, t=0.3), ref.residual(coeffs, 2.5,
                                                               t=0.3)
    if isinstance(model, Euler):
        # the rho v.n form of Euler's flux rounds differently
        assert_close_to_max(got, want, rtol=1e-14)
    else:
        assert np.array_equal(got, want)


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
    assert states.shape == (op.d, 2, mesh.n_edges, op.Q)
    assert np.array_equal(op.residual(coeffs, 2.5, t=0.3, states=states),
                          op.residual(coeffs, 2.5, t=0.3))
    assert (op.max_wavespeed(coeffs, t=0.3, states=states)
            == op.max_wavespeed(coeffs, t=0.3))


# -- shared reference-element edge operators against per-cell matrices -------

class PerCellEdgeOperators:
    """The per-cell trace and scatter matrices the operator once stored.

    TE (nc, 3, Q, nm) evaluates the modes at every cell's edge Gauss points
    in global edge-point order; the trace matrix is TE per cell and the
    scatter matrix its transpose weighted by sign * length * w_q.
    """

    def __init__(self, op):
        mesh, k, Q = op.mesh, op.k, op.Q
        tq = op.edge_t
        fwd_pts = np.empty((3, Q, 2))
        for i in range(3):
            a, b = REF_VERTICES[(i + 1) % 3], REF_VERTICES[(i + 2) % 3]
            fwd_pts[i] = a[None, :] + tq[:, None] * (b - a)[None, :]
        be_fwd = np.stack([basis.eval_modes(k, fwd_pts[i]) for i in range(3)])
        fwd = mesh.cell_edge_forward
        TE = np.where(fwd[:, :, None, None], be_fwd[None],
                      be_fwd[:, ::-1][None])
        nc, nm = mesh.n_cells, op.nm
        self.op = op
        self.trace_op = TE.reshape(nc, 3 * Q, nm)
        sign = np.where(fwd, 1.0, -1.0)
        wgt = (sign * mesh.edge_len)[:, :, None] * op.edge_w[None, None, :]
        self.scatter_op = (wgt[:, :, :, None] * TE).reshape(
            nc, 3 * Q, nm).transpose(0, 2, 1)

    def traces(self, coeffs):
        """(nc, 3, Q, d) in global edge-point order."""
        nc, _, d = coeffs.shape
        return np.matmul(self.trace_op, coeffs).reshape(nc, 3, self.op.Q, d)

    def edge_states(self, coeffs, t):
        op, mesh = self.op, self.op.mesh
        nc, _, d = coeffs.shape
        TR = self.traces(coeffs).reshape(3 * nc, op.Q, d)
        lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
        left = 3 * lc + il
        U = np.take(TR, np.stack([left, np.where(rc >= 0, 3 * rc + ir, left)]),
                    axis=0)
        bi = mesh.boundary_edge_ids
        U[1, bi] = boundary_ghosts(op, U[0, bi], t)
        return U

    def residual(self, coeffs, alpha, t):
        op = self.op
        nc, _, d = coeffs.shape
        U = self.edge_states(coeffs, t)
        fhat = np.moveaxis(op.model.lf_flux(
            cf(U), op.edge_normal_cf[:, :, None], alpha), 0, -1)
        F_ce = fhat[op.mesh.cell_edges].reshape(nc, 3 * op.Q, d)
        R = -np.matmul(self.scatter_op, F_ce)
        R += PerCellVolumeAndJets(op).volume(coeffs)
        mass = 2.0 * op.mesh.area[:, None] * basis.REF_NORMS[:op.nm]
        return R / mass[:, :, None]

    def vertex_values(self, coeffs):
        return np.matmul(self.op.vertex_basis, coeffs)


class PerCellVolumeAndJets:
    """The per-cell volume and vertex-derivative matrices the operator once
    stored, with their batched products.

    vol_op (nc, nm, 2N) is area * w_q * dPsi/dx_b, columns (q, b); jet_op
    (nc, 3 * n_derivs, nm) maps a cell's modes to the mixed physical
    derivatives of every order at its vertices, rows (vertex, stacked alpha).
    """

    def __init__(self, op):
        mesh, k = op.mesh, op.k
        nc, nm, N = mesh.n_cells, op.nm, op.n_int
        g, Ji = basis.eval_grad(k, op.int_pts), mesh.jac_inv
        G = (g[None, :, :, 0, None] * Ji[:, None, None, 0, :]
             + g[None, :, :, 1, None] * Ji[:, None, None, 1, :])
        vol = (mesh.area[:, None, None, None] * op.int_w[None, :, None, None]
               * G)
        self.vol_op = np.ascontiguousarray(
            vol.transpose(0, 2, 1, 3).reshape(nc, nm, N * 2))
        R = (k + 1) * (k + 2) // 2
        D = np.empty((nc, 3, R, nm))
        for j in range(k + 1):
            rows = slice(j * (j + 1) // 2, (j + 1) * (j + 2) // 2)
            ref = np.stack([basis.eval_modes(k, REF_VERTICES,
                                             r=j - ridx, s=ridx)
                            for ridx in range(j + 1)], axis=1)       # (3,j+1,nm)
            T = basis.physical_derivative_transform(Ji, j)           # (nc,j+1,j+1)
            np.matmul(T[:, None], ref, out=D[:, :, rows, :])
        self.jet_op = D.reshape(nc, 3 * R, nm)
        self.op = op

    def volume(self, coeffs):
        """area * sum_q w_q F(u) . grad Psi per cell: (nc, nm, d)."""
        op = self.op
        nc, _, d = coeffs.shape
        Fv = flux_last(op.model, op.interior_values(coeffs))         # (nc,N,2,d)
        return np.matmul(self.vol_op, Fv.reshape(nc, 2 * op.n_int, d))

    def vertex_jets(self, coeffs):
        """(d, n_derivs, 3, nc), the layout of VertexJetFilter.vertex_jets."""
        nc, _, d = coeffs.shape
        out = np.matmul(self.jet_op, coeffs)
        return out.reshape(nc, 3, -1, d).transpose(3, 2, 1, 0)


def orientation_meshes():
    """Periodic, perturbed, refined and IN/OUT/WALL meshes."""
    tags = {"left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"}
    periodic = generate_structured((0, 0, 1, 1), 4, 3, periodic=("x", "y"))
    return {
        "periodic": periodic,
        "perturbed-periodic": perturb(periodic, 0.3, seed=2),
        "refined": refine_uniform(perturb(generate_structured(
            (0, 0, 1, 1), 2, 2, periodic=("x",), tags=tags), 0.3, seed=4)),
        "tagged": perturb(generate_structured((0, 0, 1, 1), 4, 3, tags=tags),
                          0.25, seed=5),
    }


MESHES = orientation_meshes()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler(),
                                   ScaledModel(Euler(), 2.5)],
                         ids=lambda m: m.name)
def test_edge_operators_match_per_cell_reference(mesh_name, k, model):
    mesh = MESHES[mesh_name]
    fwd = mesh.cell_edge_forward
    # both orientations occur, on several local edge indices, and boundary
    # edges sit on more than one local edge index
    assert sum(fwd[:, i].any() and not fwd[:, i].all() for i in range(3)) >= 2
    bi = mesh.boundary_edge_ids
    assert not len(bi) or len(np.unique(mesh.edge_local[bi, 0])) >= 2
    rng = np.random.default_rng(40 + k)
    if model.positivity_constrained:
        mean = Euler().from_primitive(1.0, 0.3, -0.2, 1.0)
        inflow = Inflow(Euler().from_primitive(1.2, 0.5, 0.1, 0.9))
    else:
        mean = 0.5
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    op = SpatialOperator(mesh, model, k, boundary={
        "IN": inflow, "OUT": Outflow(), "WALL": Reflective()})
    ref = PerCellEdgeOperators(op)
    coeffs = 0.02 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean

    # traces run in each cell's traversal order: reversed where the cell
    # is the right side of its edge
    want = ref.traces(coeffs)
    want = np.where(fwd[:, :, None, None], want, want[:, :, ::-1])
    assert_close_to_max(op.traces(coeffs), want)
    assert_close_to_max(np.moveaxis(op._edge_states(coeffs, 0.3), 0, -1),
                        ref.edge_states(coeffs, 0.3))
    assert_close_to_max(op.vertex_values(coeffs), ref.vertex_values(coeffs))
    assert_close_to_max(op.residual(coeffs, 2.5, t=0.3),
                        ref.residual(coeffs, 2.5, t=0.3))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mass_conserved_on_perturbed_periodic_mesh(k):
    rng = np.random.default_rng(50 + k)
    mesh = MESHES["perturbed-periodic"]
    op = SpatialOperator(mesh, Burgers(), k)
    coeffs = 0.3 * rng.standard_normal((mesh.n_cells, op.nm, 1))
    coeffs[:, 0, :] += 1.0
    R0 = op.residual(coeffs, 2.0)[:, 0, 0]
    assert abs(mesh.area @ R0) <= 1e-13 * (mesh.area @ np.abs(R0))


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model,mode", [
    (Advection(), "componentwise"), (Burgers(), "componentwise"),
    (Euler(), "componentwise"), (Euler(), "rioe"),
    (ScaledModel(Euler(), 2.5), "componentwise"),
    (ScaledModel(Euler(), 2.5), "rioe")],
    ids=lambda v: getattr(v, "name", v))
def test_volume_and_jets_match_per_cell_reference(mesh_name, k, model, mode):
    mesh = MESHES[mesh_name]
    rng = np.random.default_rng(60 + k)
    if model.positivity_constrained:
        mean = Euler().from_primitive(1.0, 0.3, -0.2, 1.0)
        inflow = Inflow(Euler().from_primitive(1.2, 0.5, 0.1, 0.9))
    else:
        mean = 0.5
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    boundary = {"IN": inflow, "OUT": Outflow(), "WALL": Reflective()}
    op = SpatialOperator(mesh, model, k, boundary=boundary)
    ref = PerCellVolumeAndJets(op)
    coeffs = 0.02 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean

    ref_f = cl.VertexJetFilter(op, mode=mode, guard_wavespeed=True)
    assert_close_to_max(ref_f.vertex_jets(coeffs), ref.vertex_jets(coeffs))
    assert_close_to_max(op.residual(coeffs, 2.5, t=0.3),
                        PerCellEdgeOperators(op).residual(coeffs, 2.5, 0.3))
    # the filter against its vertex-jet twin whose jets come from the
    # per-cell matrices; the clamped wavespeed keeps rough P4 vertex values
    # usable
    ref_f.vertex_jets = ref.vertex_jets
    X = OEFilter(op, mode=mode, guard_wavespeed=True).damping_exponents(
        coeffs, 0.01, t=0.3)
    want = ref_f.damping_exponents(coeffs, 0.01, t=0.3)
    assert np.abs(want).min() > 0
    assert_close_to_max(X, want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_volume_operator_and_points_match_einsum_formulas(k):
    mesh = MESHES["perturbed-periodic"]
    op = SpatialOperator(mesh, Advection(), k)
    G = np.einsum("qla,cab->cqlb", basis.eval_grad(k, op.int_pts),
                  mesh.jac_inv)
    vol = mesh.area[:, None, None, None] * op.int_w[None, :, None, None] * G
    want = vol.transpose(0, 2, 1, 3).reshape(mesh.n_cells, op.nm, -1)
    assert np.array_equal(PerCellVolumeAndJets(op).vol_op, want)
    # the shared form: the reference matrix, its rows scaled back by the
    # reference norms, against the contravariant vectors |K| (row a of J^-1)
    shared = np.einsum("laq,bac->clqb",
                       op._vol_ref.reshape(op.nm, 2, op.n_int),
                       op._contravariant[:, :, 0])
    shared *= basis.REF_NORMS[: op.nm, None, None]
    assert_close_to_max(shared.reshape(mesh.n_cells, op.nm, -1), want)
    X = (mesh.vertices[mesh.cells[:, 0]][:, None, :]
         + np.einsum("qa,cba->cqb", op.int_pts, mesh.jac))
    assert np.array_equal(op.int_points_phys, X)


def named_arrays(obj):
    """(attribute, array) for every array an object holds, in lists too."""
    for name, value in vars(obj).items():
        stack = [value]
        while stack:
            v = stack.pop()
            if isinstance(v, np.ndarray):
                yield name, v
            elif isinstance(v, (list, tuple)):
                stack.extend(v)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_no_per_cell_trace_or_scatter_matrix(k):
    # no array on the operator or the filter has both a cell axis and a mode
    # axis; the per-cell tables below have edge points, interior nodes or
    # local edges where a length can equal nm (3Q = nm at k = 4, N = 3 local
    # edges = nm at k = 1); 60 cells, more than any reference table has rows
    # or columns
    mesh = perturb(generate_structured((0, 0, 1, 1), 6, 5,
                                       periodic=("x", "y")), 0.3, seed=2)
    op = SpatialOperator(mesh, Euler(), k)
    nc, nm, Q = mesh.n_cells, op.nm, op.Q
    known = {"_flux_take": (3 * Q, nc), "_flux_weights": (3 * Q, nc),
             "int_points_phys": (nc, op.n_int, 2), "A_h": (k + 1, 3, nc)}
    arrays = [*named_arrays(op), *named_arrays(OEFilter(op, mode="rioe"))]
    assert arrays
    flagged = [(name, a.shape) for name, a in arrays
               if nc in a.shape and nm in a.shape]
    assert all(known.get(name) == shape for name, shape in flagged)


def perfbench_child(monkeypatch):
    """perfbench/child.py, for its retained_bytes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_retained_operator_bytes_per_cell_at_p3(monkeypatch):
    # the numpy bytes a k = 3 operator keeps on the 64 x 64 periodic mesh,
    # counted as the benchmark counts them; one matrix per cell on the modes
    # took 5.2 KB per cell
    child = perfbench_child(monkeypatch)
    mesh = generate_structured((0, 0, 1, 1), 64, 64, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 3)
    per_cell = child.retained_bytes(vars(op), set()) / mesh.n_cells
    assert per_cell <= 1500


def test_retained_operator_and_filter_bytes_per_cell_at_euler_p2(monkeypatch):
    # the operator and rioe filter of P2 Euler on the 64 x 64 periodic mesh,
    # one count for the arrays they share; gather tables with a component
    # axis, four times the size, took 1.3 KB per cell
    child = perfbench_child(monkeypatch)
    mesh = generate_structured((0, 0, 1, 1), 64, 64, periodic=("x", "y"))
    op = SpatialOperator(mesh, Euler(), 2)
    f = OEFilter(op, mode="rioe")
    seen = set()
    retained = (child.retained_bytes(vars(op), seen)
                + child.retained_bytes(vars(f), seen))
    assert retained / mesh.n_cells <= 750


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_index_tables_do_not_depend_on_the_model(k):
    # the gather tables index the (node, cell) axis alone: an Euler operator
    # and rioe filter hold the tables of an advection operator and
    # component-wise filter on the same mesh, ghost edges included
    mesh = perturb(generate_structured((0, 0, 1, 1), 5, 4, tags={
        "left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"}),
        0.25, seed=7)
    tables = []
    for model, mode, inflow in (
            (Euler(), "rioe", Inflow(Euler().from_primitive(1, 0.5, 0, 1))),
            (Advection(), "componentwise", Inflow(0.5))):
        op = SpatialOperator(mesh, model, k, boundary={"IN": inflow})
        f = OEFilter(op, mode=mode)
        tables.append([op.trace_take, op._flux_take, op._flux_weights,
                       op.ghost_ids, f.endpoint_take, f.cell_take])
    assert len(tables[0][3]) > 0
    for euler, advection in zip(*tables):
        assert euler.shape == advection.shape
        assert np.array_equal(euler, advection)


def side_table_meshes():
    """Perturbed meshes: periodic in x and y, periodic in x with walls,
    IN/OUT/WALL, and a refined periodic mesh."""
    box = (0, 0, 1, 1)
    walls = {"bottom": "WALL", "top": "WALL"}
    tags = {"left": "IN", "right": "OUT", **walls}
    periodic = generate_structured(box, 4, 3, periodic=("x", "y"))
    return {
        "periodic": perturb(periodic, 0.3, seed=1),
        "periodic-x-walls": perturb(generate_structured(
            box, 4, 3, periodic=("x",), tags=walls), 0.3, seed=2),
        "in-out-wall": perturb(generate_structured(box, 4, 3, tags=tags),
                               0.25, seed=3),
        "refined-periodic": perturb(refine_uniform(periodic), 0.3, seed=4),
    }


SIDE_TABLE_MESHES = side_table_meshes()


def separate_side_tables(op):
    """trace_take, endpoint_take, cell_take, ghost_gauss and ghost_endpoints
    as the operator and the filter each derived them from the edge tables,
    with the side-1 rule written out at every table."""
    mesh, Q, tq = op.mesh, op.Q, op.edge_t
    nc = mesh.n_cells
    il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
    lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    q = np.arange(Q)
    left = (il[:, None] * Q + q) * nc + lc[:, None]
    right = (ir[:, None] * Q + (Q - 1 - q)) * nc + rc[:, None]
    trace_take = np.stack([left, np.where(rc[:, None] >= 0, right, left)])
    cells = np.stack([lc, np.where(rc >= 0, rc, lc)])
    lv_end = np.stack([(il + 1) % 3, (il + 2) % 3])
    rv_end = np.stack([(ir + 2) % 3, (ir + 1) % 3])
    vert = np.stack([lv_end, np.where(rc >= 0, rv_end, lv_end)])
    endpoint_take = vert * nc + cells[:, None]
    gi = op.ghost_ids
    pa = mesh.vertices[mesh.edge_vertices[gi, 0]]
    pb = mesh.vertices[mesh.edge_vertices[gi, 1]]
    ghost_gauss = (
        pa[:, None, :] + tq[None, :, None] * (pb - pa)[:, None, :],
        np.broadcast_to(op.edge_normal[gi][:, None, :], (len(gi), Q, 2)))
    ends = mesh.vertices[mesh.edge_vertices[gi]]
    ghost_endpoints = (ends, np.broadcast_to(
        op.edge_normal[gi][:, None, :], (len(gi), 2, 2)))
    return trace_take, endpoint_take, cells, ghost_gauss, ghost_endpoints


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mesh_name", sorted(SIDE_TABLE_MESHES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_two_sided_tables_match_separate_derivations(mesh_name, k):
    # every two-sided table comes from the operator's one builder and its
    # side-cell table, and holds what each consumer once derived itself
    mesh = SIDE_TABLE_MESHES[mesh_name]
    op = SpatialOperator(mesh, Advection(), k, boundary={"IN": Inflow(0.5)})
    f = OEFilter(op)
    trace, ends, cells, gauss, vertices = separate_side_tables(op)
    assert_same_array(op.trace_take, trace)
    assert_same_array(f.endpoint_take, ends)
    assert f.endpoint_take.flags.c_contiguous
    assert_same_array(op.side_cells, cells)
    assert_same_array(f.cell_take, cells)
    for got, want in zip(op.ghost_gauss + f.ghost_endpoints, gauss + vertices):
        assert_same_array(got, want)
    if "periodic" not in mesh_name or "walls" in mesh_name:
        assert len(op.ghost_ids) > 0
    # the cell _reject_inadmissible names for each (edge, side): the right
    # cell on side 1 of an interior edge, the boundary cell for a ghost
    for eid in range(mesh.n_edges):
        for side in (0, 1):
            ok = np.ones((2, mesh.n_edges, op.Q), dtype=bool)
            ok[side, eid, op.Q - 1] = False
            with pytest.raises(AdmissibilityError) as e:
                op._reject_inadmissible(ok)
            cell = mesh.edge_cells[eid, side]
            if cell < 0:
                cell = mesh.edge_cells[eid, 0]
            assert (e.value.cell, e.value.edge) == (cell, eid)


# -- the component-major pipeline against the components-last one -----------

@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler(),
                                   ScaledModel(Euler(), 2.5)],
                         ids=lambda m: m.name)
def test_pipeline_matches_components_last_reference(mesh_name, k, model):
    from tridg.bp import BPLimiter
    from tridg.dg import component_major, modal_view
    mesh = MESHES[mesh_name]
    rng = np.random.default_rng(70 + k)
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
    state = modal_view(component_major(coeffs))

    assert_close_to_max(op.residual(state, 2.5, t=0.3),
                        cl.residual(op, coeffs, 2.5, 0.3))
    ref_f = cl.VertexJetFilter(op)
    assert_close_to_max(ref_f.vertex_jets(state).transpose(1, 2, 3, 0),
                        cl.vertex_jets(ref_f, coeffs))
    modes = ["componentwise"] + (["rioe"] if model.momentum_components
                                 else [])
    for mode in modes:
        f = OEFilter(op, mode=mode, guard_wavespeed=True)
        want = cl.damping_exponents(f, coeffs, 0.01, 0.3)
        assert np.abs(want).min() > 0
        assert_close_to_max(f.damping_exponents(state, 0.01, 0.3), want)
    if k > 2:
        return
    # states the limiter scales: negative density at some nodes, or node
    # values outside the scalar interval
    rough = coeffs.copy()
    if model.positivity_constrained:
        rough[::3, 1:, 0] *= 40.0
        lim = BPLimiter(op, "dcw")
    else:
        rough[:, 1:, :] *= 20.0
        lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    rough_state = ModalState(k, modal_view(component_major(rough)), 0.3)
    got = lim.apply(rough_state)
    assert lim.violations > 0
    assert_close_to_max(got.coeffs, cl.limit(lim, rough_state).coeffs)
