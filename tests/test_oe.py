import copy
from math import comb

import numpy as np
import pytest

from tridg.dg import (Inflow, ModalState, Outflow, Reflective,
                      SpatialOperator, component_major, modal_view)
from tridg.errors import (AdmissibilityError, ConfigError,
                          UnsupportedOperationError)
from tridg.mesh import generate_structured, perturb
from tridg.oe import EPS_DEVIATION, OEFilter, damping_prefactor
from tridg.physics import Advection, Burgers, Euler, ScaledModel
from tridg.problems import get_problem

from components_last import (VertexJetFilter, assert_close_to_max,
                             boundary_ghosts, outflow_edges,
                             vertex_derivatives)


def make_op(k=2, n=5, model=None):
    mesh = generate_structured((0, 0, 1, 1), n, n, periodic=("x", "y"))
    return SpatialOperator(mesh, model or Advection(), k)


def random_state(op, rng, d=None, scale=1.0):
    d = d or op.model.n_components
    return ModalState(op.k, scale * rng.standard_normal(
        (op.mesh.n_cells, op.nm, d)))


# -- the filter's intermediate quantities, read through its private passes ---

def edge_jumps(f, coeffs, t=0.0):
    """Derivative jumps at edge endpoints for j = 0..k, from the filter's
    VertexJetFilter twin.

    Element j has shape (ne, 2, j+1, d) indexed by (edge, endpoint, alpha,
    component). 'copy' boundary edges are zero.
    """
    f = VertexJetFilter(f.op, f.mode, f.guard_wavespeed)
    J = f._endpoint_pass(coeffs, t)[0]                       # (d,R,2,ne)
    return [J[:, rows].transpose(3, 2, 1, 0) for rows in f.deriv_rows]


def edge_wavespeeds(f, coeffs, t=0.0):
    """beta per edge: max wavespeed over the two endpoints and both sides."""
    return f._beta(f._endpoint_pass(coeffs, t)[1])


def jump_measures(f, coeffs, t=0.0):
    """Component-wise jump measures delta[cell, edge, j, component]."""
    J = f._endpoint_pass(coeffs, t)[0]
    G = f._edge_measures(coeffs, J, rotated=False)           # (d,k+1,ne)
    mesh = f.op.mesh
    Ah = mesh.height.T[None] * f.A_h                         # (k+1,3,nc)
    delta = Ah * np.take(G, mesh.cell_edges.T, axis=2)
    return delta.transpose(3, 2, 1, 0)


def test_damping_prefactor():
    # (2j+1)/((2k-1) j!)
    assert damping_prefactor(1, 0) == pytest.approx(1.0)
    assert damping_prefactor(1, 1) == pytest.approx(3.0)
    assert damping_prefactor(2, 0) == pytest.approx(1.0 / 3.0)
    assert damping_prefactor(3, 2) == pytest.approx(0.5)


def test_global_deviation():
    op = make_op()
    f = OEFilter(op)
    # constant state -> zero deviation
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 1))
    coeffs[:, 0, 0] = 7.0
    _, dev, _ = f.global_deviation(coeffs)
    assert dev[0] <= 1e-14 * 7.0  # round-off only; guarded downstream
    # two-component averages weighted by area
    coeffs[: op.mesh.n_cells // 2, 0, 0] = 0.0
    _, dev, _ = f.global_deviation(coeffs)
    areas = op.mesh.area
    ubar = areas @ coeffs[:, 0, 0] / areas.sum()
    assert dev[0] == pytest.approx(max(abs(0 - ubar), abs(7 - ubar)), rel=1e-13)


def test_deviation_single_mode_on_reference_cell():
    # state = global average + Psi1 on each cell; deviation equals the max of
    # |Psi1| over the interior quadrature nodes
    op = make_op(k=1, n=2)
    f = OEFilter(op)
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 1))
    coeffs[:, 1, 0] = 1.0
    _, dev, _ = f.global_deviation(coeffs)
    psi_vals = np.abs(op.basis_int[:, 1])
    assert dev[0] == pytest.approx(psi_vals.max(), rel=1e-13)


def test_constant_state_unchanged():
    op = make_op()
    f = OEFilter(op)
    st = ModalState(op.k, np.zeros((op.mesh.n_cells, op.nm, 1)))
    st.coeffs[:, 0, 0] = -3.2
    out = f.apply(st, 0.1)
    assert np.array_equal(out.coeffs, st.coeffs)


def test_dt_zero_is_identity(rng):
    op = make_op()
    f = OEFilter(op)
    st = random_state(op, rng)
    out = f.apply(st, 0.0)
    assert np.allclose(out.coeffs, st.coeffs, atol=0)
    with pytest.raises(ConfigError):
        f.apply(st, -0.1)


def test_cell_averages_bit_preserved(rng):
    op = make_op()
    f = OEFilter(op)
    st = random_state(op, rng)
    out = f.apply(st, 0.37)
    assert np.array_equal(out.coeffs[:, 0, :], st.coeffs[:, 0, :])


def test_monotone_damping(rng):
    op = make_op()
    f = OEFilter(op)
    st = random_state(op, rng)
    out = f.apply(st, 0.5)
    assert np.all(np.abs(out.coeffs[:, 1:, :]) <= np.abs(st.coeffs[:, 1:, :]))


def test_scale_invariance(rng):
    op = make_op()
    f = OEFilter(op)
    st = random_state(op, rng)
    out = f.apply(st, 0.05)
    for a, b in ((2.7, -1.3), (-0.4, 10.0), (1e3, 0.0)):
        st2 = ModalState(op.k, a * st.coeffs.copy())
        st2.coeffs[:, 0, :] += b
        out2 = f.apply(st2, 0.05)
        want = a * out.coeffs.copy()
        want[:, 0, :] += b
        scale = np.abs(st2.coeffs).max()
        assert np.abs(out2.coeffs - want).max() <= 1e-13 * scale


def test_evolution_invariance(rng):
    op = make_op(k=2)
    st = random_state(op, rng)
    X_ref = OEFilter(op).damping_exponents(st.coeffs, 0.02)
    for lam in (0.1, 10.0):
        op_l = SpatialOperator(op.mesh, ScaledModel(Advection(), lam), 2)
        X = OEFilter(op_l).damping_exponents(st.coeffs, 0.02 / lam)
        denom = max(np.abs(X_ref).max(), 1e-300)
        assert np.abs(X - X_ref).max() / denom <= 1e-12


def test_piecewise_constant_delta_value():
    # two constant states 0/1: j=0 jump measure equals 1/(2k-1) at the
    # interface edges once the deviation normalization is 1
    for k in (1, 2):
        mesh = generate_structured((0, 0, 1, 1), 2, 1, diagonal="uniform")
        op = SpatialOperator(mesh, Advection(), k)
        f = OEFilter(op)
        coeffs = np.zeros((mesh.n_cells, op.nm, 1))
        right = mesh.centroid[:, 0] > 0.5
        coeffs[right, 0, 0] = 1.0
        jumps = edge_jumps(f, coeffs)
        S0 = 0.5 * (jumps[0][:, 0, 0, 0] ** 2 + jumps[0][:, 1, 0, 0] ** 2)
        # interface edges: those whose two cells differ
        lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        iface = (rc >= 0) & (right[lc] != right[np.maximum(rc, 0)])
        # with unit deviation normalization the measure is A^{k,0} sqrt(1)
        delta0 = damping_prefactor(k, 0) * np.sqrt(S0[iface])
        assert np.allclose(delta0, 1.0 / (2 * k - 1), rtol=1e-13)


def test_continuous_polynomial_gives_zero_sigma():
    # a globally linear field has no jumps in value or derivatives
    mesh = perturb(generate_structured((0, 0, 1, 1), 4, 4), 0.2, seed=1)
    op = SpatialOperator(mesh, Advection(), 2)
    f = OEFilter(op)
    st = op.project(lambda x, y: 2 * x - 3 * y + 0.4)
    X = f.damping_exponents(st.coeffs, 0.1)
    assert np.abs(X).max() <= 1e-10


def test_beta_advection_independent_of_state(rng):
    op = make_op(k=1)
    f = OEFilter(op)
    st = random_state(op, rng)
    beta = edge_wavespeeds(f, st.coeffs)
    n = op.edge_normal
    assert np.allclose(beta, np.abs(n[:, 0] + n[:, 1]), atol=1e-14)


def test_beta_advection_is_the_edge_speed(rng):
    # advection's speed is |n1 + n2| per edge whatever the state: _beta
    # returns it as the model gives it, with nothing to reduce
    op = SpatialOperator(tagged_perturbed_mesh(seed=2), Advection(), 2,
                         boundary={"IN": Inflow(0.5)})
    n1, n2 = op.edge_normal_cf
    for guard in (False, True):
        f = OEFilter(op, guard_wavespeed=guard)
        u = f._endpoint_pass(random_state(op, rng).coeffs, 0.1)[1]
        assert np.array_equal(f._beta(u), np.abs(n1 + n2))


def test_beta_burgers_endpoint_max():
    # single interior edge with known endpoint values
    mesh = generate_structured((0, 0, 1, 1), 1, 1, diagonal="uniform")
    op = SpatialOperator(mesh, Burgers(), 1)
    f = OEFilter(op)
    st = op.project(lambda x, y: 3.0 * x - 1.0)  # values in [-1, 2]
    beta = edge_wavespeeds(f, st.coeffs)
    eid = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)[0]
    n = op.edge_normal[eid]
    # diagonal edge endpoints (1,0) and (0,1): |u| max is 2 at (1,0)
    assert beta[eid] == pytest.approx(2.0 * abs(n[0] + n[1]), rel=1e-12)


def endpoint_vertices(mesh):
    """Local vertex indices of each edge's endpoints in global edge order.

    The left cell traverses (il+1)%3 -> (il+2)%3; the right cell traverses
    its local edge reversed.
    """
    il, ir = mesh.edge_local[:, 0], mesh.edge_local[:, 1]
    return (np.stack([(il + 1) % 3, (il + 2) % 3], axis=1),
            np.stack([(ir + 2) % 3, (ir + 1) % 3], axis=1))


def test_beta_euler_matches_wavespeed(rng):
    prob = get_problem("euler_implosion_mild")
    model = prob.make_model()
    mesh = prob.make_rect_mesh(4)
    op = SpatialOperator(mesh, model, 1, boundary=prob.boundary(model))
    f = OEFilter(op, mode="rioe")
    st = op.project(prob.ic)
    beta = edge_wavespeeds(f, st.coeffs)
    VV = op.vertex_values(st.coeffs)
    lc = mesh.edge_cells[:, 0]
    u_end = VV[lc[:, None], endpoint_vertices(mesh)[0]]
    n = op.edge_normal_cf[:, :, None]
    direct = model.wavespeed(np.moveaxis(u_end, -1, 0), n).max(axis=1)
    assert np.all(beta >= direct - 1e-13)


def test_beta_names_the_cell_and_edge_of_an_inadmissible_endpoint():
    # one cell's density dips below zero at a vertex, its average and every
    # other cell admissible: the unguarded filter's wavespeed abort names
    # that cell and one of its edges; the guarded filter stays finite
    prob = get_problem("euler_implosion_mild")
    model = prob.make_model()
    mesh = perturb(prob.make_rect_mesh(4), seed=1)
    op = SpatialOperator(mesh, model, 1, boundary=prob.boundary(model))
    st = op.project(prob.ic)
    cell = 11
    st.coeffs[cell, 1:, 0] = 4.0 * st.coeffs[cell, 0, 0]
    VV = op.vertex_values(st.coeffs)                              # (nc,3,d)
    ok = model.admissible(np.moveaxis(VV, -1, 0))
    assert not ok[cell].all() and ok[np.arange(mesh.n_cells) != cell].all()
    for mode in ("componentwise", "rioe"):
        with pytest.raises(AdmissibilityError,
                           match="inadmissible state at edge endpoint") as e:
            OEFilter(op, mode=mode).apply(st, 1e-3)
        assert e.value.cell == cell
        assert e.value.edge in mesh.cell_edges[cell]
        out = OEFilter(op, mode=mode, guard_wavespeed=True).apply(st, 1e-3)
        assert np.all(np.isfinite(out.coeffs))


def test_rioe_requires_rotation_model():
    op = make_op()
    with pytest.raises(UnsupportedOperationError):
        OEFilter(op, mode="rioe")
    with pytest.raises(ConfigError):
        OEFilter(op, mode="bogus")


def test_guard_suppresses_damping_near_roundoff():
    op = make_op(k=1)
    f = OEFilter(op)
    coeffs = np.zeros((op.mesh.n_cells, op.nm, 1))
    coeffs[:, 0, 0] = 1.0
    coeffs[:, 1, 0] = 0.25 * EPS_DEVIATION  # below the guard threshold
    X = f.damping_exponents(coeffs, 1.0)
    assert np.all(X == 0.0)


def test_outflow_edges_contribute_no_jump():
    mesh = generate_structured((0, 0, 1, 1), 3, 3)  # all OUT
    op = SpatialOperator(mesh, Advection(), 1)
    f = OEFilter(op)
    st = op.project(lambda x, y: np.sin(x + y))
    jumps = edge_jumps(f, st.coeffs)
    for eid in mesh.boundary_edge_ids:
        assert np.all(jumps[0][eid] == 0.0)
        assert np.all(jumps[1][eid] == 0.0)


def test_jump_measures_consistent_with_exponents(rng):
    # recombining the jump measures and the edge wavespeeds reproduces the
    # damping exponents (component-wise mode)
    op = make_op(k=2)
    f = OEFilter(op)
    st = random_state(op, rng)
    delta = jump_measures(f, st.coeffs)
    beta = edge_wavespeeds(f, st.coeffs)[op.mesh.cell_edges]
    sigma = ((beta / op.mesh.height)[:, :, None, None] * delta).sum(axis=1)
    dt = 0.03
    want = dt * np.cumsum(sigma, axis=1)[:, 1:, :]
    got = f.damping_exponents(st.coeffs, dt)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-300)


# -- reference: the global deviations as (nc, N, d) short-axis reductions ----

def reference_deviation(op, coeffs):
    """(ubar, dev, mdev) from cell-major interior values, as first written."""
    mesh = op.mesh
    ubar = mesh.area @ coeffs[:, 0, :] / mesh.area.sum()
    vals = op.interior_values(coeffs) - ubar[None, None, :]
    dev = np.abs(vals).max(axis=(0, 1))
    mdev = None
    mom = op.model.momentum_components
    if mom:
        mdev = float(np.sqrt((vals[..., list(mom)] ** 2)
                             .sum(axis=-1)).max())
    return ubar, dev, mdev


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", [Advection(), Euler()],
                         ids=lambda m: m.name)
def test_global_deviation_matches_reference(k, model):
    rng = np.random.default_rng(k)
    op = SpatialOperator(tagged_perturbed_mesh(seed=k), model, k, boundary={
        "IN": Outflow()})
    f = OEFilter(op)
    coeffs = rng.standard_normal((op.mesh.n_cells, op.nm, op.d))
    ubar, dev, mdev = reference_deviation(op, coeffs)
    got = f.global_deviation(coeffs)
    assert np.array_equal(got[0], ubar)
    assert np.array_equal(got[1], dev)
    assert got[2] == mdev


# -- reference: the per-order jump assembly, one derivative order at a time --

def reference_damping_exponents(f, coeffs, dt, t=0.0):
    """Damping exponents assembled order by order from vertex_derivatives."""
    op, k, d = f.op, f.k, coeffs.shape[2]
    mesh = op.mesh
    ne = mesh.n_edges
    lc, rc = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    ii = np.flatnonzero(rc >= 0)
    lv_end, rv_end = endpoint_vertices(mesh)
    bi = mesh.boundary_edge_ids
    state = ~outflow_edges(op)
    state_ids = bi[state]

    # degree-0 ghosts at the endpoints of non-outflow boundary edges
    VV = op.vertex_values(coeffs)
    u_bint = VV[lc[state_ids, None], lv_end[state_ids]]
    u_bghost = boundary_ghosts(op, VV[lc[bi, None], lv_end[bi]], t,
                               endpoints=True)[state]

    jumps = []
    for j in range(k + 1):
        Vd = vertex_derivatives(op, coeffs, j)
        J = np.zeros((ne, 2, j + 1, d))
        J_int = Vd[lc[:, None], lv_end]
        J[ii] = J_int[ii] - Vd[rc[ii, None], rv_end[ii]]
        if len(state_ids):
            J[state_ids] = (u_bint - u_bghost)[:, :, None, :] if j == 0 \
                else J_int[state_ids]
        jumps.append(J)

    u_int = VV[lc[:, None], lv_end]
    u_ext = u_int.copy()
    u_ext[ii] = VV[rc[ii, None], rv_end[ii]]
    u_ext[state_ids] = u_bghost
    n = op.edge_normal_cf[:, :, None]
    speed = (op.model.wavespeed_clamped if f.guard_wavespeed
             else op.model.wavespeed)
    beta = np.maximum(speed(np.moveaxis(u_int, -1, 0), n),
                      speed(np.moveaxis(u_ext, -1, 0), n)).max(axis=1)

    ubar, dev, mdev = reference_deviation(f.op, coeffs)
    active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
    inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
    mom = list(op.model.momentum_components) if f.mode == "rioe" else []
    ce, h = mesh.cell_edges, mesh.height
    sigma = np.zeros((mesh.n_cells, k + 1, d))
    for j in range(k + 1):
        A = damping_prefactor(k, j)
        w = np.array([comb(j, a) for a in range(j + 1)], dtype=float)
        S = 0.5 * np.einsum("a,nead->nd", w, jumps[j] ** 2)
        delta = A * h[:, :, None] ** j * np.sqrt(S[ce]) * inv_dev
        if mom:
            jm1, jm2 = jumps[j][..., mom[0]], jumps[j][..., mom[1]]
            n1 = op.edge_normal[:, 0][:, None, None]
            n2 = op.edge_normal[:, 1][:, None, None]
            S_n = 0.5 * np.einsum("a,nea->n", w, (n1 * jm1 + n2 * jm2) ** 2)
            S_t = 0.5 * np.einsum("a,nea->n", w, (-n2 * jm1 + n1 * jm2) ** 2)
            if mdev > EPS_DEVIATION * max(1.0, float(np.hypot(*ubar[mom]))):
                dhat = A * h ** j * np.maximum(np.sqrt(S_n[ce]),
                                               np.sqrt(S_t[ce])) / mdev
            else:
                dhat = np.zeros_like(h)
            delta[:, :, mom] = dhat[:, :, None]
        sigma[:, j, :] = ((beta[ce] / h)[:, :, None] * delta).sum(axis=1)
    return dt * np.cumsum(sigma, axis=1)[:, 1:, :]


def tagged_perturbed_mesh(n=5, seed=3):
    mesh = generate_structured((0, 0, 1, 1), n, n, tags={
        "left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"})
    return perturb(mesh, 0.25, seed=seed)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model,mode", [(Advection(), "componentwise"),
                                        (Euler(), "componentwise"),
                                        (Euler(), "rioe")])
@pytest.mark.parametrize("guard", [False, True])
def test_damping_exponents_match_per_order_reference(k, model, mode, guard):
    rng = np.random.default_rng(10 * k + guard)
    mesh = tagged_perturbed_mesh(seed=k)
    if model.name == "euler":
        inflow = Inflow(model.from_primitive(1.0, 0.5, 0.2, 1.0))
    else:
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    op = SpatialOperator(mesh, model, k, boundary={
        "IN": inflow, "OUT": Outflow(), "WALL": Reflective()})
    f = OEFilter(op, mode=mode, guard_wavespeed=guard)
    coeffs = 1e-3 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += (model.from_primitive(1.0, 0.3, -0.2, 1.0)
                        if model.name == "euler" else 0.5)
    X = f.damping_exponents(coeffs, 0.01, t=0.2)
    want = reference_damping_exponents(f, coeffs, 0.01, t=0.2)
    assert np.abs(want).min() > 0
    np.testing.assert_allclose(X, want, rtol=1e-13, atol=0)


# -- reference: the concatenate/einsum measures of the fused pass ------------

def concatenated_edge_measures(f, coeffs, J, rotated):
    """The fused pass's measures with the rotated jumps as two extra
    columns: (k+1, d, ne) from the jumps J (d, R, 2, ne)."""
    d = coeffs.shape[2]
    J = np.moveaxis(J, 0, 2)                                 # (R,2,d,ne)
    sq = J * J
    if rotated:
        m1, m2 = J[:, :, f.mom[0]], J[:, :, f.mom[1]]
        n1, n2 = f.op.edge_normal[:, 0], f.op.edge_normal[:, 1]
        jn = n1 * m1 + n2 * m2
        jt = -n2 * m1 + n1 * m2
        sq = np.concatenate([sq, (jn * jn)[:, :, None],
                             (jt * jt)[:, :, None]], axis=2)
    R, _, dd, ne = sq.shape
    S = f.weights @ sq.reshape(2 * R, dd * ne)
    root = np.sqrt(S).reshape(f.k + 1, dd, ne)
    ubar, dev, mdev = reference_deviation(f.op, coeffs)
    active = dev > EPS_DEVIATION * np.maximum(1.0, np.abs(ubar))
    inv_dev = np.where(active, 1.0 / np.where(active, dev, 1.0), 0.0)
    G = root[:, :d] * inv_dev[:, None]
    if rotated:
        dhat = 0.0
        if mdev > EPS_DEVIATION * max(1.0, float(np.hypot(*ubar[f.mom]))):
            dhat = (np.maximum(root[:, d], root[:, d + 1]) / mdev)[:, None]
        G[:, f.mom] = dhat
    return G


def concatenated_damping_exponents(f, coeffs, dt, t=0.0):
    J, u = f._endpoint_pass(coeffs, t)
    G = concatenated_edge_measures(f, coeffs, J, rotated=bool(f.mom))
    ce = f.op.mesh.cell_edges.T
    w = f._beta(u)[ce] * f.A_h
    sigma = np.einsum("jec,jdec->jdc", w, np.take(G, ce, axis=2))
    return dt * np.cumsum(sigma, axis=0)[1:].transpose(2, 0, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model,mode", [(Advection(), "componentwise"),
                                        (Euler(), "componentwise"),
                                        (Euler(), "rioe")])
@pytest.mark.parametrize("guard", [False, True])
def test_damping_exponents_match_concatenated_reference(k, model, mode,
                                                        guard):
    rng = np.random.default_rng(7 * k + guard)
    mesh = tagged_perturbed_mesh(seed=k + 5)
    if model.name == "euler":
        inflow = Inflow(model.from_primitive(1.0, 0.5, 0.2, 1.0))
        mean = model.from_primitive(1.0, 0.3, -0.2, 1.0)
    else:
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
        mean = 0.5
    op = SpatialOperator(mesh, model, k, boundary={
        "IN": inflow, "OUT": Outflow(), "WALL": Reflective()})
    f = VertexJetFilter(op, mode=mode, guard_wavespeed=guard)
    coeffs = 1e-2 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean
    X = f.damping_exponents(coeffs, 0.01, t=0.2)
    want = concatenated_damping_exponents(f, coeffs, 0.01, t=0.2)
    assert np.abs(want).min() > 0
    assert np.array_equal(X, want)


# -- reference: every order's jets at the three vertices ---------------------

def mixed_boundary_operator(model, k, seed):
    """An operator on a perturbed mesh with IN, OUT and WALL edges."""
    if model.name == "euler":
        inflow = Inflow(model.from_primitive(1.0, 0.5, 0.2, 1.0))
    else:
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
    return SpatialOperator(tagged_perturbed_mesh(seed=seed), model, k,
                           boundary={"IN": inflow, "OUT": Outflow(),
                                     "WALL": Reflective()})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model,mode,guard", [
    (Advection(), "componentwise", False), (Euler(), "rioe", False),
    (Euler(), "rioe", True)], ids=["advection-cw", "euler-rioe",
                                   "euler-rioe-guard"])
def test_damping_exponents_match_vertex_jet_reference(k, model, mode, guard):
    # the order-k jets once per cell and one jump per edge give the
    # exponents of every order's jets at both endpoints of every edge
    op = mixed_boundary_operator(model, k, seed=k + 10)
    bi = op.mesh.boundary_edge_ids
    assert {op.mesh.edge_tag[e] for e in bi} == {"IN", "OUT", "WALL"}
    rng = np.random.default_rng(90 + k)
    coeffs = 1e-2 * rng.standard_normal((op.mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += (model.from_primitive(1.0, 0.3, -0.2, 1.0)
                        if model.name == "euler" else 0.5)
    X = OEFilter(op, mode=mode, guard_wavespeed=guard).damping_exponents(
        coeffs, 0.01, t=0.2)
    want = VertexJetFilter(op, mode=mode, guard_wavespeed=guard) \
        .damping_exponents(coeffs, 0.01, t=0.2)
    assert np.abs(want).min() > 0
    assert_close_to_max(X, want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_top_order_jets_are_cell_constants(k):
    # the reference's order-k jets are the same at the three vertices of
    # every cell, and the filter's one value per cell
    op = mixed_boundary_operator(Euler(), k, seed=k)
    rng = np.random.default_rng(95 + k)
    coeffs = rng.standard_normal((op.mesh.n_cells, op.nm, op.d))
    ref = VertexJetFilter(op)
    top = ref.vertex_jets(coeffs)[:, ref.deriv_rows[k]]      # (d,k+1,3,nc)
    for v in (1, 2):
        assert_close_to_max(top[:, :, v], top[:, :, 0])
    cell = OEFilter(op).vertex_jets(coeffs)[1]               # (d,k+1,nc)
    assert_close_to_max(cell, top[:, :, 0])


# -- reference: the per-degree block scaling of a full state copy ------------

def block_loop_apply(f, state, dt):
    X = f.damping_exponents(state.coeffs, dt, state.t)
    out = state.copy()
    for m in range(1, f.k + 1):
        # the m + 1 modes of degree m
        block = slice(m * (m + 1) // 2, (m + 1) * (m + 2) // 2)
        out.coeffs[:, block, :] *= np.exp(-X[:, m - 1, None, :])
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("model,mode", [(Advection(), "componentwise"),
                                        (Euler(), "rioe")])
def test_apply_matches_block_loop(k, model, mode):
    rng = np.random.default_rng(30 + k)
    mesh = tagged_perturbed_mesh(seed=k)
    if model.name == "euler":
        inflow = Inflow(model.from_primitive(1.0, 0.5, 0.2, 1.0))
        mean = model.from_primitive(1.0, 0.3, -0.2, 1.0)
    else:
        inflow = Inflow(lambda x, y, t: np.sin(3 * x + y + t)[..., None])
        mean = 0.5
    op = SpatialOperator(mesh, model, k, boundary={
        "IN": inflow, "OUT": Outflow(), "WALL": Reflective()})
    f = OEFilter(op, mode=mode)
    coeffs = 1e-2 * rng.standard_normal((mesh.n_cells, op.nm, op.d))
    coeffs[:, 0, :] += mean
    # signed zeros in every degree; in the cell average where admissible
    if model.name == "euler":
        coeffs[::7, 1:, :] = -0.0
    else:
        coeffs[::7, :, :] = -0.0
    state = ModalState(k, coeffs, t=0.2)
    out = f.apply(state, 0.01)
    want = block_loop_apply(f, state, 0.01)
    assert out.t == want.t and out.k == want.k
    assert np.array_equal(out.coeffs, want.coeffs)
    assert np.array_equal(np.signbit(out.coeffs), np.signbit(want.coeffs))
    assert not np.shares_memory(out.coeffs, state.coeffs)


# -- reference: the filter before it skipped the ghost pass of ghost-free -----
# -- meshes and wrote the damped blocks into a fresh buffer ------------------

def former_endpoint_pass(f, coeffs, t):
    """OEFilter._endpoint_pass with its unconditional ghost zeroing and
    write_ghosts call."""
    op = f.op
    lo, top = f.vertex_jets(coeffs)
    d, nd, _, nc = lo.shape
    W = np.take(lo.reshape(d, nd, 3 * nc), f.endpoint_take, axis=-1)
    C = np.take(top, f.cell_take, axis=-1)
    gi = op.ghost_ids
    W[:, 1:, 1][..., gi] = 0.0
    C[:, :, 1][..., gi] = 0.0
    u = W[:, 0]
    op.write_ghosts(u, f.ghost_endpoints, t)
    J = np.empty((d, 2 * nd + f.k + 1, C.shape[-1]))
    np.subtract(W[:, :, 0], W[:, :, 1],
                out=J[:, :2 * nd].reshape(d, nd, 2, -1))
    np.subtract(C[:, :, 0], C[:, :, 1], out=J[:, 2 * nd:])
    return J, u


def former_global_deviation(f, coeffs):
    """OEFilter.global_deviation summing the cell areas on every call."""
    op, mesh = f.op, f.op.mesh
    means = np.ascontiguousarray(coeffs[:, :2, :])[:, 0, :]
    ubar = mesh.area @ means / mesh.area.sum()
    vals = op.at_nodes(op.basis_int, component_major(coeffs))
    vals -= ubar[:, None, None]
    mdev = None
    mom = op.model.momentum_components
    if mom:
        m1, m2 = vals[mom[0]], vals[mom[1]]
        mdev = float(np.sqrt((m1 * m1 + m2 * m2).max()))
    dev = np.abs(vals, out=vals).max(axis=2).max(axis=1)
    return ubar, dev, mdev


def former_apply(f, state, dt):
    """OEFilter.apply copying the state, then scaling each degree's block
    of the copy in place."""
    ref = copy.copy(f)
    ref._endpoint_pass = lambda c, t: former_endpoint_pass(ref, c, t)
    ref.global_deviation = lambda c: former_global_deviation(ref, c)
    X = ref._exponents(state.coeffs, -dt, state.t)
    np.exp(X, out=X)
    coeffs = component_major(state.coeffs, copy=True)
    for m in range(1, f.k + 1):
        coeffs[:, m * (m + 1) // 2:(m + 1) * (m + 2) // 2] *= \
            X[:, m - 1, None]
    return modal_view(coeffs)


@pytest.mark.parametrize("walled", [False, True], ids=["periodic", "walled"])
@pytest.mark.parametrize("k,mode", [(1, "rioe"), (2, "componentwise"),
                                    (2, "rioe"), (3, "rioe")])
def test_apply_matches_the_former_copy_then_scale_form(walled, k, mode):
    # a periodic mesh has no ghost edge, so the endpoint pass skips the
    # ghost zeroing and write_ghosts; the walled mesh keeps the ghost path
    rng = np.random.default_rng(40 + k)
    prob = get_problem("euler_implosion_mild")
    model = prob.make_model()
    if walled:
        mesh = perturb(prob.make_rect_mesh(6), seed=k)
    else:
        mesh = perturb(generate_structured((0, 0, 0.3, 0.3), 6, 6,
                                           periodic=("x", "y")), seed=k)
    op = SpatialOperator(mesh, model, k, boundary=prob.boundary(model))
    assert (len(op.ghost_ids) > 0) == walled
    f = OEFilter(op, mode=mode)
    written = []
    write_ghosts = op.write_ghosts
    op.write_ghosts = lambda *a: written.append(1) or write_ghosts(*a)
    coeffs = op.project(prob.ic).coeffs.copy()
    coeffs[:, 1:] += 0.02 * rng.standard_normal(coeffs[:, 1:].shape)
    coeffs[::7, 1:, :] = -0.0
    # a C-ordered state and the modal view of a component-major buffer
    for state in (ModalState(k, coeffs, 0.1),
                  ModalState(k, modal_view(component_major(coeffs,
                                                           copy=True)), 0.1)):
        before = state.coeffs.copy()
        written.clear()
        out = f.apply(state, 1e-3)
        assert bool(written) == walled
        want = former_apply(f, state, 1e-3)
        assert np.array_equal(out.coeffs.view(np.int64), want.view(np.int64))
        assert np.array_equal(state.coeffs.view(np.int64),
                              before.view(np.int64))
        assert not np.shares_memory(out.coeffs, state.coeffs)
        assert (out.t, out.k) == (0.1, k)
