import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridg.errors import AdmissibilityError, UnsupportedOperationError
from tridg.physics import (Advection, Burgers, Euler, ScaledModel, make_model,
                           rotate_vector)

from components_last import assert_close_to_max, cf, flux_last


def random_admissible(rng, n):
    rho = rng.uniform(0.1, 3.0, n)
    v1 = rng.uniform(-2, 2, n)
    v2 = rng.uniform(-2, 2, n)
    p = rng.uniform(0.05, 4.0, n)
    return Euler().from_primitive(rho, v1, v2, p)


def test_advection_flux():
    # F(u) = (u, u): F . n = u (n1 + n2)
    f = Advection().normal_flux(np.array([2.0]), np.array([0.6, -0.8]))
    assert np.allclose(f, [-0.4])


def test_burgers_flux():
    # F(u) = (u^2/2, u^2/2)
    f = Burgers().normal_flux(np.array([2.0]), np.array([0.6, 0.8]))
    assert np.allclose(f, [2.8])


def test_euler_flux_hand_value():
    # rho=1.4, v=(3,0), p=1 gives f1 = (4.2, 13.6, 0, 29.4), f2 = (0, 0, 1, 0)
    u = np.array([1.4, 4.2, 0.0, 8.8])
    f = Euler().normal_flux(u[:, None], np.array([[1.0], [0.0]]))
    assert f.shape == (4, 1)
    assert np.allclose(f[:, 0], [4.2, 13.6, 0.0, 29.4])
    # a non-unit normal scales the flux
    assert np.allclose(Euler().normal_flux(u[:, None], np.array([0.0, 2.0])),
                       [[0.0], [0.0], [2.0], [0.0]])
    assert Euler().pressure(u) == pytest.approx(1.0)


def test_euler_normal_flux_single_state():
    # a (4,) state with a (2,) normal gives the column of the (4, 1) result
    u = np.array([1.4, 4.2, 0.0, 8.8])
    for n in (np.array([1.0, 0.0]), np.array([0.6, -1.7])):
        f = Euler().normal_flux(u, n)
        assert f.shape == (4,)
        assert np.array_equal(f, Euler().normal_flux(u[:, None], n[:, None])[:, 0])
    assert np.allclose(Euler().normal_flux(u, np.array([1.0, 0.0])),
                       [4.2, 13.6, 0.0, 29.4])
    assert np.allclose(Euler().normal_flux(u, np.array([0.0, 2.0])),
                       [0.0, 0.0, 2.0, 0.0])
    # one state against several normals
    n = np.array([[1.0, 0.0, 0.6], [0.0, 2.0, -1.7]])
    assert np.array_equal(Euler().normal_flux(u, n),
                          Euler().normal_flux(u[:, None], n))


def test_wavespeeds():
    u = np.array([1.4, 4.2, 0.0, 8.8])  # sound speed 1 by construction
    assert Euler().wavespeed(u, np.array([1.0, 0.0])) == pytest.approx(4.0)
    n = np.array([np.sqrt(2) / 2, np.sqrt(2) / 2])
    assert Advection().wavespeed(np.array([5.0]), n) == pytest.approx(np.sqrt(2))
    assert Burgers().wavespeed(np.array([0.0]), np.array([1.0, 0.0])) == 0.0


def test_euler_wavespeed_matches_eigenvalues(rng):
    u = random_admissible(rng, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    n = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    model = Euler()
    got = model.wavespeed(cf(u), cf(n))
    rho, v1, v2, p = model.to_primitive(u)
    vn = v1 * n[:, 0] + v2 * n[:, 1]
    c = np.sqrt(model.gamma * p / rho)
    eigs = np.stack([vn - c, vn, vn + c])
    assert np.all(got >= np.abs(eigs).max(axis=0) - 1e-13)
    assert np.allclose(got, np.abs(vn) + c)


def test_lf_flux_consistency_and_antisymmetry(rng):
    model = Euler()
    u = random_admissible(rng, 50)
    v = random_admissible(rng, 50)
    phi = rng.uniform(0, 2 * np.pi, 50)
    n = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    alpha = 5.0
    # consistency
    f_same = model.lf_flux(cf(np.stack([u, u])), cf(n), alpha)
    fn = np.einsum("nkd,nk->dn", flux_last(model, u), n)
    assert np.allclose(f_same, fn, atol=1e-13)
    # conservation across the edge
    f_ab = model.lf_flux(cf(np.stack([u, v])), cf(n), alpha)
    f_ba = model.lf_flux(cf(np.stack([v, u])), cf(-n), alpha)
    assert np.allclose(f_ab, -f_ba, atol=1e-12)


def test_lf_flux_hand_value():
    f = Advection().lf_flux(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]),
                            1.0)
    assert f == pytest.approx(1.0)


def test_rotation_action():
    model = Euler()
    u = np.array([1.0, 1.0, 0.0, 3.0])
    # phi = 0 identity
    assert np.allclose(model.rotate_state(u, 0.0), u)
    # phi = pi/2 maps m=(1,0) to (0,-1) under the clockwise convention
    r = model.rotate_state(u, np.pi / 2)
    assert np.allclose(r[1:3], [0.0, -1.0], atol=1e-15)
    assert r[0] == u[0] and r[3] == u[3]
    # momentum magnitude invariant
    rng = np.random.default_rng(1)
    uu = random_admissible(rng, 100)
    phi = rng.uniform(0, 2 * np.pi, 100)
    rr = np.stack([model.rotate_state(uu[i], phi[i]) for i in range(100)])
    assert np.allclose(np.hypot(rr[:, 1], rr[:, 2]),
                       np.hypot(uu[:, 1], uu[:, 2]), rtol=1e-14)


def test_scalar_has_no_rotation():
    with pytest.raises(UnsupportedOperationError):
        Advection().rotate_state(np.array([1.0]), 0.3)


def test_rotational_invariance_of_flux_pair(rng):
    model = Euler()
    u = random_admissible(rng, 1000)
    phi = rng.uniform(0, 2 * np.pi, 1000)
    f = flux_last(model, u)
    ru = np.stack([model.rotate_state(u[i], phi[i]) for i in range(1000)])
    fr = flux_last(model, ru)
    c, s = np.cos(phi), np.sin(phi)
    # T^-1 f1(T u) = cos f1(u) + sin f2(u);  T^-1 f2(T u) = -sin f1 + cos f2
    finv1 = np.stack([model.rotate_state(fr[i, 0], -phi[i]) for i in range(1000)])
    finv2 = np.stack([model.rotate_state(fr[i, 1], -phi[i]) for i in range(1000)])
    want1 = c[:, None] * f[:, 0] + s[:, None] * f[:, 1]
    want2 = -s[:, None] * f[:, 0] + c[:, None] * f[:, 1]
    scale = np.abs(f).max()
    assert np.abs(finv1 - want1).max() <= 1e-12 * scale
    assert np.abs(finv2 - want2).max() <= 1e-12 * scale


def test_admissible():
    model = Euler()
    assert model.admissible(np.array([1.0, 0, 0, 1.0]))
    assert not model.admissible(np.array([1.0, 2.0, 0, 1.0]))  # E - m^2/2rho < 0
    assert not model.admissible(np.array([-1.0, 0, 0, 1.0]))
    assert Advection().admissible(np.array([-5.0]))


def test_internal_energy_exact_form():
    u = np.array([2.0, 3.0, 4.0, 10.0])
    want = 10.0 - (9.0 + 16.0) / 4.0
    assert Euler().internal_energy(u) == pytest.approx(want, rel=1e-15)


def test_reflect():
    model = Euler()
    u = np.array([1.0, 1.0, 0.0, 3.0])
    g = model.reflect(u, np.array([1.0, 0.0]))
    assert np.allclose(g, [1.0, -1.0, 0.0, 3.0])
    # tangential momentum preserved
    g2 = model.reflect(u, np.array([0.0, 1.0]))
    assert np.allclose(g2, u)


def test_scaled_model():
    rng = np.random.default_rng(2)
    u = random_admissible(rng, 10)
    m = ScaledModel(Euler(), 2.5)
    n = np.array([0.6, 0.8])
    assert np.allclose(m.normal_flux(cf(u), n),
                       2.5 * Euler().normal_flux(cf(u), n))
    assert np.allclose(m.wavespeed(cf(u), n),
                       2.5 * Euler().wavespeed(cf(u), n))


def test_wavespeed_clamped_matches_inside_and_is_finite_outside():
    model = Euler()
    u = np.array([1.0, 0.5, -0.2, 2.0])
    n = np.array([0.0, 1.0])
    assert model.wavespeed_clamped(u, n) == model.wavespeed(u, n)
    bad = np.array([1e-14, 0.5, 0.0, -1.0])
    assert np.isfinite(model.wavespeed_clamped(bad, n))


def former_wavespeed_clamped(model, u, n):
    """Euler.wavespeed_clamped as a chain of new arrays, before it wrote
    in place."""
    rho = np.maximum(u[0], 1e-12)
    vn = (u[1] * n[0] + u[2] * n[1]) / rho
    e = u[3] - (u[1] * u[1] + u[2] * u[2]) / (2.0 * rho)
    p = np.maximum((model.gamma - 1.0) * e, 0.0)
    return np.abs(vn) + np.sqrt(model.gamma * p / rho)


def test_wavespeed_clamped_matches_former_bit_for_bit():
    # states with rho at, below and far below the 1e-12 floor, zero and
    # negative density, negative pressure; a single state, one state per
    # edge and the filter's (4, 2, 2, ne) endpoint layout
    rng = np.random.default_rng(5)
    model = Euler(gamma=1.4)
    u = random_admissible(rng, 400).T.reshape(4, 2, 2, 100).copy()
    u[0, 0, 0, :20] = rng.choice([1e-12, 5e-13, 1e-300, 0.0, -1e-3], 20)
    u[3, 1, 1, 20:40] = -rng.uniform(0.0, 2.0, 20)
    n = rng.standard_normal((2, 100))
    n /= np.hypot(n[0], n[1])
    got = model.wavespeed_clamped(u, n)
    assert got.shape == (2, 2, 100)
    assert np.array_equal(got, former_wavespeed_clamped(model, u, n))
    flat = u.reshape(4, -1)
    for i in range(0, flat.shape[1], 37):
        one = model.wavespeed_clamped(flat[:, i], n[:, 0])
        assert np.ndim(one) == 0
        assert one == former_wavespeed_clamped(model, flat[:, i], n[:, 0])
    # one state against many normals, many states against one normal
    for ui, ni in ((flat[:, 3], n), (flat, n[:, 7])):
        assert np.array_equal(model.wavespeed_clamped(ui, ni),
                              former_wavespeed_clamped(model, ui, ni))


def former_wavespeed(model, u, n):
    """Euler.wavespeed as a chain of new arrays, before it shared the
    flux's in-place pass."""
    rho = u[0]
    if not np.all(rho > 0):
        raise AdmissibilityError("inadmissible state in wavespeed evaluation")
    e = u[3] - (u[1] * u[1] + u[2] * u[2]) / (2.0 * rho)
    if not np.all(e > 0):
        raise AdmissibilityError("inadmissible state in wavespeed evaluation")
    vn = (u[1] * n[0] + u[2] * n[1]) / rho
    return np.abs(vn) + np.sqrt(model.gamma * ((model.gamma - 1.0) * e) / rho)


def test_wavespeed_matches_former_bit_for_bit():
    # admissible states down to rho and p of 1e-12 in the filter's
    # (4, 2, 2, ne) endpoint layout, a single state, one state against many
    # normals and many states against one normal
    rng = np.random.default_rng(6)
    model = Euler(gamma=1.4)
    u = random_admissible(rng, 400).T.reshape(4, 2, 2, 100).copy()
    u[:, 0, 0, :10] = model.from_primitive(
        rng.choice([1e-12, 3e-9, 1e-6], 10), rng.uniform(-2, 2, 10),
        rng.uniform(-2, 2, 10), rng.uniform(0.05, 4.0, 10)).T
    u[:, 1, 1, 10:20] = model.from_primitive(
        rng.uniform(0.1, 3.0, 10), rng.uniform(-2, 2, 10),
        rng.uniform(-2, 2, 10), rng.choice([1e-12, 3e-9, 1e-6], 10)).T
    n = rng.standard_normal((2, 100))
    n /= np.hypot(n[0], n[1])
    got = model.wavespeed(u, n)
    assert got.shape == (2, 2, 100)
    assert np.array_equal(got, former_wavespeed(model, u, n))
    flat = u.reshape(4, -1)
    for i in range(0, flat.shape[1], 37):
        one = model.wavespeed(flat[:, i], n[:, 0])
        assert np.ndim(one) == 0
        assert one == former_wavespeed(model, flat[:, i], n[:, 0])
    for ui, ni in ((flat[:, 3], n), (flat, n[:, 7])):
        assert np.array_equal(model.wavespeed(ui, ni),
                              former_wavespeed(model, ui, ni))
    # NaN, zero and negative density or internal energy still raise
    for comp, value in ((0, np.nan), (0, 0.0), (0, -1.0), (3, np.nan),
                        (3, 0.0), (3, -1.0)):
        bad = u.copy()
        bad[comp, 1, 0, 42] = value
        for layout in (bad, bad[:, 1, 0, 42]):
            with pytest.raises(AdmissibilityError,
                               match="inadmissible state in wavespeed"):
                model.wavespeed(layout, n[:, 42])


def test_make_model():
    assert make_model("euler").name == "euler"
    assert make_model("euler", gamma=5 / 3).gamma == pytest.approx(5 / 3)
    with pytest.raises(UnsupportedOperationError):
        make_model("mhd")


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 2 * np.pi))
def test_rotate_vector_preserves_norm(vx, vy, phi):
    v = np.array([vx, vy])
    r = rotate_vector(v, phi)
    assert np.hypot(*r) == pytest.approx(np.hypot(vx, vy), abs=1e-12)
    back = rotate_vector(r, -phi)
    assert np.allclose(back, v, atol=1e-12)


def random_states(rng, model, n, q):
    if model.n_components == 4:
        return random_admissible(rng, n * q).reshape(n, q, 4)
    return rng.standard_normal((n, q, 1))


def einsum_normal_flux(model, u, n):
    # the contraction lf_flux used before models had their own normal flux,
    # components last
    return np.einsum("...kd,...k->...d", flux_last(model, u), n)


@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler(),
                                   ScaledModel(Euler(), 2.5)],
                         ids=lambda m: m.name)
def test_normal_flux_matches_einsum_reference(rng, model):
    u = random_states(rng, model, 60, 3)
    v = random_states(rng, model, 60, 3)
    phi = rng.uniform(0, 2 * np.pi, 60)
    edge_n = np.stack([np.cos(phi), np.sin(phi)], axis=-1)[:, None, :]
    point_n = np.broadcast_to(edge_n, (60, 3, 2)) * rng.choice([-1.0, 1.0],
                                                               (60, 3, 1))
    # Euler's normal flux takes the rho v.n form, which rounds differently
    # from the contraction of F(u); the scalar laws' fluxes are exact
    rtol = 1e-14 if model.positivity_constrained else 0.0
    for n in (edge_n, point_n):
        assert_close_to_max(model.normal_flux(cf(u), cf(n)),
                            cf(einsum_normal_flux(model, u, n)), rtol)
        want = 0.5 * (einsum_normal_flux(model, u, n)
                      + einsum_normal_flux(model, v, n) - 3.5 * (v - u))
        assert_close_to_max(
            model.lf_flux(cf(np.stack([u, v])), cf(n), 3.5), cf(want), rtol)


@pytest.mark.parametrize("rho", [0.0, -0.5])
def test_lf_flux_rejects_nonpositive_density_on_either_side(rng, rho):
    model = Euler()
    good = random_admissible(rng, 8)
    bad = good.copy()
    bad[3, 0] = rho
    n = np.tile([0.6, 0.8], (8, 1))
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(AdmissibilityError, match="non-positive density"):
            model.lf_flux(cf(np.stack([a, b])), cf(n), 1.0)


def former_lf_flux(model, u, n, alpha):
    # the base Model.lf_flux before two_sided_flux: one expression over the
    # checked normal flux of both sides
    if model.positivity_constrained and not model.admissible(u).all():
        raise AdmissibilityError("inadmissible state in flux evaluation")
    f = model.normal_flux(u, n)
    return 0.5 * (f[:, 0] + f[:, 1] - alpha * (u[:, 1] - u[:, 0]))


def former_euler_lf_flux(model, u, n, alpha):
    # Euler's own lf_flux before two_sided_flux: one pointwise pass, the
    # combination written in place over side 0's flux
    p = model._pressure(u, check=True)
    buf = np.empty((2,) + u.shape[:1] + u.shape[2:])
    model._write_normal_flux(u, p, n, buf.transpose(1, 0, *range(2, buf.ndim)))
    out = buf[0]
    out += buf[1]
    jump = u[:, 1] - u[:, 0]
    jump *= alpha
    out -= jump
    out *= 0.5
    return out


@pytest.mark.parametrize("model", [Advection(), Burgers(), Euler(),
                                   ScaledModel(Euler(), 2.5)],
                         ids=lambda m: m.name)
def test_lf_flux_is_bit_identical_to_former_forms(rng, model):
    # the solver's layout: two-sided states (d, 2, Q, ne) against normals
    # (2, ne), and per-point normals (2, Q, ne)
    ne, q = 50, 3
    u = np.ascontiguousarray(cf(random_states(rng, model, 2 * q * ne, 1)
                                .reshape(2, q, ne, -1)))
    phi = rng.uniform(0, 2 * np.pi, (q, ne))
    point_n = np.stack([np.cos(phi), np.sin(phi)])
    for n in (point_n[:, 0], point_n):
        got = model.lf_flux(u, n, 3.5)
        assert np.array_equal(got, former_lf_flux(model, u, n, 3.5))
        if isinstance(model, Euler):
            assert np.array_equal(got, former_euler_lf_flux(model, u, n, 3.5))


def test_euler_wavespeed_matches_pressure_form(rng):
    model = Euler()
    u = random_admissible(rng, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    n = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    rho = u[:, 0]
    vn = (u[:, 1] * n[:, 0] + u[:, 2] * n[:, 1]) / rho
    want = np.abs(vn) + np.sqrt(model.gamma * model.pressure(u) / rho)
    assert np.array_equal(model.wavespeed(cf(u), cf(n)), want)
    # zero or negative density, non-positive internal energy and NaN all fail
    for row, col, value in ((5, 0, 0.0), (5, 0, -1.0), (7, 3, 0.0),
                            (9, 1, np.nan)):
        bad = u.copy()
        bad[row, col] = value
        with pytest.raises(AdmissibilityError,
                           match="inadmissible state in wavespeed"):
            model.wavespeed(cf(bad), cf(n))
