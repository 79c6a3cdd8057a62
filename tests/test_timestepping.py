import math

import numpy as np
import pytest

from tridg import timestepping
from tridg.bp import BPLimiter
from tridg.dg import Inflow, ModalState, SpatialOperator
from tridg.errors import AdmissibilityError, ConfigError, NumericsError
from tridg.harness import build_solver
from tridg.mesh import generate_structured, perturb
from tridg.oe import OEFilter
from tridg.physics import Advection, Euler, Model
from tridg.problems import get_problem
from tridg.timestepping import (SSP_RK22, SSP_RK33, SSP_RK54, advance,
                                default_scheme_for, run, scheme_by_name)


def test_shu_osher_rows_are_convex():
    for scheme in (SSP_RK22, SSP_RK33, SSP_RK54):
        for a_row, b_row in zip(scheme.alpha, scheme.beta):
            assert all(a >= 0 for a in a_row)
            assert all(b >= 0 for b in b_row)
            assert sum(a_row) == pytest.approx(1.0, abs=1e-14)


def test_rk33_coefficients_printed_form():
    assert SSP_RK33.alpha[1] == (0.75, 0.25)
    assert SSP_RK33.alpha[2][0] == pytest.approx(1 / 3)
    assert SSP_RK33.alpha[2][2] == pytest.approx(2 / 3)
    assert SSP_RK33.c_ssp == 1.0
    assert SSP_RK54.c_ssp == pytest.approx(1.508)


def test_schemes_are_immutable():
    # the schemes are module-level constants shared by every run
    for attr, value in (("c_ssp", 2.0), ("alpha", ()), ("abscissae", ()),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(SSP_RK33, attr, value)
    with pytest.raises(AttributeError):
        del SSP_RK33.beta
    assert SSP_RK33.c_ssp == 1.0 and SSP_RK33.n_stages == 3


def test_scheme_lookup():
    assert scheme_by_name("rk33") is SSP_RK33
    with pytest.raises(ConfigError):
        scheme_by_name("rk99")
    assert default_scheme_for(1) is SSP_RK22
    assert default_scheme_for(2) is SSP_RK33
    assert default_scheme_for(4) is SSP_RK54


def linear_ode_error(scheme, dt, lam=-1.0, t_end=1.0):
    # du/dt = lam * u through the Shu-Osher machinery on a 1-coefficient state
    state = ModalState(1, np.full((1, 1, 1), 1.0))
    n = round(t_end / dt)
    for _ in range(n):
        state = advance(state, dt, lambda c, t: lam * c, scheme)
    return abs(state.coeffs[0, 0, 0] - np.exp(lam * t_end))


@pytest.mark.parametrize("scheme,order", [(SSP_RK22, 2), (SSP_RK33, 3),
                                          (SSP_RK54, 4)])
def test_rk_order_on_linear_problem(scheme, order):
    e1 = linear_ode_error(scheme, 0.05)
    e2 = linear_ode_error(scheme, 0.025)
    assert e1 / e2 == pytest.approx(2 ** order, rel=0.25)


@pytest.mark.parametrize("scheme,calls", [(SSP_RK22, 2), (SSP_RK33, 3),
                                          (SSP_RK54, 5)])
def test_one_residual_per_stage(scheme, calls):
    seen = []

    def residual(c, t):
        seen.append(c)
        return -c

    state = ModalState(1, np.full((1, 1, 1), 1.0))
    advance(state, 0.1, residual, scheme)
    assert len(seen) == calls


def test_rk3_single_step_local_error():
    # one step matches exp to O(dt^4)
    for dt in (0.1, 0.05):
        state = ModalState(1, np.full((1, 1, 1), 1.0))
        out = advance(state, dt, lambda c, t: -c, SSP_RK33)
        err = abs(out.coeffs[0, 0, 0] - np.exp(-dt))
        assert err <= 0.1 * dt ** 4


def test_constant_state_fixed_point():
    mesh = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.full_like(x, 0.6))
    oe = OEFilter(op)
    lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    for scheme in (SSP_RK22, SSP_RK33, SSP_RK54):
        out = advance(st, 1e-3, lambda c, t: op.residual(c, np.sqrt(2), t),
                      scheme, oe=oe, bp=lim)
        assert np.abs(out.coeffs - st.coeffs).max() <= 1e-13


def test_run_reaches_output_times_exactly():
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))
    res = run(op, st, t_end=0.1, output_times=(0.03, 0.1))
    assert res.state.t == pytest.approx(0.1, abs=1e-14)
    times = [t for t, _ in res.snapshots]
    assert times[0] == 0.0
    assert 0.03 in times and 0.1 in times
    assert len(res.dt_history) == res.steps


def test_run_zero_duration():
    mesh = generate_structured((0, 0, 1, 1), 2, 2, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))
    res = run(op, st, t_end=0.0)
    assert res.steps == 0
    assert len(res.snapshots) == 1


def test_mass_conservation_with_hooks():
    mesh = generate_structured((0, 0, 1, 1), 6, 6, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 2)
    st = op.project(lambda x, y: 0.5 + 0.3 * np.sin(2 * np.pi * (x + y)))
    mass0 = mesh.area @ st.coeffs[:, 0, 0]
    lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    for start, kwargs in ((st, dict()), (st, dict(oe=OEFilter(op))),
                          (lim.apply(st), dict(oe=OEFilter(op), bp=lim))):
        res = run(op, start, t_end=0.05, **kwargs)
        mass = mesh.area @ res.state.coeffs[:, 0, 0]
        assert mass == pytest.approx(mass0, rel=1e-12)


def test_nan_detection_aborts_with_last_state():
    mesh = generate_structured((0, 0, 1, 1), 2, 2, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))

    calls = {"n": 0}

    class Poisoned:
        k = op.k
        mesh = op.mesh

        def max_wavespeed(self, c, t=0.0, mode=None):
            return np.sqrt(2.0)

        def residual(self, c, a, t):
            calls["n"] += 1
            r = op.residual(c, a, t)
            if calls["n"] > 3:
                r[0, 0, 0] = np.nan
            return r

    with pytest.raises(NumericsError) as e:
        run(Poisoned(), st, t_end=1.0)
    assert e.value.last_state is not None
    assert np.all(np.isfinite(e.value.last_state.coeffs))


def test_run_to_infinity_takes_exactly_max_steps():
    mesh = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))
    for n in (0, 1, 7):
        res = run(op, st, math.inf, max_steps=n)
        assert res.steps == len(res.dt_history) == n
        assert res.state.t == pytest.approx(sum(res.dt_history), abs=1e-15)


def test_max_steps_abort_names_the_step():
    # a finite t_end not reached within max_steps is a numeric abort; it
    # names the step reached and keeps the state after it
    mesh = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: np.sin(2 * np.pi * x))
    with pytest.raises(NumericsError) as e:
        run(op, st, 10.0, max_steps=7)
    assert e.value.step == 7 and "(step 7)" in str(e.value)
    assert np.array_equal(e.value.last_state.coeffs,
                          run(op, st, math.inf, max_steps=7).state.coeffs)


def test_average_dt_ratio_matches_cfl_numbers():
    # advection has a state-independent wavespeed, so the dt ratio between
    # optimal and classical BP runs equals the CFL-number ratio exactly
    from tridg import bp as bp_mod
    mesh = generate_structured((0, 0, 1, 1), 5, 5, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * x))
    r_opt, r_cls = (run(op, lim.apply(st), t_end=0.02, bp=lim) for lim in (
        BPLimiter(op, "dcw", bounds=(0.0, 1.0)),
        BPLimiter(op, "zxs", bounds=(0.0, 1.0))))
    lsorted = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
    want = (np.min(bp_mod.optimal_cfl(lsorted, 1) * mesh.area)
            / np.min(bp_mod.classical_cfl(lsorted, 1) * mesh.area))
    # drop clipped final steps from the averages
    got = r_opt.dt_history[0] / r_cls.dt_history[0]
    assert got == pytest.approx(want, rel=1e-12)


# textbook abscissae c_j of each stage's residual (for SSP-RK(5,4): Spiteri
# & Ruuth 2002, to the 12-15 digits its Shu-Osher rows are given to)
@pytest.mark.parametrize("scheme,c", [
    (SSP_RK22, [0.0, 1.0]),
    (SSP_RK33, [0.0, 1.0, 0.5]),
    (SSP_RK54, [0.0, 0.39175222700392, 0.58607968896780, 0.47454236302687,
                0.93501063100924]),
])
def test_stage_times_follow_the_abscissae(scheme, c):
    t0, dt = 0.5, 0.1
    residual_times, filter_times = [], []

    class RecordingFilter:
        def apply(self, state, dt):
            filter_times.append(state.t)
            return state

    def residual(coeffs, t):
        residual_times.append(t)
        return -coeffs

    state = ModalState(1, np.full((1, 1, 1), 1.0), t0)
    out = advance(state, dt, residual, scheme, oe=RecordingFilter())
    want = t0 + dt * np.array(c)
    assert residual_times == pytest.approx(want, rel=0, abs=1e-10)
    # each filter call sees the time of the stage value it filters; the
    # last one is the step's end
    assert filter_times == pytest.approx(
        np.r_[want[1:], t0 + dt], rel=0, abs=1e-10)
    assert residual_times[0] == t0 and out.t == t0 + dt


@pytest.mark.parametrize("scheme,order", [(SSP_RK22, 2), (SSP_RK33, 3),
                                          (SSP_RK54, 4)])
def test_rk_order_with_time_dependent_forcing(scheme, order):
    # du/dt = cos(t) - u, u(0) = 0: a residual frozen at t^n within a step
    # is first order
    def error(dt):
        state = ModalState(1, np.zeros((1, 1, 1)))
        for _ in range(round(1.0 / dt)):
            state = advance(state, dt, lambda c, t: np.cos(t) - c, scheme)
        t = state.t
        exact = 0.5 * (np.cos(t) + np.sin(t) - np.exp(-t))
        return abs(state.coeffs[0, 0, 0] - exact)

    assert error(0.05) / error(0.025) == pytest.approx(2 ** order, rel=0.25)


def inflow_self_convergence_ratio(scheme, frozen=False):
    # P3 advection to t = 0.1 at dt = 0.005, dt/2 and dt/4, fed through
    # time-dependent inflow data on the left and bottom: the ratio of
    # successive differences of the final states, 2^order. The spatial
    # error is the same in all three and cancels. frozen evaluates every
    # stage's residual at the step's start time.
    exact = get_problem("advection_smooth").exact
    mesh = generate_structured((0, 0, 1, 1), 3, 3,
                               tags={"left": "IN", "bottom": "IN",
                                     "right": "OUT", "top": "OUT"})
    op = SpatialOperator(mesh, Advection(), 3, boundary={
        "IN": Inflow(lambda x, y, t: exact(x, y, t)[..., None])})
    alpha = np.sqrt(2.0)
    finals = []
    for n in (20, 40, 80):
        state = op.project(lambda x, y: exact(x, y, 0.0))
        for _ in range(n):
            t_n = state.t
            state = advance(state, 0.1 / n, lambda c, t: op.residual(
                c, alpha, t_n if frozen else t), scheme)
        finals.append(state.coeffs)
    return (np.abs(finals[0] - finals[1]).max()
            / np.abs(finals[1] - finals[2]).max())


@pytest.mark.parametrize("scheme,order", [(SSP_RK22, 2), (SSP_RK33, 3)])
def test_rk_order_with_time_dependent_inflow(scheme, order):
    assert inflow_self_convergence_ratio(scheme) == pytest.approx(
        2 ** order, rel=0.25)
    # the check sees a residual frozen at t^n within a step: first order
    assert inflow_self_convergence_ratio(scheme, frozen=True) == (
        pytest.approx(2, rel=0.25))


@pytest.mark.parametrize("bp_scheme", [None, "dcw", "zxs"])
def test_run_takes_the_step_factor_once(monkeypatch, bp_scheme):
    from tridg import bp

    calls, alphas = [], []
    step_factor = bp.step_factor
    monkeypatch.setattr(bp, "step_factor",
                        lambda *a: calls.append(a) or step_factor(*a))
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    max_wavespeed = op.max_wavespeed
    op.max_wavespeed = lambda *a, **kw: alphas.append(
        max_wavespeed(*a, **kw)) or alphas[-1]
    st = op.project(lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * (x + y)))
    lim = None
    if bp_scheme is not None:
        lim = BPLimiter(op, bp_scheme, bounds=(0.0, 1.0))
        st = lim.apply(st)
    res = run(op, st, 0.1, scheme=SSP_RK22, bp=lim)
    assert len(calls) == 1 and res.steps > 2
    # every step but the last, which is clipped to t_end, has the full bound
    for dt, alpha in zip(res.dt_history[:-1], alphas):
        assert dt == bp.bp_timestep(mesh, alpha, SSP_RK22.c_ssp, bp_scheme, 1)


def test_limited_step_builds_its_start_edge_states_once():
    # the wavespeed bound and the first stage's residual share one buffer:
    # an RK22 step builds edge states twice, not three times
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    built, shared = [], []
    edge_states, residual = op._edge_states, op.residual
    op._edge_states = lambda *a: built.append(a) or edge_states(*a)

    def recording_residual(c, alpha, t, states=None):
        shared.append(states is not None)
        return residual(c, alpha, t, states=states)

    op.residual = recording_residual
    st = op.project(lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * (x + y)))
    lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    res = run(op, lim.apply(st), 0.05, scheme=SSP_RK22,
              oe=OEFilter(op, guard_wavespeed=True), bp=lim)
    assert res.steps > 2
    assert len(built) == 2 * res.steps
    assert shared == [True, False] * res.steps


@pytest.mark.parametrize("oe_mode,scheme,scheme_name", [
    ("off", "dcw", "rk22"), ("rioe", "zxs", "rk22"), ("off", "dcw", "rk33")])
def test_limited_step_forms_one_pressure_pass_at_its_start_edge_states(
        oe_mode, scheme, scheme_name, monkeypatch):
    # Euler's rho e and p, by the check each pass makes: per step the bound
    # forms them once at the start edge states ("wavespeed"), where the
    # first stage's flux used to form them again, and each later stage's
    # flux once (True); the volume flux once per stage (False), and the
    # guarded filter once per stage ("floor")
    prob = get_problem("euler_double_rarefaction")
    mesh = perturb(prob.make_rect_mesh(16), seed=1)
    op, state, oe, bp = build_solver(prob, mesh, 1, oe_mode, scheme)
    rk = timestepping.scheme_by_name(scheme_name)
    passes = []
    pressure = Euler._pressure
    monkeypatch.setattr(
        Euler, "_pressure", lambda self, u, check, n=None:
        passes.append(check) or pressure(self, u, check, n))
    steps = 3
    res = timestepping.run(op, state, math.inf, scheme=rk, oe=oe, bp=bp,
                           max_steps=steps)
    assert res.steps == steps and bp.violations > 0
    stages = rk.n_stages
    want = {"wavespeed": steps, True: (stages - 1) * steps,
            False: stages * steps}
    if oe is not None:
        want["floor"] = stages * steps
    assert {c: passes.count(c) for c in set(passes)} == want


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_residual_errors_carry_their_rk_stage(stage):
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    residual, calls = op.residual, []

    def failing_residual(c, alpha, t, states=None):
        if len(calls) == stage:
            raise AdmissibilityError("injected")
        calls.append(t)
        return residual(c, alpha, t, states=states)

    op.residual = failing_residual
    st = op.project(lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * (x + y)))
    lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    with pytest.raises(AdmissibilityError) as e:
        run(op, lim.apply(st), 1.0, scheme=SSP_RK33, bp=lim)
    assert e.value.rk_stage == stage


@pytest.mark.parametrize("hook", ["oe", "bp"])
@pytest.mark.parametrize("stage", [0, 1, 2])
def test_hook_errors_carry_their_rk_stage(stage, hook):
    mesh = generate_structured((0, 0, 1, 1), 4, 4, periodic=("x", "y"))
    op = SpatialOperator(mesh, Advection(), 1)
    st = op.project(lambda x, y: 0.5 + 0.25 * np.sin(2 * np.pi * (x + y)))
    lim = BPLimiter(op, "dcw", bounds=(0.0, 1.0))
    start = lim.apply(st)
    filt = OEFilter(op)
    target = {"oe": filt, "bp": lim}[hook]
    apply, calls = target.apply, []

    def failing_apply(state, *args):
        if len(calls) == stage:
            raise AdmissibilityError("injected")
        calls.append(state.t)
        return apply(state, *args)

    target.apply = failing_apply
    with pytest.raises(AdmissibilityError, match="injected") as e:
        run(op, start, 1.0, scheme=SSP_RK33, oe=filt, bp=lim)
    assert e.value.rk_stage == stage


def test_mass_conserved_on_perturbed_mesh_with_rioe_and_dcw():
    # diverging flow on a periodic perturbed mesh: a near-vacuum rarefaction
    # at x = 0.5 and a collision at x = 0, so OE and BP both act
    mesh = perturb(generate_structured((0, 0, 1, 1), 8, 8,
                                       periodic=("x", "y")), 0.25, seed=3)
    model = Euler()
    op = SpatialOperator(mesh, model, 2)
    st = op.project(lambda x, y: model.from_primitive(
        1.0, np.where(x < 0.5, -2.0, 2.0), 0.0 * y, 0.4))
    mass0 = mesh.area @ st.coeffs[:, 0, :]
    lim = BPLimiter(op, "dcw")
    res = run(op, lim.apply(st), 0.02,
              oe=OEFilter(op, mode="rioe", guard_wavespeed=True), bp=lim)
    assert res.steps > 2 and res.bp_violations > 0
    mass = mesh.area @ res.state.coeffs[:, 0, :]
    scale = (mesh.area @ np.abs(st.coeffs[:, 0, :])).max()
    assert np.all(np.abs(mass - mass0) <= 1e-12 * scale)
    assert abs(mass[0] - mass0[0]) <= 1e-12 * mass0[0]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scheme", ["dcw", "zxs"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("problem", ["euler_double_rarefaction",
                                     "euler_implosion_mild"])
def test_bp_positivity_at_unit_cfl_on_perturbed_meshes(monkeypatch, problem,
                                                       k, scheme, seed):
    # the paper's BP claim at exactly the BP time step: after every step,
    # density and internal energy are positive at every check node. The
    # limiter scales cells near the vacuum; the wall-bounded implosion only
    # checks that the cell averages stay admissible with reflective walls.
    prob = get_problem(problem)
    model = prob.make_model()
    op, state, oe, bp = build_solver(
        prob, perturb(prob.make_rect_mesh(16), seed=seed), k, "rioe", scheme)
    check = BPLimiter(op, scheme)
    lows = []

    def checked_advance(*args, **kwargs):
        out = advance(*args, **kwargs)
        nodes = check.check_values(out.coeffs)
        lows.append((nodes[..., 0].min(), model.internal_energy(nodes).min()))
        return out

    monkeypatch.setattr(timestepping, "advance", checked_advance)
    res = run(op, state, 0.02, oe=oe, bp=bp, cfl_scale=1.0)
    assert res.steps == len(lows) > 0
    assert res.bp_violations > 0 or problem == "euler_implosion_mild"
    rho_min, e_min = np.min(lows, axis=0)
    assert rho_min > 0 and e_min > 0


# -- the component-major buffer through the stage pipeline --------------------

def is_component_major_view(coeffs):
    """True when coeffs (nc, nm, d) is laid out as the modal view of a
    C-contiguous (d, nm, nc) buffer."""
    return coeffs.transpose(2, 1, 0).flags.c_contiguous


@pytest.mark.parametrize("problem,k,oe_mode,bp_scheme", [
    ("euler_implosion_mild", 2, "rioe", "dcw"),
    ("advection_smooth", 3, "componentwise", None)])
def test_run_keeps_every_state_component_major(problem, k, oe_mode,
                                               bp_scheme):
    from tridg.harness import solve_problem
    prob = get_problem(problem)
    if bp_scheme:
        # the walled implosion: Reflective ghosts on every side
        assert set(prob.boundary(prob.make_model())) == {"WALL"}
    op, res = solve_problem(problem, k, oe_mode=oe_mode, bp_scheme=bp_scheme,
                            t_end=0.004, output_times=(0.002,))
    assert res.steps >= 2 and len(res.snapshots) == 2
    for state in [res.state] + [s for _, s in res.snapshots]:
        assert is_component_major_view(state.coeffs)

    # a state built from a C-ordered array reads the same numbers
    c_ordered = np.array(res.state.coeffs, order="C")
    assert c_ordered.flags.c_contiguous
    assert not is_component_major_view(c_ordered)
    state = ModalState(k, c_ordered, res.state.t)
    alpha = op.max_wavespeed(res.state.coeffs, mode="edge_gauss")
    want = op.residual(res.state.coeffs, alpha, t=res.state.t)
    got = op.residual(state.coeffs, alpha, t=state.t)
    assert is_component_major_view(got)
    assert np.array_equal(got, want)
    # and one filtered (and limited) step from it keeps the layout and bits
    oe = OEFilter(op, mode=oe_mode, guard_wavespeed=bp_scheme is not None)
    bp = BPLimiter(op, bp_scheme) if bp_scheme else None
    scheme = default_scheme_for(k)
    step = [advance(s, 1e-4, lambda c, t: op.residual(c, alpha, t), scheme,
                    oe=oe, bp=bp) for s in (res.state, state)]
    assert all(is_component_major_view(s.coeffs) for s in step)
    assert np.array_equal(step[0].coeffs, step[1].coeffs)
    assert is_component_major_view(state.copy().coeffs) is False
    assert is_component_major_view(res.state.copy().coeffs)


@pytest.mark.parametrize("problem,k,oe_mode,bp_scheme,counts", [
    ("euler_double_rarefaction", 1, "rioe", "dcw",
     {"lf_flux": 2, "two_sided_flux_wavespeed": 1, "wavespeed": 0,
      "wavespeed_clamped": 2}),
    ("advection_smooth", 3, "componentwise", None,
     {"lf_flux": 5, "wavespeed": 1})])
def test_model_kernels_get_edge_last_normals(problem, k, oe_mode, bp_scheme,
                                             counts, monkeypatch):
    # every edge-point call of a model kernel gets C-contiguous (2, ne)
    # normals whose last axis is the states' last axis, the edges: normals
    # (2, ne, 1) broadcast over a trailing axis of the Q points ran numpy's
    # inner loops only 2-4 long
    prob = get_problem(problem)
    mesh = perturb(prob.make_rect_mesh(8), seed=3)
    op, state, oe, bp = build_solver(prob, mesh, k, oe_mode, bp_scheme)
    calls = []

    def spy(name):
        kernel = getattr(op.model, name)

        def spied(u, n, *rest):
            calls.append((name, np.asarray(u), np.asarray(n)))
            return kernel(u, n, *rest)
        return spied

    for name in ("lf_flux", "two_sided_flux_wavespeed", "wavespeed",
                 "wavespeed_clamped"):
        monkeypatch.setattr(op.model, name, spy(name))
    timestepping.run(op, state, math.inf, oe=oe, bp=bp, max_steps=1)
    assert {name: sum(c[0] == name for c in calls)
            for name in counts} == counts
    for name, u, n in calls:
        if np.shares_memory(n, mesh.normal):
            # the cell-average bound of unlimited runs: the mesh's normals
            # per (cell, local edge) against the cell averages, once a step
            assert bp_scheme is None and u.shape[1:] == (mesh.n_cells, 1)
            continue
        assert n.shape == (2, mesh.n_edges) and n.flags.c_contiguous
        assert u.shape[-1] == mesh.n_edges


def test_limited_advection_bound_forms_no_flux(monkeypatch):
    # the bound of a limited run forms the start edge states' flux for the
    # residual's LF flux; advection's upwind form reads none, so its bound
    # forms none, and the run is the one whose bound formed it, bit for bit
    prob = get_problem("advection_smooth")
    mesh = perturb(prob.make_rect_mesh(16), seed=1)
    calls = []
    two_sided_flux = Advection.two_sided_flux
    monkeypatch.setattr(Advection, "two_sided_flux", lambda self, u, n: (
        calls.append(1) or two_sided_flux(self, u, n)))

    def limited_run():
        op, state, oe, bp = build_solver(prob, mesh, 2, "componentwise",
                                         "dcw")
        return run(op, state, math.inf, oe=oe, bp=bp, max_steps=3)

    got = limited_run()
    assert got.steps == 3 and calls == []
    with monkeypatch.context() as m:
        m.setattr(Advection, "two_sided_flux_wavespeed",
                  Model.two_sided_flux_wavespeed)
        want = limited_run()
    assert len(calls) == 3
    for (t, a), (t_want, b) in zip(got.snapshots + [(None, got.state)],
                                   want.snapshots + [(None, want.state)]):
        assert t == t_want and a.t == b.t
        assert np.array_equal(a.coeffs.view(np.int64),
                              b.coeffs.view(np.int64))
    assert got.bp_violations == want.bp_violations
