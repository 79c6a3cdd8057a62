"""Explicit SSP Runge-Kutta drivers with per-stage filter/limiter hooks.

Schemes are stored in Shu-Osher form: every stage is a convex combination of
earlier stage values and forward-Euler updates, so any convex invariant of the
Euler step survives. Hooks run after every stage in the order: OE filter,
then BP limiter.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bp as bp_mod
from .dg import ModalState, component_major, modal_view
from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class RKScheme:
    name: str
    c_ssp: float
    # stage s: u^(s) = sum_j alpha[s][j] u^(j) + dt * beta[s][j] L(u^(j))
    alpha: tuple
    beta: tuple

    @property
    def n_stages(self):
        return len(self.alpha)

    @cached_property
    def abscissae(self):
        """Stage times c_0..c_n as fractions of dt; c_n is 1 for the step.

        Stage value u^(s) approximates u(t + c_s dt): c_0 = 0 and
        c_{s+1} = sum_j (alpha[s][j] c_j + beta[s][j]).
        """
        c = [0.0]
        for a_row, b_row in zip(self.alpha, self.beta):
            c.append(sum(a * cj + b for a, b, cj in zip(a_row, b_row, c)))
        return tuple(c)


SSP_RK22 = RKScheme(
    "SSP-RK(2,2)", 1.0,
    alpha=((1.0,), (0.5, 0.5)),
    beta=((1.0,), (0.0, 0.5)))

SSP_RK33 = RKScheme(
    "SSP-RK(3,3)", 1.0,
    alpha=((1.0,), (0.75, 0.25), (1.0 / 3.0, 0.0, 2.0 / 3.0)),
    beta=((1.0,), (0.0, 0.25), (0.0, 0.0, 2.0 / 3.0)))

SSP_RK54 = RKScheme(
    "SSP-RK(5,4)", 1.508,
    alpha=(
        (1.0,),
        (0.444370493651235, 0.555629506348765),
        (0.620101851488403, 0.0, 0.379898148511597),
        (0.178079954393132, 0.0, 0.0, 0.821920045606868),
        (0.0, 0.0, 0.517231671970585, 0.096059710526147, 0.386708617503269),
    ),
    beta=(
        (0.391752226571890,),
        (0.0, 0.368410593050371),
        (0.0, 0.0, 0.251891774271694),
        (0.0, 0.0, 0.0, 0.544974750228521),
        (0.0, 0.0, 0.0, 0.063692468666290, 0.226007483236906),
    ))

SCHEMES = {"rk22": SSP_RK22, "rk33": SSP_RK33, "rk54": SSP_RK54}


def scheme_by_name(name):
    try:
        return SCHEMES[name]
    except KeyError:
        raise ConfigError(f"unknown RK scheme {name!r}") from None


def default_scheme_for(k):
    """Time order matched to the spatial degree: 2/3/4th order for k=1/2/>=3."""
    return SSP_RK22 if k == 1 else SSP_RK33 if k == 2 else SSP_RK54


def advance(state, dt, residual_fn, scheme, oe=None, bp=None):
    """One full RK step from state.t to state.t + dt with per-stage hooks.

    The residual of each stage value is evaluated once, on first use, at
    the stage's time t + c_j dt; the filter sees the new stage's time. The
    stage combinations run on component-major buffers, so every stage state
    is the modal view of one.
    """
    c = scheme.abscissae
    stages = [state]
    residuals = [None] * scheme.n_stages
    for s in range(scheme.n_stages):
        acc = None
        for j, (a, b) in enumerate(zip(scheme.alpha[s], scheme.beta[s])):
            if a == 0.0 and b == 0.0:
                continue
            term = 0.0
            if a != 0.0:
                term = a * component_major(stages[j].coeffs)
            if b != 0.0:
                if residuals[j] is None:
                    try:
                        residuals[j] = residual_fn(stages[j].coeffs,
                                                   state.t + c[j] * dt)
                    except Exception as exc:
                        exc.rk_stage = s
                        raise
                term = term + dt * b * component_major(residuals[j])
            acc = term if acc is None else acc + term
        new = ModalState(state.k, modal_view(acc), state.t + c[s + 1] * dt)
        if oe is not None:
            new = oe.apply(new, dt, t=new.t)
        if bp is not None:
            new = bp.apply(new)
        stages.append(new)
    out = stages[-1]
    out.t = state.t + dt
    return out


@dataclass
class RunResult:
    state: ModalState
    snapshots: list = field(default_factory=list)   # (t, ModalState)
    dt_history: list = field(default_factory=list)
    steps: int = 0
    bp_violations: int = 0

    @property
    def average_dt(self):
        return float(np.mean(self.dt_history)) if self.dt_history else 0.0


def run(op, state, t_end, scheme=None, oe=None, bp_scheme=None, bounds=None,
        output_times=(), cfl_scale=1.0, max_steps=1_000_000):
    """Time loop: per-step global wavespeed, CFL time step, RK advance.

    bp_scheme: None | 'zxs' | 'dcw' selects the BP limiter and its CFL rule.
    Limited runs bound the wavespeed over the edge Gauss points, the traces
    the limiter controls, and build those edge states once per step for the
    bound and the first stage's residual; unlimited runs use the cheap
    cell-average bound.
    A finite t_end not reached within max_steps steps raises NumericsError;
    with t_end = math.inf the run ends normally after exactly max_steps.
    The initial state is always recorded; further snapshots are recorded at
    each requested output time (the step is clipped to land on it exactly).
    """
    scheme = scheme or default_scheme_for(op.k)
    if not np.all(np.isfinite(state.coeffs)):
        raise NumericsError("non-finite initial state", last_state=state,
                            step=0)
    limiter = None
    if bp_scheme is not None:
        limiter = bp_mod.BPLimiter(op, scheme=bp_scheme, bounds=bounds)
        state = limiter.apply(state)
    # dt = C_SSP / alpha * factor; the factor depends only on the mesh
    factor = bp_mod.step_factor(op.mesh, op.k, bp_scheme)

    result = RunResult(state=state, snapshots=[(state.t, state.copy())])
    outputs = sorted(t for t in set(map(float, output_times)) if t > state.t)

    while state.t < t_end - 1e-14:
        if result.steps >= max_steps:
            if t_end == math.inf:
                break
            raise NumericsError("max_steps exceeded", last_state=state,
                                step=result.steps)
        states = None
        if limiter is None:
            alpha = op.max_wavespeed(state.coeffs, t=state.t,
                                     mode="cell_average")
        else:
            states = op._edge_states(state.coeffs, state.t)
            alpha = op.max_wavespeed(state.coeffs, t=state.t,
                                     mode="edge_gauss", states=states)
        if not np.isfinite(alpha):
            raise NumericsError("non-finite wavespeed bound",
                                last_state=state, step=result.steps)
        if alpha <= 0:
            alpha = 1e-14
        dt = scheme.c_ssp / alpha * factor * cfl_scale
        # clip to the next output time and the final time
        t_next = min([t for t in outputs if t > state.t + 1e-14] + [t_end])
        dt = min(dt, t_next - state.t)

        def residual_fn(c, t):
            # advance's first call is the start state's residual, at
            # state.t: it reuses the edge states built for the bound
            nonlocal states
            if states is None:
                return op.residual(c, alpha, t)
            shared, states = states, None
            return op.residual(c, alpha, t, states=shared)

        new = advance(state, dt, residual_fn, scheme, oe=oe, bp=limiter)
        if not np.all(np.isfinite(new.coeffs)):
            raise NumericsError("non-finite solution detected",
                                last_state=state, step=result.steps)
        state = new
        result.steps += 1
        result.dt_history.append(dt)
        while outputs and state.t >= outputs[0] - 1e-12:
            result.snapshots.append((outputs.pop(0), state.copy()))

    result.state = state
    if limiter is not None:
        result.bp_violations = limiter.violations
    return result

