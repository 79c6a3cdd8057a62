"""Benchmark problem definitions at desk scale.

Each problem bundles a model, a rectangular structured-mesh recipe (resolution
doubles per level), an initial condition, boundary rules, and where available
the exact solution. Full-scale setups (forward-facing step, double Mach
reflection, shock diffraction, flow past a cylinder) require externally
supplied graded meshes and live in run configs, not here.
"""

import numpy as np

from .dg import CustomBC, Inflow, Outflow, Reflective
from .errors import ConfigError
from .mesh import generate_structured
from .physics import Advection, Burgers, Euler


class Problem:
    def __init__(self, name, model_factory, ic, boundary_factory,
                 domain=(0.0, 0.0, 1.0, 1.0), periodic=(), side_tags=None,
                 exact=None, t_end=1.0, bp_bounds=None, base_n=4,
                 external_mesh=False):
        self.name = name
        self.model_factory = model_factory
        self.ic = ic                        # (x, y) -> state values
        self.boundary_factory = boundary_factory  # (model) -> {tag: rule}
        self.domain = domain
        self.periodic = periodic
        self.side_tags = side_tags          # non-periodic side -> tag
        self.exact = exact                  # (x, y, t) -> state values
        self.t_end = t_end
        self.bp_bounds = bp_bounds          # scalar invariant interval
        self.base_n = base_n
        self.external_mesh = external_mesh  # geometry needs a mesh file

    def make_model(self):
        return self.model_factory()

    def make_rect_mesh(self, nx, ny=None):
        if self.external_mesh:
            raise ConfigError(
                f"problem {self.name!r} needs an externally supplied mesh "
                "file (pass --mesh); its geometry is not rectangular")
        if ny is None:
            # rows by the domain's aspect ratio; at least two if not square
            x0, y0, x1, y1 = self.domain
            w, h = x1 - x0, y1 - y0
            ny = nx if w == h else max(2, round(nx * h / w))
        return generate_structured(self.domain, nx, ny,
                                   diagonal="alternating",
                                   periodic=self.periodic,
                                   tags=self.side_tags)

    def make_mesh(self, level=0):
        return self.make_rect_mesh(self.base_n * 2 ** level)

    def boundary(self, model):
        return self.boundary_factory(model)


# -- linear advection --------------------------------------------------------

def _adv_smooth_ic(x, y):
    return np.sin(2.0 * np.pi * (x + y))


def _adv_smooth_exact(x, y, t):
    return np.sin(2.0 * np.pi * (x + y - 2.0 * t))


def _flower_ic(x, y):
    r = np.hypot(x, y)
    safe_r = np.where(r > 1e-300, r, 1.0)
    theta = np.where(y >= 0, np.arccos(np.clip(x / safe_r, -1, 1)),
                     2.0 * np.pi - np.arccos(np.clip(x / safe_r, -1, 1)))
    radius = (3.0 + 3.0 ** np.sin(5.0 * theta)) / 8.0
    return np.where(r <= radius, 1.0, 0.0)


# -- Burgers -------------------------------------------------------------------

def _burgers_smooth_ic(x, y):
    return 0.5 * np.sin(2.0 * np.pi * (x + y))


def _burgers_smooth_exact(x, y, t):
    """Solve u = 0.5 sin(2 pi (x + y - 2 u t)) by Newton (pre-shock times)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = _burgers_smooth_ic(x, y)
    for _ in range(100):
        arg = 2.0 * np.pi * (x + y - 2.0 * u * t)
        g = u - 0.5 * np.sin(arg)
        dg = 1.0 + 2.0 * np.pi * t * np.cos(arg)
        du = g / dg
        u = u - du
        if np.max(np.abs(du)) < 1e-14:
            break
    return u


def _burgers_rm1_ic(x, y):
    return np.where(
        x < 0.5,
        np.where(y >= 0.5, -0.2, 0.5),
        np.where(y >= 0.5, -1.0, 0.8))


def _burgers_rm1_boundary(model):
    def ghost(model_, u_int, x, n, t):
        # outflow on {x=0, y >= 0.5+0.15t} and {x=1, y <= 0.5-0.1t}; inflow of
        # the frozen quadrant values elsewhere
        xs, ys = x[..., 0], x[..., 1]
        out_left = (xs < 1e-12) & (ys >= 0.5 + 0.15 * t)
        out_right = (xs > 1.0 - 1e-12) & (ys <= 0.5 - 0.1 * t)
        inflow = _burgers_rm1_ic(xs, ys)[..., None]
        return np.where((out_left | out_right)[..., None], u_int, inflow)
    return {"IN": CustomBC(ghost)}


def _burgers_rm2_ic(x, y):
    both_low = (x < 0.25) & (y < 0.25)
    both_high = (x >= 0.25) & (y >= 0.25)
    return np.where(both_low, 2.0, np.where(both_high, 3.0, 1.0))


# -- Euler ---------------------------------------------------------------------

def _implosion_ic_factory(model, rho_in=0.125, p_in=0.14):
    def ic(x, y):
        inside = (x + y) <= 0.15
        rho = np.where(inside, rho_in, 1.0)
        p = np.where(inside, p_in, 1.0)
        return model.from_primitive(rho, 0.0, 0.0, p)
    return ic


def _double_rarefaction_ic_factory(model):
    def ic(x, y):
        v1 = np.where(x < 0.5, -4.0, 4.0)
        return model.from_primitive(np.ones_like(x), v1, 0.0,
                                    np.full_like(x, 0.4))
    return ic


_EULER = Euler()
_ALL_WALL = {k: "WALL" for k in ("left", "right", "bottom", "top")}
_ALL_OUT = {k: "OUT" for k in ("left", "right", "bottom", "top")}
_ALL_IN = {k: "IN" for k in ("left", "right", "bottom", "top")}

PROBLEMS = {}


def _register(p):
    PROBLEMS[p.name] = p
    return p


_register(Problem(
    name="advection_smooth",
    model_factory=Advection,
    ic=_adv_smooth_ic,
    exact=_adv_smooth_exact,
    boundary_factory=lambda model: {},
    periodic=("x", "y"),
    t_end=0.1,
    bp_bounds=(-1.0, 1.0),
))

_register(Problem(
    name="advection_flower",
    model_factory=Advection,
    ic=_flower_ic,
    boundary_factory=lambda model: {},
    domain=(-1.0, -1.0, 1.0, 1.0),
    periodic=("x", "y"),
    t_end=1.8,
    bp_bounds=(0.0, 1.0),
    base_n=8,
))

_register(Problem(
    name="burgers_smooth",
    model_factory=Burgers,
    ic=_burgers_smooth_ic,
    exact=_burgers_smooth_exact,
    boundary_factory=lambda model: {},
    periodic=("x", "y"),
    t_end=0.05,
    bp_bounds=(-0.5, 0.5),
))

_register(Problem(
    name="burgers_riemann1",
    model_factory=Burgers,
    ic=_burgers_rm1_ic,
    boundary_factory=_burgers_rm1_boundary,
    side_tags=_ALL_IN,
    t_end=0.5,
    bp_bounds=(-1.0, 0.8),
    base_n=8,
))

_register(Problem(
    name="burgers_riemann2",
    model_factory=Burgers,
    ic=_burgers_rm2_ic,
    boundary_factory=lambda model: {
        "IN": Inflow(lambda x, y, t: _burgers_rm2_ic(x, y)[..., None]),
        "OUT": Outflow()},
    side_tags={"left": "IN", "bottom": "IN", "right": "OUT", "top": "OUT"},
    t_end=1.0 / 12.0,
    bp_bounds=(1.0, 3.0),
    base_n=8,
))

_register(Problem(
    name="euler_implosion",
    model_factory=Euler,
    ic=_implosion_ic_factory(_EULER),
    boundary_factory=lambda model: {"WALL": Reflective()},
    domain=(0.0, 0.0, 0.3, 0.3),
    side_tags=_ALL_WALL,
    t_end=2.5,
    base_n=8,
))

# mild-jump variant of the quadrant implosion: P1/P2 traces stay admissible
# without BP limiting, which the rotation experiment relies on
_register(Problem(
    name="euler_implosion_mild",
    model_factory=Euler,
    ic=_implosion_ic_factory(_EULER, rho_in=0.5, p_in=0.5),
    boundary_factory=lambda model: {"WALL": Reflective()},
    domain=(0.0, 0.0, 0.3, 0.3),
    side_tags=_ALL_WALL,
    t_end=2.5,
    base_n=8,
))

_register(Problem(
    name="euler_double_rarefaction",
    model_factory=Euler,
    ic=_double_rarefaction_ic_factory(_EULER),
    boundary_factory=lambda model: {"OUT": Outflow()},
    domain=(0.0, 0.0, 1.0, 0.1),
    side_tags=_ALL_OUT,
    t_end=0.1,
    base_n=32,
))


# -- full-scale setups: geometry must come from a supplied mesh file ----------

def _mach3_ic_factory(model):
    def ic(x, y):
        return model.from_primitive(np.full_like(x, 1.4), 3.0, 0.0,
                                    np.ones_like(x))
    return ic


_POST_SHOCK = _EULER.from_primitive(8.0, 8.25, 0.0, 116.5)
_PRE_SHOCK = _EULER.from_primitive(1.4, 0.0, 0.0, 1.0)


def _moving_shock_state(x0, speed):
    # vertical right-moving shock initially at x = x0
    def state(x, y, t):
        behind = x < x0 + speed * t
        return np.where(behind[..., None], _POST_SHOCK, _PRE_SHOCK)
    return state


_register(Problem(
    name="euler_forward_step",
    model_factory=Euler,
    ic=_mach3_ic_factory(_EULER),
    boundary_factory=lambda model: {
        "IN": Inflow(_EULER.from_primitive(1.4, 3.0, 0.0, 1.0)),
        "OUT": Outflow(), "WALL": Reflective()},
    t_end=4.0,
    external_mesh=True,
))

_register(Problem(
    name="euler_cylinder",
    model_factory=Euler,
    ic=_mach3_ic_factory(_EULER),
    boundary_factory=lambda model: {
        "IN": Inflow(_EULER.from_primitive(1.4, 3.0, 0.0, 1.0)),
        "OUT": Outflow(), "WALL": Reflective()},
    t_end=40.0,
    external_mesh=True,
))

_register(Problem(
    name="euler_double_mach",
    model_factory=Euler,
    ic=lambda x, y: _moving_shock_state(0.1, 10.0)(x, y, 0.0),
    boundary_factory=lambda model: {
        "IN": Inflow(_POST_SHOCK), "OUT": Outflow(), "WALL": Reflective(),
        "EXACT": Inflow(_moving_shock_state(0.1, 10.0))},
    t_end=0.2,
    external_mesh=True,
))

_register(Problem(
    name="euler_shock_diffraction",
    model_factory=Euler,
    ic=lambda x, y: _moving_shock_state(3.4, 10.0)(x, y, 0.0),
    boundary_factory=lambda model: {
        "IN": Inflow(_POST_SHOCK), "OUT": Outflow(), "WALL": Reflective(),
        "EXACT": Inflow(_moving_shock_state(3.4, 10.0))},
    t_end=0.9,
    external_mesh=True,
))


def get_problem(name):
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}") from None
