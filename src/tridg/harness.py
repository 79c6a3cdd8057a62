"""Experiment drivers: error norms, convergence studies, CFL scans, rotation.

These reproduce the desk-scale study set: grid-refinement convergence orders,
BP CFL-number ratio ensembles over random triangles, and the rotational
(in)variance experiment comparing a run against its rotated twin.
"""

import math

import numpy as np

from . import bp as bp_mod
from .dg import SpatialOperator
from .errors import ConfigError
from .mesh import _boundary_tag_records, build_mesh
from .oe import OEFilter
from .physics import rotate_vector
from .problems import get_problem
from .timestepping import run

MAX_AUTO_CELLS = 20_000


def error_norms(op, state, exact, t=None):
    """(L1, L2, Linf) of u_h - exact via the interior rule; Linf over nodes."""
    t = state.t if t is None else t
    X = op.int_points_phys
    vals = op.interior_values(state.coeffs)
    ref = np.asarray(exact(X[..., 0], X[..., 1], t), dtype=float)
    if ref.ndim == 2:
        ref = ref[..., None]
    diff = np.abs(vals - ref)
    area = op.mesh.area[:, None]
    l1 = float(np.sum(area * (diff * op.int_w[None, :, None]).sum(axis=1)))
    l2 = float(np.sqrt(np.sum(
        area * (diff ** 2 * op.int_w[None, :, None]).sum(axis=1))))
    linf = float(diff.max())
    return l1, l2, linf


class ConvergenceRow:
    def __init__(self, n_cells, l1, order1, l2, order2, linf, orderinf):
        self.n_cells = n_cells
        self.l1 = l1
        self.order1 = order1
        self.l2 = l2
        self.order2 = order2
        self.linf = linf
        self.orderinf = orderinf


def build_solver(prob, mesh, k, oe_mode, bp_scheme=None, ic=None):
    """Operator, initial state, OE filter and BP limiter of prob on mesh.

    ic: the initial condition, prob.ic by default. oe_mode 'off' gives no
    filter and bp_scheme None no limiter. A limited run starts from the
    limited projection, and its filter guards its wavespeed.
    """
    model = prob.make_model()
    op = SpatialOperator(mesh, model, k, boundary=prob.boundary(model))
    state = op.project(prob.ic if ic is None else ic)
    bp = None
    if bp_scheme is not None:
        if prob.bp_bounds is None and not model.positivity_constrained:
            raise ConfigError(f"field 'bp': problem {prob.name!r} declares "
                              "no bounds for its scalar limiting")
        bp = bp_mod.BPLimiter(op, scheme=bp_scheme, bounds=prob.bp_bounds)
        state = bp.apply(state)
    oe = None
    if oe_mode != "off":
        oe = OEFilter(op, mode=oe_mode, guard_wavespeed=bp is not None)
    return op, state, oe, bp


def solve_problem(name, k, level=0, oe_mode="componentwise", bp_scheme=None,
                  t_end=None, output_times=()):
    """Build mesh/operator/state for a library problem and run it with the
    degree's default RK scheme."""
    prob = get_problem(name)
    op, state, oe, bp = build_solver(prob, prob.make_mesh(level), k, oe_mode,
                                     bp_scheme)
    result = run(op, state, t_end if t_end is not None else prob.t_end,
                 oe=oe, bp=bp, output_times=output_times)
    return op, result


def convergence_study(name, k, levels, oe_mode="componentwise", t_end=None,
                      scheme=None, max_cells=MAX_AUTO_CELLS):
    """Errors and orders over `levels` uniform refinements of a problem."""
    prob = get_problem(name)
    if prob.exact is None:
        raise ConfigError(f"problem {name!r} has no exact solution")
    rows = []
    prev = None
    for level in range(levels):
        mesh = prob.make_mesh(level)
        if mesh.n_cells > max_cells:
            break
        op, state, oe, _ = build_solver(prob, mesh, k, oe_mode)
        result = run(op, state, t_end if t_end is not None else prob.t_end,
                     scheme=scheme, oe=oe)
        e = error_norms(op, result.state, prob.exact)
        if prev is None or any(v <= 0 for v in e) or any(v <= 0 for v in prev):
            orders = (float("nan"),) * 3
        else:
            orders = tuple(np.log2(p / c) for p, c in zip(prev, e))
        rows.append(ConvergenceRow(mesh.n_cells, e[0], orders[0], e[1],
                                   orders[1], e[2], orders[2]))
        prev = e
    return rows


# ---------------------------------------------------------------------------
# CFL ratio scan
# ---------------------------------------------------------------------------

def random_triangle_lengths(n, seed=0):
    """Sorted edge lengths of n random triangles with vertices in [0,1]^2
    and area above 1e-8."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        v = rng.random((n - filled, 3, 2))
        area = 0.5 * np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
        v = v[area > 1e-8]
        if not len(v):
            continue
        l = np.stack([np.linalg.norm(v[:, 2] - v[:, 1], axis=1),
                      np.linalg.norm(v[:, 0] - v[:, 2], axis=1),
                      np.linalg.norm(v[:, 1] - v[:, 0], axis=1)], axis=1)
        l = -np.sort(-l, axis=1)
        take = min(len(l), n - filled)
        out[filled:filled + take] = l[:take]
        filled += take
    return out


def cfl_ratio_scan(n=10_000, k=1, seed=0, mesh=None):
    """Extrema of C_optimal / C_classical and C_optimal / C_ChenShu ratios
    over the cells of mesh, or else over n random triangles."""
    if mesh is not None:
        lengths = np.take_along_axis(mesh.edge_len, mesh.sort_order, axis=1)
    else:
        lengths = random_triangle_lengths(n, seed=seed)
    opt = bp_mod.optimal_cfl(lengths, k)
    r_zxs = opt / bp_mod.classical_cfl(lengths, k)
    r_cs = opt / bp_mod.chen_shu_cfl(lengths, k)
    return {
        "n": len(lengths),
        "k": k,
        "dcw_zxs_min": float(r_zxs.min()), "dcw_zxs_max": float(r_zxs.max()),
        "dcw_cs_min": float(r_cs.min()), "dcw_cs_max": float(r_cs.max()),
    }


# ---------------------------------------------------------------------------
# rotation experiment
# ---------------------------------------------------------------------------

def _rotate_mesh(mesh, phi):
    if np.any(mesh.edge_periodic):
        raise ConfigError("rotation experiment expects non-periodic meshes")
    return build_mesh(rotate_vector(mesh.vertices, phi), mesh.cells.copy(),
                      _boundary_tag_records(mesh))


def run_fixed_steps(op, state, steps, oe=None):
    """Advance exactly `steps` unlimited steps of the degree's default RK
    scheme; returns the final state."""
    return run(op, state, math.inf, oe=oe, max_steps=steps).state


def rotated_twin_discrepancy(prob, mesh, mode, k, steps, phi):
    """Run prob on mesh and its twin on the mesh rotated by phi.

    Returns max absolute differences of (rho, v1, v2, p) cell averages after
    rotating the twin's velocity back, and their maximum as 'max'. A
    rotation-equivariant filter keeps these at round-off; the component-wise
    filter does not.
    """
    model = prob.make_model()

    def ic_rotated(x, y):
        back = rotate_vector(np.stack([x, y], axis=-1), -phi)
        u0 = np.asarray(prob.ic(back[..., 0], back[..., 1]), dtype=float)
        return model.rotate_state(u0, phi)

    averages = []
    for m, ic in ((mesh, prob.ic), (_rotate_mesh(mesh, phi), ic_rotated)):
        op, state, oe, _ = build_solver(prob, m, k, mode, ic=ic)
        averages.append(run_fixed_steps(op, state, steps, oe=oe)
                        .cell_averages())
    ubar, ubar_r = averages
    rho, rho_r = ubar[:, 0], ubar_r[:, 0]
    v = ubar[:, 1:3] / rho[:, None]
    v_r = rotate_vector(ubar_r[:, 1:3] / rho_r[:, None], -phi)
    p = model.pressure(ubar)
    p_r = model.pressure(ubar_r)
    eps = {
        "rho": float(np.max(np.abs(rho - rho_r))),
        "v1": float(np.max(np.abs(v[:, 0] - v_r[:, 0]))),
        "v2": float(np.max(np.abs(v[:, 1] - v_r[:, 1]))),
        "p": float(np.max(np.abs(p - p_r))),
    }
    eps["max"] = max(eps.values())
    return eps


def rotation_experiment(mode="rioe", k=1, n=16, steps=50, phi=np.pi / 4):
    """rotated_twin_discrepancy of the mild implosion on its n x n mesh."""
    prob = get_problem("euler_implosion_mild")
    return rotated_twin_discrepancy(prob, prob.make_rect_mesh(n), mode, k,
                                    steps, phi)
