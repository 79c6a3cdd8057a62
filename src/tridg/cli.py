"""Command-line entry points: run, convergence, decomp, cflscan.

Exit codes: 0 ok, 2 configuration error, 3 admissibility abort,
4 numeric abort (NaN/Inf or step-limit).
"""

import argparse
import csv
import ctypes
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import basis
from . import bp as bp_mod
from .config import BP_MODES, OE_MODES, RunConfig, load_config
from .errors import AdmissibilityError, ConfigError, NumericsError, TriDGError
from .harness import build_solver, cfl_ratio_scan, convergence_study
from .mesh import load_mesh, nonfinite_vertex, scaled_cell_areas
from .problems import get_problem
from .timestepping import SCHEMES, run, scheme_by_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_NUMERIC = 4


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    try:
        out = open(path, "w", newline="") if path else sys.stdout
    except OSError as exc:
        raise ConfigError(f"field 'out': cannot write {path!r} "
                          f"({exc.strerror})") from None
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    finally:
        if path:
            out.close()


def _add_run_flags(p):
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--problem", help="library problem name")
    p.add_argument("--k", type=int, help="polynomial degree 1..4")
    p.add_argument("--rk", choices=tuple(SCHEMES))
    p.add_argument("--oe", choices=OE_MODES)
    p.add_argument("--bp", choices=BP_MODES)
    p.add_argument("--mesh", help="mesh file (overrides the problem recipe)")
    p.add_argument("--gen", help="nx,ny structured-mesh override")
    p.add_argument("--level", type=int, help="refinement level of the recipe")
    p.add_argument("--tend", type=float, help="final time")
    p.add_argument("--cfl", type=float, help="CFL safety factor")
    p.add_argument("--out", help="output directory/prefix")
    p.add_argument("--output-times", dest="output_times")
    p.add_argument("--sample-grid", dest="sample_grid", type=int)


def _config_from_args(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    # every field but max_steps has a flag of the same name
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    return cfg


def _read_mesh(path):
    """load_mesh(path); a missing, unreadable or undecodable file is a
    ConfigError."""
    try:
        return load_mesh(path)
    except OSError as exc:
        raise ConfigError(f"field 'mesh': cannot read {path!r} "
                          f"({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"field 'mesh': cannot decode {path!r} "
                          f"({exc.encoding}: {exc.reason})") from None


def _check_out_dir(prefix):
    """Reject an output prefix whose directory is missing or not writable,
    before a run whose results it would lose."""
    directory = os.path.dirname(prefix) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"field 'out': directory {directory!r} does not "
                          "exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"field 'out': directory {directory!r} is not "
                          "writable")


def _build_run(cfg):
    # validated before get_problem, which would report a missing problem as
    # unknown problem None; again with the model for its own checks
    prob = get_problem(cfg.validate().problem)
    cfg.validate(prob.make_model())
    if cfg.mesh:
        mesh = _read_mesh(cfg.mesh)
    elif cfg.gen:
        nx, ny = (int(v) for v in cfg.gen.split(","))
        mesh = prob.make_rect_mesh(nx, ny)
    else:
        mesh = prob.make_mesh(cfg.level)
    return (prob, *build_solver(prob, mesh, cfg.k, cfg.oe_mode,
                                cfg.bp_scheme))


# rows per `%` template in _write_snapshot: its temporaries stay below what
# a list of every value would take, at the same speed
SNAPSHOT_CHUNK_ROWS = 1024

def _cell_prefixes(op):
    """One row prefix "cell_id,centroid_x,centroid_y," per cell of op's mesh."""
    centroid = op.mesh.centroid
    text = ("%.17g,%.17g,\n" * len(centroid)
            % tuple(centroid.ravel().tolist()))
    return [f"{c},{xy}" for c, xy in enumerate(text.split("\n")[:-1])]


def _write_snapshot(path, prefixes, state):
    """One row per (cell, mode, component); the bytes _write_csv would write.

    prefixes: _cell_prefixes of the state's operator, formatted once per run.
    Each chunk of whole cells is one row template filled by a single `%`.
    """
    nc, nm, d = state.coeffs.shape
    # prefix.join(parts) is the cell's nm * d rows, prefix repeated per row
    parts = ["", *(f"{l},{comp},%.17g\r\n"
                   for l in range(nm) for comp in range(d))]
    flat = state.coeffs.reshape(nc, nm * d)
    step = max(1, SNAPSHOT_CHUNK_ROWS // (nm * d))
    with open(path, "w", newline="") as out:
        out.write("cell_id,centroid_x,centroid_y,mode,component,value\r\n")
        for c0 in range(0, nc, step):
            template = "".join([p.join(parts) for p in prefixes[c0:c0 + step]])
            out.write(template % tuple(flat[c0:c0 + step].ravel().tolist()))


def _write_samples(path, op, state, n):
    """Uniform point sampling over the mesh bounding box for contour tools.

    Points outside every cell are skipped; a point on an edge or vertex
    shared by several cells is evaluated in the lowest cell id. The owned
    points are evaluated in one batch whose per-point operand shapes are
    those of `op.evaluate`, so every value has the bits of a per-point call.
    """
    mesh = op.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    # candidate (cell, point) pairs: the grid points in each cell's bounding
    # box, padded well beyond the 1e-12 reference-coordinate tolerance
    verts = mesh.vertices[mesh.cells]
    cmin, cmax = verts.min(axis=1), verts.max(axis=1)
    pad = 1e-9 * (cmax - cmin).sum(axis=1)
    i0 = np.searchsorted(xs, cmin[:, 0] - pad, side="left")
    i1 = np.searchsorted(xs, cmax[:, 0] + pad, side="right")
    j0 = np.searchsorted(ys, cmin[:, 1] - pad, side="left")
    j1 = np.searchsorted(ys, cmax[:, 1] + pad, side="right")
    ny = j1 - j0
    count = (i1 - i0) * ny
    cand = np.repeat(np.arange(mesh.n_cells), count)
    q = np.arange(len(cand)) - np.repeat(np.cumsum(count) - count, count)
    ix = i0[cand] + q // ny[cand]
    iy = j0[cand] + q % ny[cand]
    # barycentric test, as for a brute-force scan of every cell
    xy = np.stack([xs[ix], ys[iy]], axis=1)
    ref = np.einsum("cab,cb->ca", mesh.jac_inv[cand], xy - verts[cand, 0, :])
    inside = ((ref[:, 0] >= -1e-12) & (ref[:, 1] >= -1e-12)
              & (ref.sum(axis=1) <= 1 + 1e-12))
    # lowest inside cell per point; points are numbered in row order, by x
    # and then by y
    owner = np.full(n * n, mesh.n_cells)
    np.minimum.at(owner, (ix * n + iy)[inside], cand[inside])
    pts = np.flatnonzero(owner < mesh.n_cells)
    cells = owner[pts]
    xy = np.stack([xs[pts // n], ys[pts % n]], axis=1)
    # op.evaluate per point: (1, 2) @ (2, 2), eval_modes, (1, nm) @ (nm, d)
    rel = (xy - verts[cells, 0, :])[:, None, :]
    ref = np.matmul(rel, mesh.jac_inv[cells].transpose(0, 2, 1))[:, 0]
    vals = basis.eval_modes(op.k, ref)[:, None, :]
    # each cell's (nm, d) block C-ordered, as evaluate reads it
    u = np.matmul(vals, np.ascontiguousarray(state.coeffs[cells]))[:, 0]
    _write_csv(path, ("x", "y", *[f"u{i}" for i in range(state.d)]),
               np.column_stack([xy, u]).tolist())


def cmd_run(args):
    cfg = _config_from_args(args)
    prefix = cfg.out or f"{cfg.problem}_k{cfg.k}"
    _check_out_dir(prefix)
    prob, op, state, oe = _build_run(cfg)
    t_end = cfg.tend if cfg.tend is not None else prob.t_end
    # run records no time before the initial state or past t_end, so such a
    # snapshot would be lost
    for t in cfg.times:
        if not (math.isfinite(t) and state.t <= t <= t_end):
            raise ConfigError(f"field 'output_times': {t!r} is not a finite "
                              f"time within [{state.t!r}, {t_end!r}]")
    t0 = time.perf_counter()
    result = run(op, state, t_end, scheme=cfg.rk and scheme_by_name(cfg.rk),
                 oe=oe, bp_scheme=cfg.bp_scheme, bounds=prob.bp_bounds,
                 output_times=cfg.times, cfl_scale=cfg.cfl,
                 max_steps=cfg.max_steps)
    wall = time.perf_counter() - t0
    row_prefixes = _cell_prefixes(op)
    for i, (t, snap) in enumerate(result.snapshots):
        _write_snapshot(f"{prefix}_t{i}.csv", row_prefixes, snap)
    _write_snapshot(f"{prefix}_final.csv", row_prefixes, result.state)
    if cfg.sample_grid:
        _write_samples(f"{prefix}_samples.csv", op, result.state,
                       cfg.sample_grid)
    _write_csv(f"{prefix}_meta.csv",
               ("steps", "average_dt", "wall_time", "t_final",
                "bp_violations"),
               [(result.steps, result.average_dt, wall, result.state.t,
                 result.bp_violations)])
    print(f"{cfg.problem}: {result.steps} steps, average dt "
          f"{result.average_dt:.6g}, wall {wall:.2f}s")
    return EXIT_OK


# the RunConfig fields convergence_study takes (and `out`); it builds each
# level's mesh and time step itself, so it would drop any other field
CONVERGENCE_FIELDS = {"problem", "k", "rk", "oe", "tend", "out"}


def cmd_convergence(args):
    if args.levels < 1:
        raise ConfigError(f"field 'levels': must be >= 1, got {args.levels}")
    cfg = _config_from_args(args)
    cfg.validate()
    default = RunConfig()
    for f in fields(RunConfig):
        if (f.name not in CONVERGENCE_FIELDS
                and getattr(cfg, f.name) != getattr(default, f.name)):
            raise ConfigError(f"field {f.name!r}: not used by 'convergence'")
    if cfg.out:
        _check_out_dir(cfg.out)
    rows = convergence_study(cfg.problem, cfg.k, args.levels,
                             oe_mode=cfg.oe_mode,
                             t_end=cfg.tend,
                             scheme=cfg.rk and scheme_by_name(cfg.rk))
    path = cfg.out
    _write_csv(path, ("N", "L1", "order1", "L2", "order2", "Linf", "orderinf"),
               [(r.n_cells, r.l1, r.order1, r.l2, r.order2, r.linf, r.orderinf)
                for r in rows])
    return EXIT_OK


def cmd_decomp(args):
    try:
        v = np.array([float(x) for x in args.vertices.split(",")]).reshape(3, 2)
    except ValueError:
        raise ConfigError(
            "field 'vertices': expected x1,y1,x2,y2,x3,y3") from None
    # either orientation, held to the area floor of a mesh cell
    ok = nonfinite_vertex(v) is None
    if ok:
        area, floor = scaled_cell_areas(v, np.array([[0, 1, 2]]))
        size = abs(area[0])
        ok = size > 0 and size >= floor
    if not ok:
        raise ConfigError("field 'vertices': a coordinate is not finite or "
                          "the triangle is degenerate")
    rows = []
    for k in ([args.k] if args.k else [1, 2]):
        dec = bp_mod.decomposition(v, k)
        nodes = dec.node_points()
        node_str = ";".join(f"{p[0]:.12g}|{p[1]:.12g}" for p in nodes)
        wts_str = ";".join(f"{w:.12g}" for w in dec.edge_weights)
        nwts_str = ";".join(f"{w:.12g}" for _, w in dec.nodes)
        raw_pts = [b @ dec.vertices for b, _ in dec.raw_nodes]
        raw_str = ";".join(f"{p[0]:.12g}|{p[1]:.12g}" for p in raw_pts)
        rows.append(("dcw", k, wts_str, node_str, nwts_str, raw_str, dec.cfl))
        rows.append(("zxs", k, "", "", "", "",
                     float(bp_mod.classical_cfl(dec.lengths, k))))
        rows.append(("cs", k, "", "", "", "",
                     float(bp_mod.chen_shu_cfl(dec.lengths, k))))
    _write_csv(args.out, ("scheme", "k", "edge_weights", "nodes",
                          "node_weights", "raw_nodes", "cfl"), rows)
    return EXIT_OK


def cmd_cflscan(args):
    if args.count < 1:
        raise ConfigError(f"field 'count': must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"field 'seed': must be >= 0, got {args.seed}")
    ks = [args.k] if args.k else [1, 2]
    rows = []
    for k in ks:
        if args.mesh:
            res = cfl_ratio_scan(k=k, mesh=_read_mesh(args.mesh))
        else:
            res = cfl_ratio_scan(n=args.count, k=k, seed=args.seed)
        rows.append((k, res["n"], res["dcw_zxs_min"], res["dcw_zxs_max"],
                     res["dcw_cs_min"], res["dcw_cs_max"]))
    _write_csv(args.out, ("k", "n", "dcw_zxs_min", "dcw_zxs_max",
                          "dcw_cs_min", "dcw_cs_max"), rows)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="tridg",
        description="DG solver for 2D conservation laws on triangular meshes")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="time-integrate a problem")
    _add_run_flags(pr)
    pr.set_defaults(fn=cmd_run)

    pc = sub.add_parser("convergence", help="grid refinement study")
    _add_run_flags(pc)
    pc.add_argument("--levels", type=int, default=4)
    pc.set_defaults(fn=cmd_convergence)

    pd = sub.add_parser("decomp", help="convex decomposition of one triangle")
    pd.add_argument("--vertices", required=True,
                    help="x1,y1,x2,y2,x3,y3")
    pd.add_argument("--k", type=int, choices=(1, 2))
    pd.add_argument("--out")
    pd.set_defaults(fn=cmd_decomp)

    ps = sub.add_parser("cflscan", help="CFL-number ratio extrema")
    ps.add_argument("--count", type=int, default=10_000)
    ps.add_argument("--k", type=int, choices=(1, 2))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--mesh")
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_cflscan)
    return p


# glibc mallopt parameters and the values `main` gives them. A trim threshold
# no run reaches keeps the heap top that each RK stage frees for the next
# stage, where glibc's default would return it to the kernel and fault it
# back in. Setting either threshold turns off glibc's dynamic mmap threshold,
# so the mmap threshold is pinned at the 32 MiB ceiling that dynamic rule
# stops at on 64-bit.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_SETTINGS = ((M_TRIM_THRESHOLD, 1 << 30), (M_MMAP_THRESHOLD, 32 << 20))


def keep_freed_memory():
    """Best effort: set MALLOC_SETTINGS through the C library's `mallopt`.

    Does nothing where the C library cannot be loaded or has no `mallopt`.
    Only the command line calls this; a program that imports tridg keeps
    its own allocator settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        # TypeError: platforms without a handle on the running process
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in MALLOC_SETTINGS:
        mallopt(param, value)


def main(argv=None):
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"admissibility abort: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TriDGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
