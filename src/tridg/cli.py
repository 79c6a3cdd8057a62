"""Command-line entry points: run, convergence, decomp, cflscan.

Exit codes: 0 ok, 2 configuration error, 3 admissibility abort,
4 numeric abort (NaN/Inf or step-limit).
"""

import argparse
import csv
import ctypes
import functools
import math
import os
import sys
import time

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
    for name, _, _ in RunConfig.FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
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


def _check_out_file(path):
    """Reject an output file that names a directory, or whose directory is
    missing or not writable, before the work whose results it would lose."""
    if os.path.isdir(path):
        raise ConfigError(f"field 'out': {path!r} is a directory")
    _check_out_dir(path)


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


# %.17g in numpy. _encode_g17 writes each value as NUL-padded text in
# G17_WORDS uint64 words, whose bytes are the text in memory order;
# bytes.translate(None, b"\0") drops the padding.
G17_WORDS = 6
# decimal exponents E of the values encoded in numpy; the power-of-ten table
# spans 10**(16 - E) for these, plus one for a carry out of the 17th digit
G17_EXPONENTS = (-282, 281)
# |v| range encoded in numpy: its exponents lie inside G17_EXPONENTS, and
# no product or split below overflows or goes subnormal
G17_RANGE = (1e-280, 1e280)
# half-width of the band around a rounding tie that goes to _fmt
G17_TIE_BAND = 1e-9
_DEKKER_SPLIT = 134217729.0         # 2**27 + 1
# "\r\n" in bytes 6 and 7 of a word, which _encode_g17 leaves NUL
_CRLF_WORD = np.frombuffer(b"\0" * 6 + b"\r\n", np.uint64)[0]


def _dekker_split(a):
    """(hi, lo) with hi + lo == a exactly and 26 significant bits each."""
    t = _DEKKER_SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _text_words(lines):
    """lines (bytes) as rows of uint64 words, NUL padded to a common width."""
    width = -(-max(map(len, lines)) // 8) * 8
    return np.array(lines, dtype=f"S{width}").view(np.uint64).reshape(
        len(lines), -1)


@functools.cache
def _g17_tables():
    """The tables _encode_g17 reads, built on first use.

    pow_hi (split in two by _dekker_split) + pow_lo is 10**(16 - E) for E in
    G17_EXPONENTS, within 2**-106 relative; built from Python ints.
    Indexed by a 4-digit group g (0..9999) and by E - G17_EXPONENTS[0]:
    groups  the group's four digits at the even bytes of a word, a point
            at each odd byte;
    ends    ends[k][g], the number of digits up to g's last nonzero digit
            when g is the k-th group after the leading digit; 0 if g == 0;
    masks   masks[k][kept * 18 + point]: the bytes of group k's word that
            show the first `kept` digits and the point after digit
            point - 1 (0: no point there; the leading digit is digit 0);
    int_digits  the digits %g writes before the point: E + 1 for fixed
            notation with E >= 0, 0 below 1, 1 in exponent notation;
    heads   heads[40 * (E - G17_EXPONENTS[0]) + 20 * sign
            + 10 * point_after_d0 + d0]: the word [sign, "0.000" below 1,
            leading digit, point];
    exps    the exponent word "e+XX" or "e-XXX"; 0 in fixed notation.
    """
    e_min, e_max = G17_EXPONENTS
    pow_hi, pow_lo = [], []
    for p in range(16 - e_min, 15 - e_max, -1):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            hi = 1 / 10 ** -p
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -p) / (den * 10 ** -p)
        pow_hi.append(hi)
        pow_lo.append(lo)
    chars = ((np.arange(10000)[:, None] // [1000, 100, 10, 1]) % 10
             + ord("0")).astype(np.uint8)
    spread = np.full((10000, 8), ord("."), np.uint8)
    spread[:, ::2] = chars
    nonzero = chars != ord("0")
    length = np.where(nonzero.any(axis=1),
                      4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    ends = np.stack([np.where(length > 0, 1 + 4 * k + length, 0)
                     for k in range(4)]).astype(np.uint8)
    byte = np.arange(8)
    kept = np.arange(18)[:, None, None]
    point = np.arange(18)[None, :, None]
    masks = []
    for k in range(4):
        digit = 1 + 4 * k + byte // 2
        show = np.where(byte % 2 == 0, digit < kept, digit == point - 1)
        masks.append((show * 0xFF).astype(np.uint8).reshape(-1, 8))
    e = np.arange(e_min, e_max + 2)
    fixed = (e >= -4) & (e < 17)
    int_digits = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.uint8)
    heads = np.zeros((2, 5, 2, 10, 8), np.uint8)   # sign, zeros, point, d0
    heads[1, ..., 0] = ord("-")
    for zeros in range(1, 5):
        heads[:, zeros, :, :, 1:2 + zeros] = np.frombuffer(
            b"0." + b"0" * (zeros - 1), np.uint8)
    heads[..., 6] = ord("0") + np.arange(10)
    heads[:, :, 1, :, 7] = ord(".")
    heads = heads.transpose(1, 0, 2, 3, 4).reshape(5, -1).view(np.uint64)
    exps = _text_words([b"" if f else b"e%+03d" % x
                        for x, f in zip(e.tolist(), fixed)])[:, 0]
    pow_hi = np.array(pow_hi)
    return (*_dekker_split(pow_hi), np.array(pow_lo),
            spread.view(np.uint64)[:, 0], ends,
            [m.view(np.uint64)[:, 0] for m in masks], int_digits,
            heads[np.where(fixed & (e < 0), -e, 0)].ravel(), exps)


def _encode_g17(values, out):
    """Write the bytes of _fmt(v) for each float64 v of values into out.

    out: (len(values), G17_WORDS) uint64, each row the text NUL padded at
    fixed places (the point of fixed notation has a slot after every
    digit), with bytes 45..47 of the row NUL. Zeros and finite |v| in
    G17_RANGE are encoded in numpy; nan, inf, subnormal and extreme values
    go through _fmt, as do values whose exponent guess is off or whose
    17th digit is within G17_TIE_BAND of a rounding tie.

    The 17 digits: E = floor(log10|v|) and V = |v| * 10**(16 - E) formed
    as P + t, P = fl(|v| * pow_hi) and t = the exact error of that product
    (Dekker's two-product) + fl(|v| * pow_lo). Its absolute error is below
    5e-15: under 2**-106 * V each from the table and from |v| * pow_lo,
    and under 2**-49 from adding the two, as |t| < 32. floor(V) =
    int(P) + floor(t) must lie in [1e16, 1e17) (else the guess E is off),
    and frac(t) more than G17_TIE_BAND from 1/2, which covers that error;
    rounding then gives the correctly rounded 17 digits, where a carry to
    1e17 becomes 1e16 and E + 1.
    """
    (hi_hi, hi_lo, pow_lo, groups, ends, masks, int_digits, heads,
     exps) = _g17_tables()
    a = np.abs(values)
    scaled = (a >= G17_RANGE[0]) & (a <= G17_RANGE[1])
    x = np.where(scaled, a, 1.0)
    i = np.floor(np.log10(x)).astype(np.int64) - G17_EXPONENTS[0]
    bh, bl = hi_hi[i], hi_lo[i]
    ah, al = _dekker_split(x)
    p = x * (bh + bl)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + x * pow_lo[i]
    t_floor = np.floor(t)
    frac = t - t_floor
    d = p.astype(np.int64) + t_floor.astype(np.int64)
    exact = (scaled & ((d - 10 ** 16).view(np.uint64) < 9 * 10 ** 16)
             & (np.abs(frac - 0.5) > G17_TIE_BAND))
    d += frac > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    i += carry
    # zeros and _fmt's values: the digits of 0 at E = 0
    d *= exact
    i[~exact] = -G17_EXPONENTS[0]
    # d = d0 g1 g2 g3 g4: a leading digit and four 4-digit groups
    hi = d // 10 ** 8
    lo = d - hi * 10 ** 8
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    g = [hi // 10 ** 4, None, lo // 10 ** 4, None]
    g[1] = hi - g[0] * 10 ** 4
    g[3] = lo - g[2] * 10 ** 4
    # the digits shown: through the last nonzero one, or through the
    # integer part in fixed notation, which keeps its zeros
    nsig = np.maximum(np.maximum(ends[0][g[0]], ends[1][g[1]]),
                      np.maximum(ends[2][g[2]], ends[3][g[3]]))
    n_int = int_digits[i]
    point = n_int * (nsig > n_int)
    key = np.maximum(nsig, n_int).astype(np.intp) * 18 + point
    out[:, 0] = heads[40 * i + 20 * np.signbit(values) + 10 * (point == 1)
                      + d0]
    for k in range(4):
        out[:, k + 1] = groups[g[k]] & masks[k][key]
    out[:, 5] = exps[i]
    for j in np.flatnonzero(~exact & (a != 0)).tolist():
        text = _fmt(float(values[j])).encode()
        out[j] = 0
        out[j].view(np.uint8)[:len(text)] = np.frombuffer(text, np.uint8)


# rows per chunk in _write_snapshot: its numpy temporaries stay well below
# 1 MB, and the per-operation overhead of _encode_g17 is spread thin
SNAPSHOT_CHUNK_ROWS = 2048


def _cell_prefixes(op):
    """Row prefixes "cell_id,centroid_x,centroid_y," of op's mesh, one row
    of uint64 words per cell, as _text_words lays them out."""
    centroid = op.mesh.centroid
    nc = len(centroid)
    # the cell id's digits, leading zeros as NUL
    scale = 10 ** np.arange(len(str(nc - 1)) - 1, -1, -1)
    ids = np.arange(nc)[:, None]
    ids = np.where((ids < scale) & (scale > 1), 0,
                   ids // scale % 10 + ord("0"))
    xy = np.empty((nc, 2, G17_WORDS), np.uint64)
    _encode_g17(centroid.ravel(), xy.reshape(2 * nc, G17_WORDS))
    xy = xy.view(np.uint8)
    comma = np.full((nc, 1), ord(","), np.uint8)
    wide = np.concatenate([ids.astype(np.uint8), comma, xy[:, 0], comma,
                           xy[:, 1], comma,
                           np.full((nc, 1), ord("\n"), np.uint8)],
                          axis=1)
    return _text_words(wide.tobytes().translate(None, b"\0").split(b"\n")[:-1])


def _write_snapshot(path, prefixes, state):
    """One row per (cell, mode, component); the bytes _write_csv would write.

    prefixes: _cell_prefixes of the state's operator, formatted once per run.
    Each chunk of whole cells is one uint64 array of NUL-padded rows
    [prefix, "l,comp,", value and "\\r\\n"], written with its NULs dropped.
    """
    nc, nm, d = state.coeffs.shape
    suffixes = _text_words([b"%d,%d," % (l, comp)
                            for l in range(nm) for comp in range(d)])
    pw = prefixes.shape[1]
    v0 = pw + suffixes.shape[1]
    step = max(1, SNAPSHOT_CHUNK_ROWS // (nm * d))
    rows = np.empty((step, nm * d, v0 + G17_WORDS), np.uint64)
    rows[:, :, pw:v0] = suffixes
    flat = state.coeffs.reshape(nc, nm * d)
    with open(path, "wb") as out:
        out.write(b"cell_id,centroid_x,centroid_y,mode,component,value\r\n")
        for c0 in range(0, nc, step):
            chunk = rows[:min(step, nc - c0)]
            chunk[:, :, :pw] = prefixes[c0:c0 + step, None]
            value = chunk.reshape(-1, v0 + G17_WORDS)[:, v0:]
            _encode_g17(flat[c0:c0 + step].ravel(), value)
            value[:, -1] |= _CRLF_WORD
            out.write(chunk.tobytes().translate(None, b"\0"))


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
    prob, op, state, oe, bp = _build_run(cfg)
    t_end = cfg.tend if cfg.tend is not None else prob.t_end
    # run records no time before the initial state or past t_end, so such a
    # snapshot would be lost
    for t in cfg.times:
        if not (math.isfinite(t) and state.t <= t <= t_end):
            raise ConfigError(f"field 'output_times': {t!r} is not a finite "
                              f"time within [{state.t!r}, {t_end!r}]")
    t0 = time.perf_counter()
    result = run(op, state, t_end, scheme=cfg.rk and scheme_by_name(cfg.rk),
                 oe=oe, bp=bp, output_times=cfg.times, cfl_scale=cfg.cfl,
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
    for name, _, default in RunConfig.FIELDS:
        if name not in CONVERGENCE_FIELDS and getattr(cfg, name) != default:
            raise ConfigError(f"field {name!r}: not used by 'convergence'")
    if cfg.out:
        _check_out_file(cfg.out)
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
    if args.out:
        _check_out_file(args.out)
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
    if args.out:
        _check_out_file(args.out)
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
