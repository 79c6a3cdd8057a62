"""Text output: every float as `%.17g`, every row ending in "\r\n".

`_fmt` is the one definition of the float format. `_encode_g17` writes it
for a whole float64 array in numpy; the snapshot and sample writers lay
their rows out as NUL-padded uint64 words around it and drop the padding
with one `bytes.translate`. `_write_csv` writes the small tables (run
metadata, convergence, decomposition and CFL-scan results).
"""

import functools
import sys

import numpy as np

from . import basis
from .errors import ConfigError


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    """header and rows as CSV, to stdout when path is None.

    Fields are joined with "," and rows end in "\r\n": floats as _fmt,
    anything else as str. No field of these tables needs quoting.
    """
    lines = [",".join(header)]
    lines += [",".join([_fmt(v) if isinstance(v, float) else str(v)
                        for v in row]) for row in rows]
    text = "\r\n".join(lines) + "\r\n"
    if not path:
        sys.stdout.write(text)
        return
    with _create(path) as out:
        out.write(text.encode())


def _create(path):
    """open(path, "wb"); a file that cannot be created is a ConfigError."""
    try:
        return open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"field 'out': cannot write {path!r} "
                          f"({exc.strerror})") from None


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
# "\r\n" in bytes 6 and 7 and "," in byte 7 of a word, which _encode_g17
# leaves NUL in the last word of a value
_CRLF_WORD = np.frombuffer(b"\0" * 6 + b"\r\n", np.uint64)[0]
_COMMA_WORD = np.frombuffer(b"\0" * 7 + b",", np.uint64)[0]


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
    ten = [1]                           # ten[q] == 10**q
    for _ in range(max(16 - e_min, e_max - 15)):
        ten.append(ten[-1] * 10)
    pow_hi, pow_lo = [], []
    for p in range(16 - e_min, 15 - e_max, -1):
        if p >= 0:
            hi = float(ten[p])
            lo = float(ten[p] - int(hi))
        else:
            hi = 1 / ten[-p]
            num, den = hi.as_integer_ratio()
            lo = (den - num * ten[-p]) / (den * ten[-p])
        pow_hi.append(hi)
        pow_lo.append(lo)
    # the digits of 0..9999, most significant first
    chars = (np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T
             + np.uint8(ord("0")))
    spread = np.full((10000, 8), ord("."), np.uint8)
    spread[:, ::2] = chars
    # 1 + the place of the last nonzero digit, 0 for 0000
    length = ((chars != ord("0")) * np.arange(1, 5, dtype=np.uint8)).max(
        axis=1)
    ends = (length + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (
        length > 0)
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


# values per chunk in _write_snapshot and _write_samples: their numpy
# temporaries stay well below 1 MB, and the per-operation overhead of
# _encode_g17 is spread thin
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
    with _create(path) as out:
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
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
    cmin = np.minimum(np.minimum(v0, v1), v2)
    cmax = np.maximum(np.maximum(v0, v1), v2)
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
    table = np.column_stack([xy, u])
    header = ",".join(["x", "y", *[f"u{i}" for i in range(state.d)]])
    # each chunk of rows is one uint64 array of NUL-padded fields with
    # "," or "\r\n" in their spare bytes, written with its NULs dropped
    step = max(1, SNAPSHOT_CHUNK_ROWS // table.shape[1])
    fields = np.empty((min(step, len(table)), table.shape[1], G17_WORDS),
                      np.uint64)
    with _create(path) as out:
        out.write(header.encode() + b"\r\n")
        for r0 in range(0, len(table), step):
            chunk = fields[:len(table) - r0]
            _encode_g17(table[r0:r0 + step].ravel(),
                        chunk.reshape(-1, G17_WORDS))
            chunk[:, :-1, -1] |= _COMMA_WORD
            chunk[:, -1, -1] |= _CRLF_WORD
            out.write(chunk.tobytes().translate(None, b"\0"))
