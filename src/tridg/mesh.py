"""Conforming triangular meshes: loading, generation, refinement, geometry.

Conventions
-----------
* Cells are vertex index triples, counterclockwise.
* Local edge i (0-based) is opposite local vertex i and connects local
  vertices (i+1)%3 -> (i+2)%3 in CCW traversal order.
* Each unique edge is stored once. Its endpoint order is the traversal order
  of its *left* cell; the right cell (if any) traverses it reversed.
* Periodic boundary pairs are glued into a single interior-like edge record
  carrying the translation offset from the left to the right side.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, MeshFormatError, TopologyError

BOUNDARY_TAGS = ("IN", "OUT", "WALL", "EXACT")


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

DEGENERACY_REL_TOL = 1e-14
PERIODIC_REL_TOL = 1e-12


@dataclass
class Mesh:
    """Immutable triangulation with precomputed geometry and connectivity."""

    vertices: np.ndarray        # (nv, 2)
    cells: np.ndarray           # (nc, 3) CCW
    # one record per unique edge (periodic pairs glued)
    edge_vertices: np.ndarray   # (ne, 2) endpoints, left-cell traversal order
    edge_cells: np.ndarray      # (ne, 2) [left, right]; right = -1 on boundary
    edge_local: np.ndarray      # (ne, 2) local edge index within left/right cell
    edge_tag: list              # boundary tag str or None (periodic/interior)
    edge_offset: np.ndarray     # (ne, 2) translation left->right side (periodic)
    edge_periodic: np.ndarray   # (ne,) bool
    # geometry
    area: np.ndarray = field(default=None)        # (nc,)
    edge_len: np.ndarray = field(default=None)    # (nc, 3)
    normal: np.ndarray = field(default=None)      # (nc, 3, 2) outward unit
    height: np.ndarray = field(default=None)      # (nc, 3)
    jac: np.ndarray = field(default=None)         # (nc, 2, 2)
    jac_inv: np.ndarray = field(default=None)     # (nc, 2, 2)
    sort_order: np.ndarray = field(default=None)  # (nc, 3) local edges, len desc
    centroid: np.ndarray = field(default=None)    # (nc, 2)
    cell_edges: np.ndarray = field(default=None)  # (nc, 3) global edge id
    cell_edge_forward: np.ndarray = field(default=None)  # (nc, 3) bool

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edge_vertices)

    @property
    def boundary_edge_ids(self):
        return np.nonzero(self.edge_cells[:, 1] < 0)[0]

    def physical_to_reference(self, c, xy):
        """Map physical points (..., 2) in cell c to reference coordinates."""
        v0 = self.vertices[self.cells[c, 0]]
        d = np.asarray(xy, dtype=float) - v0
        return d @ self.jac_inv[c].T


def _compute_geometry(mesh):
    v = mesh.vertices[mesh.cells]                       # (nc, 3, 2)
    e = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]               # edge i: v[i+1] -> v[i+2]
    area2 = _cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    mesh.area = 0.5 * area2
    mesh.edge_len = np.linalg.norm(e, axis=2)
    mesh.normal = np.stack([e[..., 1], -e[..., 0]], axis=-1) / mesh.edge_len[..., None]
    # distance from the opposite vertex to each edge line
    to_vert = v - v[:, [1, 2, 0]]                       # v[i] - edge start
    mesh.height = np.abs(_cross2(e, to_vert)) / mesh.edge_len
    mesh.jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
    inv = np.empty_like(mesh.jac)
    inv[:, 0, 0] = mesh.jac[:, 1, 1]
    inv[:, 0, 1] = -mesh.jac[:, 0, 1]
    inv[:, 1, 0] = -mesh.jac[:, 1, 0]
    inv[:, 1, 1] = mesh.jac[:, 0, 0]
    mesh.jac_inv = inv / area2[:, None, None]
    mesh.sort_order = np.argsort(-mesh.edge_len, axis=1, kind="stable")
    mesh.centroid = v.mean(axis=1)


def _validate_cells(vertices, cells):
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise TopologyError("cell vertex index out of range")
    # equal vertex triples are adjacent once the row-sorted cells are sorted
    triples = np.sort(cells, axis=1)
    triples = triples[np.lexsort(triples.T[::-1])]
    if np.any(np.all(triples[1:] == triples[:-1], axis=1)):
        raise TopologyError("duplicate cell (same vertex triple appears twice)")
    area, floor = scaled_cell_areas(vertices, cells)
    if np.any(area <= 0):
        bad = int(np.argmax(area <= 0))
        raise GeometryError(
            f"cell {bad} has non-positive area (vertices must be CCW)")
    small = area < floor
    if np.any(small):
        raise GeometryError(
            f"cell {int(np.argmax(small))} is degenerate (area below tolerance)")


def nonfinite_vertex(vertices):
    """Index of the first vertex with a nan or infinite coordinate, or None."""
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    return int(bad[0]) if len(bad) else None


def scaled_cell_areas(vertices, cells):
    """Signed cell areas and the least area of a non-degenerate cell, both
    taken on `vertices` divided by the power of two at their largest
    magnitude (by one if a coordinate is not finite).

    The division is exact, so the areas and the floor keep their ratio at
    any size: a mesh scaled by 1e200 or 1e-150 is judged as at unit size,
    where the raw products would overflow or underflow.
    """
    _, e = np.frexp(np.abs(vertices).max(initial=0.0))
    w = np.ldexp(vertices, -e)
    v = w[cells]
    area = 0.5 * _cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return area, DEGENERACY_REL_TOL * np.ptp(w, axis=0).max() ** 2


def build_mesh(vertices, cells, boundary_tags=None):
    """Assemble a Mesh from raw arrays.

    boundary_tags: iterable of (iv0, iv1, tag). Tags are 'IN', 'OUT', 'WALL',
    'EXACT', or 'P<k>' where the pair id <k> appears on exactly two edges.
    Every boundary edge must be tagged.
    """
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if len(cells) == 0:
        raise TopologyError("mesh has no cells")
    _validate_cells(vertices, cells)
    nv = len(vertices)

    # one user per (cell, local edge), in that order; local edge i runs
    # from local vertex i+1 to i+2. Users are grouped by the sorted vertex
    # pair, keyed as lo * nv + hi so keys sort like (lo, hi) tuples; the
    # stable sort keeps each edge's users in (cell, local edge) order.
    a = cells[:, [1, 2, 0]].ravel()
    b = cells[:, [2, 0, 1]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * nv + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, len(key)])
    first = order[start]
    second = np.where(count > 1, order[np.minimum(start + 1, len(key) - 1)], -1)

    # an edge may have two users that traverse it in opposite directions
    same_dir = (count == 2) & (a[first] == a[second]) & (b[first] == b[second])
    bad = np.flatnonzero((count > 2) | same_dir)
    if len(bad):
        e = bad[np.argmin(first[bad])]       # first in (cell, local edge) order
        pair = (int(lo[first[e]]), int(hi[first[e]]))
        if count[e] > 2:
            raise TopologyError(f"edge {pair} shared by {count[e]} cells")
        raise TopologyError(f"edge {pair} traversed twice in the same direction")

    tag_of = {}
    if boundary_tags is not None:
        for iv0, iv1, tag in boundary_tags:
            tkey = (min(int(iv0), int(iv1)), max(int(iv0), int(iv1)))
            if tkey in tag_of:
                raise TopologyError(f"boundary edge {tkey} tagged twice")
            tag_of[tkey] = str(tag)

    ukey = key[start]
    boundary = count == 1
    tagged = np.zeros(len(ukey), dtype=bool)
    tags = [None] * len(ukey)
    extra = []
    for tkey, tag in tag_of.items():
        k = tkey[0] * nv + tkey[1]
        eid = (int(np.searchsorted(ukey, k)) if 0 <= tkey[0] and tkey[1] < nv
               else len(ukey))
        if eid < len(ukey) and ukey[eid] == k:
            tagged[eid] = True
            tags[eid] = tag
        else:
            extra.append(tkey)
    # the first edge in key order that is an untagged boundary edge or a
    # tagged interior edge
    wrong = np.flatnonzero(boundary != tagged)
    if len(wrong):
        e = wrong[0]
        pair = (int(lo[first[e]]), int(hi[first[e]]))
        if boundary[e]:
            raise TopologyError(f"boundary edge {pair} has no tag")
        raise TopologyError(f"interior edge {pair} carries a boundary tag")
    if extra:
        raise TopologyError(f"tag references non-boundary edge {sorted(extra)[0]}")

    ev = np.stack([a[first], b[first]], axis=1)
    ec = np.stack([first // 3, np.where(boundary, -1, second // 3)], axis=1)
    el = np.stack([first % 3, np.where(boundary, -1, second % 3)], axis=1)
    offset = np.zeros((len(ev), 2))
    periodic = np.zeros(len(ev), dtype=bool)

    mesh = Mesh(vertices, cells, ev, ec, el, tags, offset, periodic)
    _compute_geometry(mesh)
    _glue_periodic(mesh)
    _build_cell_edge_tables(mesh)
    return mesh


def _glue_periodic(mesh):
    # only boundary edges carry tags; build_mesh has tagged every one
    groups = {}
    for eid in np.flatnonzero(mesh.edge_cells[:, 1] < 0).tolist():
        tag = mesh.edge_tag[eid]
        if tag.startswith("P"):
            groups.setdefault(tag, []).append(eid)
    if not groups:
        return
    names = sorted(groups)
    sizes = np.array([len(groups[tag]) for tag in names])
    # groups of the wrong size get a placeholder pair; they fail check 0
    ea, eb = np.array([groups[tag] if len(groups[tag]) == 2
                       else groups[tag][:1] * 2 for tag in names]).T
    pa = mesh.vertices[mesh.edge_vertices[ea]]          # (npairs, 2, 2)
    pb = mesh.vertices[mesh.edge_vertices[eb]]
    la = np.linalg.norm(pa[:, 1] - pa[:, 0], axis=1)
    lb = np.linalg.norm(pb[:, 1] - pb[:, 0], axis=1)
    t = pb.mean(axis=1) - pa.mean(axis=1)
    # match endpoints under translation; conforming pairs traverse reversed
    atol = PERIODIC_REL_TOL * max(np.ptp(mesh.vertices, axis=0).max(), 1.0)
    reverse = np.isclose(pa + t[:, None], pb[:, ::-1], atol=atol).all(axis=(1, 2))
    forward = np.isclose(pa + t[:, None], pb, atol=atol).all(axis=(1, 2))
    failed = np.stack([
        sizes != 2,
        np.abs(la - lb) > PERIODIC_REL_TOL * np.maximum(la, lb),
        ~(reverse | forward),
        ~reverse,
    ])
    bad = np.flatnonzero(failed.any(axis=0))
    if len(bad):
        g = bad[0]
        tag = names[g]
        raise TopologyError([
            f"periodic pair id {tag} used by {sizes[g]} edges",
            f"periodic pair {tag} has mismatched edge lengths",
            f"periodic pair {tag} endpoints do not match under translation",
            f"periodic pair {tag} traverses the same direction on both sides",
        ][int(np.argmax(failed[:, g]))])
    mesh.edge_cells[ea, 1] = mesh.edge_cells[eb, 0]
    mesh.edge_local[ea, 1] = mesh.edge_local[eb, 0]
    mesh.edge_offset[ea] = t
    mesh.edge_periodic[ea] = True
    for eid in ea:
        mesh.edge_tag[eid] = None
    idx = np.delete(np.arange(mesh.n_edges), eb)
    for name in ("edge_vertices", "edge_cells", "edge_local", "edge_offset",
                 "edge_periodic"):
        setattr(mesh, name, getattr(mesh, name)[idx])
    mesh.edge_tag = [mesh.edge_tag[i] for i in idx]


def _build_cell_edge_tables(mesh):
    nc = mesh.n_cells
    mesh.cell_edges = np.full((nc, 3), -1, dtype=np.int64)
    mesh.cell_edge_forward = np.zeros((nc, 3), dtype=bool)
    eids = np.arange(mesh.n_edges)
    cl, il = mesh.edge_cells[:, 0], mesh.edge_local[:, 0]
    mesh.cell_edges[cl, il] = eids
    mesh.cell_edge_forward[cl, il] = True
    inner = mesh.edge_cells[:, 1] >= 0
    cr, ir = mesh.edge_cells[inner, 1], mesh.edge_local[inner, 1]
    mesh.cell_edges[cr, ir] = eids[inner]
    mesh.cell_edge_forward[cr, ir] = False
    if np.any(mesh.cell_edges < 0):
        raise TopologyError("internal error: cell edge table incomplete")


# ---------------------------------------------------------------------------
# mesh file format
# ---------------------------------------------------------------------------

def load_mesh(source):
    """Read the plain-text mesh format.

    Line 1: `NV NC NBE`; NV lines `x y`; NC lines `i0 i1 i2` (0-based, CCW);
    NBE lines `iv0 iv1 TAG` with TAG in {P<k>, IN, OUT, WALL, EXACT}.
    `#` starts a comment. A malformed file is a MeshFormatError naming its
    first bad line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as f:
            text = f.read()
    lines = text.splitlines()
    data = [raw.split("#", 1)[0] for raw in lines] if "#" in text else lines
    data = list(filter(str.strip, data))            # drop blank lines
    if not data:
        raise MeshFormatError("empty mesh file")

    def fail(message, i):
        # file lines are counted only to name data line i
        raise MeshFormatError(message, line=[
            n for n, raw in enumerate(lines, start=1)
            if raw.split("#", 1)[0].strip()][i])

    def block(start, count, cast, width):
        # the `count` data lines from `start` as rows of `width` numbers,
        # read by one loadtxt. Where loadtxt rejects them, they are converted
        # by `cast` line by line (float() and int() accept `1_0`) up to the
        # first malformed line, whose index is returned with them
        rows = data[start:start + count]
        if rows:                        # loadtxt warns on no rows
            try:
                out = np.loadtxt(rows, dtype=cast, comments=None, ndmin=2)
                if out.shape == (count, width):
                    return out, None
            except ValueError:
                pass
        out = []
        for row in rows:
            values = _convert(row.split(), (cast,) * width)
            if values is None:
                break
            out.append(values)
        bad = start + len(out) if len(out) < count else None
        return np.array(out, dtype=object).reshape(-1, width), bad

    header = _convert(data[0].split(), (int, int, int))
    if header is None:
        fail("expected header `NV NC NBE`", 0)
    nv, nc, nbe = header
    if len(data) != 1 + nv + nc + nbe:
        fail(f"expected {1 + nv + nc + nbe} data lines, found {len(data)}",
             len(data) - 1)
    if min(header) < 0:
        fail("negative count in header `NV NC NBE`", 0)
    verts, bad = block(1, nv, float, 2)
    if bad is not None:
        fail("expected vertex `x y`", bad)
    verts = verts.astype(float, copy=False)
    bad = nonfinite_vertex(verts)
    if bad is not None:
        fail("vertex coordinate is not finite", 1 + bad)
    # an index out of range is named before a malformed later line, and is
    # found among Python ints before they are cast to int64
    cells, bad = block(1 + nv, nc, int, 3)
    outside = np.flatnonzero((cells < 0) | (cells >= nv))
    if len(outside):
        fail("cell vertex index out of range", 1 + nv + int(outside[0]) // 3)
    if bad is not None:
        fail("expected cell `i0 i1 i2`", bad)
    btags = []
    for i in range(1 + nv + nc, len(data)):
        record = _convert(data[i].split(), (int, int, str))
        if record is None:
            fail("expected boundary edge `iv0 iv1 TAG`", i)
        if not (0 <= record[0] < nv and 0 <= record[1] < nv):
            fail("boundary vertex index out of range", i)
        if not _valid_tag(record[2]):
            fail(f"unknown boundary tag {record[2]!r}", i)
        btags.append(tuple(record))
    return build_mesh(verts, cells.astype(np.int64, copy=False), btags)


def _convert(fields, casts):
    """The fields converted by casts, or None if their count or a value is
    wrong."""
    if len(fields) == len(casts):
        try:
            return [cast(f) for cast, f in zip(casts, fields)]
        except ValueError:
            pass
    return None


def _valid_tag(tag):
    return tag in BOUNDARY_TAGS or (tag.startswith("P") and tag[1:].isdigit())


def save_mesh(mesh, path):
    """Write the mesh in the plain-text format (periodic pairs re-expanded)."""
    btags = _boundary_tag_records(mesh)
    with open(path, "w") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_cells} {len(btags)}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for c in mesh.cells:
            f.write(f"{c[0]} {c[1]} {c[2]}\n")
        for a, b, t in btags:
            f.write(f"{a} {b} {t}\n")


# ---------------------------------------------------------------------------
# generation / refinement
# ---------------------------------------------------------------------------

def generate_structured(bounds, nx, ny, diagonal="alternating",
                        periodic=(), tags=None):
    """Structured triangulation of a rectangle: 2*nx*ny cells.

    bounds: (x0, y0, x1, y1). diagonal: 'alternating' flips the split
    checkerboard-fashion; 'uniform' always uses the same diagonal.
    periodic: subset of {'x', 'y'} to glue opposite sides.
    tags: {'left','right','bottom','top'} -> tag for non-periodic sides
          (default 'OUT').
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    if diagonal not in ("alternating", "uniform"):
        raise ValueError("diagonal must be 'alternating' or 'uniform'")
    x0, y0, x1, y1 = bounds
    vid = lambda i, j: j * (nx + 1) + i
    xs, ys = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    verts = np.stack([xs.ravel(), ys.ravel()], axis=1)

    # square (i, j) has corners a, b, c, d counterclockwise from (i, j); it
    # is split along a-c, or along b-d where flipped
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    a, b = vid(i, j), vid(i + 1, j)
    c, d = vid(i + 1, j + 1), vid(i, j + 1)
    flip = (diagonal == "alternating") & ((i + j) % 2 == 1)
    cells = np.stack([a, b, np.where(flip, d, c),
                      np.where(flip, b, a), c, d], axis=-1).reshape(-1, 3)

    tags = dict(tags or {})
    side_tag = {s: tags.get(s, "OUT") for s in ("left", "right", "bottom", "top")}
    btags = []
    pid = 0
    for j in range(ny):  # left/right sides
        lpair = (vid(0, j), vid(0, j + 1))
        rpair = (vid(nx, j), vid(nx, j + 1))
        if "x" in periodic:
            btags.append((*lpair, f"P{pid}"))
            btags.append((*rpair, f"P{pid}"))
            pid += 1
        else:
            btags.append((*lpair, side_tag["left"]))
            btags.append((*rpair, side_tag["right"]))
    for i in range(nx):  # bottom/top sides
        bpair = (vid(i, 0), vid(i + 1, 0))
        tpair = (vid(i, ny), vid(i + 1, ny))
        if "y" in periodic:
            btags.append((*bpair, f"P{pid}"))
            btags.append((*tpair, f"P{pid}"))
            pid += 1
        else:
            btags.append((*bpair, side_tag["bottom"]))
            btags.append((*tpair, side_tag["top"]))
    return build_mesh(verts, cells, btags)


def _boundary_records(mesh):
    """Boundary records as arrays: endpoints (nr, 2), side ids (nr,), tags.

    Records follow the edge order; a periodic edge gives two records, its own
    endpoints and then its partner's, both tagged P{pid} with pid counting the
    periodic edges. A record's side id is its edge id, plus n_edges for a
    partner's record.
    """
    ne = mesh.n_edges
    per = np.asarray(mesh.edge_periodic, dtype=bool)
    listed = per | (mesh.edge_cells[:, 1] < 0)
    side = np.repeat(np.flatnonzero(listed), 1 + per[listed])
    side[1:] += ne * (side[1:] == side[:-1])      # a repeat is the partner
    # a side runs as its cell traverses it: the left cell for the edge's own
    # side, the right cell for a partner's
    e, k = side % ne, side // ne
    c, i = mesh.edge_cells[e, k], mesh.edge_local[e, k]
    rows = np.stack([mesh.cells[c, (i + 1) % 3], mesh.cells[c, (i + 2) % 3]],
                    axis=1)
    tags = np.array([mesh.edge_tag[eid] for eid in e.tolist()], dtype=object)
    pr = np.flatnonzero(per[e])
    tags[pr] = [f"P{j // 2}" for j in range(len(pr))]
    return rows, side, tags


def _boundary_tag_records(mesh):
    """(iv0, iv1, tag) records of _boundary_records, as build_mesh takes them."""
    rows, _, tags = _boundary_records(mesh)
    return list(zip(*rows.T.tolist(), tags.tolist()))


def refine_uniform(mesh):
    """Split every cell into four similar children via edge midpoints.

    Midpoints follow the parent's vertices, numbered by first use over the
    sides a-b, b-c, c-a of each cell (a, b, c). A side's id is its edge id,
    plus n_edges where a cell traverses a periodic edge's partner side.
    """
    nv, ne = mesh.n_vertices, mesh.n_edges
    side = mesh.cell_edges + ne * (mesh.edge_periodic[mesh.cell_edges]
                                   & ~mesh.cell_edge_forward)
    used, first = np.unique(side[:, [2, 0, 1]], return_index=True)
    mid_of = np.empty(2 * ne, dtype=np.int64)
    mid_of[used[np.argsort(first)]] = nv + np.arange(len(used))
    mid = mid_of[side]                    # (nc, 3), midpoint of local side i
    verts = np.concatenate([mesh.vertices, np.empty((len(used), 2))])
    # side i runs from local vertex i+1 to i+2; x + y == y + x, so every
    # use of a side writes the same midpoint
    verts[mid] = 0.5 * (mesh.vertices[mesh.cells[:, [1, 2, 0]]]
                        + mesh.vertices[mesh.cells[:, [2, 0, 1]]])
    (a, b, c), (mbc, mca, mab) = mesh.cells.T, mid.T
    cells = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                     axis=1).reshape(-1, 3)

    # split each boundary record at its midpoint. The two sides of a
    # periodic pair run in opposite directions, so with the partner's halves
    # listed in reverse, half h of one side glues to half h of the other
    rows, rside, tags = _boundary_records(mesh)
    m = mid_of[rside]
    halves = np.stack([rows[:, 0], m, m, rows[:, 1]], axis=1).reshape(-1, 2, 2)
    partner = rside >= ne
    halves[partner] = halves[partner, ::-1]
    htags = np.stack([tags, tags], axis=1)
    # the two records of parent pair pid give child pairs 2 pid and 2 pid + 1
    pr = np.flatnonzero(mesh.edge_periodic[rside % ne])
    names = np.array([f"P{q}" for q in range(len(pr))], dtype=object)
    htags[pr] = names.reshape(-1, 2).repeat(2, axis=0)
    btags = list(zip(*halves.reshape(-1, 2).T.tolist(), htags.ravel().tolist()))
    return build_mesh(verts, cells, btags)


def perturb(mesh, amplitude=0.2, seed=0):
    """Jitter interior vertices by `amplitude` times the local edge scale.

    Boundary vertices stay fixed so tags and periodic pairing remain valid.
    Produces an irregular conforming mesh for robustness tests.
    """
    rng = np.random.default_rng(seed)
    # the endpoints of every boundary side, both sides of a periodic pair
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[_boundary_records(mesh)[0]] = True
    # local scale: shortest incident edge per vertex
    scale = np.full(mesh.n_vertices, np.inf)
    for shift in (1, 2):
        np.minimum.at(scale, np.roll(mesh.cells, -shift, axis=1), mesh.edge_len)
    verts = mesh.vertices.copy()
    free = ~on_boundary
    verts[free] += (rng.random((free.sum(), 2)) - 0.5) * (
        amplitude * scale[free, None])
    return build_mesh(verts, mesh.cells.copy(), _boundary_tag_records(mesh))
