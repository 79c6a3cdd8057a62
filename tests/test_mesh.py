import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tridg.mesh as mesh_module
from tridg.errors import (GeometryError, MeshFormatError, TopologyError,
                          TriDGError)
from tridg.mesh import (Mesh, _boundary_tag_records, _compute_geometry,
                        _valid_tag, _validate_cells, build_mesh,
                        generate_structured, load_mesh, nonfinite_vertex,
                        perturb, refine_uniform, save_mesh)
from tridg.problems import get_problem


def cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def single_triangle():
    return build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                      [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])


def test_single_triangle_geometry():
    m = single_triangle()
    assert m.n_cells == 1
    assert m.area[0] == pytest.approx(0.5, abs=1e-15)
    assert sorted(m.edge_len[0]) == pytest.approx([1.0, 1.0, math.sqrt(2)])
    # height opposite the hypotenuse (edge 0, opposite vertex 0)
    assert m.height[0, 0] == pytest.approx(math.sqrt(2) / 2, rel=1e-14)


def test_two_triangles_unit_square():
    m = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                   [(0, 1, 2), (0, 2, 3)],
                   [(0, 1, "OUT"), (1, 2, "OUT"), (2, 3, "OUT"), (3, 0, "OUT")])
    assert np.count_nonzero(m.edge_cells[:, 1] >= 0) == 1
    assert len(m.boundary_edge_ids) == 4


def test_duplicate_cell_rejected():
    with pytest.raises(TopologyError):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)], [])


def test_nonconforming_edge_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    cells = [(0, 1, 2), (1, 3, 2), (0, 2, 4)]
    # add a third cell sharing edge (0, 2) again
    cells.append((2, 0, 3))
    with pytest.raises(TopologyError):
        build_mesh(verts, cells, [])


def test_negative_area_rejected():
    with pytest.raises(GeometryError):
        build_mesh([(0, 0), (0, 1), (1, 0)], [(0, 1, 2)],
                   [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])


def test_degenerate_cell_rejected():
    with pytest.raises(GeometryError):
        build_mesh([(0, 0), (1, 0), (0.5, 1e-16)], [(0, 2, 1)], [])


# a unit cell, and a second one that is a sliver of area 5e-21 against a
# unit bounding box
SLIVER_VERTS = np.array([(0, 0), (1, 0), (0, 1), (1, 1e-20)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e160, 1e200])
def test_degeneracy_check_is_size_free(scale):
    # the geometry tables of a mesh at 1e200 overflow, so the check is
    # called alone; at 1e160 and 1e200 its raw products overflow
    verts = scale * SLIVER_VERTS
    _validate_cells(verts, np.array([(0, 1, 2)]))
    with pytest.raises(GeometryError, match="cell 1 is degenerate"):
        _validate_cells(verts, np.array([(0, 1, 2), (1, 3, 2)]))


def test_generate_structured_counts():
    m = generate_structured((0, 0, 1, 1), 2, 2, diagonal="uniform")
    assert m.n_cells == 8
    assert m.n_edges == 16


@pytest.mark.parametrize("nx,ny,diag", [(1, 1, "uniform"), (3, 2, "uniform"),
                                        (4, 4, "alternating")])
def test_generated_mesh_area(nx, ny, diag):
    m = generate_structured((0, 0, 2, 1), nx, ny, diagonal=diag)
    assert m.area.sum() == pytest.approx(2.0, rel=1e-13)
    assert m.n_cells == 2 * nx * ny


def geometry_identities(m):
    # h_i l_i = 2|K|
    assert np.allclose(m.height * m.edge_len, 2 * m.area[:, None], rtol=1e-13)
    # closed polygon: sum_i l_i n_i = 0
    s = (m.edge_len[:, :, None] * m.normal).sum(axis=1)
    scale = m.edge_len.max()
    assert np.abs(s).max() <= 1e-13 * scale
    # det J = 2|K|
    det = np.linalg.det(m.jac)
    assert np.allclose(det, 2 * m.area, rtol=1e-13)
    # CCW orientation
    v = m.vertices[m.cells]
    assert np.all(cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]) > 0)
    # heights against the independent vertex-to-line distance
    for c in (0, m.n_cells - 1):
        vv = m.vertices[m.cells[c]]
        for i in range(3):
            a, b = vv[(i + 1) % 3], vv[(i + 2) % 3]
            d = abs(cross2(b - a, vv[i] - a)) / np.linalg.norm(b - a)
            assert m.height[c, i] == pytest.approx(d, rel=1e-13)


def test_geometry_identities_structured():
    geometry_identities(generate_structured((0, 0, 1, 1), 4, 3))


def test_geometry_identities_perturbed():
    base = generate_structured((0, 0, 1, 1), 5, 5)
    geometry_identities(perturb(base, 0.3, seed=1))


def test_sort_edges():
    # lengths (1, sqrt2, 1): the sqrt2 edge first, the two 1s in local order
    m = single_triangle()
    lens = m.edge_len[0]
    order = m.sort_order[0]
    assert lens[order[0]] == pytest.approx(math.sqrt(2))
    assert order[1] < order[2]  # stable tie-break by original index
    # equilateral: all lengths equal; exact ties keep the identity order
    eq = build_mesh([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], [(0, 1, 2)],
                    [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])
    assert np.ptp(eq.edge_len[0]) <= 1e-15
    assert sorted(eq.sort_order[0]) == [0, 1, 2]
    assert list(np.argsort(-np.ones(3), kind="stable")) == [0, 1, 2]
    # (3,4,5) triangle: descending order 5, 4, 3
    tri = build_mesh([(0, 0), (3, 0), (0, 4)], [(0, 1, 2)],
                     [(0, 1, "OUT"), (1, 2, "OUT"), (2, 0, "OUT")])
    ls = tri.edge_len[0][tri.sort_order[0]]
    assert list(ls) == pytest.approx([5.0, 4.0, 3.0])


def test_refine_uniform_counts_and_areas():
    m = generate_structured((0, 0, 1, 1), 2, 2)
    r = refine_uniform(m)
    assert r.n_cells == 4 * m.n_cells
    assert r.area.sum() == pytest.approx(m.area.sum(), rel=1e-14)
    # every child area is a quarter of its parent's
    child = r.area.reshape(-1, 4)
    assert np.allclose(child, m.area[:, None] / 4, rtol=1e-13)
    rr = refine_uniform(r)
    assert rr.n_cells == 16 * m.n_cells


def test_refine_single_triangle():
    m = single_triangle()
    r = refine_uniform(m)
    assert r.n_cells == 4
    assert np.allclose(r.area, m.area[0] / 4, rtol=1e-14)


def test_refinement_sequence_from_44_cells():
    # a 44-cell mesh refines to 4 x 44 = 176 cells
    base = generate_structured((0, 0, 1, 1), 11, 2)
    assert base.n_cells == 44
    assert refine_uniform(base).n_cells == 176


def test_refine_preserves_boundary_tags():
    m = generate_structured((0, 0, 1, 1), 2, 2,
                            tags={"left": "IN", "right": "OUT",
                                  "bottom": "WALL", "top": "EXACT"})
    r = refine_uniform(m)
    tags = [t for t in r.edge_tag if t is not None]
    for t in ("IN", "OUT", "WALL", "EXACT"):
        assert tags.count(t) == 4


def test_refine_periodic_pairing():
    m = generate_structured((0, 0, 1, 1), 2, 2, periodic=("x", "y"))
    r = refine_uniform(m)
    assert np.count_nonzero(r.edge_periodic) == 8
    geometry_identities(r)


def test_periodic_gluing():
    m = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    assert len(m.boundary_edge_ids) == 0
    per = np.nonzero(m.edge_periodic)[0]
    assert len(per) == 6
    # matched lengths and translation offsets
    for eid in per:
        t = m.edge_offset[eid]
        assert np.linalg.norm(t) == pytest.approx(1.0, rel=1e-12)


MESH_TEXT = """\
# simple two-cell square
4 2 4
0 0
1 0
1 1
0 1
0 1 2
0 2 3
0 1 OUT
1 2 IN
2 3 WALL
3 0 EXACT
"""


def test_load_mesh_roundtrip(tmp_path):
    m = load_mesh(io.StringIO(MESH_TEXT))
    assert m.n_cells == 2
    assert sorted(t for t in m.edge_tag if t) == ["EXACT", "IN", "OUT", "WALL"]
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.allclose(m2.vertices, m.vertices)
    assert np.array_equal(m2.cells, m.cells)


def test_load_mesh_errors():
    with pytest.raises(MeshFormatError) as e:
        load_mesh(io.StringIO("4 2\n"))
    assert e.value.line == 1
    bad_vertex = MESH_TEXT.replace("1 1\n", "1 x\n")
    with pytest.raises(MeshFormatError) as e:
        load_mesh(io.StringIO(bad_vertex))
    assert e.value.line is not None
    bad_tag = MESH_TEXT.replace("2 3 WALL", "2 3 BOGUS")
    with pytest.raises(MeshFormatError):
        load_mesh(io.StringIO(bad_tag))
    dup = MESH_TEXT.replace("0 2 3", "1 2 0").replace("4 2 4", "4 2 4")
    with pytest.raises(TopologyError):
        load_mesh(io.StringIO(dup))


@pytest.mark.parametrize("text", ["0 0 0\n", "3 0 0\n0 0\n1 0\n0 1\n"])
def test_mesh_without_cells_is_a_topology_error(text):
    # no vertices raised a ValueError in scaled_cell_areas, three vertices
    # an IndexError in build_mesh's edge grouping
    with pytest.raises(TopologyError, match="no cells"):
        load_mesh(io.StringIO(text))


def test_untagged_boundary_edge_rejected():
    with pytest.raises(TopologyError):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], [(0, 1, "OUT")])


def test_reference_map_roundtrip(irregular_mesh):
    m = irregular_mesh
    rng = np.random.default_rng(0)
    for c in rng.integers(0, m.n_cells, size=10):
        b = rng.dirichlet(np.ones(3))
        x = b @ m.vertices[m.cells[c]]
        ref = m.physical_to_reference(c, x)
        back = m.vertices[m.cells[c, 0]] + ref @ m.jac[c].T
        assert np.allclose(back, x, atol=1e-13)
    # vertices map to the reference corners
    ref = m.physical_to_reference(0, m.vertices[m.cells[0]])
    assert np.allclose(ref, [[0, 0], [1, 0], [0, 1]], atol=1e-13)
    centroid = m.vertices[m.cells[0]].mean(axis=0)
    assert np.allclose(m.physical_to_reference(0, centroid), [1 / 3, 1 / 3],
                       atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["uniform", "alternating"]))
def test_structured_mesh_invariants(nx, ny, diag):
    m = generate_structured((0, 0, 1.5, 1), nx, ny, diagonal=diag)
    assert m.area.sum() == pytest.approx(1.5, rel=1e-13)
    assert np.allclose(m.height * m.edge_len, 2 * m.area[:, None], rtol=1e-13)
    inter = m.edge_cells[:, 1] >= 0
    # every interior edge's two cells actually share its two vertices
    for eid in np.nonzero(inter)[0]:
        a, b = m.edge_vertices[eid]
        cl, cr = m.edge_cells[eid]
        assert {a, b} <= set(m.cells[cl]) and {a, b} <= set(m.cells[cr])


# ---------------------------------------------------------------------------
# array builder against the per-cell loop builder it replaced
# ---------------------------------------------------------------------------


def loop_build_mesh(vertices, cells, boundary_tags=None):
    """The dict-of-vertex-pairs builder, kept as the reference."""
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise TopologyError("cell vertex index out of range")
    triples = [tuple(sorted(c)) for c in cells]
    if len(set(triples)) != len(triples):
        raise TopologyError("duplicate cell (same vertex triple appears twice)")
    v = vertices[cells]
    area2 = cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    if np.any(area2 <= 0):
        bad = int(np.argmax(area2 <= 0))
        raise GeometryError(
            f"cell {bad} has non-positive area (vertices must be CCW)")
    nc = len(cells)
    pair_map = {}
    for c in range(nc):
        for i in range(3):
            a = int(cells[c, (i + 1) % 3])
            b = int(cells[c, (i + 2) % 3])
            pair_map.setdefault((min(a, b), max(a, b)), []).append((c, i, a, b))
    for pair, users in pair_map.items():
        if len(users) > 2:
            raise TopologyError(f"edge {pair} shared by {len(users)} cells")
        if len(users) == 2 and users[0][2:] == users[1][2:]:
            raise TopologyError(f"edge {pair} traversed twice in the same direction")
    tag_of = {}
    if boundary_tags is not None:
        for iv0, iv1, tag in boundary_tags:
            key = (min(int(iv0), int(iv1)), max(int(iv0), int(iv1)))
            if key in tag_of:
                raise TopologyError(f"boundary edge {key} tagged twice")
            tag_of[key] = str(tag)
    ev, ec, el, tags = [], [], [], []
    boundary_pairs = []
    for pair, users in sorted(pair_map.items()):
        c0, i0, a0, b0 = users[0]
        ev.append((a0, b0))
        el.append([i0, -1])
        if len(users) == 2:
            c1, i1, _, _ = users[1]
            ec.append([c0, c1])
            el[-1][1] = i1
            tags.append(None)
        else:
            ec.append([c0, -1])
            tags.append(tag_of.get(pair))
            if tags[-1] is None:
                raise TopologyError(f"boundary edge {pair} has no tag")
            boundary_pairs.append(pair)
        if pair in tag_of and len(users) == 2:
            raise TopologyError(f"interior edge {pair} carries a boundary tag")
    extra = set(tag_of) - set(boundary_pairs)
    if extra:
        raise TopologyError(f"tag references non-boundary edge {sorted(extra)[0]}")
    ev = np.array(ev, dtype=np.int64)
    mesh = Mesh(vertices, cells, ev, np.array(ec, dtype=np.int64),
                np.array(el, dtype=np.int64), tags, np.zeros((len(ev), 2)),
                np.zeros(len(ev), dtype=bool))
    _compute_geometry(mesh)
    loop_glue_periodic(mesh)
    nc = mesh.n_cells
    mesh.cell_edges = np.full((nc, 3), -1, dtype=np.int64)
    mesh.cell_edge_forward = np.zeros((nc, 3), dtype=bool)
    for eid in range(mesh.n_edges):
        cl, cr = mesh.edge_cells[eid]
        il, ir = mesh.edge_local[eid]
        mesh.cell_edges[cl, il] = eid
        mesh.cell_edge_forward[cl, il] = True
        if cr >= 0:
            mesh.cell_edges[cr, ir] = eid
            mesh.cell_edge_forward[cr, ir] = False
    return mesh


def loop_glue_periodic(mesh):
    groups = {}
    for eid, tag in enumerate(mesh.edge_tag):
        if tag is not None and tag.startswith("P"):
            groups.setdefault(tag, []).append(eid)
    if not groups:
        return
    scale = max(np.ptp(mesh.vertices, axis=0).max(), 1.0)
    keep = np.ones(mesh.n_edges, dtype=bool)
    for tag, eids in sorted(groups.items()):
        if len(eids) != 2:
            raise TopologyError(f"periodic pair id {tag} used by {len(eids)} edges")
        ea, eb = eids
        pa = mesh.vertices[mesh.edge_vertices[ea]]
        pb = mesh.vertices[mesh.edge_vertices[eb]]
        la, lb = np.linalg.norm(pa[1] - pa[0]), np.linalg.norm(pb[1] - pb[0])
        if abs(la - lb) > 1e-12 * max(la, lb):
            raise TopologyError(f"periodic pair {tag} has mismatched edge lengths")
        t = pb.mean(axis=0) - pa.mean(axis=0)
        if np.allclose(pa + t, pb[::-1], atol=1e-12 * scale):
            reversed_match = True
        elif np.allclose(pa + t, pb, atol=1e-12 * scale):
            reversed_match = False
        else:
            raise TopologyError(f"periodic pair {tag} endpoints do not match under translation")
        if not reversed_match:
            raise TopologyError(
                f"periodic pair {tag} traverses the same direction on both sides")
        mesh.edge_cells[ea, 1] = mesh.edge_cells[eb, 0]
        mesh.edge_local[ea, 1] = mesh.edge_local[eb, 0]
        mesh.edge_offset[ea] = t
        mesh.edge_periodic[ea] = True
        mesh.edge_tag[ea] = None
        keep[eb] = False
    idx = np.nonzero(keep)[0]
    for name in ("edge_vertices", "edge_cells", "edge_local", "edge_offset",
                 "edge_periodic"):
        setattr(mesh, name, getattr(mesh, name)[idx])
    mesh.edge_tag = [mesh.edge_tag[i] for i in idx]


MESH_TABLES = ("vertices", "cells", "edge_vertices", "edge_cells", "edge_local",
               "edge_offset", "edge_periodic", "cell_edges", "cell_edge_forward")


def assert_same_tables(new, ref):
    for name in MESH_TABLES:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert new.edge_tag == ref.edge_tag


def builder_cases(generate=generate_structured, refine=refine_uniform):
    sq = (0.0, 0.0, 1.0, 1.0)
    mixed = {"left": "IN", "right": "OUT", "bottom": "WALL", "top": "WALL"}
    return {
        "uniform": generate(sq, 4, 3, diagonal="uniform"),
        "alternating": generate(sq, 5, 4),
        "periodic-x": generate(sq, 4, 5, periodic=("x",)),
        "periodic-y": generate((0, 0, 2, 1), 6, 3, periodic=("y",)),
        "periodic-xy": generate(sq, 6, 6, periodic=("x", "y")),
        "perturbed": perturb(generate(sq, 7, 5, periodic=("x", "y")),
                             0.3, seed=4),
        "refined": refine(generate(sq, 3, 2, periodic=("x",))),
        "mixed-tags": perturb(generate((0, 0, 3, 1), 6, 2, tags=mixed),
                              0.25, seed=2),
    }


@pytest.mark.parametrize("name", sorted(builder_cases()))
def test_build_mesh_matches_loop_builder(name):
    m = builder_cases()[name]
    # the cells in a scrambled order exercise the key sort and tie-breaks
    rng = np.random.default_rng(len(name))
    cells = m.cells[rng.permutation(m.n_cells)]
    tags = _boundary_tag_records(m)
    for c in (m.cells, cells):
        assert_same_tables(build_mesh(m.vertices, c, tags),
                           loop_build_mesh(m.vertices, c, tags))


def bad_builds():
    sq = generate_structured((0, 0, 1, 1), 2, 2, diagonal="uniform")
    per = generate_structured((0, 0, 1, 1), 2, 2, periodic=("x",))
    v, c, t = sq.vertices, sq.cells, _boundary_tag_records(sq)
    pv, pc, pt = per.vertices, per.cells, _boundary_tag_records(per)
    p_tags = [r for r in pt if r[2].startswith("P")]
    other = [r for r in pt if not r[2].startswith("P")]
    inner = np.flatnonzero(sq.edge_cells[:, 1] >= 0)
    interior = tuple(int(x) for x in sq.edge_vertices[inner[1]])
    stretched = pv.copy()
    stretched[[2, 8], 0] = 1.1                    # right side, moved out
    tilted = pv.copy()
    tilted[8] = [1 + 0.5 * np.sin(0.2), 0.5 + 0.5 * np.cos(0.2)]  # same length
    return {
        "duplicate": ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)], []),
        "three users": ([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)],
                        [(0, 1, 2), (1, 3, 2), (0, 2, 4), (2, 0, 3)], []),
        "same direction": ([(0, 0), (1, 0), (0, 1), (1, 1)],
                           [(0, 1, 2), (0, 3, 2)], []),
        "tagged twice": (v, c, t + [(t[0][1], t[0][0], "WALL")]),
        "untagged": (v, c, t[1:]),
        "interior tagged": (v, c, t + [(*interior, "OUT")]),
        "non-edge tag": (v, c, t + [(0, 8, "OUT")]),
        "out-of-range tag": (v, c, t + [(0, 99, "OUT")]),
        "lonely pair id": (pv, pc, other + p_tags[:-1] + [(*p_tags[-1][:2], "OUT")]),
        "pair of three": (pv, pc, other + p_tags[:-1] + [(*p_tags[-1][:2], "P0")]),
        "mismatched": (stretched, pc, pt),
        "not translated": (tilted, pc, pt),
        # the two left-side edges of the square, both traversed downwards
        "same-direction pair": (v, c, [
            (a, b, "P0" if {a, b} in ({0, 3}, {3, 6}) else tag)
            for a, b, tag in t]),
    }


@pytest.mark.parametrize("name", sorted(bad_builds()))
def test_build_mesh_errors_match_loop_builder(name):
    args = bad_builds()[name]
    with pytest.raises((TopologyError, GeometryError)) as ref:
        loop_build_mesh(*args)
    with pytest.raises(type(ref.value)) as new:
        build_mesh(*args)
    assert str(new.value) == str(ref.value)


def loop_perturb(mesh, amplitude=0.2, seed=0):
    """The per-edge/per-cell loop version of `perturb`, kept as the reference."""
    rng = np.random.default_rng(seed)
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    for eid in range(mesh.n_edges):
        if mesh.edge_cells[eid, 1] < 0 or mesh.edge_periodic[eid]:
            on_boundary[mesh.edge_vertices[eid]] = True
            if mesh.edge_periodic[eid]:
                cr, ir = mesh.edge_cells[eid, 1], mesh.edge_local[eid, 1]
                on_boundary[mesh.cells[cr, (ir + 1) % 3]] = True
                on_boundary[mesh.cells[cr, (ir + 2) % 3]] = True
    scale = np.full(mesh.n_vertices, np.inf)
    for c in range(mesh.n_cells):
        for i in range(3):
            a = mesh.cells[c, (i + 1) % 3]
            b = mesh.cells[c, (i + 2) % 3]
            l = mesh.edge_len[c, i]
            scale[a] = min(scale[a], l)
            scale[b] = min(scale[b], l)
    verts = mesh.vertices.copy()
    free = ~on_boundary
    verts[free] += (rng.random((free.sum(), 2)) - 0.5) * (
        amplitude * scale[free, None])
    return build_mesh(verts, mesh.cells.copy(), _boundary_tag_records(mesh))


# the benchmark's rect meshes: problem and nx of adv-p3, vacuum-p1, cold-start
@pytest.mark.parametrize("problem,nx", [("advection_smooth", 32),
                                        ("euler_double_rarefaction", 64),
                                        ("advection_smooth", 64)])
def test_perturb_saved_bytes_match_loop_version(tmp_path, problem, nx):
    base = get_problem(problem).make_rect_mesh(nx)
    for seed in range(3):
        save_mesh(perturb(base, seed=seed), tmp_path / "new.txt")
        save_mesh(loop_perturb(base, seed=seed), tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()


def loop_boundary_tag_records(mesh):
    """The per-edge loop version of `_boundary_tag_records`, the reference."""
    records = []
    pid = 0
    for eid in range(mesh.n_edges):
        a, b = mesh.edge_vertices[eid]
        if mesh.edge_periodic[eid]:
            cr, ir = mesh.edge_cells[eid, 1], mesh.edge_local[eid, 1]
            ra = int(mesh.cells[cr, (ir + 1) % 3])
            rb = int(mesh.cells[cr, (ir + 2) % 3])
            records.append((int(a), int(b), f"P{pid}"))
            records.append((ra, rb, f"P{pid}"))
            pid += 1
        elif mesh.edge_tag[eid] is not None:
            records.append((int(a), int(b), mesh.edge_tag[eid]))
    return records


def tag_record_cases():
    cases = {f"{problem}-{nx}": perturb(get_problem(problem)
                                        .make_rect_mesh(nx), seed=0)
             for problem, nx in [("advection_smooth", 32),
                                 ("euler_double_rarefaction", 64),
                                 ("advection_smooth", 64)]}
    cases.update(builder_cases())
    cases["single-cell"] = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], [
        (0, 1, "WALL"), (1, 2, "IN"), (2, 0, "OUT")])
    return cases


@pytest.mark.parametrize("name", sorted(tag_record_cases()))
def test_boundary_tag_records_match_loop_version(tmp_path, monkeypatch, name):
    m = tag_record_cases()[name]
    records = _boundary_tag_records(m)
    want = loop_boundary_tag_records(m)
    assert records == want
    assert all(type(a) is int and type(b) is int and type(t) is str
               for a, b, t in records)
    save_mesh(m, tmp_path / "new.txt")
    monkeypatch.setattr(mesh_module, "_boundary_tag_records",
                        loop_boundary_tag_records)
    save_mesh(m, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == \
        (tmp_path / "ref.txt").read_bytes()


# ---------------------------------------------------------------------------
# array generators against the loop versions they replaced
# ---------------------------------------------------------------------------

def loop_generate_structured(bounds, nx, ny, diagonal="alternating",
                             periodic=(), tags=None):
    """The per-cell loop version of `generate_structured`, the reference."""
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    if diagonal not in ("alternating", "uniform"):
        raise ValueError("diagonal must be 'alternating' or 'uniform'")
    x0, y0, x1, y1 = bounds
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    verts = np.array([[xs[i], ys[j]] for j in range(ny + 1)
                      for i in range(nx + 1)])
    cells = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            flip = diagonal == "alternating" and (i + j) % 2 == 1
            if not flip:   # diagonal a-c
                cells.append((a, b, c))
                cells.append((a, c, d))
            else:          # diagonal b-d
                cells.append((a, b, d))
                cells.append((b, c, d))
    cells = np.array(cells, dtype=np.int64)
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


def loop_refine_uniform(mesh):
    """The midpoint-dict version of `refine_uniform`, which re-pairs
    periodic halves by a geometric search; the reference."""
    verts = list(map(tuple, mesh.vertices))
    mid_index = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_index:
            mid_index[key] = len(verts)
            verts.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
        return mid_index[key]

    cells = []
    for (a, b, c) in mesh.cells:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        cells.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    btags = []
    pid = 0
    periodic_children = {}
    for iv0, iv1, tag in _boundary_tag_records(mesh):
        m = midpoint(iv0, iv1)
        halves = [(iv0, m), (m, iv1)]
        if tag.startswith("P"):
            periodic_children.setdefault(tag, []).append(halves)
        else:
            btags.extend([(h[0], h[1], tag) for h in halves])
    varr = np.array(verts)
    for tag, sides in sorted(periodic_children.items()):
        ha, hb = sides
        t_parent = (varr[list(hb[0] + hb[1])].mean(axis=0)
                    - varr[list(ha[0] + ha[1])].mean(axis=0))
        scale = max(np.ptp(varr, axis=0).max(), 1.0)
        remaining = list(hb)
        for half_a in ha:
            ma = varr[list(half_a)].mean(axis=0)
            matched = None
            for half_b in remaining:
                mb = varr[list(half_b)].mean(axis=0)
                if np.allclose(ma + t_parent, mb, atol=1e-9 * scale):
                    matched = half_b
                    break
            if matched is None:
                raise TopologyError(f"cannot re-pair refined periodic edges of {tag}")
            btags.append((half_a[0], half_a[1], f"P{pid}"))
            btags.append((matched[0], matched[1], f"P{pid}"))
            pid += 1
            remaining.remove(matched)
    return build_mesh(varr, np.array(cells, dtype=np.int64), btags)


@pytest.mark.parametrize("name", sorted(builder_cases()))
def test_generators_match_loop_versions(name):
    m = builder_cases()[name]
    assert_same_tables(
        m, builder_cases(loop_generate_structured, loop_refine_uniform)[name])
    once = refine_uniform(m)
    assert_same_tables(once, loop_refine_uniform(m))
    assert_same_tables(refine_uniform(once), loop_refine_uniform(once))


@pytest.mark.parametrize("periodic", [(), ("x",), ("y",), ("x", "y")])
def test_one_square_matches_loop_versions(periodic):
    tags = {"left": "IN", "bottom": "WALL", "top": "EXACT"}
    for diagonal in ("alternating", "uniform"):
        m = generate_structured((0, 0, 1, 1), 1, 1, diagonal, periodic, tags)
        assert_same_tables(m, loop_generate_structured(
            (0, 0, 1, 1), 1, 1, diagonal, periodic, tags))
        assert_same_tables(refine_uniform(m), loop_refine_uniform(m))


# the benchmark's rect meshes: problem and nx of adv-p3, vacuum-p1, cold-start
@pytest.mark.parametrize("problem,nx", [("advection_smooth", 32),
                                        ("euler_double_rarefaction", 64),
                                        ("advection_smooth", 64)])
def test_rect_mesh_saved_bytes_match_loop_generator(tmp_path, monkeypatch,
                                                    problem, nx):
    import tridg.problems as problems_module

    prob = get_problem(problem)
    mesh = prob.make_rect_mesh(nx)
    monkeypatch.setattr(problems_module, "generate_structured",
                        loop_generate_structured)
    ref = prob.make_rect_mesh(nx)
    assert_same_tables(mesh, ref)
    for seed in range(3):
        save_mesh(perturb(mesh, seed=seed), tmp_path / "new.txt")
        save_mesh(perturb(ref, seed=seed), tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()


# ---------------------------------------------------------------------------
# the mesh-file reader against the line-by-line parser it replaced
# ---------------------------------------------------------------------------

def _parse_lines(lines):
    """Line-by-line parser: raises MeshFormatError at the first bad line.

    load_mesh's former fallback, kept as the reference for its reader. It
    crashes on a negative header count and on a cell index beyond int64.
    """
    tokens = []  # (line_number, fields)
    for n, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            tokens.append((n, text.split()))

    if not tokens:
        raise MeshFormatError("empty mesh file")

    def parse(fields, line, types, what):
        if len(fields) != len(types):
            raise MeshFormatError(f"expected {what}", line=line)
        out = []
        for f, t in zip(fields, types):
            try:
                out.append(t(f))
            except ValueError:
                raise MeshFormatError(f"expected {what}", line=line) from None
        return out

    n0, f0 = tokens[0]
    nv, nc, nbe = parse(f0, n0, (int, int, int), "header `NV NC NBE`")
    if len(tokens) != 1 + nv + nc + nbe:
        raise MeshFormatError(
            f"expected {1 + nv + nc + nbe} data lines, found {len(tokens)}",
            line=tokens[-1][0])

    verts = np.empty((nv, 2))
    for i in range(nv):
        n, f = tokens[1 + i]
        verts[i] = parse(f, n, (float, float), "vertex `x y`")
    bad = nonfinite_vertex(verts)
    if bad is not None:
        raise MeshFormatError("vertex coordinate is not finite",
                              line=tokens[1 + bad][0])
    cells = np.empty((nc, 3), dtype=np.int64)
    for i in range(nc):
        n, f = tokens[1 + nv + i]
        cells[i] = parse(f, n, (int, int, int), "cell `i0 i1 i2`")
        if cells[i].min() < 0 or cells[i].max() >= nv:
            raise MeshFormatError("cell vertex index out of range", line=n)
    btags = []
    for i in range(nbe):
        n, f = tokens[1 + nv + nc + i]
        iv0, iv1, tag = parse(f, n, (int, int, str), "boundary edge `iv0 iv1 TAG`")
        if not (0 <= iv0 < nv and 0 <= iv1 < nv):
            raise MeshFormatError("boundary vertex index out of range", line=n)
        if not _valid_tag(tag):
            raise MeshFormatError(f"unknown boundary tag {tag!r}", line=n)
        btags.append((iv0, iv1, tag))
    return verts, cells, btags


def read(text):
    """The (vertices, cells, boundary records) load_mesh reads from text,
    as it passes them to build_mesh."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "build_mesh", lambda *parsed: parsed)
        return load_mesh(io.StringIO(text))


def assert_same_parse(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    assert got[2] == want[2]
    assert all(type(a) is int and type(b) is int and type(t) is str
               for a, b, t in got[2])


def test_block_parser_matches_line_parser(tmp_path):
    m = perturb(generate_structured((0, 0, 1, 1), 5, 4,
                                    tags={"left": "IN", "top": "WALL"}), seed=3)
    save_mesh(m, tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    commented = "# header\n\n" + text.replace("\n", "   # note\n", 7) + "\n  \n"
    texts = [text, commented, MESH_TEXT]
    # the benchmark workloads' meshes (adv-p3, vacuum-p1, cold-start)
    for prob, nx in (("advection_smooth", 32),
                     ("euler_double_rarefaction", 64),
                     ("advection_smooth", 64)):
        for seed in range(3):
            save_mesh(perturb(get_problem(prob).make_rect_mesh(nx), seed=seed),
                      tmp_path / "w.txt")
            texts.append((tmp_path / "w.txt").read_text())
    for t in texts:
        assert_same_parse(read(t), _parse_lines(t.splitlines()))
    assert_same_tables(load_mesh(io.StringIO(commented)), m)


@pytest.mark.parametrize("edit,line", [
    (("1 1\n0 1\n", "1 1 1\n0\n"), 5),     # field counts that still sum up
    (("1 1\n", "1_0 1\n"), None),            # float() accepts, parsed per line
    (("1 1\n", "1 x\n"), 5),
    (("0 2 3\n", "0 2 3.0\n"), 8),
    (("0 2 3\n", "0 2 4\n"), 8),
    (("0 2 3\n", "0 -1 3\n"), 8),
    (("1 2 IN", "1 7 IN"), 10),
    (("1 2 IN", "1 2 in"), 10),
    (("2 3 WALL", "2 3 P"), 11),
    (("2 3 WALL", "2 3"), 11),
    (("4 2 4", "4 2 x"), 2),
    (("4 2 4", "4 2 5"), 12),
    (("1 1\n", "1 nan\n"), 5),
    (("1 0\n", "-inf 0\n"), 4),
    # loadtxt rejects the cell block for line 8; line 7 is named first
    (("0 1 2\n0 2 3\n", "0 1 4\n0 2 x\n"), 7),
])
def test_malformed_blocks_go_to_line_parser(edit, line):
    text = MESH_TEXT.replace(*edit)
    if line is None:
        # accepted by the line parser, so load_mesh accepts it too
        m = load_mesh(io.StringIO(text))
        assert m.n_cells == 2
        return
    with pytest.raises(MeshFormatError) as e:
        load_mesh(io.StringIO(text))
    assert e.value.line == line


@pytest.mark.parametrize("edit,line", [
    # a cell index beyond int64 raised an OverflowError
    (("0 2 3\n", "0 2 99999999999999999999\n"), 8),
    # negative counts whose total still matches the line count raised
    # "ValueError: negative dimensions are not allowed"
    (("4 2 4", "4 -2 8"), 2),
    (("4 2 4", "-1 2 9"), 2),
])
def test_reference_crashes_are_format_errors(edit, line):
    text = MESH_TEXT.replace(*edit)
    with pytest.raises((ValueError, OverflowError)):
        _parse_lines(text.splitlines())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError) as e:
            load_mesh(io.StringIO(text))
    assert e.value.line == line


MUTATION_TOKENS = ("-1", "-2", "9", "x", "1_0", "nan", "1e400",
                   "99999999999999999999", "IN", "P0", "#c", "")


@st.composite
def mutated_mesh_texts(draw):
    """MESH_TEXT with 1-3 mutations of the lines after its comment: a field
    replaced (the most often) or appended, a line replaced, deleted or
    inserted, each with one token."""
    lines = MESH_TEXT.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        token = draw(st.sampled_from(MUTATION_TOKENS))
        kind = draw(st.sampled_from(("field",) * 4 + (
            "append", "line", "delete", "insert")))
        fields = lines[i].split()
        if kind == "field" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = token
            lines[i] = " ".join(fields)
        elif kind == "append":
            lines[i] = f"{lines[i]} {token}"
        elif kind == "delete":
            del lines[i]
        elif kind == "insert":
            lines.insert(i, token)
        else:
            lines[i] = token
    return "\n".join(lines) + "\n"


def negative_header(text):
    """Whether the first data line is three ints with a negative one."""
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if fields:
            try:
                return len(fields) == 3 and min(map(int, fields)) < 0
            except ValueError:
                return False
    return False


@settings(max_examples=600, deadline=None, derandomize=True)
@given(mutated_mesh_texts())
def test_reader_matches_line_parser_on_mutations(text):
    try:
        want = _parse_lines(text.splitlines())
    except MeshFormatError as exc:
        want = exc
    except (ValueError, OverflowError):
        want = None                     # the reference crashes
    try:
        got = read(text)
    except MeshFormatError as exc:
        got = exc
    if isinstance(want, tuple):
        assert isinstance(got, tuple)
        assert_same_parse(got, want)
    else:
        assert isinstance(got, MeshFormatError)
        # a negative count is named on the header line, where the
        # reference may have named a vertex line before it crashed
        if want is not None and not negative_header(text):
            assert got.line == want.line
    try:
        load_mesh(io.StringIO(text))
    except TriDGError:
        pass
