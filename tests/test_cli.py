import csv
import math

import numpy as np
import pytest

from tridg.cli import main
from tridg.config import RunConfig, load_config


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_decomp_equilateral(tmp_path, capsys):
    out = tmp_path / "dec.csv"
    v = f"0,0,1,0,0.5,{math.sqrt(3) / 2}"
    assert main(["decomp", "--vertices", v, "--out", str(out)]) == 0
    rows = read_csv(out)
    by = {(r["scheme"], r["k"]): float(r["cfl"]) for r in rows}
    assert by[("dcw", "1")] == pytest.approx(1 / 3, abs=1e-4)
    assert by[("zxs", "1")] == pytest.approx(1 / 9, abs=1e-4)
    assert by[("cs", "1")] == pytest.approx(1 / 6, abs=1e-4)
    assert by[("dcw", "2")] == pytest.approx(1 / 6, abs=1e-4)
    assert by[("zxs", "2")] == pytest.approx(1 / 27, abs=1e-4)


def test_decomp_bad_vertices(tmp_path):
    assert main(["decomp", "--vertices", "1,2,3"]) == 2


def test_cflscan(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["cflscan", "--count", "200", "--seed", "1",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    r1 = next(r for r in rows if r["k"] == "1")
    assert 2 - 1e-9 <= float(r1["dcw_zxs_min"])
    assert float(r1["dcw_zxs_max"]) <= 3 + 1e-9


def test_cflscan_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["cflscan", "--count", "300", "--seed", "7", "--out", str(a)])
    main(["cflscan", "--count", "300", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_writes_snapshots_and_metadata(tmp_path, capsys):
    prefix = tmp_path / "adv"
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--tend", "0.01", "--out", str(prefix)])
    assert rc == 0
    rows = read_csv(f"{prefix}_final.csv")
    assert set(rows[0]) == {"cell_id", "centroid_x", "centroid_y", "mode",
                            "component", "value"}
    meta = read_csv(f"{prefix}_meta.csv")[0]
    assert int(meta["steps"]) > 0
    assert float(meta["t_final"]) == pytest.approx(0.01)


def test_run_zero_duration_metadata_only(tmp_path):
    prefix = tmp_path / "zero"
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--tend", "0.0", "--out", str(prefix)])
    assert rc == 0
    meta = read_csv(f"{prefix}_meta.csv")[0]
    assert int(meta["steps"]) == 0


def test_run_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for p in (a, b):
        main(["run", "--problem", "burgers_smooth", "--k", "1",
              "--tend", "0.005", "--out", str(p)])
    assert (tmp_path / "a_final.csv").read_bytes() == \
        (tmp_path / "b_final.csv").read_bytes()


def test_config_error_codes(tmp_path):
    assert main(["run", "--problem", "advection_smooth", "--k", "7"]) == 2
    assert main(["run", "--problem", "no_such_problem"]) == 2
    assert main(["run", "--problem", "advection_smooth", "--k", "1",
                 "--oe", "ri"]) == 2  # rioe needs Euler


def test_admissibility_exit_code(tmp_path):
    rc = main(["run", "--problem", "euler_double_rarefaction", "--k", "1",
               "--oe", "ri", "--bp", "off", "--tend", "0.05",
               "--out", str(tmp_path / "vac")])
    assert rc == 3


def test_run_bp_vacuum_ok(tmp_path):
    rc = main(["run", "--problem", "euler_double_rarefaction", "--k", "1",
               "--oe", "ri", "--bp", "dcw", "--tend", "0.02",
               "--out", str(tmp_path / "vac")])
    assert rc == 0


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--problem", "advection_smooth", "--k", "1",
               "--levels", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    l1 = [float(r["L1"]) for r in rows]
    assert all(a > b for a, b in zip(l1, l1[1:]))


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\nproblem = advection_smooth\nk = 2\noe = cw\n"
        "bp = off\ntend = 0.01\ncfl = 0.9\n")
    cfg = load_config(cfg_file)
    assert cfg.problem == "advection_smooth"
    assert cfg.k == 2
    assert cfg.tend == pytest.approx(0.01)
    assert cfg.cfl == pytest.approx(0.9)
    cfg.validate()


def test_config_file_errors(tmp_path):
    from tridg.errors import ConfigError
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("k: 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_validation_messages():
    from tridg.errors import ConfigError
    with pytest.raises(ConfigError, match="'k'"):
        RunConfig(problem="advection_smooth", k=9).validate()
    with pytest.raises(ConfigError, match="'bp'"):
        RunConfig(problem="advection_smooth", k=3, bp="dcw").validate()
    with pytest.raises(ConfigError, match="'oe'"):
        RunConfig(problem="x", oe="ri").validate(model_name="burgers")
    with pytest.raises(ConfigError, match="'gen'"):
        RunConfig(problem="x", gen="4").validate()


def test_run_with_mesh_file(tmp_path):
    from tridg.mesh import generate_structured, save_mesh
    mesh_path = tmp_path / "m.txt"
    m = generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y"))
    save_mesh(m, mesh_path)
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--mesh", str(mesh_path), "--tend", "0.005",
               "--out", str(tmp_path / "mf")])
    assert rc == 0


def test_sample_grid_output(tmp_path):
    prefix = tmp_path / "s"
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--tend", "0.0", "--out", str(prefix), "--sample-grid", "5"])
    assert rc == 0
    rows = read_csv(f"{prefix}_samples.csv")
    assert len(rows) > 0
    assert {"x", "y", "u0"} <= set(rows[0])


def test_numeric_abort_exit_code(tmp_path):
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("problem = advection_smooth\nk = 1\ntend = 10.0\n"
                   "max_steps = 2\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 4


@pytest.mark.parametrize("argv", [
    ["--problem", "advection_smooth", "--k", "1", "--gen", "4,4"],
    ["--problem", "euler_double_rarefaction", "--k", "1", "--oe", "ri",
     "--bp", "dcw"],
    ["--problem", "euler_double_rarefaction", "--k", "1", "--oe", "ri",
     "--bp", "off"],
])
def test_nan_state_exit_code(tmp_path, monkeypatch, argv):
    # one NaN coefficient is a numeric abort (4), not an admissibility one
    from tridg.dg import SpatialOperator
    project = SpatialOperator.project

    def poisoned(op, fn, t=0.0):
        state = project(op, fn, t)
        state.coeffs[0, 1, 0] = np.nan
        return state

    monkeypatch.setattr(SpatialOperator, "project", poisoned)
    rc = main(["run", *argv, "--tend", "0.01", "--out", str(tmp_path / "n")])
    assert rc == 4


def test_snapshot_bytes_match_csv_writer(tmp_path):
    from tridg.cli import _write_csv, _write_snapshot
    from tridg.dg import SpatialOperator
    from tridg.mesh import generate_structured, perturb
    from tridg.physics import Euler
    mesh = perturb(generate_structured((0, 0, 1, 1), 3, 2), 0.2, seed=1)
    op = SpatialOperator(mesh, Euler(), 2)
    state = op.project(lambda x, y: Euler().from_primitive(1 + x, y, -x, 2.0))
    state.coeffs.flat[:4] = [-0.0, 1e-300, 1e300, -3.25]
    state.coeffs[-1, -1, :] = [-1e-300, -1e300, 0.1, -2 / 3]
    rows = [(c, float(mesh.centroid[c, 0]), float(mesh.centroid[c, 1]), l,
             comp, float(state.coeffs[c, l, comp]))
            for c in range(mesh.n_cells) for l in range(op.nm)
            for comp in range(state.d)]
    _write_csv(tmp_path / "rows.csv", ("cell_id", "centroid_x", "centroid_y",
                                       "mode", "component", "value"), rows)
    _write_snapshot(tmp_path / "snap.csv", op, state)
    want = (tmp_path / "rows.csv").read_bytes()
    assert all(v in want for v in (b",-0\r\n", b",1e-300\r\n", b",-1e-300\r\n",
                                   b",-1.0000000000000001e+300\r\n"))
    assert (tmp_path / "snap.csv").read_bytes() == want


def test_decomp_records_raw_nodes(tmp_path):
    out = tmp_path / "d.csv"
    v = f"0,0,1,0,0.5,{math.sqrt(3) / 2}"
    assert main(["decomp", "--vertices", v, "--k", "2",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    dcw = next(r for r in rows if r["scheme"] == "dcw")
    # merged to one node, but both raw nodes recorded
    assert dcw["nodes"].count("|") == 1
    assert dcw["raw_nodes"].count("|") == 2
