import csv
import inspect
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tridg.cli as cli
from tridg.cli import main
from tridg.config import RunConfig, load_config
from tridg.physics import Burgers, Euler, ScaledModel


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


def test_decomp_bad_vertices(tmp_path, capsys):
    # too few, collinear, all equal, non-finite, below the area floor
    for verts in ("1,2,3", "0,0,1,0,2,0", "0,0,0,0,0,0", "nan,0,1,0,0,1",
                  "0,0,inf,0,0,1", "0,0,1,0,0,1e-20", "x,0,1,0,0,1"):
        assert main(["decomp", f"--vertices={verts}",
                     "--out", str(tmp_path / "d.csv")]) == 2, verts
        assert "'vertices'" in capsys.readouterr().err
    # clockwise input is a triangle too
    assert main(["decomp", "--vertices", "0,0,0,1,1,0",
                 "--out", str(tmp_path / "d.csv")]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e200])
def test_decomp_degeneracy_is_size_free(tmp_path, capsys, scale):
    def verts(*xy):
        return ",".join(repr(scale * c) for c in xy)
    out = str(tmp_path / "d.csv")
    assert main(["decomp", "--vertices", verts(0, 0, 1, 0, 1, 1e-20),
                 "--out", out]) == 2
    assert "'vertices'" in capsys.readouterr().err
    assert main(["decomp", "--vertices", verts(0, 0, 1, 0, 0, 1),
                 "--out", out]) == 0


def test_cflscan_bad_count(tmp_path, capsys):
    for count in ("0", "-3"):
        assert main(["cflscan", "--count", count,
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert "'count'" in capsys.readouterr().err


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


def test_cflscan_reads_its_mesh_once(tmp_path, monkeypatch):
    # without --k the scan runs both degrees; it parsed and built the mesh
    # once per degree
    from tridg.mesh import generate_structured, perturb, save_mesh
    mesh = perturb(generate_structured((0, 0, 1, 1), 4, 4), 0.2, seed=1)
    path = str(tmp_path / "m.txt")
    save_mesh(mesh, path)
    calls = []
    load = cli.load_mesh
    monkeypatch.setattr(cli, "load_mesh",
                        lambda p: calls.append(p) or load(p))
    out = tmp_path / "scan.csv"
    assert main(["cflscan", "--mesh", path, "--out", str(out)]) == 0
    assert calls == [path]
    rows = read_csv(out)
    assert [r["k"] for r in rows] == ["1", "2"]
    for r in rows:
        want = cli.cfl_ratio_scan(k=int(r["k"]), mesh=load(path))
        assert int(r["n"]) == mesh.n_cells == want["n"]
        assert float(r["dcw_zxs_min"]) == want["dcw_zxs_min"]
        assert float(r["dcw_cs_max"]) == want["dcw_cs_max"]


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


def test_config_error_codes(tmp_path, capsys):
    assert main(["run", "--problem", "advection_smooth", "--k", "7"]) == 2
    assert main(["run", "--problem", "no_such_problem"]) == 2
    assert main(["run", "--problem", "advection_smooth", "--k", "1",
                 "--oe", "ri"]) == 2  # rioe needs Euler
    # a negative level died in np.linspace with a TypeError (exit 1)
    capsys.readouterr()
    assert main(["run", "--problem", "advection_smooth", "--k", "1",
                 "--level", "-1", "--tend", "0.001"]) == 2
    assert "'level'" in capsys.readouterr().err
    # a mesh without a problem reported "unknown problem None"
    assert main(["run", "--mesh", str(tmp_path / "m.txt")]) == 2
    assert "field 'problem': no problem given" in capsys.readouterr().err
    # a missing mesh or config file ended in a FileNotFoundError (exit 1),
    # and an output directory that does not exist did so after the run, at
    # the first snapshot
    assert main(["run", "--problem", "advection_smooth",
                 "--mesh", str(tmp_path / "m.txt")]) == 2
    assert "field 'mesh'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "field 'config'" in capsys.readouterr().err
    assert main(["run", "--problem", "advection_smooth", "--k", "1",
                 "--gen", "3,3", "--tend", "0.001",
                 "--out", str(tmp_path / "missing" / "p")]) == 2
    assert "field 'out'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # undecodable bytes in a mesh or config file ended in a
    # UnicodeDecodeError (exit 1)
    (tmp_path / "m.txt").write_bytes(b"4 2 4\n\xff\xfe 0\n")
    (tmp_path / "run.cfg").write_bytes(b"problem = \xff\n")
    for argv in (["run", "--problem", "advection_smooth",
                  "--mesh", str(tmp_path / "m.txt")],
                 ["cflscan", "--mesh", str(tmp_path / "m.txt")]):
        assert main(argv) == 2
        assert "field 'mesh': cannot decode" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "field 'config': cannot decode" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [("0 2 3", "0 2 99999999999999999999"),
                                  ("4 2 4", "4 -2 8"), ("4 2 4", "-1 2 9")])
def test_mesh_files_the_reader_crashed_on_exit_2(tmp_path, capsys, edit):
    # a cell index beyond int64 (OverflowError) and negative header counts
    # (ValueError) ended in a traceback, exit 1
    text = "4 2 4\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n" \
        "0 1 OUT\n1 2 OUT\n2 3 OUT\n3 0 OUT\n"
    mesh_path = tmp_path / "m.txt"
    mesh_path.write_text(text.replace(*edit))
    for argv in (["run", "--problem", "advection_smooth", "--k", "1",
                  "--mesh", str(mesh_path), "--tend", "0.001"],
                 ["cflscan", "--k", "1", "--mesh", str(mesh_path)]):
        assert main(argv) == 2
        assert "error: line " in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0 0 0\n", "3 0 0\n0 0\n1 0\n0 1\n"])
def test_mesh_file_without_cells_exits_2(tmp_path, capsys, text):
    # a ValueError or an IndexError from build_mesh, exit 1
    mesh_path = tmp_path / "m.txt"
    mesh_path.write_text(text)
    for argv in (["run", "--problem", "advection_smooth", "--k", "1",
                  "--mesh", str(mesh_path), "--tend", "0.001"],
                 ["cflscan", "--k", "1", "--mesh", str(mesh_path)]):
        assert main(argv) == 2
        assert "error: mesh has no cells" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["cflscan", "--count", "1", "--seed", "-1"], "seed"),
    (["cflscan", "--count", "1", "--out", "{missing}"], "out"),
    (["cflscan", "--count", "1", "--out", "{dir}"], "out"),
    (["decomp", "--vertices", "0,0,1,0,0,1", "--out", "{missing}"], "out"),
    (["decomp", "--vertices", "0,0,1,0,0,1", "--out", "{dir}"], "out"),
    (["convergence", "--problem", "advection_smooth", "--levels", "1",
      "--tend", "0", "--out", "{dir}"], "out")])
def test_fuzzed_inputs_that_escaped_exit_2(tmp_path, capsys, monkeypatch,
                                           argv, field):
    # a negative seed (ValueError in default_rng) and an output file in a
    # missing directory or naming a directory (FileNotFoundError,
    # IsADirectoryError) ended in a traceback, exit 1. Each is rejected
    # before the study or scan whose results it would lose
    def never(*args, **kwargs):
        raise AssertionError("entered before the output was checked")

    monkeypatch.setattr(cli, "convergence_study", never)
    monkeypatch.setattr(cli, "cfl_ratio_scan", never)
    paths = {"missing": str(tmp_path / "missing" / "p"), "dir": str(tmp_path)}
    assert main([a.format(**paths) for a in argv]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["p_t0.csv", "p_final.csv",
                                  "p_samples.csv", "p_meta.csv"])
def test_run_output_file_that_is_a_directory_exits_2(tmp_path, capsys, name):
    # a snapshot file that could not be created ended in a traceback, exit 1
    (tmp_path / name).mkdir()
    assert main(["run", "--problem", "advection_smooth", "--k", "1",
                 "--gen", "3,3", "--tend", "0.001", "--sample-grid", "2",
                 "--out", str(tmp_path / "p")]) == 2
    assert f"field 'out': cannot write {str(tmp_path / name)!r}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("times", ["0.5", "0.02,nan", "inf", "-0.5"])
def test_output_times_outside_the_run_are_config_errors(tmp_path, times,
                                                        capsys):
    # run records no time past t_end or before the initial state: the
    # snapshot would be dropped
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--gen", "3,3", "--tend", "0.1", "--output-times", times,
               "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "output_times" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("cfl", ["0", "-1", "nan", "inf"])
def test_cfl_must_be_finite_and_positive(tmp_path, capsys, cfl, source):
    # cfl 0 stepped with dt = 0 until max_steps; nan ended as a numeric abort
    argv = ["run", "--problem", "advection_smooth", "--k", "1",
            "--gen", "3,3", "--tend", "0.1", "--out", str(tmp_path / "p")]
    if source == "flag":
        argv += ["--cfl", cfl]
    else:
        (tmp_path / "run.cfg").write_text(f"cfl = {cfl}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "'cfl'" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == (
        ["run.cfg"] if source == "file" else [])


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("tend", ["-1", "-inf", "nan", "inf"])
def test_tend_must_be_finite_and_not_negative(tmp_path, capsys, tend,
                                              source):
    # nan and -1 ran 0 steps and wrote the initial state as _final.csv;
    # inf stepped on toward max_steps
    argv = ["run", "--problem", "advection_smooth", "--k", "1",
            "--gen", "3,3", "--out", str(tmp_path / "p")]
    if source == "flag":
        argv.append(f"--tend={tend}")
    else:
        (tmp_path / "run.cfg").write_text(f"tend = {tend}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "'tend'" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == (
        ["run.cfg"] if source == "file" else [])


@pytest.mark.parametrize("max_steps", ["0", "-1"])
def test_max_steps_must_be_positive(tmp_path, capsys, max_steps):
    # 0 aborted as a numeric error (exit 4) before the first step
    (tmp_path / "run.cfg").write_text(f"max_steps = {max_steps}\n")
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--gen", "3,3", "--tend", "0.1", "--config",
               str(tmp_path / "run.cfg"), "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "'max_steps'" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def test_negative_sample_grid_is_a_config_error(tmp_path, capsys):
    # it used to run the whole simulation, then fail in np.linspace
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--gen", "3,3", "--tend", "0.01", "--sample-grid", "-2",
               "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "'sample_grid'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_output_time_at_t_end_is_written(tmp_path):
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--gen", "3,3", "--tend", "0.1", "--output-times", "0.05,0.1",
               "--out", str(tmp_path / "p")])
    assert rc == 0
    # the initial state, then one snapshot per requested time
    assert all((tmp_path / f"p_t{i}.csv").exists() for i in range(3))
    assert not (tmp_path / "p_t3.csv").exists()


def test_admissibility_exit_code(tmp_path):
    rc = main(["run", "--problem", "euler_double_rarefaction", "--k", "1",
               "--oe", "ri", "--bp", "off", "--tend", "0.05",
               "--out", str(tmp_path / "vac")])
    assert rc == 3


@pytest.mark.parametrize("k, oe", [(1, "cw"), (1, "ri"), (3, "cw")])
def test_filter_wavespeed_abort_names_cell_and_edge(tmp_path, capsys, k, oe):
    # the unlimited implosion leaves the admissible set first at an edge
    # endpoint, in the filter's wavespeed, whose abort named no cell or edge
    rc = main(["run", "--problem", "euler_implosion", "--k", str(k),
               "--oe", oe, "--bp", "off", "--level", "0",
               "--out", str(tmp_path / "imp")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "inadmissible state at edge endpoint [cell " in err
    assert ", edge " in err


def test_limited_run_from_an_inadmissible_start_state_exits_3(
        tmp_path, capsys, monkeypatch):
    # the start state's cells are admissible, the ghost state of its inflow
    # edges is not: the step's bound, which forms the first stage's flux in
    # the same pass, aborts with the wavespeed's message, located at a
    # boundary edge and its cell
    from tridg import problems
    from tridg.dg import Inflow
    base = problems.get_problem("euler_double_rarefaction")
    prob = problems.Problem(
        name="vacuum_inflow", model_factory=base.model_factory, ic=base.ic,
        boundary_factory=lambda model: {"OUT": Inflow(
            model.from_primitive(-1.0, 0.0, 0.0, 0.4))},
        domain=base.domain, side_tags=base.side_tags, base_n=8)
    monkeypatch.setitem(problems.PROBLEMS, prob.name, prob)
    rc = main(["run", "--problem", prob.name, "--k", "1", "--oe", "ri",
               "--bp", "dcw", "--tend", "0.01",
               "--out", str(tmp_path / "v")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "inadmissible state in wavespeed evaluation [cell " in err
    cell, edge = (int(w) for w in re.search(
        r"\[cell (\d+), edge (\d+)\]", err).groups())
    mesh = prob.make_mesh()
    assert edge in mesh.boundary_edge_ids
    assert mesh.edge_cells[edge, 0] == cell


def test_run_bp_vacuum_ok(tmp_path):
    rc = main(["run", "--problem", "euler_double_rarefaction", "--k", "1",
               "--oe", "ri", "--bp", "dcw", "--tend", "0.02",
               "--out", str(tmp_path / "vac")])
    assert rc == 0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("problem", ["burgers_smooth", "burgers_riemann1",
                                     "burgers_riemann2"])
def test_burgers_bp_keeps_cell_averages_in_bounds(tmp_path, problem, k):
    from tridg.problems import get_problem
    lo, hi = get_problem(problem).bp_bounds
    rc = main(["run", "--problem", problem, "--k", str(k), "--bp", "dcw",
               "--gen", "8,8", "--tend", "0.02", "--output-times", "0.01",
               "--out", str(tmp_path / "b")])
    assert rc == 0
    for name in ("b_t0.csv", "b_t1.csv", "b_final.csv"):
        # mode 0 is the cell average
        avg = [float(r["value"]) for r in read_csv(tmp_path / name)
               if r["mode"] == "0"]
        assert len(avg) == 128
        assert lo - 1e-12 <= min(avg) and max(avg) <= hi + 1e-12


def test_scalar_bp_without_bounds_names_the_field(tmp_path, capsys,
                                                  monkeypatch):
    from tridg import problems
    from tridg.physics import Advection
    prob = problems.Problem(
        name="unbounded_advection", model_factory=Advection,
        ic=lambda x, y: np.sin(x + y), boundary_factory=lambda model: {},
        periodic=("x", "y"))
    monkeypatch.setitem(problems.PROBLEMS, prob.name, prob)
    rc = main(["run", "--problem", prob.name, "--k", "1", "--bp", "dcw",
               "--tend", "0.01", "--out", str(tmp_path / "u")])
    assert rc == 2
    assert "field 'bp'" in capsys.readouterr().err


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--problem", "advection_smooth", "--k", "1",
               "--levels", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    l1 = [float(r["L1"]) for r in rows]
    assert all(a > b for a, b in zip(l1, l1[1:]))


@pytest.mark.parametrize("flag,value", [
    ("--cfl", "0.5"), ("--bp", "dcw"), ("--mesh", "m.txt"), ("--gen", "4,4"),
    ("--level", "1"), ("--output-times", "0.1"),
    ("--sample-grid", "4"), ("--levels", "0"), ("--levels", "-1")])
def test_convergence_rejects_run_flags_it_ignores(tmp_path, capsys, flag,
                                                  value):
    # convergence_study builds its own meshes and time steps: these flags
    # used to be dropped without a word; fewer than one level wrote a
    # header-only table
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--problem", "advection_smooth", "--k", "1",
               "--levels", "2", flag, value, "--out", str(out)])
    assert rc == 2
    field = flag[2:].replace("-", "_")
    assert f"field '{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_rejects_ignored_config_file_keys(tmp_path, capsys):
    cfg_file = tmp_path / "conv.cfg"
    cfg_file.write_text("problem = advection_smooth\nmax_steps = 10\n")
    rc = main(["convergence", "--config", str(cfg_file), "--levels", "2",
               "--out", str(tmp_path / "conv.csv")])
    assert rc == 2
    assert "field 'max_steps'" in capsys.readouterr().err


# RunConfig's fields as its dataclass declared them: the names, types and
# defaults that config files, flags and callers rely on
DECLARED_RUN_CONFIG_FIELDS = (
    ("problem", str, None), ("k", int, 1), ("rk", str, None),
    ("oe", str, "cw"), ("bp", str, "off"), ("mesh", str, None),
    ("gen", str, None), ("level", int, 0), ("tend", float, None),
    ("cfl", float, 1.0), ("out", str, None), ("output_times", str, ""),
    ("max_steps", int, 1_000_000), ("sample_grid", int, 0))


def test_run_config_field_table():
    assert RunConfig.FIELDS == DECLARED_RUN_CONFIG_FIELDS
    # the constructor takes the fields in table order, with their defaults
    params = inspect.signature(RunConfig).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
        for name, _, default in DECLARED_RUN_CONFIG_FIELDS]
    cfg = RunConfig("advection_smooth", 2, cfl=0.5)
    assert (cfg.problem, cfg.k, cfg.cfl, cfg.oe) == ("advection_smooth", 2,
                                                     0.5, "cw")
    # every field but max_steps is a `tridg run` flag of the same name
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    flags = {a.dest for a in sub.choices["run"]._actions}
    names = {name for name, _, _ in RunConfig.FIELDS}
    assert names - flags == {"max_steps"}
    assert flags - names == {"help", "config"}


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
        RunConfig(problem="x", oe="ri").validate(Burgers())
    with pytest.raises(ConfigError, match="'gen'"):
        RunConfig(problem="x", gen="4").validate()


def test_config_accepts_rioe_by_capability():
    # 'ri' needs momentum components, whatever the model is called
    RunConfig(problem="x", oe="ri").validate(Euler())
    RunConfig(problem="x", oe="ri").validate(ScaledModel(Euler(), 2.0))


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

    def poisoned(op, fn):
        state = project(op, fn)
        state.coeffs[0, 1, 0] = np.nan
        return state

    monkeypatch.setattr(SpatialOperator, "project", poisoned)
    rc = main(["run", *argv, "--tend", "0.01", "--out", str(tmp_path / "n")])
    assert rc == 4


def test_snapshot_bytes_match_csv_writer(tmp_path):
    from tridg.textio import _cell_prefixes, _write_csv, _write_snapshot
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
    _write_snapshot(tmp_path / "snap.csv", _cell_prefixes(op), state)
    want = (tmp_path / "rows.csv").read_bytes()
    assert all(v in want for v in (b",-0\r\n", b",1e-300\r\n", b",-1e-300\r\n",
                                   b",-1.0000000000000001e+300\r\n"))
    assert (tmp_path / "snap.csv").read_bytes() == want


def per_row_snapshot(path, op, state):
    """The per-row f-string writer `_write_snapshot` replaced, as reference."""
    nc, nm, d = state.coeffs.shape
    suffixes = [f"{l},{comp}," for l in range(nm) for comp in range(d)]
    values = state.coeffs.reshape(nc, nm * d).tolist()
    with open(path, "w", newline="") as out:
        out.write("cell_id,centroid_x,centroid_y,mode,component,value\r\n")
        for c, ((cx, cy), row) in enumerate(zip(op.mesh.centroid.tolist(),
                                                values)):
            prefix = f"{c},{cx:.17g},{cy:.17g},"
            out.write("".join([f"{prefix}{sfx}{v:.17g}\r\n"
                               for sfx, v in zip(suffixes, row)]))


def snapshot_case(model_name, k, nx, ny, seed):
    """An operator on a perturbed unit-square mesh and a smooth state."""
    from tridg.dg import SpatialOperator
    from tridg.mesh import generate_structured, perturb
    from tridg.physics import Advection
    model = Advection() if model_name == "advection" else Euler()
    mesh = perturb(generate_structured((0, 0, 1, 1), nx, ny), 0.2, seed=seed)
    op = SpatialOperator(mesh, model, k)
    if model.n_components == 1:
        state = op.project(lambda x, y: np.sin(3 * x) * np.exp(y))
    else:
        state = op.project(lambda x, y: model.from_primitive(1 + x, y, -x, 2.0))
    return op, state


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("model", ["advection", "euler"])
def test_snapshot_bytes_match_per_row_writer(tmp_path, model, k):
    from tridg.textio import (SNAPSHOT_CHUNK_ROWS, _cell_prefixes,
                              _write_snapshot)
    op, state = snapshot_case(model, k, 30, 25, seed=3)
    # 1,500 cells: several full chunks and a partial last one
    step = SNAPSHOT_CHUNK_ROWS // (op.nm * state.d)
    assert op.mesh.n_cells > 2 * step and op.mesh.n_cells % step
    special = [-0.0, 1e-300, 1e300, -3.25, -1e-300, -1e300, 0.1, -2 / 3,
               np.nan, np.inf, -np.inf, 5e-324]
    state.coeffs.flat[:6] = special[:6]
    state.coeffs.flat[-6:] = special[6:]
    # the last cell of the first chunk and the first of the second
    state.coeffs[step - 1:step + 1, -1, -1] = [1 / 3, -0.0]
    _write_snapshot(tmp_path / "snap.csv", _cell_prefixes(op), state)
    per_row_snapshot(tmp_path / "ref.csv", op, state)
    want = (tmp_path / "ref.csv").read_bytes()
    assert all(v in want for v in (b",-0\r\n", b",1e-300\r\n", b",nan\r\n",
                                   b",-inf\r\n",
                                   b",4.9406564584124654e-324\r\n"))
    assert want.count(b"\n") == 1 + op.mesh.n_cells * op.nm * state.d
    assert (tmp_path / "snap.csv").read_bytes() == want


def test_snapshot_prefixes_follow_the_operator(tmp_path):
    # operators on different meshes, written alternately in one process:
    # each file has its own centroids
    from tridg.textio import _cell_prefixes, _write_snapshot
    cases = [snapshot_case("advection", 1, 5, 4, seed=1),
             snapshot_case("euler", 2, 4, 5, seed=2)]
    for op, state in cases * 2:
        _write_snapshot(tmp_path / "snap.csv", _cell_prefixes(op), state)
        per_row_snapshot(tmp_path / "ref.csv", op, state)
        assert (tmp_path / "snap.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def assert_snapshot_matches_per_row_writer(tmp_path, op, state):
    from tridg.textio import _cell_prefixes, _write_snapshot
    _write_snapshot(tmp_path / "snap.csv", _cell_prefixes(op), state)
    per_row_snapshot(tmp_path / "ref.csv", op, state)
    want = (tmp_path / "ref.csv").read_bytes()
    assert want.count(b"\n") == 1 + state.coeffs.size
    assert (tmp_path / "snap.csv").read_bytes() == want


def test_snapshot_bytes_of_a_half_zero_p1_euler_state(tmp_path):
    # the shape of vacuum-p1's initial snapshot: a piecewise constant state
    # whose slopes and y-momentum are exact zeros
    from tridg.harness import build_solver
    from tridg.mesh import perturb
    from tridg.problems import get_problem
    prob = get_problem("euler_double_rarefaction")
    op, state, _, _ = build_solver(prob, perturb(prob.make_rect_mesh(16),
                                                 seed=0), 1, "rioe", "dcw")
    assert np.mean(state.coeffs == 0) >= 0.5
    assert_snapshot_matches_per_row_writer(tmp_path, op, state)


def test_snapshot_bytes_of_a_p2_advection_state_over_several_chunks(
        tmp_path):
    from tridg.textio import SNAPSHOT_CHUNK_ROWS
    op, state = snapshot_case("advection", 2, 24, 24, seed=7)
    step = SNAPSHOT_CHUNK_ROWS // op.nm
    assert op.mesh.n_cells > 3 * step and op.mesh.n_cells % step
    assert_snapshot_matches_per_row_writer(tmp_path, op, state)


def test_snapshot_bytes_of_special_values_at_a_chunk_boundary(tmp_path):
    from tridg.textio import SNAPSHOT_CHUNK_ROWS
    op, state = snapshot_case("euler", 2, 12, 10, seed=8)
    step = SNAPSHOT_CHUNK_ROWS // (op.nm * state.d)
    assert op.mesh.n_cells > step
    # the last rows of the first chunk and the first rows of the second
    rows = state.coeffs.reshape(-1)
    first = step * op.nm * state.d
    rows[first - 3:first + 3] = [np.nan, np.inf, -0.0, -np.inf, -0.0, np.nan]
    assert_snapshot_matches_per_row_writer(tmp_path, op, state)


@pytest.mark.parametrize("domain", [(0, 0, 1, 1),
                                    (-2.5e6, -1e-3, 1e-5, 7.0)])
def test_cell_prefixes_match_the_fstring_form(domain):
    from tridg.textio import _cell_prefixes
    from tridg.mesh import generate_structured, perturb
    mesh = perturb(generate_structured(domain, 40, 130), 0.2, seed=9)
    # 10,400 cells: ids of one to five digits
    op = types.SimpleNamespace(mesh=mesh)
    got = [row.tobytes().rstrip(b"\0") for row in _cell_prefixes(op)]
    assert got == [f"{c},{x:.17g},{y:.17g},".encode()
                   for c, (x, y) in enumerate(mesh.centroid.tolist())]


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


def brute_force_samples(path, op, state, n):
    """The point-by-cell scan `_write_samples` replaced, kept as the reference,
    written with csv.writer and every float as '%.17g' %."""
    mesh = op.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    rows = []
    verts = mesh.vertices[mesh.cells]
    for x in xs:
        for y in ys:
            ref_all = np.einsum(
                "cab,cb->ca", mesh.jac_inv,
                np.array([x, y])[None, :] - verts[:, 0, :])
            inside = ((ref_all[:, 0] >= -1e-12) & (ref_all[:, 1] >= -1e-12)
                      & (ref_all.sum(axis=1) <= 1 + 1e-12))
            if not inside.any():
                continue
            c = int(np.argmax(inside))
            u = op.evaluate(state, c, np.array([x, y]))
            rows.append((float(x), float(y),
                         *[float(v) for v in np.atleast_1d(u.squeeze())]))
    with open(path, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(("x", "y", *[f"u{i}" for i in range(state.d)]))
        w.writerows([["%.17g" % v for v in row] for row in rows])


def l_shaped_mesh():
    """[0, 2]^2 minus its upper right quarter, 24 cells, all sides OUT."""
    from collections import Counter
    from tridg.mesh import build_mesh, generate_structured
    full = generate_structured((0, 0, 2, 2), 4, 4)
    keep = ~((full.centroid[:, 0] > 1) & (full.centroid[:, 1] > 1))
    cells = full.cells[keep]
    sides = [(int(c[(i + 1) % 3]), int(c[(i + 2) % 3]))
             for c in cells for i in range(3)]
    count = Counter(tuple(sorted(s)) for s in sides)
    tags = [(a, b, "OUT") for a, b in sides if count[tuple(sorted((a, b)))] == 1]
    return build_mesh(full.vertices, cells, tags)


@pytest.mark.parametrize("case,n", [("perturbed-periodic", 13),
                                    ("grid-aligned", 9),
                                    ("grid-aligned", 17),
                                    ("l-shaped", 11)])
def test_samples_bytes_match_brute_force_scan(tmp_path, case, n):
    from tridg.textio import _write_samples
    from tridg.dg import SpatialOperator
    from tridg.mesh import generate_structured, perturb
    from tridg.physics import Euler
    if case == "perturbed-periodic":
        mesh = perturb(generate_structured((0, 0, 1, 1), 6, 6,
                                           periodic=("x", "y")), 0.3, seed=5)
    elif case == "grid-aligned":
        # every vertex is a sample point and many points lie on shared edges
        mesh = generate_structured((0, 0, 1, 1), 8, 4, diagonal="uniform")
    else:
        mesh = l_shaped_mesh()
    model = Euler()
    op = SpatialOperator(mesh, model, 2)
    state = op.project(lambda x, y: model.from_primitive(
        1 + 0.5 * np.sin(3 * x) * y, x - y, 0.3 * x * x, 1 + y))
    # discontinuous across cells, so picking the wrong cell changes the bytes
    state.coeffs[:, 1:, :] += 0.01 * np.arange(mesh.n_cells)[:, None, None]
    _write_samples(tmp_path / "new.csv", op, state, n)
    brute_force_samples(tmp_path / "ref.csv", op, state, n)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    rows = new.count(b"\n") - 1
    assert rows == (n * n if case != "l-shaped" else n * n - (n // 2) ** 2)


@pytest.mark.parametrize("model,k", [("advection", 1), ("advection", 3),
                                     ("euler", 1)])
def test_batched_samples_match_per_point_evaluation(tmp_path, model, k):
    from tridg.textio import _write_samples
    op, state = snapshot_case(model, k, 6, 5, seed=6)
    # discontinuous across cells, so picking the wrong cell changes the bytes
    state.coeffs[:, 1:, :] += 0.01 * np.arange(op.mesh.n_cells)[:, None, None]
    _write_samples(tmp_path / "new.csv", op, state, 15)
    brute_force_samples(tmp_path / "ref.csv", op, state, 15)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + 15 * 15


def test_sample_rows_of_special_values_over_several_chunks(tmp_path):
    # nan, +-inf, a subnormal and |v| > 1e280 take the encoder's _fmt path;
    # the grid's last row and column lie at x = -0.0 and y = -0.0
    from tridg.dg import SpatialOperator
    from tridg.mesh import generate_structured
    from tridg.textio import SNAPSHOT_CHUNK_ROWS, _write_samples
    mesh = generate_structured((-1, -1, -0.0, -0.0), 4, 3)
    op = SpatialOperator(mesh, Euler(), 1)
    state = op.project(lambda x, y: Euler().from_primitive(1 + x, y, -x, 2.0))
    # the constant mode is 1, so each cell's samples are its mode-0 values
    special = [np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, -0.0, 1 / 3]
    state.coeffs[:] = 0.0
    state.coeffs[:, 0, :] = np.resize(special, (mesh.n_cells, state.d))
    n = 24
    step = SNAPSHOT_CHUNK_ROWS // (2 + state.d)
    assert n * n > step and (n * n) % step
    _write_samples(tmp_path / "new.csv", op, state, n)
    brute_force_samples(tmp_path / "ref.csv", op, state, n)
    want = (tmp_path / "ref.csv").read_bytes()
    assert all(v in want for v in (b",nan", b",inf", b",-inf",
                                   b",1.0000000000000001e+300",
                                   b",-1.0000000000000001e+300",
                                   b",4.9406564584124654e-324",
                                   b"\r\n-0,", b",-0,"))
    assert want.count(b"\n") == 1 + n * n
    assert (tmp_path / "new.csv").read_bytes() == want


def diamond_mesh():
    """Two cells filling the square with corners at the midpoints of the
    unit square's sides: no corner of its bounding box is in a cell."""
    from tridg.mesh import build_mesh
    vertices = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    tags = [(a, (a + 1) % 4, "OUT") for a in range(4)]
    return build_mesh(vertices, cells, tags)


@pytest.mark.parametrize("case,n,rows", [("diamond", 1, 0), ("diamond", 2, 0),
                                         ("square", 1, 1)])
def test_sample_grids_with_one_or_no_owned_point(tmp_path, case, n, rows):
    # a grid with no owned point writes the header only
    from tridg.dg import SpatialOperator
    from tridg.mesh import generate_structured
    from tridg.physics import Advection
    from tridg.textio import _write_samples
    mesh = (diamond_mesh() if case == "diamond"
            else generate_structured((0, 0, 1, 1), 3, 3))
    op = SpatialOperator(mesh, Advection(), 2)
    state = op.project(lambda x, y: np.sin(3 * x) * np.exp(y))
    _write_samples(tmp_path / "new.csv", op, state, n)
    brute_force_samples(tmp_path / "ref.csv", op, state, n)
    want = (tmp_path / "ref.csv").read_bytes()
    assert want.count(b"\n") == 1 + rows
    assert (tmp_path / "new.csv").read_bytes() == want


def test_write_csv_matches_csv_writer(tmp_path, capsys):
    # the rows of the metadata, convergence, decomp and cflscan tables:
    # ints, strings (empty too) and floats, these as '%.17g'
    from tridg.textio import _write_csv
    header = ("scheme", "k", "nodes", "cfl")
    rows = [("dcw", 1, "0.25|0.5;1e-05|0.75", 1 / 3),
            ("zxs", 2, "", np.float64(0.1)),
            ("cs", np.int64(7), "", -0.0),
            ("", 0, "x", float("nan")), ("inf", 3, "y", -np.inf),
            ("big", 4, "z", 1e300)]
    _write_csv(tmp_path / "new.csv", header, rows)
    _write_csv(None, header, rows)
    with open(tmp_path / "ref.csv", "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows([["%.17g" % v if isinstance(v, float) else v
                      for v in row] for row in rows])
    want = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == want
    assert capsys.readouterr().out.encode() == want


def test_run_calls_the_traced_entry_points_once(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these bindings by name; a run that stops
    # calling through them would silently zero its per-layer metrics
    import tridg.cli as cli
    import tridg.mesh as mesh_mod
    from tridg.mesh import generate_structured, perturb, save_mesh
    from tridg.problems import get_problem
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((cli, "load_mesh"), (mesh_mod, "build_mesh"),
                        (cli, "_write_snapshot"), (cli, "_write_samples")):
        counted(owner, name)
    mesh_path = tmp_path / "m.txt"
    save_mesh(generate_structured((0, 0, 1, 1), 3, 3, periodic=("x", "y")),
              mesh_path)
    calls.clear()
    rc = main(["run", "--problem", "advection_smooth", "--k", "1",
               "--mesh", str(mesh_path), "--tend", "0.005",
               "--sample-grid", "4", "--out", str(tmp_path / "p")])
    assert rc == 0
    # one snapshot per written file: the initial state and the final one
    assert calls == {"load_mesh": 1, "build_mesh": 1, "_write_snapshot": 2,
                     "_write_samples": 1}

    # a limited Euler run: the per-layer spans count one residual per RK
    # stage, one LF flux per residual and one wavespeed bound per step
    import tridg.dg as dg
    import tridg.physics as physics
    for owner, name in ((dg.SpatialOperator, "residual"),
                        (dg.SpatialOperator, "max_wavespeed")):
        counted(owner, name)
    # every model class that defines its own LF flux, as the tracer wraps
    # them; an override that called the base one would count twice
    for owner in vars(physics).values():
        if isinstance(owner, type) and "lf_flux" in vars(owner):
            counted(owner, "lf_flux")
    save_mesh(perturb(get_problem("euler_double_rarefaction")
                      .make_rect_mesh(8), seed=0), mesh_path)
    calls.clear()
    rc = main(["run", "--problem", "euler_double_rarefaction", "--k", "1",
               "--rk", "rk22", "--oe", "ri", "--bp", "dcw",
               "--mesh", str(mesh_path), "--tend", "0.004",
               "--out", str(tmp_path / "e")])
    assert rc == 0
    steps = int(read_csv(tmp_path / "e_meta.csv")[0]["steps"])
    assert steps > 2
    assert {name: calls[name] for name in
            ("residual", "lf_flux", "max_wavespeed")} == {
        "residual": 2 * steps, "lf_flux": 2 * steps, "max_wavespeed": steps}


def test_benchmark_tracer_targets_resolve():
    # the benchmark wraps these bindings by name; a rename has to fail here,
    # not first inside a benchmark run
    import importlib.util
    from pathlib import Path

    import tridg
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.BOUNDARY + tracer.LAYERS
    assert targets
    for module_name, attr_path, _ in targets:
        module = getattr(tridg, module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name == "*":
            owners = [c for c in vars(module).values()
                      if isinstance(c, type) and attr in vars(c)]
        else:
            owners = [getattr(module, owner_name) if owner_name else module]
        assert owners, attr_path
        for owner in owners:
            assert callable(getattr(owner, attr)), (module_name, attr_path)


def fake_cdll(mallopt=None, error=None):
    """A ctypes.CDLL stand-in: a C library with the given mallopt, if any."""
    def cdll(name):
        if error is not None:
            raise error
        lib = types.SimpleNamespace()
        if mallopt is not None:
            lib.mallopt = mallopt
        return lib
    return cdll


def test_main_sets_allocator_thresholds_before_the_command(monkeypatch):
    events = []

    def mallopt(param, value):
        events.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll(mallopt))
    monkeypatch.setattr(cli, "cmd_decomp",
                        lambda args: events.append("decomp") or 0)
    assert main(["decomp", "--vertices", "0,0,1,0,0,1"]) == 0
    # M_TRIM_THRESHOLD 1 GiB, then M_MMAP_THRESHOLD 32 MiB
    assert events == [(-1, 2 ** 30), (-3, 32 * 2 ** 20), "decomp"]


@pytest.mark.parametrize("cdll", [fake_cdll(), fake_cdll(error=OSError("x"))],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    out = tmp_path / "dec.csv"
    assert main(["decomp", "--vertices", "0,0,1,0,0,1", "--out",
                 str(out)]) == 0
    assert out.exists()


# page faults per RK step of `tridg run`, counted in the process itself
FAULT_PROBE = """
import json, resource, sys
import tridg.cli
import tridg.timestepping as ts

faults = []
advance = ts.advance

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = advance(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

ts.advance = counted
print(json.dumps({"rc": tridg.cli.main(sys.argv[1:]), "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc mallopt calls")
def test_run_steps_reuse_freed_memory(tmp_path):
    # the benchmark's near-vacuum run: 768 cells, whose RK stages free more
    # than they keep; with glibc's default thresholds each step gave the
    # freed heap top back to the kernel and faulted ~350 pages back in
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, "run",
         "--problem", "euler_double_rarefaction", "--level", "1",
         "--k", "1", "--rk", "rk22", "--oe", "ri", "--bp", "dcw",
         "--tend", "0.005", "--out", str(tmp_path / "vac")],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    faults = record["faults"]
    assert record["rc"] == 0 and len(faults) >= 8
    # a count, not a time: the steady state takes no new pages
    assert statistics.median(faults[len(faults) // 2:]) <= 10, faults


# modules a fresh `tridg run` imports, checked in the process itself
IMPORT_PROBE = """
import json, sys
import tridg.cli
rc = tridg.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, **{name: name in sys.modules for name in (
    "numpy.ma", "fractions", "decimal", "numpy.polynomial", "dataclasses",
    "copy", "csv")}}))
"""


@pytest.mark.parametrize("problem,args", [
    ("euler_implosion", ["--k", "1", "--oe", "ri", "--bp", "dcw"]),
    ("advection_smooth", ["--k", "2", "--output-times", "0.001",
                          "--sample-grid", "4"])],
    ids=["walled", "periodic"])
def test_run_leaves_numpy_ma_unimported(tmp_path, problem, args):
    # np.unique without return_index, np.setdiff1d and their kin import
    # numpy.ma on first use: 12-45 ms against a cold start of ~0.08 s.
    # fractions (with decimal) and numpy.polynomial would cost 5-7 ms: the
    # reference norms and Gauss rules are literals. dataclasses (with copy)
    # would cost ~1 ms to import and ~5 ms to generate the records' methods;
    # csv ~1 ms, for rows that need no quoting
    from tridg.mesh import perturb, save_mesh
    from tridg.problems import get_problem
    mesh_path = tmp_path / "m.txt"
    save_mesh(perturb(get_problem(problem).make_rect_mesh(6), seed=0),
              mesh_path)
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, "run", "--problem", problem,
         *args, "--mesh", str(mesh_path), "--tend", "0.002",
         "--out", str(tmp_path / "p")],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record == {"rc": 0, "numpy.ma": False, "fractions": False,
                      "decimal": False, "numpy.polynomial": False,
                      "dataclasses": False, "copy": False, "csv": False}


def test_missing_boundary_rules_are_reported_in_tag_order(tmp_path):
    # advection_smooth has rules for neither IN nor EXACT: the error names
    # the least tag under every hash seed, not the first of a hashed set
    from tridg.mesh import generate_structured, save_mesh
    mesh_path = tmp_path / "m.txt"
    save_mesh(generate_structured(
        (0, 0, 1, 1), 3, 3, tags={"left": "IN", "bottom": "IN",
                                  "right": "EXACT", "top": "EXACT"}),
        mesh_path)
    src = Path(cli.__file__).resolve().parent.parent
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "tridg.cli", "run", "--problem",
             "advection_smooth", "--mesh", str(mesh_path),
             "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "boundary tag 'EXACT' has no rule" in proc.stderr, seed
