"""Tests of the benchmark itself; they run every workload at its quick size.

    python3 -m pytest perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import (check_mass, check_positive, check_snapshot_rows,  # noqa: E402
                    read_snapshot)
from compare import verdict  # noqa: E402
from hostspeed import REF_S, slowdown  # noqa: E402
from metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, Size  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """{trace: (process, JSON lines, result files by workload)}."""
    runs = {}
    for trace in (0, 1):
        results = tmp_path_factory.mktemp(f"results{trace}")
        proc = run_bench(ROOT, "--workload", "all", "--quick", "--seed", "4",
                         "--trace", str(trace), "--results", str(results))
        lines = [json.loads(ln) for ln in proc.stdout.splitlines()
                 if ln.startswith("{")]
        files = {}
        for path in results.glob("*.json"):
            result = json.loads(path.read_text())
            files[result["workload"]] = result
        runs[trace] = (proc, lines, files)
    return runs


def test_quick_run_passes_and_reports_every_metric(quick_runs):
    for trace, (proc, lines, files) in quick_runs.items():
        assert proc.returncode == 0, proc.stderr
        assert len(lines) == len(WORKLOADS)
        want = [m.name for m in (PER_LAYER if trace else END_TO_END)]
        for line in lines:
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0
            assert list(line["metrics"]) == want
        for result in files.values():
            assert list(result["end_to_end"]) == [m.name for m in END_TO_END]
            assert all(v["value"] > 0 for v in result["end_to_end"].values())
            for key in ("cpu", "nproc", "python", "numpy", "blas", "threads",
                        "commit", "seed"):
                assert key in result["provenance"]
            assert set(result["provenance"]["threads"].values()) == {"1"}
            assert result["extra"]["host_slowdown"] > 0


def test_quick_run_runs_every_check(quick_runs):
    for _, _, files in quick_runs.values():
        for name, w in WORKLOADS.items():
            ran = {key.rsplit(".", 1)[-1]
                   for s in files[name]["samples"] for key in s["checks"]}
            assert ran == set(w.checks), name


def test_traced_layers_run_where_expected(quick_runs):
    _, lines, _ = quick_runs[1]
    by_name = {name: line["metrics"] for name, line in zip(WORKLOADS, lines)}
    for name, m in by_name.items():
        for key in ("dg.residual.calls", "oe.apply.calls",
                    "timestepping.steps", "mesh.load_s", "dg.setup_mb",
                    "cli.write_mb"):
            assert m[key]["value"] > 0, (name, key)
    assert by_name["adv-p3"]["bp.apply.calls"]["value"] == 0
    vac = by_name["vacuum-p1"]
    assert vac["bp.apply.calls"]["value"] > 0
    assert vac["timestepping.steps_zxs"]["value"] > (
        vac["timestepping.steps_dcw"]["value"])
    assert vac["bp_wall_ratio"]["value"] > 1.0
    assert by_name["cold-start"]["cli.samples_s"]["value"] > 0


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_solver_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "adv-p3", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_self_time_subtracts_direct_children():
    spans = [["run", 0.0, 10.0, -1], ["advance", 1.0, 5.0, 0],
             ["residual", 1.5, 3.0, 1], ["advance", 5.0, 9.0, 0]]
    assert self_times(spans) == [2.0, 2.5, 1.5, 4.0]


def test_host_slowdown_is_a_trimmed_mean_against_the_reference():
    assert slowdown([REF_S] * 8) == pytest.approx(1.0)
    times = [REF_S] * 9 + [1.4 * REF_S] * 9 + [0.0, 100 * REF_S]
    assert slowdown(times) == pytest.approx(1.2)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([0.0, 10.0], 90) == 9.0
    assert percentile([], 50) == 0.0


def _outputs(first, final, shape=(2, 1, 4), output_times=""):
    ref = SimpleNamespace(mesh=SimpleNamespace(area=np.array([0.5, 0.5])),
                          gamma=1.4, shape=shape,
                          size=Size(nx=1, tend=1.0, output_times=output_times))
    return SimpleNamespace(ref=ref, first=lambda: first, final=lambda: final)


def test_checks_reject_bad_outputs():
    u = np.zeros((2, 1, 4))
    u[:, 0, 0] = 1.0
    u[:, 0, 3] = 2.5
    assert check_positive(_outputs(u, u))[0]
    assert check_mass(_outputs(u, u))[0]
    bad = u.copy()
    bad[0, 0, 3] = -1.0
    assert not check_positive(_outputs(u, bad))[0]
    bad = u.copy()
    bad[0, 0, 0] += 1e-9
    assert not check_mass(_outputs(u, bad))[0]


def test_snapshot_row_check_counts_files_and_rows(tmp_path):
    prefix = str(tmp_path / "run")
    rows = "cell_id,centroid_x,centroid_y,mode,component,value\n" + "".join(
        f"{c},0,0,0,0,1.0\n" for c in range(2))
    for suffix in ("_t0", "_t1", "_final"):
        Path(prefix + suffix + ".csv").write_text(rows)
    out = _outputs(None, None, shape=(2, 1, 1), output_times="0.5")
    out.prefix = prefix
    out.snapshot = lambda p: read_snapshot(p, (2, 1, 1))
    assert check_snapshot_rows(out)[0]
    Path(prefix + "_final.csv").write_text(rows.rsplit("\n", 2)[0] + "\n")
    assert not check_snapshot_rows(out)[0]


@pytest.mark.parametrize("base, change, better, want", [
    ([10.0] * 10, [8.0] * 10, "lower", "improved"),
    ([10.0] * 10, [12.0] * 10, "lower", "worse"),
    ([10.0] * 10, [10.5] * 10, "lower", "no worse"),
    ([8.0, 12.0] * 5, [9.0, 11.0] * 5, "lower", "unresolved"),
    ([10.0] * 10, [12.0] * 10, "higher", "improved"),
])
def test_compare_verdicts(base, change, better, want):
    assert verdict(base, change, better, 0.1, 0, 0)[0] == want
