"""The tridg benchmark: time to solution of `tridg run`, end to end and per layer.

    python3 perfbench/run.py --workload adv-p3 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 3        # every workload
    python3 perfbench/run.py --workload all --quick         # tiny sizes

Each sample runs the workload's `tridg run` invocations, each in a fresh
process with BLAS/OpenMP threads pinned to 1, through the user's entry point
`tridg.cli.main`. Samples repeat until `--seconds` have passed (and at least
a minimum number ran). Every invocation's outputs are checked; a failed one
counts in `failed` and its sample's timings are left out.

The benchmark and its children run pinned to one CPU. Before each sample
it times a fixed pure-Python loop there (hostspeed.py). An end-to-end value
is the mean of the run's samples without the fastest and slowest tenth,
like the loop's, and a time is divided by the loop's slowdown against its
reference speed (a rate multiplied), so that the host's drifting speed does
not show as a change of the program. Raw medians are reported beside it.

`--trace 0` reports the end-to-end metrics from untraced runs. `--trace 1`
alternates untraced and traced samples and reports the per-layer metrics
(not scaled) and the tracing overhead. The report lists every metric with
its value, raw median, quartiles, sample count and unit, writes a result
file with the provenance under `--results`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
run passed its checks, 1 when one failed, and 2 when the checkout holds no
solver source to run.

Compare the result files of two commits with perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from metrics import (END_TO_END, PER_LAYER, bp_wall_ratio, layer_metrics,
                     run_e2e, sample_e2e, spread, trimmed_mean)
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_SAMPLES = 3          # per kind (untraced, traced) and run
STOP_AFTER_S = 120.0     # start no sample after this, to end within 180 s
CHILD_TIMEOUT_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes and one sample of each kind; "
                        "ignores --seconds")
    p.add_argument("--results", default=str(ROOT / ".perfbench_out" / "results"),
                   help="directory for the result files")
    return p.parse_args(argv)


def provenance(seed):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown"      # a checkout without git history has no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def run_child(spec):
    """One invocation in a fresh process; (record, error text or None)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["exit_code"] != 0:
        return None, (f"tridg exit {record['exit_code']}: "
                      f"{proc.stderr.strip()[-800:]}")
    if not Path(record["tridg_file"]).resolve().is_relative_to(ROOT):
        return None, f"ran a solver outside the checkout: {record['tridg_file']}"
    return record, None


def run_sample(workload, size, inputs, work, traced):
    """Run and check one sample; returns its record."""
    from checks import RUN_CHECKS, SAMPLE_CHECKS, RunOutputs, written_paths

    sample = {"traced": traced, "runs": {}, "checks": {}, "errors": [],
              "host": hostspeed.measure()}
    outputs = {}
    for variant in workload.variants:
        prefix = str(work / variant.label)
        spec = {"root": str(ROOT), "traced": traced,
                "argv": workload.argv(variant, size, inputs.mesh_path, prefix)}
        record, error = run_child(spec)
        if error:
            sample["errors"].append(f"{variant.label}: {error}")
            continue
        try:
            out = RunOutputs(prefix, inputs)
            record.update(
                bp=variant.bp, n_cells=inputs.mesh.n_cells,
                stages=workload.stages, steps=int(out.meta["steps"]),
                bp_violations=int(out.meta["bp_violations"]),
                write_mb=sum(os.path.getsize(p)
                             for p in written_paths(prefix)) / 1e6)
            for name in workload.checks:
                if name in RUN_CHECKS:
                    sample["checks"][f"{variant.label}.{name}"] = (
                        RUN_CHECKS[name](out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample["errors"].append(f"{variant.label}: bad output: {exc!r}")
            continue
        sample["runs"][variant.label] = record
        outputs[variant.label] = out
    if not sample["errors"]:
        for name in workload.checks:
            if name in SAMPLE_CHECKS:
                sample["checks"][name] = SAMPLE_CHECKS[name](outputs)
    for path in work.glob("*.csv"):
        path.unlink()
    sample["ok"] = not sample["errors"] and all(
        ok for ok, _ in sample["checks"].values())
    return sample


def measure(workload, args):
    """All samples of one workload and seed, and the metrics they give."""
    size = workload.size(args.quick)
    work = ROOT / ".perfbench_out" / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    from inputs import Inputs
    inputs = Inputs(workload, size, args.seed, str(work / "mesh.msh"))

    min_samples = 1 if args.quick else MIN_SAMPLES
    samples = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        counts = [sum(1 for s in samples if s["traced"] == t)
                  for t in ((False, True) if args.trace else (False,))]
        if min(counts) >= min_samples and (args.quick
                                           or elapsed >= args.seconds):
            break
        if elapsed >= STOP_AFTER_S and min(counts) >= 1:
            break
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(run_sample(workload, size, inputs, work, traced))
    shutil.rmtree(work, ignore_errors=True)

    good = [s for s in samples if s["ok"]]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    attempted = len(samples) * len(workload.variants)
    failed = sum(not s["ok"] for s in samples) * len(workload.variants)
    correct = failed == 0 and untraced and (traced or not args.trace)

    e2e = [sample_e2e(s) for s in untraced]
    slow = hostspeed.slowdown([t for s in untraced for t in s["host"]]
                              or [hostspeed.REF_S])
    scale = {"s": 1.0 / slow, "1/s": slow}
    metrics = {}
    for m in END_TO_END:
        values = [v[m.name] for v in e2e]
        med, q1, q3 = spread(values)
        metrics[m.name] = {"value": trimmed_mean(values)
                           * scale.get(m.unit, 1.0),
                           "unit": m.unit, "median": med, "q1": q1, "q3": q3,
                           "n": len(e2e)}
    extra = {"failed_frac": failed / attempted, "host_slowdown": slow}
    ratios = [r for r in map(bp_wall_ratio, untraced) if r is not None]
    if ratios:
        med, q1, q3 = spread(ratios)
        extra["bp_wall_ratio"] = {"value": med, "q1": q1, "q3": q3,
                                  "n": len(ratios)}
    layers = {}
    if args.trace and correct:
        values = layer_metrics(traced, untraced)
        layers = {m.name: {"value": values[m.name], "unit": m.unit,
                           "n": len(traced)} for m in PER_LAYER}
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "seconds": args.seconds,
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "end_to_end": metrics, "per_layer": layers, "extra": extra,
        "samples": [{"traced": s["traced"], "ok": s["ok"], "host": s["host"],
                     "errors": s["errors"], "checks": s["checks"],
                     "e2e": sample_e2e(s) if s["ok"] else None,
                     "runs": {k: {"steps": r["steps"],
                                  "bp_violations": r["bp_violations"],
                                  **run_e2e(r)}
                              for k, r in s["runs"].items()}}
                    for s in samples],
        # [name, start, end, parent index] from the invocation, last sample
        "spans": {k: r["spans"] for k, r in traced[-1]["runs"].items()}
        if traced else {},
    }


def report(result):
    """Print the human-readable report of one workload's result."""
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  trace {result['trace']}  "
          f"runs attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['extra']['failed_frac']:.3f})")
    print(f"   host slowdown {result['extra']['host_slowdown']:.4f} "
          f"(reference loop time / {hostspeed.REF_S} s); value = mean of "
          "the middle 80% of samples, scaled by it")
    print(f"   {'metric':<22}{'value':>12}{'raw median':>12}{'q1':>12}"
          f"{'q3':>12}{'n':>4}  unit")
    for name, m in result["end_to_end"].items():
        print(f"   {name:<22}{m['value']:>12.5g}{m['median']:>12.5g}"
              f"{m['q1']:>12.5g}{m['q3']:>12.5g}{m['n']:>4}  {m['unit']}")
    ratio = result["extra"].get("bp_wall_ratio")
    if ratio:
        print(f"   {'bp_wall_ratio':<22}{ratio['value']:>12.5g}"
              f"{ratio['value']:>12.5g}{ratio['q1']:>12.5g}{ratio['q3']:>12.5g}"
              f"{ratio['n']:>4}  loop_s(zxs) / loop_s(dcw)")
    moves = {m.name: m.moves for m in PER_LAYER}
    for name, m in result["per_layer"].items():
        print(f"   {name:<34}{m['value']:>12.5g}{m['n']:>28}  "
              f"{m['unit']:<6} moves {moves[name]}")
    samples = result["samples"]
    for i, s in enumerate(samples):
        for err in s["errors"]:
            print(f"   sample {i}: FAILED {err}", file=sys.stderr)
    for name in dict.fromkeys(n for s in samples for n in s["checks"]):
        outcomes = [s["checks"][name] for s in samples if name in s["checks"]]
        failures = [detail for ok, detail in outcomes if not ok]
        detail = failures[0] if failures else outcomes[-1][1]
        print(f"   check {name:<26} {len(outcomes) - len(failures)}/"
              f"{len(outcomes)} ok  {detail}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tridg" / "cli.py").is_file():
        print(f"no solver source under {ROOT / 'src' / 'tridg'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    # the children inherit this: the loop that measures the host's speed
    # and the program it scales run on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import compileall
    compileall.compile_dir(ROOT / "src" / "tridg", quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    ok = True
    for name in names:
        result = measure(WORKLOADS[name], args)
        result["provenance"] = prov
        path = results_dir / (f"{name}-seed{args.seed}-trace{args.trace}"
                              f"{'-quick' if args.quick else ''}.json")
        path.write_text(json.dumps(result, indent=1))
        report(result)
        source = result["per_layer"] if args.trace else result["end_to_end"]
        line = {"correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                            for k, v in source.items()}}
        print(json.dumps(line), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
