"""Metric definitions and how they are computed from runs and spans.

End-to-end metrics come from untraced runs, whose only clock reads are the
invocation, the entry into and return from `timestepping.run`, and the
output writers. Per-layer metrics come from traced runs. Each per-layer
metric names the end-to-end metric it should move, and on which workload;
BENCHMARK.json carries only name, unit and direction, so that mapping lives
here.
"""

import statistics
from dataclasses import dataclass

from tracer import self_times


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""      # per-layer only: end-to-end metric and workloads


END_TO_END = (
    Metric("wall_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("loop_s", "s", "lower"),
    Metric("output_s", "s", "lower"),
    Metric("cell_stages_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_ALL = "adv-p3, vacuum-p1, cold-start"
PER_LAYER = (
    Metric("mesh.load_s", "s", "lower", "setup_s on cold-start"),
    Metric("mesh.build_s", "s", "lower", "setup_s on cold-start"),
    Metric("dg.setup_s", "s", "lower", "setup_s on cold-start"),
    Metric("dg.setup_mb", "MB", "lower", "peak_rss_mb on cold-start"),
    Metric("dg.project_s", "s", "lower", "setup_s on cold-start"),
    Metric("dg.residual_ms.p50", "ms", "lower",
           "loop_s, cell_stages_per_s on adv-p3, vacuum-p1"),
    Metric("dg.residual_ms.p90", "ms", "lower",
           "loop_s, cell_stages_per_s on adv-p3, vacuum-p1"),
    Metric("dg.residual.calls", "count", "lower",
           "loop_s, cell_stages_per_s on adv-p3, vacuum-p1"),
    Metric("dg.residual_self_ms.p50", "ms", "lower",
           "loop_s, cell_stages_per_s on adv-p3, vacuum-p1"),
    Metric("physics.lf_flux_ms.p50", "ms", "lower",
           "loop_s on vacuum-p1 (little on adv-p3)"),
    Metric("physics.lf_flux.calls", "count", "lower",
           "loop_s on vacuum-p1 (little on adv-p3)"),
    Metric("dg.wavespeed_ms.p50", "ms", "lower",
           "loop_s on vacuum-p1 (~nothing on adv-p3)"),
    Metric("dg.wavespeed.calls", "count", "lower",
           "loop_s on vacuum-p1 (~nothing on adv-p3)"),
    Metric("oe.apply_ms.p50", "ms", "lower",
           "loop_s on adv-p3, vacuum-p1"),
    Metric("oe.apply_ms.p90", "ms", "lower",
           "loop_s on adv-p3, vacuum-p1"),
    Metric("oe.apply.calls", "count", "lower",
           "loop_s on adv-p3, vacuum-p1"),
    Metric("oe.apply_per_residual", "ratio", "lower",
           "loop_s on adv-p3, vacuum-p1"),
    Metric("bp.apply_ms.p50", "ms", "lower",
           "loop_s on vacuum-p1 (nothing on adv-p3, cold-start)"),
    Metric("bp.apply_ms.p90", "ms", "lower",
           "loop_s on vacuum-p1 (nothing on adv-p3, cold-start)"),
    Metric("bp.apply.calls", "count", "lower",
           "loop_s on vacuum-p1 (nothing on adv-p3, cold-start)"),
    Metric("bp.scaled_frac", "ratio", "lower",
           "loop_s on vacuum-p1 (nothing on adv-p3, cold-start)"),
    Metric("timestepping.steps", "count", "lower",
           f"loop_s on {_ALL}; bp_wall_ratio on vacuum-p1"),
    Metric("timestepping.steps_dcw", "count", "lower",
           "bp_wall_ratio on vacuum-p1"),
    Metric("timestepping.steps_zxs", "count", "lower",
           "bp_wall_ratio on vacuum-p1"),
    Metric("timestepping.step_ms.p50", "ms", "lower", f"loop_s on {_ALL}"),
    Metric("timestepping.step_ms.p90", "ms", "lower", f"loop_s on {_ALL}"),
    Metric("timestepping.advance_self_ms.p50", "ms", "lower",
           f"loop_s on {_ALL}"),
    Metric("timestepping.run_self_s", "s", "lower", f"loop_s on {_ALL}"),
    Metric("cli.snapshot_s", "s", "lower", "output_s, wall_s on cold-start"),
    Metric("cli.samples_s", "s", "lower", "output_s, wall_s on cold-start"),
    Metric("cli.write_mb", "MB", "lower", "output_s, wall_s on cold-start"),
    Metric("bp_wall_ratio", "ratio", "higher",
           "the paper's claim, on vacuum-p1: loop_s(zxs) / loop_s(dcw)"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "none: traced wall_s / untraced wall_s - 1"),
)

RUN_SPAN = "timestepping.run"
WRITER_SPANS = ("cli.snapshot", "cli.samples")


def percentile(values, q):
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trimmed_mean(values, cut=0.1):
    """Mean without the lowest and highest `cut` share; 0.0 for no values."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k]) if xs else 0.0


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def run_e2e(run):
    """End-to-end values of one invocation from its boundary spans."""
    runs = [s for s in run["spans"] if s[0] == RUN_SPAN]
    if len(runs) != 1:
        raise ValueError(f"expected one {RUN_SPAN} span, got {len(runs)}")
    _, start, end, _ = runs[0]
    return {
        "wall_s": run["wall_s"],
        "setup_s": start,
        "loop_s": end - start,
        "output_s": sum(e - s for n, s, e, _ in run["spans"]
                        if n in WRITER_SPANS),
        "cell_stages": run["n_cells"] * run["stages"] * run["steps"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def sample_e2e(sample):
    """End-to-end values of one sample: times summed over its invocations."""
    per_run = [run_e2e(r) for r in sample["runs"].values()]
    out = {k: sum(r[k] for r in per_run)
           for k in ("wall_s", "setup_s", "loop_s", "output_s")}
    out["cell_stages_per_s"] = (sum(r["cell_stages"] for r in per_run)
                                / out["loop_s"])
    # the memory a user needs is the largest process, not a sum of two
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in per_run)
    return out


def bp_wall_ratio(sample):
    runs = sample["runs"]
    if "dcw" not in runs or "zxs" not in runs:
        return None
    return run_e2e(runs["zxs"])["loop_s"] / run_e2e(runs["dcw"])["loop_s"]


def _traced_sample_values(sample, calls):
    """Per-sample per-layer values; per-call durations go into `calls`."""
    total, count = {}, {}
    v = {"dg.setup_mb": 0.0, "cli.write_mb": 0.0,
         "timestepping.run_self_s": 0.0, "timestepping.steps": 0,
         "timestepping.steps_dcw": 0, "timestepping.steps_zxs": 0}
    bp_checked = bp_scaled = 0
    for run in sample["runs"].values():
        spans = run["spans"]
        selfs = self_times(spans)
        for (name, start, end, _), own in zip(spans, selfs):
            total[name] = total.get(name, 0.0) + end - start
            count[name] = count.get(name, 0) + 1
            calls.setdefault(name, []).append((end - start) * 1e3)
            calls.setdefault(name + ".self", []).append(own * 1e3)
            if name == RUN_SPAN:
                v["timestepping.run_self_s"] += own
        v["dg.setup_mb"] += run["setup_mb"]
        v["cli.write_mb"] += run["write_mb"]
        v["timestepping.steps"] += run["steps"]
        if run["bp"] in ("dcw", "zxs"):
            v["timestepping.steps_" + run["bp"]] += run["steps"]
        n_bp = sum(1 for s in spans if s[0] == "bp.apply")
        bp_checked += n_bp * run["n_cells"]
        bp_scaled += run["bp_violations"]
    for name, key in (("mesh.load", "mesh.load_s"), ("mesh.build", "mesh.build_s"),
                      ("dg.setup", "dg.setup_s"), ("dg.project", "dg.project_s"),
                      ("cli.snapshot", "cli.snapshot_s"),
                      ("cli.samples", "cli.samples_s")):
        v[key] = total.get(name, 0.0)
    for name in ("dg.residual", "physics.lf_flux", "dg.wavespeed", "oe.apply",
                 "bp.apply"):
        v[name + ".calls"] = count.get(name, 0)
    residual = total.get("dg.residual", 0.0)
    v["oe.apply_per_residual"] = (total.get("oe.apply", 0.0) / residual
                                  if residual else 0.0)
    v["bp.scaled_frac"] = bp_scaled / bp_checked if bp_checked else 0.0
    return v


def layer_metrics(traced, untraced):
    """Per-layer metrics from the good traced and untraced samples."""
    calls = {}
    per_sample = [_traced_sample_values(s, calls) for s in traced]
    out = {k: statistics.median(s[k] for s in per_sample)
           for k in per_sample[0]}
    for key, span, q in (
            ("dg.residual_ms.p50", "dg.residual", 50),
            ("dg.residual_ms.p90", "dg.residual", 90),
            ("dg.residual_self_ms.p50", "dg.residual.self", 50),
            ("physics.lf_flux_ms.p50", "physics.lf_flux", 50),
            ("dg.wavespeed_ms.p50", "dg.wavespeed", 50),
            ("oe.apply_ms.p50", "oe.apply", 50),
            ("oe.apply_ms.p90", "oe.apply", 90),
            ("bp.apply_ms.p50", "bp.apply", 50),
            ("bp.apply_ms.p90", "bp.apply", 90),
            ("timestepping.step_ms.p50", "timestepping.advance", 50),
            ("timestepping.step_ms.p90", "timestepping.advance", 90),
            ("timestepping.advance_self_ms.p50", "timestepping.advance.self",
             50)):
        out[key] = percentile(calls.get(span, []), q)
    ratios = [r for r in map(bp_wall_ratio, untraced) if r is not None]
    out["bp_wall_ratio"] = statistics.median(ratios) if ratios else 0.0
    wall_t = statistics.median(sample_e2e(s)["wall_s"] for s in traced)
    wall_u = statistics.median(sample_e2e(s)["wall_s"] for s in untraced)
    out["trace.overhead_frac"] = wall_t / wall_u - 1.0
    return out
