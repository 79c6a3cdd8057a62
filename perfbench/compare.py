"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the `--trace 0` result files that perfbench/run.py
wrote (`--results DIR`) for one commit. Runs of the two sides are paired by
workload and seed; run the sides alternately, with the same `--seconds`, ten
seeds or more. Per workload and end-to-end metric this prints each side's
median and quartiles over its runs, the share of pairs the change wins (ties
count for neither side) and a verdict:

- improved: the change wins at least 9 in 10 pairs, its median is better by
  more than the base's own quartile spread, and no more runs failed;
- unresolved: the base's quartile spread is wider than the metric's bound,
  unless every run of the change is better than every run of the base;
- worse: the change's median is worse than the base's by more than the
  bound BENCHMARK.json gives the metric;
- no worse: otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

from metrics import END_TO_END, spread

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}} of the untraced full-size result files."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        if r.get("trace") == 0 and not r.get("quick"):
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def verdict(base, change, better, bound, base_failed, change_failed):
    """(verdict, win fraction) for paired per-run medians of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    win_frac = wins / len(base)
    med_a, q1_a, q3_a = spread(base)
    med_b = spread(change)[0]
    gain = sign * (med_b - med_a)
    if (win_frac >= 0.9 and gain > q3_a - q1_a
            and change_failed <= base_failed):
        return "improved", win_frac
    all_better = all(sign * (b - a) > 0 for a in base for b in change)
    if (q3_a - q1_a) > bound * abs(med_a) and not all_better:
        return "unresolved", win_frac
    if -gain > bound * abs(med_a):
        return "worse", win_frac
    return "no worse", win_frac


def compare(base_dir, change_dir, bounds):
    base, change = load(base_dir), load(change_dir)
    rows = []
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        if not seeds:
            continue
        a_runs = [base[workload][s] for s in seeds]
        b_runs = [change[workload][s] for s in seeds]
        a_failed = sum(r["failed"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs)
        for m in END_TO_END:
            a = [r["end_to_end"][m.name]["value"] for r in a_runs]
            b = [r["end_to_end"][m.name]["value"] for r in b_runs]
            v, win = verdict(a, b, m.better, bounds[m.name],
                             a_failed, b_failed)
            rows.append((workload, m, a, b, win, v, a_failed, b_failed))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(args.base, args.change, bounds)
    if not rows:
        print("no workload and seed present on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<12}{'metric':<19}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'pairs':>6}{'win':>6}  verdict")
    for workload, m, a, b, win, v, a_failed, b_failed in rows:
        cells = []
        for values in (a, b):
            med, q1, q3 = spread(values)
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {m.unit}")
        print(f"{workload:<12}{m.name:<19}{cells[0]:>34}{cells[1]:>34}"
              f"{len(a):>6}{win:>6.2f}  {v}"
              f"{f'  (failed {a_failed} vs {b_failed})' if a_failed or b_failed else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
