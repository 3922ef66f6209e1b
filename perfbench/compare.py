"""Compare two sets of run reports, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON reports ``run.py`` writes (untraced runs; one
per workload and seed).  For every workload and end-to-end metric the
command prints each side's median and quartiles, the share of same-seed
pairs the new side won (ties count for neither), and a verdict:

- improved: the new side won at least 9/10 of the pairs and the medians
  differ by more than the base side's quartile distance;
- unresolved: the base side's quartile distance, as a share of its median,
  is wider than the metric's bound, and not every new run beats every base
  run;
- worse: the new median is worse than the base median by more than the bound;
- no worse within bound: otherwise.

Bounds and directions come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values, from the untraced reports."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        stamp = report.get("stamp", {})
        if stamp.get("trace") or "metrics" not in report:
            continue
        values = {name: m["value"] for name, m in report["metrics"].items()}
        runs.setdefault(stamp["workload"], {})[stamp["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    """The verdict and the number of pairs the new side won."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b_med, n_med = median(base), median(new)
    q1, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > q3 - q1:
        return "improved", wins
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if b_med and (q3 - q1) / abs(b_med) > bound and not all_better:
        return "unresolved", wins
    worse_by = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    return ("worse" if worse_by > bound else "no worse within bound"), wins


def compare(base_dir: Path, new_dir: Path, benchmark: dict) -> list[dict]:
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        if not base or not new:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b = [v[name] for v in base.values()]
            n = [v[name] for v in new.values()]
            pairs = [(base[s][name], new[s][name]) for s in sorted(base.keys() & new.keys())]
            result, wins = verdict(b, n, pairs, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": (median(b), *quartiles(b)), "new": (median(n), *quartiles(n)),
                "runs": (len(b), len(n)), "pairs_won": (wins, len(pairs)),
                "change": (median(n) - median(b)) / median(b) if median(b) else 0.0,
                "bound": metric["bound"], "verdict": result,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of run reports.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new, json.loads(args.benchmark.read_text()))
    if not rows:
        print("no workload has untraced reports on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':14s} {'metric':13s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} {'won':>6s}  verdict")
    for r in rows:
        base = "{:.5g} [{:.5g}, {:.5g}]".format(*r["base"])
        new = "{:.5g} [{:.5g}, {:.5g}]".format(*r["new"])
        won = "{}/{}".format(*r["pairs_won"])
        print(f"{r['workload']:14s} {r['metric']:13s} {base:>34s} {new:>34s} "
              f"{r['change']:+8.1%} {r['bound']:6.2f} {won:>6s}  {r['verdict']} ({r['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
