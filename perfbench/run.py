"""Run one benchmark workload against the trefoil sources in this checkout.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

One closed-loop client: each item starts after the previous one finished,
with no threads.  The run walks the seeded deck for --seconds, checks every
item's output against an independent route, prints each metric with its
unit, writes a JSON run report under perfbench/out/, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 measures half the time
untraced, then runs the same items again with a span around every call into
the program, and reports the per-layer metrics, including the tracing
overhead.  Time is counted in the program: an item's latency covers its
calls into trefoil, not the benchmark's own checks, which traces report as
bench.check.  Times are scaled to a nominal machine speed measured by an
interleaved calibration kernel (see Speed).
"""

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from statistics import median

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SECONDS = 35
# Set-up is timed in this many fresh processes besides the run's own.
SETUP_PROBES = 3
# The tail percentile per workload: the highest of p90/p99/p99.9 with at
# least ten distinct deck items beyond it in a --seconds 35 run.
TAIL_PERCENTILE = {
    "certify-small": 99.9,
    "words-long": 90.0,
    "fracs-big": 90.0,
    "long-trefoil": 99.0,
}
END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
    "item_tail_ms": "ms", "pass_frac": "ratio", "peak_rss_mib": "MiB",
}


# The time calibrate() takes at speed factor 1.  Every time metric is scaled
# to that speed, because the host's CPU speed drifts by tens of percent over
# seconds; the raw busy time and the factor are in the run report.
CALIBRATION_NOMINAL_S = 0.0025
CALIBRATION_EVERY_S = 0.1
# An item's factor is the median over this many samples nearest in time.
CALIBRATION_WINDOW = 9


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small-int and bigint arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    x = 7 ** 3000 + s
    for _ in range(20):
        x = x * x % 10 ** 2000
    return time.perf_counter() - t0


class Speed:
    """Timed calibrate() samples; a factor above 1 means the kernel ran
    faster than nominal, so times taken then are scaled up."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        for _ in range(3):
            self.sample()

    def sample(self) -> None:
        self.samples.append(calibrate())
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def overall(self) -> float:
        return CALIBRATION_NOMINAL_S / median(self.samples)

    def factor_at(self, t: float) -> float:
        mid = bisect.bisect_left(self.times, t)
        lo = max(0, min(mid - CALIBRATION_WINDOW // 2, len(self.samples) - CALIBRATION_WINDOW))
        return CALIBRATION_NOMINAL_S / median(self.samples[lo:lo + CALIBRATION_WINDOW])


class Tally:
    """What a measuring loop attempted, how long the program took, and
    what failed.  ``scale`` turns the raw times into scaled ones."""

    def __init__(self, n_items: int) -> None:
        self.attempts = [0] * n_items
        self.sequence = array("i")
        self.started = array("d")
        self.raw_ns = array("q")
        self.passed = bytearray()
        self.pass_ns: list[float] = []
        self.busy_ns = 0.0
        self.peak_rss_kib = 0
        self.kinds: dict[str, Counter] = {}
        self.exceptions: dict[str, dict] = {}
        self.mismatches: dict[str, dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.sequence)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.passed)

    def record(self, idx, item, started, raw_ns, exc=None, problem=None) -> None:
        """Count one attempt of item idx, begun at perf_counter() started."""
        ok = exc is None and problem is None
        self.attempts[idx] += 1
        self.sequence.append(idx)
        self.started.append(started)
        self.raw_ns.append(raw_ns)
        self.passed.append(ok)
        kind = self.kinds.setdefault(item.kind, Counter())
        kind["attempted"] += 1
        kind["busy_ns"] += raw_ns
        if ok:
            return
        kind["failed"] += 1
        if exc is not None:
            key, detail = type(exc).__name__, str(exc)[:200]
            table = self.exceptions
        else:
            (key, detail), table = problem, self.mismatches
        entry = table.setdefault(key, {"count": 0, "first": None, "props": Counter()})
        entry["count"] += 1
        entry["first"] = entry["first"] or {"item": idx, "kind": item.kind, "detail": detail}
        for prop, value in item.props.items():
            entry["props"][f"{prop}-min"] = min(entry["props"].get(f"{prop}-min", value), value)

    def scale(self, speed: Speed) -> "Tally":
        """Scale every attempt's time by the speed factor around it."""
        self.pass_ns, self.busy_ns = [], 0.0
        for started, raw, ok in zip(self.started, self.raw_ns, self.passed):
            ns = raw * speed.factor_at(started)
            self.busy_ns += ns
            if ok:
                self.pass_ns.append(ns)
        return self


def measure(items, layers, tally: Tally, speed: Speed, seconds=None, block=1,
            sequence=None, tracer=None) -> Tally:
    """Run items in deck order, cycling, until ``seconds`` have passed and a
    whole number of ``block``-item deck blocks is done, or exactly the item
    ids in ``sequence``.  Between items, the machine speed is sampled
    every CALIBRATION_EVERY_S; the returned tally's times are scaled."""
    if tracer is not None:
        kind_ids = {kind: tracer.name_id(f"item.{kind}") for kind in {it.kind for it in items}}
        check_id = tracer.name_id("bench.check")
    deadline = time.perf_counter() + seconds if seconds is not None else None
    ids = iter(sequence) if sequence is not None else itertools.cycle(range(len(items)))
    for i, idx in enumerate(ids):
        if i % block == 0 and deadline is not None and time.perf_counter() >= deadline:
            break
        speed.maybe_sample()
        item = items[idx]
        if tracer is not None:
            tracer.item = idx
            span = tracer.open(kind_ids[item.kind])
        started = time.perf_counter()
        t0 = time.perf_counter_ns()
        try:
            out = item.work(layers, item.inp)
        except Exception as exc:  # counted as a failed item; the run goes on
            ns = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.close(span, False)
            tally.record(idx, item, started, ns, exc=exc)
            continue
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.close(span)
            span = tracer.open(check_id)
        try:
            problem = item.check(item.raw, item.inp, out)
        except Exception as exc:  # an output the check cannot read is wrong
            problem = ("check-raised", f"{type(exc).__name__}: {exc}"[:200])
        if tracer is not None:
            tracer.close(span)
        tally.record(idx, item, started, ns, problem=problem)
    # before the post-processing below allocates anything
    tally.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.sample()
    return tally.scale(speed)


def beyond(n, p):
    """The number of samples above the nearest rank of percentile p."""
    return n - max(1, math.ceil(round(p / 100 * n, 9)))


def percentile(sorted_values, p):
    """The Harrell-Davis estimate of percentile p: the order statistics
    averaged with Beta((n+1)q, (n+1)(1-q)) weights, q = p/100.  Steadier
    than one order statistic when latencies spread over decades."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    q = p / 100
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0.0, q - 12 * sd), min(1.0, q + 12 * sd)
    # the Beta CDF over [lo, hi] by the midpoint rule; mass outside is < 1e-9
    steps = 4000
    h = (hi - lo) / steps
    mids = [lo + (k + 0.5) * h for k in range(steps)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in mids]
    top = max(logs)
    cdf = [0.0]
    for v in logs:
        cdf.append(cdf[-1] + math.exp(v - top))
    total = cdf[-1]

    def cdf_at(x):
        pos = min(max((x - lo) / h, 0.0), float(steps))
        k = min(int(pos), steps - 1)
        return (cdf[k] + (pos - k) * (cdf[k + 1] - cdf[k])) / total

    first, last = max(0, int(lo * n) - 1), min(n, int(hi * n) + 2)
    return sum((cdf_at((i + 1) / n) - cdf_at(i / n)) * sorted_values[i]
               for i in range(first, last))


def histograms(items, attempts) -> dict:
    """Attempted items per octave (lower bound) of each input property."""
    out: dict[str, Counter] = {}
    for item, count in zip(items, attempts):
        for prop, value in item.props.items():
            if count:
                bucket = 0 if value < 1 else 1 << (value.bit_length() - 1)
                out.setdefault(prop, Counter())[bucket] += count
    return {prop: dict(sorted(c.items())) for prop, c in sorted(out.items())}


def end_to_end(workload, tally: Tally, setup_samples) -> dict:
    passing = sorted(tally.pass_ns)
    if not passing:
        raise RuntimeError("no item passed; the end-to-end metrics are undefined")
    values = {
        "setup_s": median(setup_samples),
        "items_per_s": len(passing) / (tally.busy_ns / 1e9),
        "item_p50_ms": percentile(passing, 50.0) / 1e6,
        "item_tail_ms": percentile(passing, TAIL_PERCENTILE[workload]) / 1e6,
        "pass_frac": len(passing) / tally.attempted,
        "peak_rss_mib": tally.peak_rss_kib / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def stamp(workload, seed, seconds, trace) -> dict:
    def digest(paths):
        h = hashlib.sha256()
        for path in sorted(paths):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest(SRC.glob("trefoil/*.py")),
        "bench_sha256": digest(HERE.glob("*.py")),
    }


def set_up(shared, deck, tracer=None):
    """Import trefoil, build the library objects, run one untimed warm-up
    item.  Returns (items module, items, untraced layers, speed, set-up
    seconds scaled by the speed sampled around it)."""
    speed = Speed()
    t0 = time.perf_counter()
    items_mod = importlib.import_module("items")
    built = items_mod.build_items(items_mod.Layers(tracer), shared, deck)
    plain = items_mod.Layers()
    warm = built[0]
    warm.check(warm.raw, warm.inp, warm.work(plain, warm.inp))
    raw = time.perf_counter() - t0
    for _ in range(3):
        speed.sample()
    return items_mod, built, plain, speed, raw * speed.overall()


def probe_setup(workload, seed) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def failure_report(tally: Tally) -> dict:
    def table(entries):
        return {k: {"count": v["count"], "first": v["first"], "props": dict(v["props"])}
                for k, v in sorted(entries.items())}

    return {
        "attempted": tally.attempted,
        "passed": len(tally.pass_ns),
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "exceptions": table(tally.exceptions),
        "mismatches": table(tally.mismatches),
    }


def kind_report(tally: Tally) -> dict:
    raw = sum(tally.raw_ns)
    return {
        kind: {"attempted": c["attempted"], "failed": c["failed"],
               "raw_busy_s": c["busy_ns"] / 1e9,
               "busy_share": c["busy_ns"] / raw if raw else 0.0}
        for kind, c in sorted(tally.kinds.items())
    }


def run_workload(workload, seed, seconds, trace, out_dir: Path, probes=True) -> dict:
    shared, deck = gen.make_inputs(workload, seed)
    setup_samples = probe_setup(workload, seed) if probes and not trace else []
    tracer = spans.Tracer() if trace else None
    items_mod, items, plain, speed, setup_s = set_up(shared, deck, tracer)
    setup_samples.append(setup_s)

    report = {"stamp": stamp(workload, seed, seconds, trace),
              "setup_samples_s": setup_samples}
    untraced = measure(items, plain, Tally(len(items)), speed, block=gen.BLOCK[workload],
                       seconds=seconds / 2 if trace else seconds)
    if not trace:
        tally = untraced
        report["metrics"] = end_to_end(workload, tally, setup_samples)
        p = TAIL_PERCENTILE[workload]
        n = len(tally.pass_ns)
        report["tail"] = {"percentile": p, "passing_samples": n, "beyond": beyond(n, p)}
    else:
        traced_layers = items_mod.Layers(tracer)
        tally = measure(items, traced_layers, Tally(len(items)), speed,
                        sequence=untraced.sequence, tracer=tracer)
        metrics = spans.layer_metrics(tracer, [it.props for it in items])
        rate = [len(t.pass_ns) / (t.busy_ns / 1e9) if t.busy_ns else 0.0 for t in (untraced, tally)]
        metrics["bench.trace_overhead_frac"] = (1 - rate[1] / rate[0] if rate[0] else 0.0, "ratio")
        garside = tally.kinds.get("garside", Counter())["attempted"]
        disagree = tally.mismatches.get("garside-vs-matrix", {}).get("count", 0)
        metrics["braid.garside_agree_ratio"] = (1 - disagree / garside if garside else 0.0, "ratio")
        metrics["cli.run.exit_mismatch"] = (tally.mismatches.get("exit", {}).get("count", 0), "count")
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
        report["untraced"] = failure_report(untraced)
        report["spans"] = len(tracer)
    report.update(failure_report(tally))
    report["speed"] = {"factor": speed.overall(), "samples": len(speed.samples),
                       "raw_busy_s": sum(tally.raw_ns) / 1e9, "busy_s": tally.busy_ns / 1e9}
    report["kinds"] = kind_report(tally)
    report["histograms"] = histograms(items, tally.attempts)

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    if tracer is not None:
        tracer.write(str(out_dir / f"{stem}-spans.tsv.gz"))
    report["correct"] = not tally.mismatches and not (trace and untraced.mismatches)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    report["path"] = str(out_dir / f"{stem}.json")
    return report


def print_report(report) -> None:
    s = report["stamp"]
    print(f"workload {s['workload']}  seed {s['seed']}  seconds {s['seconds']}  trace {s['trace']}")
    print(f"python {s['python']}  nproc {s['nproc']}  {s['platform']}  commit {s['git_commit']}")
    print(f"attempted {report['attempted']}  passed {report['passed']}  "
          f"failed {report['failed']}  failed_frac {report['failed_frac']:.6f}")
    for label in ("exceptions", "mismatches"):
        for key, entry in report[label].items():
            print(f"  {label[:-1]} {key}: {entry['count']}  min props {entry['props']}  "
                  f"first {entry['first']}")
    for kind, k in report["kinds"].items():
        print(f"  kind {kind:10s} attempted {k['attempted']:8d}  raw busy {k['raw_busy_s']:9.3f} s"
              f"  share {k['busy_share']:.3f}")
    for prop, hist in report["histograms"].items():
        print(f"  {prop}: " + " ".join(f"{b}:{n}" for b, n in hist.items()))
    if "tail" in report:
        t = report["tail"]
        print(f"  tail p{t['percentile']} over {t['passing_samples']} passing items, "
              f"{t['beyond']} beyond it")
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"report {report['path']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; a table of the results."""
    status, rows = 0, []
    for workload in gen.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status = status or int(not result["correct"])
        rows.append((workload, result))
    if rows:
        names = list(rows[0][1]["metrics"])
        print("\n" + "workload".ljust(16) + "".join(n.rjust(18) for n in names))
        for workload, result in rows:
            print(workload.ljust(16) + "".join(
                f"{result['metrics'][n]['value']:18.6g}" for n in names))
        print("units".ljust(16) + "".join(rows[0][1]["metrics"][n]["unit"].rjust(18) for n in names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "trefoil" / "__init__.py").is_file():
        print(f"error: no trefoil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        shared, deck = gen.make_inputs(args.workload, args.seed)
        *_, setup_s = set_up(shared, deck)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
