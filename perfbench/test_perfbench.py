"""Quick checks of the benchmark itself: a tiny run of every workload, a
traced run, planted wrong answers the checker must flag, and the verdict
rules of the comparison command.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import items  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run(workload, tmp_path):
    report = run.run_workload(workload, seed=1, seconds=0.2, trace=False,
                              out_dir=tmp_path, probes=False)
    assert report["correct"] and report["attempted"] >= 1
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    # the only known failure is normalize recursing too deep on long words
    assert set(report["exceptions"]) <= {"RecursionError"}
    assert json.loads((tmp_path / f"{workload}-seed1.json").read_text())["stamp"]["seed"] == 1


def test_traced_run_reports_every_layer_metric(tmp_path):
    report = run.run_workload("certify-small", seed=2, seconds=0.4, trace=True,
                              out_dir=tmp_path, probes=False)
    assert report["correct"]
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert report["metrics"]["pfrac.op.calls"]["value"] > 0
    assert (tmp_path / "certify-small-seed2-trace-spans.tsv.gz").stat().st_size > 0


def test_inputs_depend_only_on_seed():
    for workload in gen.WORKLOADS:
        assert gen.make_inputs(workload, 7) == gen.make_inputs(workload, 7)
        assert gen.make_inputs(workload, 7) != gen.make_inputs(workload, 8)


def _run_planted(workload, kinds, **planted):
    shared, deck = gen.make_inputs(workload, 3)
    built = items.build_items(items.Layers(), shared, deck)
    layers = items.Layers()
    for name, fn in planted.items():
        setattr(layers, name, fn)
    chosen = [i for i, it in enumerate(built) if it.kind in kinds][:20]
    return run.measure(built, layers, run.Tally(len(built)), run.Speed(), sequence=chosen)


def test_planted_wrong_answers_are_flagged():
    # x * y answered as x
    tally = _run_planted("certify-small", {"frac"}, pf_op=lambda x, y: x)
    assert tally.attempted == 20 and not tally.pass_ns and tally.mismatches
    # a fibre comparison off by one
    fiber = items.trefoil.fiber_compare
    tally = _run_planted("long-trefoil", {"fiber"}, fiber_compare=lambda p, q: fiber(p, q) + 1)
    assert set(tally.mismatches) == {"fiber-k"} and not tally.pass_ns
    # a CLI that always exits 0 with empty output
    tally = _run_planted("certify-small", {"cli"}, cli_run=lambda argv, stdout, stderr: 0)
    assert tally.mismatches and not tally.pass_ns


def test_percentile_and_histograms():
    assert run.beyond(100, 90.0) == 10 and run.beyond(1000, 99.9) == 1
    assert run.percentile(list(range(1, 102)), 50.0) == pytest.approx(51)
    assert 89 < run.percentile(list(range(1, 101)), 90.0) < 92
    shared, deck = gen.make_inputs("words-long", 1)
    built = items.build_items(items.Layers(), shared, deck)
    hist = run.histograms(built, [1] * len(built))["word_len"]
    assert sum(hist.values()) == gen.WORDS_DECK and min(hist) == 32 and max(hist) == 4096


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda new: list(zip(base, new))  # noqa: E731
    faster = [v * 1.2 for v in base]
    assert compare.verdict(base, faster, pairs(faster), "higher", 0.1)[0] == "improved"
    same = list(reversed(base))
    assert compare.verdict(base, same, pairs(same), "higher", 0.1)[0] == "no worse within bound"
    slower = [v * 0.8 for v in base]
    assert compare.verdict(base, slower, pairs(slower), "higher", 0.1)[0] == "worse"
    noisy = [50.0, 150.0, 100.0, 80.0, 120.0]
    assert compare.verdict(noisy, same, pairs(same), "higher", 0.1)[0] == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "correct" not in done.stdout
