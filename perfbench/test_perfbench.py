"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import spans
from spans import Span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_child_cover():
    tree = [
        Span("root", 0.0, 10.0, -1, ""),
        Span("a", 1.0, 4.0, 0, ""),
        Span("a1", 2.0, 3.0, 1, ""),
        Span("b", 3.5, 6.0, 0, ""),     # overlaps a: the cover is 1..6, not 3 + 2.5
        Span("c", 9.0, 12.0, 0, ""),    # runs past its parent: clipped to 9..10
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    table = spans.self_time_table(tree + [Span("a", 11.0, 11.5, -1, "")])
    assert table["a"] == pytest.approx({"calls": 2, "total_s": 3.5, "self_s": 2.5})


def test_tracer_records_nesting_and_restores_functions():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2

    class Law:
        def sample_array(self, n):
            return [0] * n

    originals = (ns.inner, ns.outer, Law.__dict__["sample_array"])
    tracer = spans.Tracer()
    tracer.wrap(ns, "inner", "m.inner", count=("m.values", lambda r: r))
    tracer.wrap(ns, "outer", "m.outer", point=lambda x: f"x{x}")
    tracer.wrap(Law, "sample_array", "m.law_sample")
    try:
        assert ns.outer(3) == 8
        assert Law().sample_array(2) == [0, 0]
        recorded, counts = tracer.take()
    finally:
        tracer.remove()
    assert [(s.name, s.parent, s.point) for s in recorded] == [
        ("m.outer", -1, "x3"), ("m.inner", 0, "x3"), ("m.law_sample", -1, "")]
    assert counts == {"m.values": 4}
    assert (ns.inner, ns.outer, Law.__dict__["sample_array"]) == originals


def test_output_check_counts_mismatches():
    ref = {"results.csv": "r", "summary.csv": "s"}
    good = {"hashes": dict(ref)}
    bad = {"hashes": {"results.csv": "x", "summary.csv": "s"}}
    assert run.check_outputs([good, good], ref) == 0
    assert run.check_outputs([good, bad], ref) == 1
    assert run.check_outputs([good, bad], None) == 1        # held-out seed
    assert run.check_outputs([{"hashes": {"results.csv": "r"}}], ref) == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.workload_names())
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--smoke", "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for m in declared:
        assert any(line.startswith(f"{workload} {m['name']} ") and line.endswith(m["unit"])
                   for line in lines), m["name"]
    if not trace:
        assert f"{workload} failed_frac 0 ratio" in lines
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "star_n10_day", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
