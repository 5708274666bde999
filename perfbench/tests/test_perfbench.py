"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

The workload tests run tiny-size passes (``--tiny``) in subprocesses, the
same way the benchmark is run; they take about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from spans import SpanRecorder, chrome_trace, self_times  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300, check=False,
    )
    return proc, proc.stdout.decode().splitlines()


# ---------------------------------------------------------------------------
# Self-time arithmetic


def test_self_times_subtract_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "b", 3.0, 6.0, 1),  # overlaps a: the union 1..6 is covered once
        (4, "a", 2.0, 3.0, 2),
        (5, "c", 9.0, 12.0, 1),  # runs past its parent: clipped at 10
    ]
    times = self_times(spans)
    assert times["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert times["b"] == pytest.approx(3.0)
    assert times["c"] == pytest.approx(3.0)


def test_recorder_totals_match_interval_definition_and_sum_to_wall():
    ticks = iter(range(100))
    recorder = SpanRecorder("t", clock=lambda: float(next(ticks)))
    recorder.push("pass")  # 0
    recorder.push("layer")  # 1
    recorder.push("inner")  # 2
    recorder.pop()  # 3
    recorder.pop()  # 4
    recorder.push("layer")  # 5
    recorder.pop()  # 6
    recorder.pop()  # 7
    own = {name: row[2] for name, row in recorder.totals.items()}
    assert own == pytest.approx(self_times(recorder.spans))
    assert own == {"pass": 3.0, "layer": 3.0, "inner": 1.0}
    assert sum(own.values()) == 7.0
    assert recorder.open_spans == 0


def test_fine_spans_past_the_cap_are_counted_not_kept():
    recorder = SpanRecorder("t", keep=2)
    recorder.push("pass")
    for _ in range(3):
        recorder.push("a")
        recorder.push("b")
        recorder.push("c")
        recorder.push("fine")
        recorder.pop()
        recorder.pop()
        recorder.pop()
        recorder.pop()
    recorder.pop()
    assert recorder.totals["fine"][0] == 3
    assert recorder.dropped == 1
    kept_ids = {s[0] for s in recorder.spans}
    assert all(s[4] is None or s[4] in kept_ids for s in recorder.spans)


def test_layer_metrics_split_self_time_and_flag_a_gap():
    totals = {"pass": [1, 10.0, 1.0], "pipette.stage": [4, 6.0, 5.0],
              "pipette.prefetch": [9, 1.0, 1.0], "kernel.bfs": [1, 9.0, 3.0]}
    metrics, gap = layers.layer_metrics(totals, 10.0)
    assert metrics["pipette.stage_s"] == 5.0
    assert metrics["pipette.stage_resumes"] == 4
    assert metrics["pipette.prefetch_calls"] == 9
    assert metrics["trace.other_s"] == 4.0
    assert gap == pytest.approx(0.0)
    _, gap = layers.layer_metrics(totals, 12.0)
    assert gap > layers.TRACE_SUM_TOLERANCE


def test_chrome_trace_validates():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.obs import validate_chrome_trace

    recorder = SpanRecorder("run-1")
    recorder.push("pass")
    recorder.push("layer")
    recorder.pop()
    recorder.pop()
    assert validate_chrome_trace(chrome_trace([recorder.export()])) == []


# ---------------------------------------------------------------------------
# The contract file


def test_benchmark_json_lists_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in layers.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _, _ in layers.PER_LAYER
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = _run("--workload", "sim_kernels", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


# ---------------------------------------------------------------------------
# Tiny-size passes


@pytest.mark.parametrize("workload", ["sim_kernels", "figures_cold", "serve_compile"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass(workload, trace):
    proc, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", trace, "--tiny")
    result = json.loads(lines[-1])
    assert proc.returncode == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = layers.PER_LAYER if trace == "1" else layers.END_TO_END
    assert list(result["metrics"]) == [row[0] for row in table]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_traced_pass_leaves_cycles_and_verdicts_unchanged(tmp_path):
    out = tmp_path / "sim.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "sim", "--out", str(out),
         "--tiny", "--seed", "5", "--trace", "1"],
        cwd=ROOT, env=env, check=True, timeout=300,
    )
    doc = json.loads(out.read_text())
    plain = [(bench, cycles, ok) for bench, _, cycles, ok, _ in doc["passes"][-1]]
    traced = [(bench, cycles, ok) for bench, _, cycles, ok, _ in doc["traced"]["rows"]]
    assert traced == plain
    assert all(ok for _, _, ok in plain)
    assert doc["traced"]["counters"]["sim_cycles"] == sum(c for _, c, _ in plain)
    assert doc["traced"]["recorder"]["totals"]["pipette.stage"][0] > 0
