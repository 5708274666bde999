"""Run introspection reports."""

from repro.core import ALL_PASSES, CompileOptions, compile_function
from repro.runtime import describe_run, queue_report, run_pipeline, stage_report
from repro.workloads import bfs


def _result(tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    return run_pipeline(pipe, arrays, scalars, config=tiny_config)


def test_stage_report_rows(tiny_graph, tiny_config):
    result = _result(tiny_graph, tiny_config)
    rows = stage_report(result)
    assert len(rows) == len(result.stats.threads)
    for row in rows:
        total_pct = row["issue_pct"] + row["backend_pct"] + row["queue_pct"] + row["other_pct"]
        assert abs(total_pct - 100.0) < 1.0 or row["cycles"] == 0


def test_queue_report_balanced_traffic(tiny_graph, tiny_config):
    result = _result(tiny_graph, tiny_config)
    rows = queue_report(result.machine)
    assert rows
    for row in rows:
        assert row["enqs"] == row["deqs"]  # streams fully drained
        assert 0 <= row["peak"] <= row["capacity"]


def test_describe_run_text(tiny_graph, tiny_config):
    result = _result(tiny_graph, tiny_config)
    text = describe_run(result, result.machine)
    assert "thread" in text
    assert "DRAM:" in text
    assert "update" in text
