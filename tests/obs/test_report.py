"""Report aggregation over synthesized results trees, plus both renderers."""

import json
import pathlib
import shutil
from html.parser import HTMLParser

import pytest

from repro.obs import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    collect,
    render_html,
    render_markdown,
    run_record,
    spark,
    write_jsonl,
)
from repro.obs.report import ExperimentReport

BASELINE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_pipette.json"


def _run(bench, variant, cycles, speedup=None, breakdown=None, cache=None):
    return run_record(
        bench,
        variant,
        "tiny",
        cycles,
        ok=True,
        speedup=speedup,
        breakdown=breakdown,
        cache_stats=cache,
    )


def _perf_baseline(with_history=True):
    record = {
        "schema": "repro.bench/perf-record",
        "version": 2,
        "bench": "bfs",
        "scale": "quick",
        "input": "power_law(deg=3,n=120,seed=7)",
        "repeats": 2,
        "cycles": 5000,
        "engines": {
            "reference": {"wall_s": 2.0, "speedup": 1.0, "sim_mcycles_per_s": 0.0025},
            "batch": {"wall_s": 1.0, "speedup": 2.0, "sim_mcycles_per_s": 0.005},
        },
        "phases": {"input_s": 0.01, "compile_s": 0.01},
    }
    payload = {
        "schema": "repro.bench/perf-baseline",
        "version": 2,
        "scale": "quick",
        "records": [record],
        "aggregate": {
            "engines": {
                "reference": {"wall_s": 2.0, "speedup": 1.0},
                "batch": {"wall_s": 1.0, "speedup": 2.0},
            }
        },
    }
    if with_history:
        payload["history"] = [
            {
                "git": "abc1234",
                "engine": "fastpath",
                "scale": "quick",
                "recorded": "2026-08-01",
                "aggregate": {"speedup": 1.8, "fast_wall_s": 1.1, "slow_wall_s": 2.0},
                "benches": {"bfs": {"sim_mcycles_per_s": 0.004, "speedup": 1.8}},
            },
            {
                "git": "def5678",
                "engine": "fastpath",
                "scale": "quick",
                "recorded": "2026-08-07",
                "aggregate": {"speedup": 2.0, "fast_wall_s": 1.0, "slow_wall_s": 2.0},
                "benches": {"bfs": {"sim_mcycles_per_s": 0.005, "speedup": 2.0}},
            },
        ]
    return payload


def _multi_engine_perf():
    """A baseline written by an ``--engine all`` run: per-engine records
    plus a history interleaving fastpath and batch points."""
    record = {
        "schema": "repro.bench/perf-record",
        "version": 2,
        "bench": "bfs",
        "scale": "quick",
        "repeats": 2,
        "cycles": 5000,
        "phases": {"input_s": 0.01, "compile_s": 0.01},
        "engines": {
            "reference": {"wall_s": 4.0, "speedup": 1.0, "sim_mcycles_per_s": 0.00125},
            "fastpath": {"wall_s": 2.0, "speedup": 2.0, "sim_mcycles_per_s": 0.0025},
            "batch": {"wall_s": 1.0, "speedup": 4.0, "sim_mcycles_per_s": 0.005},
        },
    }
    history = []
    for git, fast_x, batch_x in (("aaa1111", 1.8, 3.4), ("bbb2222", 2.0, 4.0)):
        for engine, x in (("fastpath", fast_x), ("batch", batch_x)):
            history.append(
                {
                    "git": git,
                    "engine": engine,
                    "scale": "quick",
                    "recorded": "2026-08-0%d" % len(history),
                    "aggregate": {"speedup": x, "fast_wall_s": 4.0 / x, "slow_wall_s": 4.0},
                    "benches": {"bfs": {"sim_mcycles_per_s": 0.00125 * x, "speedup": x}},
                }
            )
    return {
        "schema": "repro.bench/perf-baseline",
        "version": 2,
        "scale": "quick",
        "records": [record],
        "aggregate": {
            "engines": {
                "reference": {"wall_s": 4.0, "speedup": 1.0},
                "fastpath": {"wall_s": 2.0, "speedup": 2.0},
                "batch": {"wall_s": 1.0, "speedup": 4.0},
            },
        },
        "history": history,
    }


def _telemetry_snapshot():
    return {
        "schema": "repro.service/telemetry",
        "version": 1,
        "uptime_s": 42.0,
        "in_flight": 0,
        "in_flight_peak": 2,
        "rejections": {"rate-limited": 1},
        "verbs": {
            "metrics": {
                "requests": 3,
                "outcomes": {"completed": 2, "failed": 0, "rejected": 1},
                "latency": {
                    "buckets": [{"le": 0.1, "count": 2}, {"le": "+Inf", "count": 2}],
                    "count": 2,
                    "sum_s": 0.08,
                    "p50_s": 0.05,
                    "p90_s": 0.1,
                    "p99_s": 0.1,
                },
            }
        },
        "cache": {"pipeline": {"hits": 4, "misses": 1, "hit_rate": 0.8}},
    }


@pytest.fixture
def results_dir(tmp_path):
    """A realistic results tree: runs, lint, perf, timeline, telemetry."""
    cache = {"pipeline": {"hits": 3, "misses": 1}}
    bd = {"issue": 50.0, "backend": 30.0, "queue": 15.0, "other": 5.0}
    write_jsonl(
        [
            _run("bfs", "serial", 1000.0, cache=cache),
            _run("bfs", "phloem-static", 400.0, speedup=2.5, breakdown=bd, cache=cache),
            _run("cc", "serial", 800.0, cache=cache),
            _run("cc", "phloem-static", 500.0, speedup=1.6, cache=cache),
        ],
        str(tmp_path / "runs.jsonl"),
    )
    (tmp_path / "lint.json").write_text(
        json.dumps(
            {
                "schema": "repro.diag/lint-report",
                "version": 1,
                "reports": [
                    {
                        "target": "bfs.c",
                        "errors": 0,
                        "warnings": 1,
                        "diagnostics": [{"code": "PHL010", "severity": "warning"}],
                    }
                ],
            }
        )
    )
    # The pre-envelope ``repro lint --json`` shape: a bare report list.
    # Archived results directories still aggregate.
    (tmp_path / "lint_legacy.json").write_text(
        json.dumps(
            [
                {
                    "file": "cc.c",
                    "errors": 0,
                    "warnings": 1,
                    "diagnostics": [{"code": "PHL402", "severity": "warning"}],
                }
            ]
        )
    )
    (tmp_path / "perf.json").write_text(json.dumps(_perf_baseline()))
    (tmp_path / "timeline.json").write_text(
        json.dumps(
            {
                "wall": 100.0,
                "utilization": {"s0": {"busy": 90.0, "utilization": 0.9, "stalls": {}}},
                "critical": [],
                "top_stalls": [
                    {"thread": "s0", "bucket": "queue", "cycles": 20.0, "start": 10.0}
                ],
            }
        )
    )
    (tmp_path / "telemetry.json").write_text(json.dumps(_telemetry_snapshot()))
    (tmp_path / "notes.json").write_text(json.dumps({"free": "form"}))
    return str(tmp_path)


class TestSpark:
    def test_empty_series(self):
        assert spark([]) == ""

    def test_flat_series_is_midline(self):
        assert spark([3.0, 3.0, 3.0]) == "▄▄▄"

    def test_monotone_series_spans_the_blocks(self):
        line = spark([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8


class TestCollect:
    def test_classifies_every_source_by_schema(self, results_dir):
        report = collect(results_dir)
        kinds = {s["file"]: s["kind"] for s in report.sources}
        assert kinds["runs.jsonl"] == "runs"
        assert kinds["lint.json"] == "lint"
        assert kinds["lint_legacy.json"] == "lint"
        assert kinds["perf.json"] == "perf"
        assert kinds["timeline.json"] == "timeline"
        assert kinds["telemetry.json"] == "telemetry"
        assert kinds["notes.json"] == "skipped"

    def test_derived_views(self, results_dir):
        report = collect(results_dir)
        assert report.kernels() == ["bfs", "cc"]
        assert report.variants() == ["phloem-static", "serial"]
        table = report.speedup_table()
        assert table["bfs"]["phloem-static"]["speedup"] == 2.5
        assert table["cc"]["serial"]["cycles"] == 800.0
        stalls = report.stall_table()
        assert list(stalls) == ["bfs"]
        assert stalls["bfs"]["phloem-static"]["issue"] == 50.0

    def test_cache_summary_counts_each_stream_once(self, results_dir):
        # Four records share one stream's per-request delta; summing
        # per-record would quadruple it.
        cache = collect(results_dir).cache_summary()
        assert cache["pipeline"]["hits"] == 3
        assert cache["pipeline"]["misses"] == 1
        assert cache["pipeline"]["hit_rate"] == 0.75

    def test_lint_rollup(self, results_dir):
        rollup = collect(results_dir).lint_rollup()
        assert rollup == {
            "targets": 2,
            "errors": 0,
            "warnings": 2,
            "codes": {"PHL010": 1, "PHL402": 1},
        }

    def test_trajectory_from_history(self, results_dir):
        report = collect(results_dir)
        assert [e["git"] for e in report.trajectory] == ["abc1234", "def5678"]

    def test_pre_history_baseline_synthesizes_one_point(self, tmp_path):
        (tmp_path / "perf.json").write_text(
            json.dumps(_perf_baseline(with_history=False))
        )
        report = collect(str(tmp_path))
        assert [e["git"] for e in report.trajectory] == ["(baseline)"]
        assert report.trajectory[0]["engine"] == "batch"
        assert report.trajectory[0]["aggregate"]["speedup"] == 2.0
        assert report.trajectory[0]["benches"]["bfs"]["cycles"] == 5000

    def test_perf_file_without_engine_map_is_skipped(self, tmp_path):
        payload = _perf_baseline()
        del payload["records"][0]["engines"]
        (tmp_path / "perf.json").write_text(json.dumps(payload))
        report = collect(str(tmp_path))
        assert report.perf == [] and report.trajectory == []
        assert report.sources == [{"file": "perf.json", "kind": "skipped", "items": 0}]

    def test_extra_files_pulled_in_once(self, results_dir, tmp_path):
        baseline = str(tmp_path / "perf.json")  # already inside the walk
        report = collect(results_dir, extra_files=(baseline, "/nope/missing.json"))
        assert sum(1 for s in report.sources if s["kind"] == "perf") == 1

    def test_summary_is_schema_stamped(self, results_dir):
        summary = collect(results_dir).summary()
        assert summary["schema"] == REPORT_SCHEMA
        assert summary["version"] == REPORT_VERSION
        assert summary["kernels"] == ["bfs", "cc"]
        assert summary["sections"]["runs"] == 4
        assert summary["sections"]["telemetry"] == 1
        json.dumps(summary)

    def test_unreadable_json_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        report = collect(str(tmp_path))
        assert report.sources == [{"file": "broken.json", "kind": "skipped", "items": 0}]

    def test_missing_directory_yields_empty_report(self):
        report = collect("/nope/not-here")
        assert report.runs == [] and report.sources == []


class TestMarkdown:
    def test_all_sections_present(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "## Per-kernel speedups" in text
        assert "## Cycle breakdown (Fig. 10 buckets)" in text
        assert "## Cache effectiveness" in text
        assert "## Lint status" in text
        assert "## Simulator performance (quick scale)" in text
        assert "## Perf trajectory (2 points)" in text
        assert "## Timeline" in text
        assert "## Service telemetry" in text

    def test_speedup_cells_and_kernels(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "| bfs |" in text and "| cc |" in text
        assert "(2.50x)" in text

    def test_stall_percentages_sum_to_hundred(self, results_dir):
        text = render_markdown(collect(results_dir))
        row = next(line for line in text.splitlines() if "50.0%" in line)
        assert "30.0%" in row and "15.0%" in row and "5.0%" in row

    def test_trajectory_has_sparkline(self, results_dir):
        text = render_markdown(collect(results_dir))
        assert "aggregate speedup (latest 2.00)" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")

    def test_multi_engine_table_and_aggregate(self, tmp_path):
        (tmp_path / "perf.json").write_text(json.dumps(_multi_engine_perf()))
        text = render_markdown(collect(str(tmp_path)))
        # One wall column per engine, one speedup column per non-reference
        # engine, in canonical order.
        assert "| ref (s) | fast (s) | batch (s) | fast (x) | batch (x) |" in text
        assert "Aggregate: **4.00x** (ref 4.000s; fast 2.000s 2.00x; batch 1.000s 4.00x)." in text

    def test_committed_baseline_fills_every_engine_column(self, tmp_path):
        shutil.copy(BASELINE, tmp_path / BASELINE.name)
        text = render_markdown(collect(str(tmp_path)))
        lines = text.splitlines()
        header = (
            "| bench | cycles | ref (s) | fast (s) | batch (s) | fast (x) | batch (x)"
            " | Mcyc/s |"
        )
        start = lines.index(header) + 2  # skip the |---| rule
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        assert len(rows) == len(json.loads(BASELINE.read_text())["records"])
        assert all("-" not in row for row in rows), rows
        assert "Aggregate: **3.30x** (ref 31.451s; fast 15.851s 1.98x; batch 9.538s 3.30x)." in text

    def test_trajectory_sparks_grouped_per_engine(self, tmp_path):
        (tmp_path / "perf.json").write_text(json.dumps(_multi_engine_perf()))
        text = render_markdown(collect(str(tmp_path)))
        # Interleaved fastpath/batch history points split into one labeled
        # series per engine instead of one zig-zagging line.
        assert "aggregate speedup [fastpath] (latest 2.00)" in text
        assert "aggregate speedup [batch] (latest 4.00)" in text
        assert "| git | engine | scale |" in text
        assert "| bbb2222 | batch | quick |" in text

    def test_single_point_trajectory_omitted(self, tmp_path):
        (tmp_path / "perf.json").write_text(
            json.dumps(_perf_baseline(with_history=False))
        )
        text = render_markdown(collect(str(tmp_path)))
        assert "Perf trajectory" not in text

    def test_empty_report_renders(self):
        text = render_markdown(ExperimentReport())
        assert text.startswith("# experiment report")


class _PageCheck(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []
        self.text = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)

    def handle_data(self, data):
        self.text.append(data)


class TestHtml:
    def test_page_parses_and_references_every_kernel(self, results_dir):
        report = collect(results_dir)
        page = render_html(report)
        checker = _PageCheck()
        checker.feed(page)
        assert "html" in checker.tags and "table" in checker.tags
        body = "".join(checker.text)
        for kernel in report.kernels():
            assert kernel in body
        assert "Service telemetry" in body

    def test_content_is_escaped(self):
        report = ExperimentReport(title="<script>alert(1)</script>")
        page = render_html(report)
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_single_file_page(self, results_dir):
        page = render_html(collect(results_dir))
        assert "<style>" in page  # styling is inline, no external assets
        assert "src=" not in page and "href=" not in page
