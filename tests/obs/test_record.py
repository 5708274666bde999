"""RunRecord schema, merging, and JSONL round-trips."""

import json

from repro import cache
from repro.bench.harness import adapter_for, run_suite
from repro.obs import (
    RECORD_SCHEMA,
    RECORD_VERSION,
    merge_records,
    read_jsonl,
    records_from_suite,
    run_record,
    write_jsonl,
)
from repro.workloads.datasets import GraphInput
from repro.workloads.graphs import uniform_random


def test_every_record_is_schema_stamped_and_json_clean():
    record = run_record("bfs", "serial", "tiny", 123.0, ok=True, speedup=1.0)
    assert record["schema"] == RECORD_SCHEMA
    assert record["version"] == RECORD_VERSION
    assert record["bench"] == "bfs" and record["variant"] == "serial"
    json.dumps(record)  # must be JSON-serializable as-is


def test_optional_sections_appear_only_when_given():
    bare = run_record("bfs", "serial", "tiny", 1.0)
    assert "summary" not in bare and "cache" not in bare and "passes" not in bare
    full = run_record(
        "bfs",
        "phloem",
        "tiny",
        1.0,
        summary={"wall_cycles": 1.0},
        cache_stats={"pipeline": {"hits": 3, "misses": 1}},
        passes=[{"pass": "decouple"}],
        search={"candidates": []},
    )
    assert full["cache"]["pipeline"]["hit_rate"] == 0.75
    assert full["passes"] and full["search"] is not None


def test_merge_is_deterministic_and_first_wins():
    a = [run_record("bfs", "serial", "g1", 10.0), run_record("bfs", "phloem", "g1", 5.0)]
    b = [run_record("bfs", "serial", "g1", 999.0), run_record("cc", "serial", "g1", 7.0)]
    merged = merge_records(a, b)
    assert merge_records(b, a) != merged or True  # both orders are valid streams
    keys = [(r["bench"], r["input"], r["variant"]) for r in merged]
    assert keys == sorted(keys)
    serial_bfs = next(r for r in merged if r["bench"] == "bfs" and r["variant"] == "serial")
    assert serial_bfs["cycles"] == 10.0  # first occurrence won
    # Any partition of the same records merges identically.
    assert merge_records(a + b) == merged


def test_jsonl_round_trip(tmp_path):
    records = [run_record("bfs", "serial", "g1", 10.0), run_record("bfs", "manual", "g1", 4.0)]
    path = str(tmp_path / "runs.jsonl")
    write_jsonl(records, path)
    with open(path) as handle:
        lines = handle.read().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)
    assert read_jsonl(path) == records


def test_unknown_keys_survive_the_round_trip(tmp_path):
    """Forward compatibility: a newer producer's extra keys pass through."""
    record = run_record("bfs", "serial", "g1", 10.0)
    record["added_in_v99"] = {"nested": [1, 2, 3]}
    path = str(tmp_path / "future.jsonl")
    write_jsonl([record], path)
    (loaded,) = read_jsonl(path)
    assert loaded["added_in_v99"] == {"nested": [1, 2, 3]}
    assert loaded["schema"] == RECORD_SCHEMA and loaded["version"] == RECORD_VERSION
    # Merging neither drops nor reorders the unknown payload.
    (merged,) = merge_records([loaded], [run_record("bfs", "serial", "g1", 99.0)])
    assert merged["added_in_v99"] == {"nested": [1, 2, 3]}
    assert merged["cycles"] == 10.0  # first occurrence still wins


def test_records_from_suite_carries_summaries_and_speedups(tiny_config):
    adapter = adapter_for("bfs")
    item = GraphInput("tiny", "synthetic", lambda: uniform_random(120, 4, seed=5))
    suite = run_suite(
        adapter,
        [item],
        [],
        config=tiny_config,
        variants=("serial", "phloem-static"),
    )
    records = records_from_suite("bfs", suite, cache_stats=cache.stats())
    assert {r["variant"] for r in records} == {"serial", "phloem-static"}
    for record in records:
        assert record["input"] == "tiny"
        assert record["ok"] is True
        assert record["cycles"] > 0
        assert "breakdown" in record and "energy" in record and "cache" in record
        assert record["summary"]["wall_cycles"] == record["cycles"]
        assert "queues" in record["summary"]
    static = next(r for r in records if r["variant"] == "phloem-static")
    assert static["speedup"] > 0
    json.dumps(records)  # the whole stream serializes
