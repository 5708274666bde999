"""Bench harness: adapters, suites, normalization (on micro inputs)."""

import pytest

from repro.bench.harness import (
    BenchAdapter,
    VariantRun,
    adapter_for,
    gmean_speedup,
    normalized_breakdowns,
    normalized_energy,
    profile_guided_pipeline,
    run_suite,
)
from repro.workloads import bfs, prd, spmm
from repro.workloads.datasets import GraphInput, MatrixInput
from repro.workloads.graphs import uniform_random
from repro.workloads.matrices import random_matrix


@pytest.fixture(scope="module")
def micro_inputs():
    return [
        GraphInput("t1", "test", lambda: uniform_random(80, 3, seed=1)),
        GraphInput("t2", "test", lambda: uniform_random(90, 3, seed=2)),
    ]


def test_unified_adapter_aliases():
    """One adapter class serves graph and matrix benchmarks alike."""
    assert adapter_for("spmm").module is spmm
    assert adapter_for(bfs).name == "bfs"


def test_check_dp_dispatch():
    """check_dp falls back to check unless the module loosens it (PRD)."""
    graph = uniform_random(60, 3, seed=5)
    arrays, _ = bfs.make_env(graph)
    adapter = adapter_for("bfs")
    assert adapter.check_dp(arrays, graph) == bfs.check(arrays, graph)
    assert adapter_for("prd").check_dp.__func__ is BenchAdapter.check_dp
    assert callable(prd.check_dp)


def test_gmean_speedup():
    runs = [
        VariantRun("v", "a", 10, True, {}, {}, {"speedup": 2.0}),
        VariantRun("v", "b", 10, True, {}, {}, {"speedup": 8.0}),
    ]
    assert gmean_speedup(runs) == pytest.approx(4.0)


def test_profile_guided_pipeline(micro_inputs, tiny_config):
    adapter = BenchAdapter(bfs)
    best, results = profile_guided_pipeline(
        adapter, micro_inputs, config=tiny_config, max_stages=3, top_k=3
    )
    assert best is not None
    assert results


def test_run_suite_end_to_end(micro_inputs, tiny_config):
    adapter = BenchAdapter(bfs)
    suite = run_suite(
        adapter,
        micro_inputs[:1],
        micro_inputs[1:],
        config=tiny_config,
        variants=("serial", "data-parallel", "phloem-static", "manual"),
    )
    for variant in ("serial", "data-parallel", "phloem-static", "manual"):
        assert len(suite[variant]) == 1
        assert all(r.ok for r in suite[variant])
    assert suite["serial"][0].meta["speedup"] == 1.0
    assert suite["phloem-static"][0].meta["speedup"] > 0

    breakdowns = normalized_breakdowns(suite)
    serial = breakdowns["serial"]
    primary = sum(serial[k] for k in ("issue", "backend", "queue", "other"))
    assert abs(primary - 1.0) < 1e-9
    energy = normalized_energy(suite)
    assert abs(sum(energy["serial"].values()) - 1.0) < 1e-9


def test_run_suite_matrix_benchmark(tiny_config):
    """The single adapter drives SpMM through the same run_suite path."""
    item = MatrixInput("m1", "test", lambda: random_matrix(30, 4, seed=7))
    suite = run_suite(
        adapter_for("spmm"), [item], [], config=tiny_config,
        variants=("serial", "phloem-static"),
    )
    assert suite["serial"][0].ok and suite["phloem-static"][0].ok
