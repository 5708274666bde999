"""Differential conformance: every engine ≡ reference interpreter, bit for bit.

Every shipped workload — the five paper benchmarks and the five
GARDENIA-suite workloads (static, data-parallel, and manual-pipeline
variants), the Taco kernels, and the demo figure
output — runs under the engine matrix (reference interpreter and
batch-advance whole-stage compiler), and every observable must be
identical: final arrays, total cycles, the full
``SimStats.summary()`` (stall buckets, queue traffic, cache hit counts),
the Fig. 10 cycle breakdown, and the energy model. Any divergence is an
engine bug by definition: the reference interpreter is the oracle.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_c, compile_function
from repro.pipette.fastpath import ENGINES
from repro.runtime import run_pipeline
from repro.workloads.matrices import random_matrix

BENCHES = ("bfs", "cc", "prd", "radii", "spmm", "sssp", "pr", "tc", "bc", "spmv")


def _engine_matrix(pipeline, arrays, scalars, config):
    """Run under every engine; returns ``{engine name: RunResult}``."""
    return {
        name: run_pipeline(pipeline, arrays, scalars, config=config, engine=name)
        for name in ENGINES
    }


def _assert_identical(results):
    oracle = results["reference"]
    for name, result in results.items():
        assert result.arrays == oracle.arrays, name
        assert result.cycles == oracle.cycles, name
        assert result.stats.summary() == oracle.stats.summary(), name
        assert result.breakdown() == oracle.breakdown(), name
        assert result.energy().as_dict() == oracle.energy().as_dict(), name


def _bench_data(name, tiny_graph, micro_graph, small=False):
    # sssp coerces a plain graph to a weighted one (deterministic weights);
    # tc and bc canonicalize (symmetrize) internally.
    if name in ("spmm", "spmv"):
        return random_matrix(40 if small else 60, 4, seed=3)
    return micro_graph if small else tiny_graph


@pytest.mark.parametrize("name", BENCHES)
def test_static_pipeline_conformance(name, tiny_graph, micro_graph, tiny_config):
    adapter = adapter_for(name)
    data = _bench_data(name, tiny_graph, micro_graph)
    arrays, scalars = adapter.env(data)
    pipeline = compile_function(adapter.function(), options=CompileOptions(num_stages=4))
    results = _engine_matrix(pipeline, arrays, scalars, tiny_config)
    _assert_identical(results)
    assert adapter.check(results["batch"].arrays, data)


@pytest.mark.parametrize("name", BENCHES)
def test_data_parallel_conformance(name, tiny_graph, micro_graph, tiny_config):
    adapter = adapter_for(name)
    data = _bench_data(name, tiny_graph, micro_graph, small=True)
    arrays, scalars = adapter.dp_env(data, 3)
    pipeline = adapter.dp_pipeline(3)
    results = _engine_matrix(pipeline, arrays, scalars, tiny_config)
    _assert_identical(results)


@pytest.mark.parametrize("name", BENCHES)
def test_manual_pipeline_conformance(name, tiny_graph, micro_graph, tiny_config):
    adapter = adapter_for(name)
    data = _bench_data(name, tiny_graph, micro_graph, small=True)
    arrays, scalars = adapter.env(data)
    pipeline = adapter.manual()
    results = _engine_matrix(pipeline, arrays, scalars, tiny_config)
    _assert_identical(results)


def _taco_cases():
    from repro.taco import (
        ALPHA,
        BETA,
        dense_input,
        mtmul_kernel,
        residual_kernel,
        sddmm_kernel,
        spmv_kernel,
    )

    matrix = random_matrix(60, 4, seed=21)
    cases = []
    kernel = spmv_kernel()
    cases.append((kernel, kernel.bind({"A": matrix, "x": dense_input(matrix.ncols, 1)})))
    kernel = residual_kernel()
    cases.append(
        (
            kernel,
            kernel.bind(
                {
                    "A": matrix,
                    "x": dense_input(matrix.ncols, 2),
                    "b": dense_input(matrix.nrows, 3),
                }
            ),
        )
    )
    small = random_matrix(25, 4, seed=22)
    kdim = 6
    kernel = sddmm_kernel()
    cases.append(
        (
            kernel,
            kernel.bind(
                {
                    "B": small,
                    "C": (dense_input(small.nrows * kdim, 6), kdim),
                    "D": (dense_input(kdim * small.ncols, 7), small.ncols),
                }
            ),
        )
    )
    kernel = mtmul_kernel()
    cases.append(
        (
            kernel,
            kernel.bind(
                {
                    "A": matrix,
                    "x": dense_input(matrix.nrows, 4),
                    "z": dense_input(matrix.ncols, 5),
                    "alpha": ALPHA,
                    "beta": BETA,
                }
            ),
        )
    )
    return cases


def test_taco_kernels_conformance(tiny_config):
    for kernel, (arrays, scalars) in _taco_cases():
        pipeline = compile_c(kernel.source, options=CompileOptions(num_stages=4))
        results = _engine_matrix(pipeline, arrays, scalars, tiny_config)
        _assert_identical(results)


def test_demo_stdout_identical_across_engines(tmp_path):
    """The figure-facing stdout of ``repro demo`` is engine-independent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_QUIET"] = "1"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    cmd = [sys.executable, "-m", "repro", "demo", "bfs", "--size", "200", "--seed", "3"]

    env.pop("REPRO_ENGINE", None)
    default = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert default.returncode == 0, default.stderr
    env["REPRO_ENGINE"] = "batch"
    batch = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert batch.returncode == 0, batch.stderr
    env["REPRO_ENGINE"] = "reference"
    slow = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert slow.returncode == 0, slow.stderr
    assert default.stdout == slow.stdout
    assert batch.stdout == slow.stdout
