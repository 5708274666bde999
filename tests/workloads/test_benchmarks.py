"""Every benchmark variant computes the oracle's answer.

The matrix of (benchmark x variant) correctness checks: serial kernel,
compiled pipeline, manual pipeline, and data-parallel version all agree
with a pure-Python reference.
"""

import pytest

from repro.core import CompileOptions, compile_function
from repro.core.compiler import ALL_PASSES
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs, cc, prd, radii, spmm
from repro.workloads.graphs import power_law, uniform_random
from repro.workloads.matrices import random_matrix

GRAPH_MODULES = [bfs, cc, prd, radii]


@pytest.fixture(scope="module")
def graph():
    return uniform_random(250, 4, seed=13)


@pytest.mark.parametrize("module", GRAPH_MODULES, ids=lambda m: m.NAME)
def test_serial_matches_reference(module, graph, tiny_config):
    arrays, scalars = module.make_env(graph)
    result = run_serial(module.function(), arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, graph)


@pytest.mark.parametrize("module", GRAPH_MODULES, ids=lambda m: m.NAME)
def test_compiled_pipeline_matches_reference(module, graph, tiny_config):
    arrays, scalars = module.make_env(graph)
    pipe = compile_function(
        module.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES)
    )
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, graph)


@pytest.mark.parametrize("module", GRAPH_MODULES, ids=lambda m: m.NAME)
def test_manual_pipeline_matches_reference(module, graph, tiny_config):
    arrays, scalars = module.make_env(graph)
    result = run_pipeline(module.manual_pipeline(), arrays, scalars, config=tiny_config)
    assert module.check(result.arrays, graph)


@pytest.mark.parametrize("module", GRAPH_MODULES, ids=lambda m: m.NAME)
@pytest.mark.parametrize("nthreads", [2, 4])
def test_data_parallel_matches_reference(module, graph, tiny_config, nthreads):
    arrays, scalars = module.make_env_dp(graph, nthreads)
    result = run_pipeline(module.data_parallel(nthreads), arrays, scalars, config=tiny_config)
    if module is prd:
        assert module.check(result.arrays, graph, exact=False, tol=1e-6)
    else:
        assert module.check(result.arrays, graph)


def test_bfs_unreachable_vertices(tiny_config):
    from repro.workloads.graphs import CSRGraph

    g = CSRGraph.from_adjacency([[1], [0], [3], [2], []])
    arrays, scalars = bfs.make_env(g, root=0)
    result = run_serial(bfs.function(), arrays, scalars, config=tiny_config)
    assert bfs.check(result.arrays, g, root=0)
    assert result.arrays["distances"][4] == bfs.INT_MAX


def test_bfs_single_vertex(tiny_config):
    from repro.workloads.graphs import CSRGraph

    g = CSRGraph.from_adjacency([[]])
    arrays, scalars = bfs.make_env(g, root=0)
    pipe = compile_function(bfs.function(), options=CompileOptions(num_stages=4, passes=ALL_PASSES))
    result = run_pipeline(pipe, arrays, scalars, config=tiny_config)
    assert result.arrays["distances"] == [0]


def test_cc_components_labeled_by_minimum(tiny_config):
    from repro.workloads.graphs import CSRGraph

    g = CSRGraph.from_adjacency([[1], [0], [3], [2], []])
    arrays, scalars = cc.make_env(g)
    result = run_serial(cc.function(), arrays, scalars, config=tiny_config)
    assert result.arrays["labels"] == [0, 0, 2, 2, 4]


def test_radii_estimate_on_path(tiny_config):
    from repro.workloads.graphs import CSRGraph

    chain = CSRGraph.from_adjacency([[1], [0, 2], [1, 3], [2]])
    arrays, scalars = radii.make_env(chain)
    result = run_serial(radii.function(), arrays, scalars, config=tiny_config)
    assert radii.check(result.arrays, chain)
    assert radii.estimate(result.arrays) == 3  # path of 4 vertices


def test_prd_ranks_positive(tiny_config):
    g = power_law(120, 3, seed=4)
    arrays, scalars = prd.make_env(g)
    result = run_serial(prd.function(), arrays, scalars, config=tiny_config)
    assert prd.check(result.arrays, g)
    assert all(r > 0 for r in result.arrays["rank"])


class TestSpMM:
    @pytest.fixture(scope="class")
    def matrix(self):
        return random_matrix(30, 4, seed=17)

    def test_serial(self, matrix, tiny_config):
        arrays, scalars = spmm.make_env(matrix)
        result = run_serial(spmm.function(), arrays, scalars, config=tiny_config)
        assert spmm.check(result.arrays, matrix)

    def test_manual(self, matrix, tiny_config):
        arrays, scalars = spmm.make_env(matrix)
        result = run_pipeline(spmm.manual_pipeline(), arrays, scalars, config=tiny_config)
        assert spmm.check(result.arrays, matrix)

    def test_data_parallel(self, matrix, tiny_config):
        arrays, scalars = spmm.make_env_dp(matrix, 4)
        result = run_pipeline(spmm.data_parallel(4), arrays, scalars, config=tiny_config)
        assert spmm.check(result.arrays, matrix)

    def test_rectangular_product(self, tiny_config):
        a = random_matrix(12, 3, seed=8, ncols=20)
        bt = random_matrix(9, 3, seed=9, ncols=20)  # B^T: B is 20x9
        arrays, scalars = spmm.make_env(a, bt)
        result = run_serial(spmm.function(), arrays, scalars, config=tiny_config)
        assert spmm.check(result.arrays, a, bt)

    def test_empty_rows(self, tiny_config):
        from repro.workloads.matrices import CSRMatrix

        a = CSRMatrix(3, 3, [0, 0, 2, 2], [0, 2], [1.0, 2.0])
        arrays, scalars = spmm.make_env(a)
        result = run_serial(spmm.function(), arrays, scalars, config=tiny_config)
        assert spmm.check(result.arrays, a)


def test_spmm_manual_empty_rows(tiny_config):
    """The skip-ahead merge handles empty rows/columns (immediate markers)."""
    from repro.workloads.matrices import CSRMatrix

    a = CSRMatrix(4, 4, [0, 0, 2, 2, 3], [1, 3, 0], [1.0, 2.0, 3.0])
    arrays, scalars = spmm.make_env(a)
    result = run_pipeline(spmm.manual_pipeline(), arrays, scalars, config=tiny_config)
    assert spmm.check(result.arrays, a)
