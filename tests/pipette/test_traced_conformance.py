"""Traced runs across engines: every tracer event identical, bit for bit.

The batch engine bakes tracing and the prefetcher setting into the source
of its generated stages and RAs, so traced and prefetch-off runs execute
code that untraced default-config runs never reach. Each case here runs
one kernel with a :class:`~repro.obs.tracer.Tracer` attached, with the
stride prefetcher on and off, on every engine, and compares all of it
with the reference run.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import adapter_for
from repro.core import CompileOptions, compile_function
from repro.obs.tracer import Tracer
from repro.pipette.fastpath import ENGINES
from repro.runtime import run_pipeline
from repro.workloads.matrices import random_matrix


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf_on", "pf_off"])
@pytest.mark.parametrize("name", ["bfs", "spmv", "cc"])
def test_traced_run_matches_reference(name, prefetch, tiny_graph, tiny_config):
    adapter = adapter_for(name)
    data = random_matrix(60, 4, seed=3) if name == "spmv" else tiny_graph
    arrays, scalars = adapter.env(data)
    pipeline = compile_function(adapter.function(), options=CompileOptions(num_stages=4))
    config = replace(tiny_config, prefetch_enabled=prefetch)
    runs = {}
    for engine in ENGINES:
        tracer = Tracer()
        result = run_pipeline(
            pipeline, arrays, scalars, config=config, tracer=tracer, engine=engine
        )
        runs[engine] = (result, tracer)
    oracle, oracle_trace = runs["reference"]
    assert oracle_trace.ra_loads, "the kernel offloads no loads to an RA"
    for engine, (result, tracer) in runs.items():
        assert result.arrays == oracle.arrays, engine
        assert result.cycles == oracle.cycles, engine
        assert result.stats.summary() == oracle.stats.summary(), engine
        assert tracer.spans == oracle_trace.spans, engine
        assert tracer.stalls == oracle_trace.stalls, engine
        assert tracer.counters == oracle_trace.counters, engine
        assert tracer.ra_loads == oracle_trace.ra_loads, engine
