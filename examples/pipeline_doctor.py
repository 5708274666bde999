"""Pipeline doctor: diagnosing a pipeline with the run inspector.

When a pipeline underperforms, the questions are always the same: which
stage is the bottleneck, is it stalled on memory or on queues, and are the
queues running full (producer-bound) or empty (consumer-bound)? This
script runs BFS twice — the naive queues-only pipeline and the fully
optimized one — and prints the per-thread / per-queue reports that answer
those questions.

Run:  python examples/pipeline_doctor.py
"""

from repro.core import ALL_PASSES, CompileOptions, compile_function
from repro.pipette import SCALED_1CORE
from repro.runtime import describe_run, run_pipeline
from repro.workloads import bfs
from repro.workloads.graphs import uniform_random


def main():
    graph = uniform_random(12000, 5, seed=2)
    function = bfs.function()
    arrays, scalars = bfs.make_env(graph)

    for label, passes in (("queues only (pass 1)", ()), ("all passes", ALL_PASSES)):
        pipeline = compile_function(
            function, options=CompileOptions(num_stages=4, passes=passes)
        )
        result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
        assert bfs.check(result.arrays, graph)
        print("=" * 72)
        print(label)
        print("=" * 72)
        print(describe_run(result, result.machine))
        print()


if __name__ == "__main__":
    main()
