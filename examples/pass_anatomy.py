"""Anatomy of the six passes (paper Sec. IV-B and Fig. 5/6).

Compiles BFS with progressively larger pass sets, printing what each pass
does to the pipeline's structure and what it buys in cycles — a live
rendition of the paper's Fig. 6 ablation.

Run:  python examples/pass_anatomy.py
"""

from repro.core import CompileOptions, compile_function, pipeline_summary
from repro.core.compiler import ALL_PASSES
from repro.ir import format_stage
from repro.pipette import SCALED_1CORE
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs
from repro.workloads.graphs import uniform_random

STEPS = [
    ("decouple + add queues (pass 1)", ()),
    ("+ recompute (pass 2)", ("recompute",)),
    ("+ control values (pass 4)", ("recompute", "cv")),
    ("+ inter-stage DCE (pass 6)", ("recompute", "cv", "dce")),
    ("+ control handlers (pass 5)", ("recompute", "cv", "dce", "handlers")),
    ("+ reference accelerators (pass 3)", ALL_PASSES),
]


def main():
    graph = uniform_random(16000, 5, seed=1)
    function = bfs.function()
    arrays, scalars = bfs.make_env(graph)
    serial = run_serial(function, arrays, scalars, config=SCALED_1CORE)
    print("serial BFS: %.0f cycles on %r\n" % (serial.cycles, graph))

    last = None
    for label, passes in STEPS:
        pipeline = compile_function(
            function, options=CompileOptions(num_stages=4, passes=passes)
        )
        result = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
        assert bfs.check(result.arrays, graph)
        print("%-36s %-40s %5.2fx" % (label, pipeline_summary(pipeline), serial.cycles / result.cycles))
        last = pipeline

    print("\nfinal update stage (control handler attached, RA-fed stream):\n")
    print(format_stage(last.stages[-1]))


if __name__ == "__main__":
    main()
