"""Graph analytics: the paper's Sec. II BFS walkthrough, end to end.

Compares every execution strategy the evaluation uses on one road-network
input: serial, data-parallel (4 SMT threads), Phloem's automatic pipeline
(with its cycle breakdown, as in Fig. 10), and the hand-tuned pipeline.

Run:  python examples/graph_analytics.py
"""

from repro.core import CompileOptions, compile_function, pipeline_summary
from repro.pipette import SCALED_1CORE
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs
from repro.workloads.graphs import road_network


def show(label, cycles, baseline, breakdown=None):
    line = "%-16s %12.0f cycles   %5.2fx" % (label, cycles, baseline / cycles)
    if breakdown:
        parts = ", ".join("%s %.0f%%" % (k, 100 * v / cycles) for k, v in breakdown.items())
        line += "   (" + parts + ")"
    print(line)


def main():
    graph = road_network(150, 120, seed=3)
    print("input: %r (a USA-road-d style network)\n" % graph)

    function = bfs.function()
    arrays, scalars = bfs.make_env(graph)

    serial = run_serial(function, arrays, scalars, config=SCALED_1CORE)
    assert bfs.check(serial.arrays, graph)
    show("serial", serial.cycles, serial.cycles, serial.breakdown())

    dp = bfs.data_parallel(4)
    dp_arrays, dp_scalars = bfs.make_env_dp(graph, 4)
    dresult = run_pipeline(dp, dp_arrays, dp_scalars, config=SCALED_1CORE)
    assert bfs.check(dresult.arrays, graph)
    show("data-parallel", dresult.cycles, serial.cycles)

    pipeline = compile_function(function, options=CompileOptions(num_stages=4))
    print("\nPhloem produced: %s" % pipeline_summary(pipeline))
    for ra in pipeline.ras:
        print("   %r" % ra)
    presult = run_pipeline(pipeline, arrays, scalars, config=SCALED_1CORE)
    assert bfs.check(presult.arrays, graph)
    show("phloem", presult.cycles, serial.cycles, presult.breakdown())

    manual = bfs.manual_pipeline()
    mresult = run_pipeline(manual, arrays, scalars, config=SCALED_1CORE)
    assert bfs.check(mresult.arrays, graph)
    show("manual", mresult.cycles, serial.cycles)

    print(
        "\nPhloem reaches %.0f%% of the hand-tuned pipeline automatically."
        % (100.0 * mresult.cycles / presult.cycles)
    )


if __name__ == "__main__":
    main()
