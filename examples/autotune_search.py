"""Profile-guided pipeline search (paper Sec. V and Fig. 13).

The static cost model picks good decoupling points, but cache behaviour is
input-dependent; the profile-guided mode compiles *every* pipeline built
from combinations of the top-ranked points and profiles each on small
training inputs. This script runs that search for BFS and prints the
Fig. 13-style distribution: speedup vs pipeline length, with the chosen
pipeline marked.

Run:  python examples/autotune_search.py
"""

from repro.bench.harness import BenchAdapter, profile_guided_pipeline
from repro.core import pipeline_summary
from repro.core.autotune import speedup_distribution
from repro.pipette import SCALED_1CORE
from repro.runtime import run_pipeline, run_serial
from repro.workloads import bfs, datasets


def main():
    adapter = BenchAdapter(bfs)
    train = datasets.TRAIN_GRAPHS
    print("training inputs: %s" % ", ".join(g.name for g in train))
    best, results = profile_guided_pipeline(adapter, train, config=SCALED_1CORE)

    print("\nprofiled %d candidate pipelines:" % len(results))
    print("%8s  %6s  %s" % ("points", "units", "training gmean speedup"))
    for result in sorted(results, key=lambda r: (r.num_units, -r.speedup)):
        marker = "  <-- selected" if result.indices == best.indices else ""
        print(
            "%8s  %6d  %5.2fx%s"
            % (str(list(result.indices)), result.num_units, result.speedup, marker)
        )

    dist = speedup_distribution(results)
    print("\ndistribution by pipeline length (stages + RAs):")
    for units, speeds in dist.items():
        bar = " ".join("%.2f" % s for s in speeds)
        print("  %d units: %s" % (units, bar))

    print("\nselected pipeline: %s" % pipeline_summary(best.pipeline))

    # Validate the winner on an unseen test input, as Sec. VI-C prescribes.
    test_graph = datasets.graph_by_name("freescale").build()
    arrays, scalars = bfs.make_env(test_graph)
    serial = run_serial(bfs.function(), arrays, scalars, config=SCALED_1CORE)
    tuned = run_pipeline(best.pipeline, arrays, scalars, config=SCALED_1CORE)
    assert bfs.check(tuned.arrays, test_graph)
    print(
        "on the unseen test input %r: %.2fx over serial"
        % (test_graph, serial.cycles / tuned.cycles)
    )


if __name__ == "__main__":
    main()
