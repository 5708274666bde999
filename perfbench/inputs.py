"""Seeded inputs of the three workloads.

``sim_kernels`` uses the QUICK shapes of ``repro bench perf`` with the
workload seed in place of each generator seed; ``serve_compile`` uses a
seeded shuffle of a fixed request mix; ``figures_cold`` runs the CLI's own
fixed figure datasets, so its seed only labels the run.
"""

import random

#: Figures of the ``figures_cold`` workload and the golden stdout file
#: each figure list must reproduce (recorded at the commit that added it).
FIGURES = ("fig6", "fig12")
TINY_FIGURES = ("fig6",)
GOLDEN = {FIGURES: "figures_fig6_fig12.txt", TINY_FIGURES: "figures_fig6.txt"}

#: Seed at which ``sim_kernels`` cycles must equal ``BENCH_pipette.json``
#: (the QUICK shapes are recorded with generator seed 7).
BASELINE_SEED = 7

#: Divisor applied to the QUICK shapes for the tiny test-size pass.
TINY_DIVISOR = 20


def sim_specs(seed, tiny=False):
    """``{bench: (kind, params)}``: QUICK shapes with ``seed`` substituted."""
    from repro.bench.perf import QUICK_INPUTS

    specs = {}
    for bench, (kind, params) in sorted(QUICK_INPUTS.items()):
        params = dict(params, seed=seed)
        if tiny:
            params["n"] = max(params["n"] // TINY_DIVISOR, 24)
        specs[bench] = (kind, params)
    return specs


def request_mix(seed, tiny=False):
    """The ``serve_compile`` closed-loop mix: ``[(label, request)]``.

    Ten kernels x ``--stages`` 1-4 x {``lint --bench K --perf --json``,
    ``emit`` of the kernel source}, shuffled by ``seed``.
    """
    from repro.api import CompileRequest, LintRequest
    from repro.workloads import ALL_BENCHMARKS

    benches = sorted(ALL_BENCHMARKS)
    stages = (1, 2, 3, 4)
    if tiny:
        benches, stages = benches[:2], (1, 2)
    mix = []
    for bench in benches:
        for n in stages:
            mix.append(("lint:%s:%d" % (bench, n),
                        LintRequest(bench=bench, stages=n, perf=True, json=True)))
            mix.append(("emit:%s:%d" % (bench, n),
                        CompileRequest(source=ALL_BENCHMARKS[bench].SOURCE, stages=n)))
    random.Random(seed).shuffle(mix)
    return mix
