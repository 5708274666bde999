"""Metric tables: what each metric means and what it should move.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names
and units that ``BENCHMARK.json`` lists (a test keeps the two in step).
Every workload reports every metric; a layer a workload bypasses reports
zero there, which is itself the measurement ("never called").

Each per-layer row records the end-to-end metric and workload it should
move, so a later change that claims a gain on one layer can be checked
against the prediction written here before it was made.
"""

#: ``(name, unit, better, bound, definition)``. ``bound`` is the share of
#: the parent's median by which the metric may worsen before a change
#: counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median set-up time: sim_kernels, a fresh process importing repro, "
     "building the ten inputs and compiling them; figures_cold, making the "
     "isolated cache dir and importing the CLI in a fresh interpreter; "
     "serve_compile, daemon start until the first ping answers"),
    ("cold_wall_s", "s", "lower", 0.25,
     "wall of the first pass over the work after set-up, in fresh processes "
     "and an empty cache dir: the ten kernels once, the cold figures "
     "invocation, the first round of the 80-request mix"),
    ("warm_wall_s", "s", "lower", 0.25,
     "wall of a later pass over the same work against the populated caches, "
     "each operation at its fastest later run"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median over operations of each one's fastest run: a kernel simulation, "
     "a figures invocation (cold and warm), a client-observed round trip"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "operations per second, each operation at its fastest run"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest peak resident set among the processes doing the work "
     "(the daemon and its worker for serve_compile)"),
)

_SIM = "sim_kernels"
_FIG = "figures_cold"
_SRV = "serve_compile"
_WALLS = "cold_wall_s, warm_wall_s"

#: ``(name, unit, better, moves, exercised in)``.
PER_LAYER = (
    ("pipette.stage_s", "s", "lower", "cold_wall_s, warm_wall_s", "sim_kernels, figures_cold"),
    ("pipette.stage_resumes", "count", "lower", "", "sim_kernels, figures_cold"),
    ("pipette.ra_s", "s", "lower", _WALLS, "sim_kernels; sssp and bc have no RA"),
    ("pipette.ra_resumes", "count", "lower", "", _SIM),
    ("pipette.mem_below_l1_s", "s", "lower", _WALLS, "figures_cold (fastpath)"),
    ("pipette.mem_below_l1_calls", "count", "lower", "", _FIG),
    ("pipette.mem_below_l2_s", "s", "lower", _WALLS, "figures_cold; sim_kernels: no change"),
    ("pipette.mem_below_l2_calls", "count", "lower", "", _FIG),
    ("pipette.prefetch_s", "s", "lower", _WALLS, "figures_cold; sim_kernels: no change"),
    ("pipette.prefetch_calls", "count", "lower", "", _FIG),
    ("pipette.stage_setup_s", "s", "lower", "cold_wall_s", "figures_cold, sim_kernels"),
    ("pipette.stages_built", "count", "lower", "", "figures_cold, sim_kernels"),
    ("pipette.batch_compiled_ratio", "ratio", "higher", "cold_wall_s", _SIM),
    ("pipette.sched_s", "s", "lower", _WALLS, "all simulating workloads (0-4%)"),
    ("pipette.machine_runs", "count", "lower", "", "sim_kernels, figures_cold"),
    ("pipette.sim_cycles", "cycles", "lower", "none; repeats exactly", _SIM),
    ("pipette.dram_accesses", "count", "lower", "none; repeats exactly", _SIM),
    ("pipette.sim_mcycles_per_s", "Mcycles/s", "higher", "warm_wall_s", _SIM),
) + tuple(
    ("kernel.%s.wall_s" % bench, "s", "lower", "warm_wall_s", _SIM)
    for bench in ("bc", "bfs", "cc", "pr", "prd", "radii", "spmm", "spmv", "sssp", "tc")
) + (
    ("cache.fingerprint_env_s", "s", "lower", _WALLS, _FIG),
    ("cache.fingerprint_env_calls", "count", "lower", "", _FIG),
    ("cache.compile_s", "s", "lower", "warm_wall_s", _FIG),
    ("cache.serial_run_s", "s", "lower", "warm_wall_s", _FIG),
    ("cache.misses", "count", "lower", "cold_wall_s vs warm_wall_s gap", _FIG),
    ("cache.hit_ratio", "ratio", "higher", "cold_wall_s vs warm_wall_s gap", _FIG),
    ("frontend.lower_s", "s", "lower", "op_p50_ms", _SRV),
    ("core.compile_s", "s", "lower", "op_p50_ms; setup_s of sim_kernels", _SRV),
    ("core.compiles", "count", "lower", "", _SRV),
    ("analysis.sanitize_s", "s", "lower", "op_p50_ms; setup_s of sim_kernels", _SRV),
    ("analysis.perfmodel_s", "s", "lower", "op_p50_ms", _SRV),
    ("ir.verify_s", "s", "lower", "op_p50_ms; cold_wall_s", "serve_compile, figures_cold"),
    ("ir.fingerprint_s", "s", "lower", "cold_wall_s", _FIG),
    ("taco.lower_s", "s", "lower", "cold_wall_s", "figures_cold (fig12 only)"),
    ("workloads.build_s", "s", "lower", "setup_s; cold_wall_s", _FIG),
    ("runtime.run_overhead_s", "s", "lower", "warm_wall_s", "sim_kernels, figures_cold"),
    ("api.handle_s", "s", "lower", "op_p50_ms", _SRV),
    ("api.handle_ms_p50", "ms", "lower", "op_p50_ms, ops_per_s", _SRV),
    ("service.rtt_p50_ms", "ms", "lower", "op_p50_ms", _SRV),
    ("service.rtt_p99_ms", "ms", "lower", "op_p50_ms", _SRV),
    ("service.req_per_s", "1/s", "higher", "ops_per_s", _SRV),
    ("service.overhead_ms", "ms", "lower", "op_p50_ms, ops_per_s", _SRV),
    ("service.rejections", "count", "lower", "ops_per_s", _SRV),
    ("trace.wall_s", "s", "lower", "none: the traced wall the layers add up to", "all"),
    ("trace.other_s", "s", "lower", "none: traced wall outside every layer", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "none: tracing cost, read layers with it", "all"),
)

#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "pipette.stage": "pipette.stage_s",
    "pipette.ra": "pipette.ra_s",
    "pipette.mem_below_l1": "pipette.mem_below_l1_s",
    "pipette.mem_below_l2": "pipette.mem_below_l2_s",
    "pipette.prefetch": "pipette.prefetch_s",
    "pipette.stage_setup": "pipette.stage_setup_s",
    "pipette.machine_run": "pipette.sched_s",
    "cache.fingerprint_env": "cache.fingerprint_env_s",
    "cache.compile": "cache.compile_s",
    "cache.serial_run": "cache.serial_run_s",
    "frontend.lower": "frontend.lower_s",
    "core.compile": "core.compile_s",
    "analysis.sanitize": "analysis.sanitize_s",
    "analysis.perfmodel": "analysis.perfmodel_s",
    "ir.verify": "ir.verify_s",
    "ir.fingerprint": "ir.fingerprint_s",
    "taco.lower": "taco.lower_s",
    "workloads.build": "workloads.build_s",
    "runtime.run_pipeline": "runtime.run_overhead_s",
    "api.handle": "api.handle_s",
}

#: Span name -> per-layer call-count metric.
CALLS = {
    "pipette.stage": "pipette.stage_resumes",
    "pipette.ra": "pipette.ra_resumes",
    "pipette.mem_below_l1": "pipette.mem_below_l1_calls",
    "pipette.mem_below_l2": "pipette.mem_below_l2_calls",
    "pipette.prefetch": "pipette.prefetch_calls",
    "pipette.machine_run": "pipette.machine_runs",
    "cache.fingerprint_env": "cache.fingerprint_env_calls",
    "core.compile": "core.compiles",
}

#: Largest allowed gap between the sum of all self times and the
#: independently measured traced wall, as a share of that wall.
TRACE_SUM_TOLERANCE = 0.02


def merge_totals(dumps):
    """Sum ``[count, total_s, self_s]`` per span name over recorder dumps."""
    merged = {}
    for dump in dumps:
        for name, (count, total, own) in dump["totals"].items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += own
    return merged


def layer_metrics(totals, wall_s):
    """Per-layer self times and counts from merged span totals.

    Returns ``(metrics, unaccounted)``: every metric of :data:`PER_LAYER`
    this module can derive from spans, zero where no span of the layer
    closed, and the share of ``wall_s`` (measured outside the recorder)
    that the self times fail to add up to.
    """
    metrics = {name: 0.0 for name in SELF_TIME.values()}
    metrics.update({name: 0 for name in CALLS.values()})
    other = 0.0
    for span, (count, _total, own) in totals.items():
        if span in SELF_TIME:
            metrics[SELF_TIME[span]] += own
        else:
            other += own
        if span in CALLS:
            metrics[CALLS[span]] += count
    metrics["trace.other_s"] = other
    metrics["trace.wall_s"] = wall_s
    accounted = sum(metrics[name] for name in SELF_TIME.values()) + other
    unaccounted = abs(accounted - wall_s) / wall_s if wall_s > 0 else 0.0
    return metrics, unaccounted
