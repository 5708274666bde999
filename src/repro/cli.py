"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's artifact would be driven:

* ``emit FILE.c`` — run the Phloem compiler on a mini-C kernel and print
  the pipeline (pseudo-C, IR, or a one-line summary);
* ``lint [FILE.c | --bench NAME|all]`` — run the static pipeline-safety
  analyzer (:mod:`repro.analysis.sanitize`) and print coded diagnostics
  (``PHL...``); exits non-zero when any error-severity finding exists;
* ``demo BENCH`` — run one shipped benchmark (paper five + GARDENIA suite:
  bfs/cc/prd/radii/spmm/sssp/pr/tc/bc/spmv) on a synthetic
  input, comparing serial / data-parallel / Phloem / manual;
* ``search BENCH`` — run the profile-guided pipeline search and print the
  Fig. 13-style distribution;
* ``figures [NAME...]`` — regenerate evaluation figures (fig6..fig14);
* ``trace BENCH`` — run one benchmark with cycle-domain tracing on and
  write a Chrome trace-event file (load it at ui.perfetto.dev);
* ``metrics BENCH`` — run the comparison suite and emit structured
  JSONL RunRecords (:mod:`repro.obs.record`);
* ``report DIR`` — aggregate a results directory (RunRecord JSONL, perf
  baselines, lint JSON, timeline/telemetry snapshots) into one markdown
  or single-file HTML experiment report (:mod:`repro.obs.report`);
* ``serve`` — run the long-lived compile-and-simulate daemon
  (:mod:`repro.service`): async socket server, fork worker pool, shared
  caches, per-client rate limits;
* ``submit [submit flags] VERB ...`` — run any of the verbs above on a
  daemon instead of in-process, byte-identical stdout included.

Every verb is a thin frontend over :mod:`repro.api`: argv becomes a typed
request, :func:`repro.api.handle` executes it, and the CLI prints
``Response.output`` verbatim — the daemon runs the same requests through
the same handlers, so one-shot and served results are interchangeable.

``--quiet`` (or ``REPRO_QUIET=1``) silences the stderr telemetry
(wall-clock/cache chatter); figure results on stdout are unaffected.
"""

import argparse
import sys
import time

from . import api


def _run_local(request):
    """Execute one API request in-process and print its payload."""
    response = api.handle(request)
    if response.output:
        sys.stdout.write(response.output)
    return response.exit_code


# ---------------------------------------------------------------------------
# argv -> request builders (shared by the one-shot verbs and `submit`)


def _req_emit(args):
    with open(args.file) as handle:
        source = handle.read()
    return api.CompileRequest(
        source=source,
        name=args.name,
        stages=args.stages,
        passes=args.passes,
        fmt=args.format,
        verify_each=args.verify_each,
    )


def _req_lint(args):
    source = None
    if args.file is not None:
        with open(args.file) as handle:
            source = handle.read()
    return api.LintRequest(
        source=source,
        file=args.file,
        name=args.name,
        bench=args.bench,
        stages=args.stages,
        passes=args.passes,
        verify_each=args.verify_each,
        json=args.json,
        perf=args.perf,
    )


def _req_demo(args):
    return api.RunRequest(bench=args.bench, size=args.size, seed=args.seed, stages=args.stages)


def _req_search(args):
    return api.SearchRequest(bench=args.bench, prune_static=args.prune_static)


def _req_trace(args):
    return api.TraceRequest(
        bench=args.bench,
        size=args.size,
        seed=args.seed,
        stages=args.stages,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        profile_passes=args.profile_passes,
        quiet=args.quiet,
    )


def _req_metrics(args):
    return api.MetricsRequest(
        bench=args.bench,
        size=args.size,
        seed=args.seed,
        stages=args.stages,
        jobs=args.jobs,
        metrics_out=args.metrics_out,
        profile_passes=args.profile_passes,
        quiet=args.quiet,
    )


def _req_report(args):
    return api.ReportRequest(
        results_dir=args.results_dir,
        title=args.title,
        baseline=args.baseline,
        out=args.out,
        html_out=args.html_out,
        quiet=args.quiet,
    )


def _req_bench_perf(args):
    scale = "full" if args.full else "quick"
    if args.quick:
        scale = "quick"
    return api.BenchPerfRequest(
        benches=tuple(args.benches),
        scale=scale,
        engine=args.engine,
        repeats=args.repeats,
        jobs=args.jobs,
        baseline=args.baseline,
        check_baseline=args.check_baseline,
        update_baseline=args.update_baseline,
        threshold=args.threshold,
        strict=args.strict,
        json=args.json,
        metrics_out=args.metrics_out,
        quiet=args.quiet,
    )


#: Verb -> argv builder; verbs absent here (figures, serve, submit) run
#: only in-process and cannot be submitted to a daemon.
_REQUEST_BUILDERS = {
    "emit": _req_emit,
    "lint": _req_lint,
    "demo": _req_demo,
    "search": _req_search,
    "trace": _req_trace,
    "metrics": _req_metrics,
    "bench-perf": _req_bench_perf,
    "report": _req_report,
}


def _cmd_emit(args):
    return _run_local(_req_emit(args))


def _cmd_lint(args):
    return _run_local(_req_lint(args))


def _cmd_demo(args):
    return _run_local(_req_demo(args))


def _cmd_search(args):
    return _run_local(_req_search(args))


def _cmd_trace(args):
    return _run_local(_req_trace(args))


def _cmd_metrics(args):
    return _run_local(_req_metrics(args))


def _cmd_bench_perf(args):
    return _run_local(_req_bench_perf(args))


def _cmd_report(args):
    return _run_local(_req_report(args))


_FIGURES = {
    "fig6": "fig6_pass_ablation",
    "fig9": "fig9_overall_speedup",
    "fig10": "fig10_cycle_breakdown",
    "fig11": "fig11_energy_breakdown",
    "fig12": "fig12_taco",
    "fig13": "fig13_stage_distribution",
    "fig14": "fig14_replication",
}

#: Figures that re-slice the shared Fig. 9 suites (computed once, in the
#: parent, with per-benchmark parallelism) rather than running standalone.
_SUITE_FIGURES = ("fig9", "fig10", "fig11", "fig13")


def _cmd_figures(args):
    from . import cache, obs
    from .bench import experiments, parallel, report

    if args.quiet:
        obs.set_quiet(True)
    names = args.names or sorted(_FIGURES)
    for name in names:
        if name not in _FIGURES:
            print("unknown figure %r (choose from %s)" % (name, ", ".join(sorted(_FIGURES))))
            return 2

    jobs = parallel.resolve_jobs(args.jobs)
    parallel.clear_job_log()
    start = time.perf_counter()

    # Two-phase job graph, one pool level deep: the Fig. 9 suites fan out
    # per benchmark, standalone figures fan out per figure; the suite
    # re-slicing figures then run in-parent against the warm suites.
    results = {}
    standalone = [n for n in names if n not in _SUITE_FIGURES]
    if any(n in _SUITE_FIGURES for n in names):
        experiments.ensure_suites(jobs=jobs)
    if standalone:
        job_list = [
            parallel.Job(name, getattr(experiments, _FIGURES[name])) for name in standalone
        ]
        for job_result in parallel.run_jobs(job_list, workers=jobs):
            results[job_result.key] = job_result.value
    for name in names:
        if name not in results:
            results[name] = getattr(experiments, _FIGURES[name])()

    for name in names:
        print(results[name]["text"])
        print()

    if args.metrics_out:
        # Structured RunRecords for whatever suites this invocation ran
        # (the fig9/10/11/13 family); per-suite record lists merge
        # deterministically regardless of worker count.
        from .bench.experiments import _SUITES

        record_lists = [
            obs.records_from_suite(bench, suite, cache_stats=cache.stats())
            for bench, suite in _SUITES.items()
        ]
        records = obs.merge_records(*record_lists)
        obs.write_jsonl(records, args.metrics_out)
        obs.log("metrics: %d records -> %s", len(records), args.metrics_out)

    # Harness telemetry on stderr (obs.log: --quiet/REPRO_QUIET silences
    # it), keeping stdout byte-identical to a serial, cache-less run:
    # per-job wall times and cache hit rates (a cold-vs-warm pair of
    # invocations shows the caches working).
    elapsed = time.perf_counter() - start
    obs.log("%s", report.render_job_times(parallel.job_log(), workers=jobs, total_wall=elapsed))
    obs.log("%s", report.render_cache_stats(cache.stats(), directory=cache.cache_dir()))
    return 0


# ---------------------------------------------------------------------------
# Service frontends: serve / submit


def _cmd_serve(args):
    from .obs import set_quiet
    from .service.daemon import serve_main
    from .service.protocol import default_socket_path

    if args.quiet:
        set_quiet(True)
    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = default_socket_path(create_dir=True)
    return serve_main(
        socket_path=socket_path,
        host=args.host,
        port=args.port,
        workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        quota=args.quota,
    )


def _request_from_argv(argv):
    """Re-parse a submitted verb's argv into its API request.

    Returns ``(request, None)`` or ``(None, exit_code)`` when the argv
    names a verb that cannot run on a daemon.
    """
    parsed = build_parser().parse_args(argv)
    builder = _REQUEST_BUILDERS.get(getattr(parsed, "verb", None))
    if builder is None:
        print(
            "submit: verb %r runs only in-process (submit one of: %s)"
            % (argv[0], ", ".join(sorted(_REQUEST_BUILDERS)))
        )
        return None, 2
    return builder(parsed), None


def _cmd_submit(args):
    import json

    from .client import ServiceClient, ServiceError
    from .obs import log
    from .service.protocol import default_socket_path

    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = default_socket_path()
    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]

    control = None
    for flag, action in (
        ("ping", "ping"),
        ("server_stats", "stats"),
        ("server_telemetry", "telemetry"),
        ("shutdown", "shutdown"),
    ):
        if getattr(args, flag):
            control = action
    if control is None and not argv:
        print("submit: give a verb to run (e.g. `repro submit metrics bfs`)")
        return 2

    request = None
    if control is None:
        request, code = _request_from_argv(argv)
        if request is None:
            return code

    client = ServiceClient(
        socket_path=socket_path,
        host=args.host,
        port=args.port,
        client_id=args.client,
        timeout=args.timeout,
    )
    try:
        if args.wait is not None:
            client.wait_ready(timeout=args.wait)
        if control is not None:
            reply = client.control(control)
            if control == "telemetry":
                # Raw text exposition, ready for a Prometheus scrape target.
                sys.stdout.write(reply["text"])
            else:
                print(json.dumps(reply, sort_keys=True))
            return 0

        def on_record(record):
            if args.stream:
                print(json.dumps(record, sort_keys=True), flush=True)

        response = client.submit(request, on_record=on_record)
    except ServiceError as exc:
        print("submit: error: %s" % exc, file=sys.stderr)
        return 1
    if response.error is not None:
        print(
            json.dumps({"verb": response.verb, "error": response.error}, sort_keys=True),
            file=sys.stderr,
        )
        return response.exit_code or 1
    if not args.stream and response.output:
        sys.stdout.write(response.output)
    if response.cache is not None:
        log(
            "submit: cache %s",
            " ".join(
                "%s %d/%d" % (layer, c["hits"], c["hits"] + c["misses"])
                for layer, c in sorted(response.cache.items())
            ),
        )
    return response.exit_code


def build_parser():
    from .bench import perf as perfmod
    from .workloads import ALL_BENCHMARKS

    bench_names = tuple(sorted(ALL_BENCHMARKS))
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phloem reproduction: compile, simulate, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="compile a mini-C kernel and print the pipeline")
    emit.add_argument("file")
    emit.add_argument("--name", default=None, help="kernel name if the file has several")
    emit.add_argument("--stages", type=int, default=4)
    emit.add_argument("--passes", default=None, help="comma-separated pass subset")
    emit.add_argument("--format", choices=("c", "ir", "summary", "diagram"), default="c")
    emit.add_argument(
        "--verify-each", action="store_true",
        help="re-verify the IR and re-run the safety analyzer after every pass",
    )
    emit.set_defaults(func=_cmd_emit, verb="emit")

    lint = sub.add_parser(
        "lint", help="run the static pipeline-safety analyzer on a kernel"
    )
    lint.add_argument("file", nargs="?", default=None, metavar="FILE.c")
    lint.add_argument("--name", default=None, help="kernel name if the file has several")
    lint.add_argument(
        "--bench", default=None, metavar="NAME",
        help="lint a shipped benchmark kernel instead of a file ('all' sweeps every one)",
    )
    lint.add_argument("--stages", type=int, default=4)
    lint.add_argument("--passes", default=None, help="comma-separated pass subset")
    lint.add_argument(
        "--verify-each", action="store_true",
        help="also verify after every compiler pass, not just the final pipeline",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    lint.add_argument(
        "--perf", action="store_true",
        help="also run the static performance model (PHL4xx advisories)",
    )
    lint.set_defaults(func=_cmd_lint, verb="lint")

    demo = sub.add_parser("demo", help="run one benchmark across all variants")
    demo.add_argument("bench", choices=bench_names)
    demo.add_argument("--size", type=int, default=4000)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--stages", type=int, default=4)
    demo.set_defaults(func=_cmd_demo, verb="demo")

    search = sub.add_parser("search", help="profile-guided pipeline search")
    search.add_argument("bench", choices=bench_names)
    search.add_argument(
        "--prune-static", action="store_true", dest="prune_static",
        help="drop statically-dominated candidates before any simulation",
    )
    search.set_defaults(func=_cmd_search, verb="search")

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("names", nargs="*", metavar="figN")
    figures.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the harness (default: REPRO_JOBS env or 1)",
    )
    figures.add_argument(
        "--quiet", action="store_true", help="silence stderr telemetry (wall times, cache rates)"
    )
    figures.add_argument(
        "--metrics-out", default=None, metavar="FILE.jsonl",
        help="write structured RunRecords for the suites this run computed",
    )
    figures.set_defaults(func=_cmd_figures, verb="figures")

    trace = sub.add_parser(
        "trace", help="run one benchmark with cycle-domain tracing on"
    )
    trace.add_argument("bench", choices=bench_names)
    trace.add_argument("--size", type=int, default=4000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--stages", type=int, default=4)
    trace.add_argument(
        "--trace-out", default=None, metavar="FILE.json",
        help="write a Chrome trace-event file (open at ui.perfetto.dev)",
    )
    trace.add_argument(
        "--metrics-out", default=None, metavar="FILE.jsonl",
        help="write RunRecords for the serial and traced runs",
    )
    trace.add_argument(
        "--profile-passes", action="store_true",
        help="instrument the compiler passes and print the timing table",
    )
    trace.add_argument("--quiet", action="store_true", help="silence stderr telemetry")
    trace.set_defaults(func=_cmd_trace, verb="trace")

    bench = sub.add_parser(
        "bench", help="benchmark harness utilities (currently: perf)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    perf = bench_sub.add_parser(
        "perf",
        help="time the simulator itself: each engine vs the reference interpreter",
    )
    perf.add_argument(
        "benches", nargs="*", metavar="BENCH",
        help="kernels to measure (default: every shipped benchmark)",
    )
    perf.add_argument(
        "--quick", action="store_true",
        help="QUICK-scale inputs (the committed-baseline scale; the default)",
    )
    perf.add_argument(
        "--full", action="store_true",
        help="larger inputs for patient local measurement",
    )
    perf.add_argument(
        "--engine", default=None,
        choices=("reference", "batch", "all"),
        help="engine(s) to time against the reference interpreter "
        "(default and 'all': reference and batch)",
    )
    perf.add_argument(
        "--repeats", type=int, default=2,
        help="timed runs per engine; the minimum wall time is kept (default 2)",
    )
    perf.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (cycles are unaffected; wall times contend)",
    )
    perf.add_argument(
        "--baseline", default=perfmod.BASELINE_FILE, metavar="FILE.json",
        help="baseline file (default: %s in the working directory)"
        % perfmod.BASELINE_FILE,
    )
    perf.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the baseline: cycle changes are errors, "
        "wall-time regressions warn",
    )
    perf.add_argument(
        "--update-baseline", action="store_true",
        help="write the fresh measurements to the baseline file",
    )
    perf.add_argument(
        "--threshold", type=float, default=perfmod.DEFAULT_THRESHOLD,
        help="fractional wall-time tolerance before warning (default 0.25)",
    )
    perf.add_argument(
        "--strict", action="store_true",
        help="treat wall-time warnings as failures (off in CI: boxes are noisy)",
    )
    perf.add_argument("--json", action="store_true", help="JSON instead of the table")
    perf.add_argument(
        "--metrics-out", default=None, metavar="FILE.jsonl",
        help="also write repro.obs RunRecords for each measured engine",
    )
    perf.add_argument("--quiet", action="store_true", help="silence stderr telemetry")
    perf.set_defaults(func=_cmd_bench_perf, verb="bench-perf")

    metrics = sub.add_parser(
        "metrics", help="run the comparison suite and emit JSONL RunRecords"
    )
    metrics.add_argument("bench", choices=bench_names)
    metrics.add_argument("--size", type=int, default=4000)
    metrics.add_argument("--seed", type=int, default=1)
    metrics.add_argument("--stages", type=int, default=4)
    metrics.add_argument("--jobs", type=int, default=None)
    metrics.add_argument(
        "--metrics-out", default=None, metavar="FILE.jsonl",
        help="destination file (default: JSONL on stdout)",
    )
    metrics.add_argument(
        "--profile-passes", action="store_true",
        help="attach compile-pass timings to the phloem-static records",
    )
    metrics.add_argument("--quiet", action="store_true", help="silence stderr telemetry")
    metrics.set_defaults(func=_cmd_metrics, verb="metrics")

    report = sub.add_parser(
        "report",
        help="aggregate a results directory into one experiment report",
    )
    report.add_argument(
        "results_dir", metavar="DIR",
        help="directory of RunRecord JSONL, BENCH_*.json, lint JSON, "
        "timeline and telemetry snapshots",
    )
    report.add_argument("--title", default=None, help="report heading")
    report.add_argument(
        "--baseline", default="BENCH_pipette.json", metavar="FILE.json",
        help="perf baseline whose history feeds the trajectory section "
        "(default: BENCH_pipette.json; missing file is skipped)",
    )
    report.add_argument(
        "--out", default=None, metavar="FILE.md",
        help="write markdown here instead of stdout",
    )
    report.add_argument(
        "--html-out", default=None, metavar="FILE.html",
        help="also write the single-file HTML page",
    )
    report.add_argument("--quiet", action="store_true", help="silence stderr telemetry")
    report.set_defaults(func=_cmd_report, verb="report")

    serve = sub.add_parser(
        "serve", help="run the compile-and-simulate daemon (async server + worker pool)"
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default: REPRO_SOCKET env or the "
        "cache directory's serve.sock)",
    )
    serve.add_argument("--host", default=None, help="listen on TCP instead of a unix socket")
    serve.add_argument("--port", type=int, default=0, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="fork worker processes (0 = execute inline in the server)",
    )
    serve.add_argument(
        "--rate", type=float, default=10.0,
        help="per-client token-bucket refill rate, requests/s (<=0 disables)",
    )
    serve.add_argument(
        "--burst", type=float, default=20.0, help="per-client token-bucket depth"
    )
    serve.add_argument(
        "--quota", type=int, default=4,
        help="per-client in-flight job quota (<=0 disables)",
    )
    serve.add_argument("--quiet", action="store_true", help="silence stderr telemetry")
    serve.set_defaults(func=_cmd_serve, verb="serve")

    submit = sub.add_parser(
        "submit", help="run a verb on a daemon: repro submit [flags] VERB ..."
    )
    submit.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon unix socket (default: REPRO_SOCKET env or the cache "
        "directory's serve.sock)",
    )
    submit.add_argument("--host", default=None, help="daemon TCP host")
    submit.add_argument("--port", type=int, default=0, help="daemon TCP port")
    submit.add_argument(
        "--client", default="cli", help="client identity for rate limits and quotas"
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="socket timeout in seconds"
    )
    submit.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="poll until the daemon answers a ping before submitting",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="print streamed records as JSONL as they arrive instead of "
        "the verb's stdout payload",
    )
    submit.add_argument("--ping", action="store_true", help="liveness probe only")
    submit.add_argument(
        "--server-stats", action="store_true", help="print the daemon's counters"
    )
    submit.add_argument(
        "--server-telemetry", action="store_true",
        help="print the daemon's telemetry as Prometheus text exposition",
    )
    submit.add_argument("--shutdown", action="store_true", help="stop the daemon")
    submit.add_argument(
        "argv", nargs=argparse.REMAINDER, metavar="VERB ...",
        help="the verb (and its flags) to run on the daemon",
    )
    submit.set_defaults(func=_cmd_submit, verb="submit")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
