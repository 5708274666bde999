#!/usr/bin/env python3
"""The repository benchmark: three workloads, checked outputs, named metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sim_kernels --seed 1 --seconds 20 --trace 0

Workloads (``--workload all``, the default, runs the three in turn):

* ``sim_kernels``   -- the Phloem-static pipeline of all ten shipped kernels
  simulated on the batch engine with the Table III machine and the QUICK
  shapes of ``repro bench perf`` (the seed replaces the generator seed).
* ``figures_cold``  -- ``repro figures fig6 fig12 --jobs 1`` in a fresh
  process against an empty cache dir, then again against the populated one.
* ``serve_compile`` -- a ``repro serve --workers 1 --rate 0 --quota 0``
  daemon; one client runs a closed loop over a seeded shuffle of 80
  ``lint``/``emit`` requests.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate pass on the same inputs: it repeats the work
once plainly and once under the timing wrappers of ``hooks.py``, and
reports the per-layer metrics of ``layers.py``. The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it name every metric with its unit, the error rate with its
base, and the host the numbers come from.

Every pass runs in fresh child processes with their own cache dir under
``.perfbench/`` in the checkout; ``REPRO_*`` variables of the caller are
removed, and nothing outside the checkout is read or written.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import chrome_trace  # noqa: E402

WORKLOADS = ("sim_kernels", "figures_cold", "serve_compile")

#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Ceiling on any one child process, so a hung program fails the run
#: instead of the run hanging.
CHILD_TIMEOUT = 150.0

#: In-process replay rounds of the request mix in a traced serve run.
REPLAY_ROUNDS = 3


# ---------------------------------------------------------------------------
# Hermetic child processes


class Pass:
    """One isolated pass: a temp dir in the checkout holding the cache dir,
    ``HOME`` and ``TMPDIR`` of every child it starts."""

    def __init__(self, label, quick=False):
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=label + "-", dir=os.path.join(WORK, "tmp"))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=SRC,
            REPRO_CACHE_DIR=os.path.join(self.dir, "cache"),
            HOME=self.dir,
            TMPDIR=self.dir,
        )
        if quick:
            env["REPRO_QUICK"] = "1"
        self.env = env

    def path(self, name):
        return os.path.join(self.dir, name)

    def run(self, argv, stdout=subprocess.DEVNULL):
        """Run a child to completion; ``(returncode, stdout bytes, wall_s)``."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT, check=False,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: killed after %.0f s: %s\n" % (CHILD_TIMEOUT, argv))
            return -1, b"", time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        return proc.returncode, proc.stdout, wall

    def child(self, mode, *args):
        """Run ``child.py MODE``; returns its JSON document (None on failure)."""
        out = self.path("%s-%d.json" % (mode, time.monotonic_ns()))
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, "--out", out,
                "--t0", repr(time.time())] + [str(a) for a in args]
        code, _, _ = self.run(argv)
        if code != 0 or not os.path.exists(out):
            return None
        with open(out) as fh:
            return json.load(fh)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def peak_rss_mb():
    """Largest peak RSS among reaped children (and their reaped children)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations of one run, plus run-level checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.problems = False

    def op(self, ok, note=None, count=1):
        """``count`` operations that all passed (``ok``) or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(note)

    def check(self, ok, note):
        """A run-level check (trace validity, tracing leaves results alone);
        failing one marks the run incorrect."""
        if not ok:
            self.notes.append(note)
            self.problems = True
        return ok

    @property
    def correct(self):
        return self.failed == 0 and not self.problems and self.attempted > 0


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_metrics(cold, warm):
    """Timing metrics from passes ``{operation: seconds}`` over the same
    operations: ``cold`` ones (first in fresh processes) and ``warm`` ones.

    An operation that ran more than once counts at its fastest run (min of
    N, as ``repro bench perf`` does). The walls are already normalised for
    host speed, but the probe samples the host every 0.1 s and cannot see
    the sub-second stalls of a 10 ms request; the minimum drops those.
    """
    ops = list(cold[0])

    def fastest(passes):
        return {op: min(p[op] for p in passes) for op in ops}

    best = fastest(cold + warm)
    return {
        "cold_wall_s": sum(fastest(cold).values()),
        "warm_wall_s": sum(fastest(warm).values()),
        "op_p50_ms": _median(list(best.values())) * 1e3,
        "ops_per_s": len(ops) / sum(best.values()),
    }


# ---------------------------------------------------------------------------
# sim_kernels


def _baseline_cycles():
    with open(os.path.join(ROOT, "BENCH_pipette.json")) as fh:
        return {r["bench"]: r["cycles"] for r in json.load(fh)["records"]}


def _check_sim_rows(rows, tally, expected):
    for bench, _, cycles, ok, _ in rows:
        want = cycles if expected is None else expected.get(bench)
        tally.op(ok and cycles == want,
                 "%s: oracle %s, cycles %s, expected %s" % (bench, ok, cycles, want))


def _setup_s(doc, speed):
    """A child's set-up time (spawn to ready), normalised."""
    return speed.normalize(doc["ready_at"] - doc["setup_s"], doc["setup_s"])


def sim_kernels(args, tally, speed):
    expected = None
    if args.seed == inputs.BASELINE_SEED and not args.tiny:
        expected = _baseline_cycles()
    common = ["--seed", args.seed] + (["--tiny"] if args.tiny else [])
    with Pass("sim") as p:
        if args.trace:
            doc = p.child("sim", "--seconds", 0, "--trace", 1, "--run-id",
                          "sim_kernels-%d" % args.seed, *common)
            setups = []
        else:
            setups = [p.child("sim", "--setup-only", *common) for _ in range(SETUP_REPEATS - 1)]
            doc = p.child("sim", "--seconds", args.seconds, *common)
    if not tally.check(doc is not None and all(setups), "sim child failed"):
        return {}
    cycles_first = {}
    for rows in doc["passes"]:
        _check_sim_rows(rows, tally, expected)
        for bench, _, cycles, _, _ in rows:
            tally.check(cycles_first.setdefault(bench, cycles) == cycles,
                        "%s: cycles differ between passes" % bench)
    if not args.trace:
        passes = [{r[0]: speed.normalize(r[4], r[1]) for r in rows} for rows in doc["passes"]]
        return dict(
            pass_metrics(passes[:1], passes[1:]),
            setup_s=_median([_setup_s(d, speed) for d in setups + [doc]]),
            peak_rss_mb=peak_rss_mb(),
        )

    traced = doc["traced"]
    plain = doc["passes"][-1]
    _check_sim_rows(traced["rows"], tally, expected)
    tally.check(
        [(r[0], r[2], r[3]) for r in traced["rows"]] == [(r[0], r[2], r[3]) for r in plain],
        "tracing changed simulated cycles or oracle verdicts",
    )
    metrics = _traced_metrics(args.workload, [traced], tally)
    best = {r[0]: min(rows[i][1] for rows in doc["passes"]) for i, r in enumerate(plain)}
    plain_wall = sum(best.values())
    metrics.update({
        "pipette.sim_mcycles_per_s": sum(r[2] for r in plain) / plain_wall / 1e6,
        "trace.overhead_ratio": _overhead(speed, [(r[4], r[1]) for r in traced["rows"]],
                                          [(r[4], r[1]) for r in plain]),
    })
    for bench, wall in best.items():
        metrics["kernel.%s.wall_s" % bench] = wall
    return metrics


def _overhead(speed, traced, plain):
    """Tracing cost: the traced over the plain wall of the same work, each
    given as ``(start, seconds)`` pairs normalised for host speed, minus one."""
    def wall(pairs):
        return sum(speed.normalize(start, seconds) for start, seconds in pairs)

    return wall(traced) / wall(plain) - 1.0


def _ratio(num, den):
    return num / den if den else 0.0


def _traced_metrics(workload, traces, tally):
    """Per-layer metrics common to every traced workload."""
    totals = layers.merge_totals([t["recorder"] for t in traces])
    wall = sum(t["wall_s"] for t in traces)
    metrics, unaccounted = layers.layer_metrics(totals, wall)
    counters = {name: sum(t["counters"][name] for t in traces) for name in traces[0]["counters"]}
    metrics.update({
        "pipette.stages_built": counters["stages_built"],
        "pipette.batch_compiled_ratio": _ratio(counters["batch_compiled"],
                                               counters["batch_stages"]),
        "pipette.sim_cycles": counters["sim_cycles"],
        "pipette.dram_accesses": counters["dram_accesses"],
    })
    tally.check(all(t["open_spans"] == 0 for t in traces), "spans left open")
    tally.check(unaccounted <= layers.TRACE_SUM_TOLERANCE,
                "layer self times miss the traced wall by %.1f%%" % (100 * unaccounted))
    _write_trace(workload, [t["recorder"] for t in traces], tally)
    return metrics


def _write_trace(workload, dumps, tally):
    from repro.obs import validate_chrome_trace

    trace = chrome_trace(dumps)
    problems = validate_chrome_trace(trace)
    tally.check(not problems, "invalid chrome trace: %s" % problems[:3])
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    with open(os.path.join(WORK, "out", "trace-%s.json" % workload), "w") as fh:
        json.dump(trace, fh)


# ---------------------------------------------------------------------------
# figures_cold


def _golden(figures):
    with open(os.path.join(HERE, "golden", inputs.GOLDEN[figures]), "rb") as fh:
        return fh.read()


def _figures_argv(figures):
    return ["figures", *figures, "--jobs", "1"]


def figures_cold(args, tally, speed):
    figures = inputs.TINY_FIGURES if args.tiny else inputs.FIGURES
    golden = _golden(figures)
    cli = [sys.executable, "-m", "repro"] + _figures_argv(figures)

    def invoke(p, argv, label):
        start = time.perf_counter()
        code, out, wall = p.run(argv, stdout=subprocess.PIPE)
        tally.op(code == 0 and out == golden, "%s invocation: exit %d, stdout %s golden"
                 % (label, code, "matches" if out == golden else "differs from"))
        return out, speed.normalize(start, wall)

    if args.trace:
        return _figures_traced(args, tally, cli, invoke)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with Pass("figsetup", quick=True) as p:
            os.makedirs(p.env["REPRO_CACHE_DIR"])
            probe = p.child("probe")
        tally.check(probe is not None, "set-up probe failed")
        setups.append(speed.normalize(start, time.perf_counter() - start))
    args.engine = probe and probe["engine"]

    colds, warms = [], []
    start = time.perf_counter()
    while not colds or time.perf_counter() - start < args.seconds:
        with Pass("figures", quick=True) as p:
            cold_out, cold = invoke(p, cli, "cold")
            warm_out, warm = invoke(p, cli, "warm")
        tally.check(cold_out == warm_out, "warm stdout differs from cold stdout")
        colds.append(cold)
        warms.append(warm)
    cold, warm = min(colds), min(warms)
    return {
        "setup_s": _median(setups),
        "cold_wall_s": cold,
        "warm_wall_s": warm,
        "op_p50_ms": (cold + warm) / 2 * 1e3,
        "ops_per_s": 2 / (cold + warm),
        "peak_rss_mb": peak_rss_mb(),
    }


def _figures_traced(args, tally, cli, invoke):
    figures = inputs.TINY_FIGURES if args.tiny else inputs.FIGURES
    with Pass("figplain", quick=True) as p:
        probe = p.child("probe")
        args.engine = probe and probe["engine"]
        _, plain_cold = invoke(p, cli, "plain cold")
    traces = []
    walls = []
    with Pass("figtraced", quick=True) as p:
        for label in ("cold", "warm"):
            out = p.path("%s.json" % label)
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", "--out", out,
                    "--run-id", "figures_cold-%d-%s" % (args.seed, label), "--",
                    *_figures_argv(figures)]
            _, wall = invoke(p, argv, "traced " + label)
            if not tally.check(os.path.exists(out), "traced %s wrote no spans" % label):
                return {}
            with open(out) as fh:
                traces.append(json.load(fh))
            walls.append(wall)
    cold, warm = traces
    metrics = _traced_metrics(args.workload, traces, tally)
    hits = sum(v["hits"] for v in warm["cache"].values())
    lookups = hits + sum(v["misses"] for v in warm["cache"].values())
    metrics.update({
        "cache.misses": sum(v["misses"] for v in cold["cache"].values()),
        "cache.hit_ratio": _ratio(hits, lookups),
        "trace.overhead_ratio": walls[0] / plain_cold - 1.0,
    })
    return metrics


# ---------------------------------------------------------------------------
# serve_compile


class Daemon:
    """``repro serve`` on a unix socket in a pass dir; always torn down."""

    def __init__(self, p):
        from repro.client import ServiceClient

        # Relative to the checkout root (the cwd of both ends), which keeps
        # the path under the unix-socket length limit wherever the
        # checkout lives.
        sock = os.path.relpath(p.path("d%d.sock" % time.monotonic_ns()), ROOT)
        self.log = open(p.path("daemon.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock, "--workers", "1",
             "--rate", "0", "--quota", "0"],
            cwd=ROOT, env=p.env, stdout=self.log, stderr=self.log, start_new_session=True,
        )
        self.client = ServiceClient(socket_path=sock, client_id="perfbench", timeout=60.0)
        try:
            self.client.wait_ready(timeout=60.0, interval=0.01)
        except Exception:
            self.close()
            raise
        self.started = start
        self.ready_s = time.perf_counter() - start

    def close(self):
        from repro.client import ServiceError

        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=20.0)
            except (ServiceError, subprocess.TimeoutExpired):
                pass  # the kill below ends it
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _closed_loop(client, mix, seconds, responses, min_rounds=2):
    """Rounds over ``mix`` until ``seconds`` pass (``min_rounds`` at least).

    Returns ``[{label: (start, round trip)}]`` per round. Every response is
    counted in ``responses``: ``{label: {(ok, output, error code): n}}``,
    with ``None`` for a request the daemon never answered.
    """
    from repro.client import ServiceError

    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rtts = {}
        for label, request in mix:
            t = time.perf_counter()
            try:
                response = client.submit(request)
                key = (response.ok, response.output, (response.error or {}).get("code"))
            except ServiceError as exc:
                key = (False, str(exc), "no-response")
            rtts[label] = (t, time.perf_counter() - t)
            counts = responses.setdefault(label, {})
            counts[key] = counts.get(key, 0) + 1
        rounds.append(rtts)
    return rounds


def _check_responses(responses, oracle, tally):
    """Every response ok, byte-identical to in-process ``api.handle``, and
    every ``lint`` report free of errors. Returns the rejection count."""
    rejections = 0
    for label, counts in responses.items():
        expected = oracle["outputs"].get(label)
        lint_ok = True
        if label.startswith("lint:") and expected is not None:
            lint_ok = sum(r["errors"] for r in json.loads(expected)["reports"]) == 0
        for (ok, output, code), count in counts.items():
            if code in ("rate-limited", "quota-exceeded"):
                rejections += count
            tally.op(ok and output == expected and lint_ok,
                     "%s: ok %s (%s), matches in-process output %s, lint clean %s"
                     % (label, ok, code, output == expected, lint_ok), count=count)
    return rejections


def serve_compile(args, tally, speed):
    mix = inputs.request_mix(args.seed, args.tiny)
    common = ["--seed", args.seed] + (["--tiny"] if args.tiny else [])
    responses = {}
    with Pass("serve") as p:
        # One cold round on each set-up daemon, then the closed loop on the
        # last one.
        setups, cold = [], []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            with Daemon(p) as d:
                setups.append(speed.normalize(d.started, d.ready_s))
                cold.extend(_closed_loop(d.client, mix, 0, responses, min_rounds=1))
        with Daemon(p) as d:
            start = time.perf_counter()
            warm = _closed_loop(d.client, mix, args.seconds, responses)
            loop_s = time.perf_counter() - start
        rss = peak_rss_mb()
        # The in-process oracle runs after the daemons are reaped, so its
        # memory stays out of peak_rss_mb.
        oracle = p.child("replay", "--rounds", REPLAY_ROUNDS if args.trace else 1,
                         "--trace", args.trace, "--run-id",
                         "serve_compile-%d" % args.seed, *common)
    if not tally.check(oracle is not None and oracle["failed"] == 0,
                       "in-process replay failed"):
        return {}
    rejections = _check_responses(responses, oracle, tally)
    if not args.trace:
        def normalized(rounds):
            return [{label: speed.normalize(*rtt) for label, rtt in r.items()} for r in rounds]

        return dict(pass_metrics(normalized(cold), normalized(warm)),
                    setup_s=_median(setups), peak_rss_mb=rss)

    traced, plain = oracle["traced"], oracle["plain"]
    tally.check(
        traced["rows"]["outputs"] == plain["outputs"] == oracle["outputs"]
        and traced["rows"]["failed"] == plain["failed"] == 0,
        "tracing changed a response",
    )
    metrics = _traced_metrics(args.workload, [traced], tally)
    handle_p50 = _median(plain["handle_ms"])
    rtts = [rtt for r in warm for _, rtt in r.values()]
    rtt_p50_ms = _median(rtts) * 1e3
    metrics.update({
        "api.handle_ms_p50": handle_p50,
        "service.rtt_p50_ms": rtt_p50_ms,
        "service.rtt_p99_ms": statistics.quantiles(rtts, n=100)[98] * 1e3,
        "service.req_per_s": len(rtts) / loop_s,
        "service.overhead_ms": rtt_p50_ms - handle_p50,
        "service.rejections": rejections,
        "trace.overhead_ratio": _overhead(speed, [(traced["start"], traced["wall_s"])],
                                          [(plain["start"], plain["wall_s"])]),
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point


RUNNERS = {"sim_kernels": sim_kernels, "figures_cold": figures_cold,
           "serve_compile": serve_compile}
ENGINES = {"sim_kernels": "batch", "serve_compile": "none (no simulation)"}


def provenance(args, workload):
    from repro.bench.perf import git_describe

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git": git_describe(cwd=ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload,
        "engine": getattr(args, "engine", None) or ENGINES.get(workload, "unknown"),
        "host_speed_factor": args.host_speed_factor,
    }


def run_workload(workload, args):
    """Run one workload; returns ``(result dict, provenance, failure notes)``."""
    tally = Tally()
    args.engine = None
    with Pass("speed") as p, HostSpeed(p.path("samples.txt")) as speed:
        metrics = RUNNERS[workload](args, tally, speed)
        args.host_speed_factor = speed.mean_factor()
    table = layers.PER_LAYER if args.trace else layers.END_TO_END
    full = {}
    for row in table:
        name, unit = row[0], row[1]
        full[name] = {"value": float(metrics.get(name, 0.0)), "unit": unit}
    result = {
        "correct": tally.correct and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": full,
    }
    return result, provenance(args, workload), tally.notes


def report(workload, result, prov, notes):
    """The human-readable lines printed before the JSON result."""
    print("== %s ==" % workload)
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    for name, metric in result["metrics"].items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print("  %-32s %14.6g ratio (%d failed of %d attempted)"
          % ("error_rate", rate, result["failed"], result["attempted"]))
    for note in notes:
        print("  failure: %s" % note)
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-size inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no repro sources at %s; run from a full checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    if args.workload == "all":
        return run_all(args)
    result, prov, notes = run_workload(args.workload, args)
    report(args.workload, result, prov, notes)
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    with open(os.path.join(WORK, "out", "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, provenance=prov, notes=notes), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process (peak RSS is per process tree);
    the final line folds the three results under ``workload.metric``."""
    argv = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--tiny"] if args.tiny else []
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               workload] + argv, stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.decode("utf-8").splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                       "failed": 1, "metrics": {}}
        final["correct"] = final["correct"] and result["correct"] and proc.returncode == 0
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            final["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
