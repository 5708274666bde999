"""Simulator perf-regression harness (``repro bench perf``).

Times the *simulator itself* — not the simulated programs — by running the
shipped kernels (the five paper kernels plus the GARDENIA suite) under the
selected execution engines (``--engine``): the reference interpreter (the
bit-exactness oracle and speedup denominator) and the batch-advance
whole-stage compiler (:mod:`repro.pipette.batchpath`). Each
run produces a versioned perf record (per-engine wall times, speedups and
simulated cycles per second, plus the input and compile phases) and the set
rolls up to one aggregate speedup per engine,
``sum(reference walls) / sum(engine walls)``.

Records are compared against a committed baseline (``BENCH_pipette.json``
at the repo root):

* **cycles must match the baseline exactly** — a mismatch means the
  simulator's behaviour changed (or went nondeterministic), which is an
  error, never a warning;
* **wall time is hardware-dependent**, so regressions beyond the threshold
  only warn by default (CI boxes are noisy neighbours).

Methodology notes, so the numbers mean the same thing everywhere: inputs
are built from fixed seeds; every run gets a fresh copy of the input
arrays; the GC is collected and disabled around each timed window; each
engine runs ``repeats`` times and the minimum wall time is kept (the
minimum estimates the noise-free cost; means smear scheduler jitter into
the record). Within one invocation every repeat must report identical
cycles — any spread is a determinism bug and fails the run.
"""

import gc
import json
import os
import subprocess
import time

from ..cache import cached_compile
from ..core.compiler import CompileOptions
from .harness import adapter_for

#: Schema identity stamped on every perf record / baseline file.
PERF_SCHEMA = "repro.bench/perf-record"
BASELINE_SCHEMA = "repro.bench/perf-baseline"
PERF_VERSION = 2

#: Default committed baseline, resolved against the working directory.
BASELINE_FILE = "BENCH_pipette.json"

#: History entries kept in a baseline file (oldest dropped beyond this).
HISTORY_LIMIT = 50

#: Fractional wall-time tolerance before a regression warning.
DEFAULT_THRESHOLD = 0.25

#: QUICK-scale inputs: small enough that the whole suite (both engines,
#: several repeats) stays in CI-smoke territory, large enough that each
#: kernel simulates for seconds — at tiny sizes the fixed setup cost
#: (machine build, closure compilation) dilutes the engine ratio.
QUICK_INPUTS = {
    "bfs": ("power_law", {"n": 6000, "deg": 8, "seed": 7}),
    "cc": ("power_law", {"n": 4000, "deg": 8, "seed": 7}),
    "prd": ("power_law", {"n": 2000, "deg": 4, "seed": 7}),
    "radii": ("power_law", {"n": 4000, "deg": 8, "seed": 7}),
    "spmm": ("random_matrix", {"n": 128, "nnz_per_row": 6, "seed": 7}),
    # GARDENIA suite.  tc/bc make_env canonicalizes (symmetrizes) the
    # graph internally; sssp takes deterministic integer weights.
    "sssp": ("power_law_weighted", {"n": 2500, "deg": 6, "seed": 7, "wseed": 1}),
    "pr": ("power_law", {"n": 1000, "deg": 6, "seed": 7}),
    "tc": ("power_law", {"n": 1200, "deg": 5, "seed": 7}),
    "bc": ("power_law", {"n": 2000, "deg": 6, "seed": 7}),
    "spmv": ("random_matrix", {"n": 4000, "nnz_per_row": 8, "seed": 7}),
}

#: FULL-scale inputs for local, patient measurement runs.
FULL_INPUTS = {
    "bfs": ("power_law", {"n": 20000, "deg": 8, "seed": 7}),
    "cc": ("power_law", {"n": 12000, "deg": 8, "seed": 7}),
    "prd": ("power_law", {"n": 6000, "deg": 4, "seed": 7}),
    "radii": ("power_law", {"n": 12000, "deg": 8, "seed": 7}),
    "spmm": ("random_matrix", {"n": 256, "nnz_per_row": 6, "seed": 7}),
    "sssp": ("power_law_weighted", {"n": 8000, "deg": 6, "seed": 7, "wseed": 1}),
    "pr": ("power_law", {"n": 5000, "deg": 6, "seed": 7}),
    "tc": ("power_law", {"n": 4000, "deg": 5, "seed": 7}),
    "bc": ("power_law", {"n": 6000, "deg": 6, "seed": 7}),
    "spmv": ("random_matrix", {"n": 8000, "nnz_per_row": 8, "seed": 7}),
}

SCALES = {"quick": QUICK_INPUTS, "full": FULL_INPUTS}


class PerfError(Exception):
    """A conformance/determinism failure while measuring (never a slowdown)."""


def build_input(spec):
    """Materialize one ``(kind, params)`` input spec deterministically."""
    kind, params = spec
    if kind == "power_law":
        from ..workloads import graphs

        return graphs.power_law(params["n"], params["deg"], seed=params["seed"])
    if kind == "power_law_weighted":
        from ..workloads import graphs

        return graphs.with_weights(
            graphs.power_law(params["n"], params["deg"], seed=params["seed"]),
            seed=params["wseed"],
        )
    if kind == "random_matrix":
        from ..workloads import matrices

        return matrices.random_matrix(
            params["n"], params["nnz_per_row"], seed=params["seed"]
        )
    raise PerfError("unknown input kind %r" % (kind,))


def input_label(spec):
    kind, params = spec
    inner = ",".join("%s=%s" % (k, params[k]) for k in sorted(params))
    return "%s(%s)" % (kind, inner)


#: Canonical order of every engine that appears in recorded perf data. The
#: retired closure-compiled ``fastpath`` engine is still here because its
#: points stay in committed baselines.
_RECORDED_ENGINES = ("reference", "fastpath", "batch")


def normalize_engines(spec=None):
    """Canonicalize an engine selection into an ordered tuple.

    Accepts ``None`` or ``"all"`` (every engine), a single engine name, or
    an iterable of names. The reference interpreter is always included —
    it is the bit-exactness oracle and the denominator of every speedup —
    and the result follows the canonical
    :data:`~repro.pipette.fastpath.ENGINES` order.
    """
    from ..pipette.fastpath import ENGINES

    if spec is None or spec == "all":
        names = list(ENGINES)
    elif isinstance(spec, str):
        names = [spec]
    else:
        names = list(spec)
    for name in names:
        if name not in ENGINES:
            raise PerfError(
                "unknown engine %r (choose from %s or 'all')"
                % (name, ", ".join(ENGINES))
            )
    ordered = [e for e in ENGINES if e in names or e == "reference"]
    return tuple(ordered)


def _timed_run(pipeline, arrays, scalars, engine):
    """One timed simulation: fresh input copy, GC quiesced, wall + result."""
    from ..runtime.executor import run_pipeline

    fresh = {name: list(values) for name, values in arrays.items()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_pipeline(pipeline, fresh, dict(scalars), engine=engine)
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return result, wall


def measure_bench(bench, scale="quick", repeats=2, engines=None):
    """Measure one kernel under ``engines``; returns a perf record dict.

    Every engine's :meth:`~repro.pipette.stats.SimStats.summary` must match
    the reference interpreter bit-for-bit and every repeat of one engine
    must report identical cycles; either failure raises :class:`PerfError`.

    The record carries a per-engine ``engines`` map: wall, speedup vs
    reference, and Mcycles/s.
    """
    engines = normalize_engines(engines)
    spec = SCALES[scale][bench]
    phase_start = time.perf_counter()
    data = build_input(spec)
    input_s = time.perf_counter() - phase_start

    adapter = adapter_for(bench)
    arrays, scalars = adapter.env(data)
    phase_start = time.perf_counter()
    pipeline = cached_compile(adapter.function(), CompileOptions())
    compile_s = time.perf_counter() - phase_start

    walls = {name: [] for name in engines}
    results = {name: None for name in engines}
    for _ in range(max(1, repeats)):
        # Alternate engines within each repeat so slow drift (thermal,
        # neighbours) hits every side of the ratios evenly.
        for name in engines:
            result, wall = _timed_run(pipeline, arrays, scalars, name)
            walls[name].append(wall)
            previous = results[name]
            if previous is not None and previous.cycles != result.cycles:
                raise PerfError(
                    "%s: %s engine is nondeterministic (cycles %r then %r)"
                    % (bench, name, previous.cycles, result.cycles)
                )
            results[name] = result

    oracle = results["reference"]
    for name in engines:
        result = results[name]
        if result.stats.summary() != oracle.stats.summary() or result.cycles != oracle.cycles:
            raise PerfError(
                "%s: %s engine diverged from the reference interpreter "
                "(run both under tests/pipette/test_fastpath_conformance.py "
                "to localize)" % (bench, name)
            )

    # Rounded before deriving ratios, so the record is internally
    # consistent: recomputing speedup from the stored walls reproduces the
    # stored speedup.
    cycles = oracle.cycles
    slow_wall = round(min(walls["reference"]), 4)
    per_engine = {}
    for name in engines:
        wall = round(min(walls[name]), 4)
        per_engine[name] = {
            "wall_s": wall,
            "speedup": round(slow_wall / wall, 3) if wall else 0.0,
            "sim_mcycles_per_s": round(cycles / wall / 1e6, 3) if wall else 0.0,
        }
    return {
        "schema": PERF_SCHEMA,
        "version": PERF_VERSION,
        "bench": bench,
        "scale": scale,
        "input": input_label(spec),
        "repeats": max(1, repeats),
        "cycles": cycles,
        "engines": per_engine,
        "phases": {
            "input_s": round(input_s, 4),
            "compile_s": round(compile_s, 4),
        },
    }


def record_engines(records):
    """Engine names measured in *every* record, in canonical order."""
    common = None
    for r in records:
        names = set(r["engines"])
        common = names if common is None else common & names
    return [e for e in _RECORDED_ENGINES if e in (common or ())]


def aggregate(records):
    """Roll records up to the headline ratios: ``{"engines": {name:
    {"wall_s", "speedup"}}}``, each speedup being the total reference wall
    over that engine's total wall."""
    per_engine = {}
    slow = sum(r["engines"]["reference"]["wall_s"] for r in records)
    for name in record_engines(records):
        wall = sum(r["engines"][name]["wall_s"] for r in records)
        per_engine[name] = {
            "wall_s": round(wall, 4),
            "speedup": round(slow / wall, 3) if wall else 0.0,
        }
    return {"engines": per_engine}


def run_perf(benches=None, scale="quick", repeats=2, jobs=1, engines=None):
    """Measure ``benches`` (default: all five); returns the record list.

    ``jobs > 1`` fans kernels out over the :mod:`repro.bench.parallel`
    worker pool. Cycles are unaffected (that is what the determinism tests
    pin down); wall times measured under contention are only comparable to
    other contended runs, so baselines should be recorded with ``jobs=1``.
    """
    engines = normalize_engines(engines)
    if benches is None:
        benches = sorted(SCALES[scale])
    if jobs > 1:
        from .parallel import Job, run_jobs

        job_list = [
            Job(("perf", scale, bench), measure_bench, bench, scale, repeats, engines)
            for bench in benches
        ]
        return [res.value for res in run_jobs(job_list, workers=jobs)]
    return [measure_bench(bench, scale, repeats, engines) for bench in benches]


def baseline_payload(records, scale):
    return {
        "schema": BASELINE_SCHEMA,
        "version": PERF_VERSION,
        "scale": scale,
        "records": records,
        "aggregate": aggregate(records),
    }


def _git_token(argv, cwd=None):
    """Run one git query; returns its stdout iff it looks like a clean
    single-token identity (no whitespace inside, no ``fatal:``/``error:``
    text that some git builds emit on stdout), else None."""
    try:
        out = subprocess.run(
            argv, capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    text = out.stdout.strip()
    if not text or len(text) > 128 or len(text.split()) != 1:
        return None
    if text.startswith("fatal") or text.startswith("error"):
        return None
    return text


def git_describe(cwd=None):
    """The working tree's git identity, or ``"unknown"``.

    Keys history entries: two updates from the same commit replace each
    other instead of piling up. ``git describe`` fails in more environments
    than it succeeds — shallow CI clones without tags, exported tarballs,
    detached worktrees — so its output is validated as a single clean token
    and the query falls back to the bare short hash before giving up;
    history keys must never embed a multi-line git error message.
    """
    token = _git_token(
        ["git", "describe", "--always", "--dirty", "--tags"], cwd=cwd
    )
    if token is None:
        token = _git_token(["git", "rev-parse", "--short", "HEAD"], cwd=cwd)
    return token if token is not None else "unknown"


def history_entry(records, scale, git=None, engine=None):
    """One compact trajectory point for the baseline history.

    The point tracks ``engine``'s walls (``fast_wall_s``) against the
    reference's (``slow_wall_s``); ``engine`` defaults to the last engine,
    in canonical order, that every record measured.
    """
    if engine is None:
        engine = record_engines(records)[-1]
    agg = aggregate(records)["engines"]
    benches = {}
    for r in records:
        per = r["engines"][engine]
        benches[r["bench"]] = {
            "cycles": r["cycles"],
            "fast_wall_s": per["wall_s"],
            "slow_wall_s": r["engines"]["reference"]["wall_s"],
            "speedup": per["speedup"],
            "sim_mcycles_per_s": per["sim_mcycles_per_s"],
        }
    return {
        "git": git_describe() if git is None else git,
        "engine": engine,
        "scale": scale,
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "aggregate": {
            "slow_wall_s": agg["reference"]["wall_s"],
            "fast_wall_s": agg[engine]["wall_s"],
            "speedup": agg[engine]["speedup"],
        },
        "benches": benches,
    }


def history_entries(records, scale, git=None):
    """One :func:`history_entry` per measured non-reference engine (the
    reference's own when it ran alone)."""
    engines = record_engines(records)
    tracked = [e for e in engines if e != "reference"] or engines
    return [history_entry(records, scale, git=git, engine=e) for e in tracked]


def append_history(history, entry, limit=HISTORY_LIMIT):
    """``history`` plus ``entry``, replacing any same-key prior point.

    The key is ``(engine, git, scale)`` — re-recording from the same
    commit updates that point in place (walls drift with the machine),
    while a new commit appends a new trajectory point.
    """
    key = (entry.get("engine"), entry.get("git"), entry.get("scale"))
    kept = [
        e
        for e in history
        if (e.get("engine"), e.get("git"), e.get("scale")) != key
    ]
    kept.append(entry)
    return kept[-limit:]


def write_baseline(records, scale, path=BASELINE_FILE, git=None):
    """Write the regression baseline, growing its measurement history.

    The top-level ``records``/``aggregate`` are always the *latest*
    measurement (the regression baseline the checker reads); ``history``
    accumulates one compact entry per ``(engine, git, scale)`` so the
    report's trajectory sparklines have real data. A pre-history baseline
    file contributes its records as one synthesized point before being
    superseded.
    """
    history = []
    if os.path.exists(path):
        try:
            previous = read_baseline(path)
        except (PerfError, ValueError, OSError):
            previous = None
        if previous is not None:
            history = list(previous.get("history") or [])
            if not history and previous.get("records"):
                history = [
                    history_entry(
                        previous["records"], previous.get("scale"), git="(pre-history)"
                    )
                ]
    payload = baseline_payload(records, scale)
    git_key = git_describe() if git is None else git
    # One trajectory point per measured engine: the baseline grows a
    # multi-engine history the report can chart side by side.
    for entry in history_entries(records, scale, git=git_key):
        history = append_history(history, entry)
    payload["history"] = history
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def read_baseline(path=BASELINE_FILE):
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise PerfError("%s: not a %s file" % (path, BASELINE_SCHEMA))
    if not all("engines" in r for r in payload.get("records", [])):
        raise PerfError(
            "%s: records lack the per-engine engines map; re-record it with "
            "--update-baseline" % path
        )
    return payload


def check_against_baseline(records, baseline, threshold=DEFAULT_THRESHOLD):
    """Compare fresh records to a baseline; returns ``(errors, warnings)``.

    Errors are behaviour changes (cycle counts differ from the committed
    baseline — the simulator no longer computes the same timing, or has
    gone nondeterministic). Warnings are wall-time movements beyond
    ``threshold``, which may just be the machine.
    """
    errors, warnings = [], []
    by_bench = {r["bench"]: r for r in baseline.get("records", [])}
    for record in records:
        base = by_bench.get(record["bench"])
        if base is None:
            warnings.append("%s: no baseline record" % record["bench"])
            continue
        if base.get("scale") != record["scale"] or base.get("input") != record["input"]:
            warnings.append(
                "%s: baseline measured %s at scale %s, current is %s at %s; "
                "skipping comparison"
                % (
                    record["bench"],
                    base.get("input"),
                    base.get("scale"),
                    record["input"],
                    record["scale"],
                )
            )
            continue
        if base["cycles"] != record["cycles"]:
            errors.append(
                "%s: simulated cycles changed from baseline (%r -> %r); "
                "timing behaviour moved — if intentional, re-record with "
                "--update-baseline"
                % (record["bench"], base["cycles"], record["cycles"])
            )
        # Compare each engine the baseline also measured, by name.
        for name, rec_side in record["engines"].items():
            base_side = base["engines"].get(name)
            if base_side is None:
                continue
            label = "%s (%s)" % (record["bench"], name)
            if rec_side["wall_s"] > base_side["wall_s"] * (1.0 + threshold):
                warnings.append(
                    "%s: engine wall %.3fs exceeds baseline %.3fs by more "
                    "than %d%%"
                    % (
                        label,
                        rec_side["wall_s"],
                        base_side["wall_s"],
                        round(threshold * 100),
                    )
                )
            if rec_side["speedup"] < base_side["speedup"] * (1.0 - threshold):
                warnings.append(
                    "%s: speedup %.2fx fell more than %d%% below baseline %.2fx"
                    % (
                        label,
                        rec_side["speedup"],
                        round(threshold * 100),
                        base_side["speedup"],
                    )
                )
    return errors, warnings


#: Column labels for the perf table, per engine.
_TABLE_LABELS = {"reference": "ref", "fastpath": "fast", "batch": "batch"}


def render_table(records, agg):
    """Human-readable summary table (stdout payload of ``bench perf``).

    Columns adapt to the engine set: one wall column per engine plus one
    speedup-vs-reference column per non-reference engine. ``Mcyc/s`` is
    the last (fastest) engine's.
    """
    engines = record_engines(records)
    ratio_engines = [e for e in engines if e != "reference"]
    lines = []
    header = "%-7s %-6s %12s" % ("bench", "scale", "cycles")
    header += "".join(
        " %9s" % ("%s(s)" % _TABLE_LABELS.get(e, e[:5])) for e in engines
    )
    header += "".join(
        " %8s" % ("%s(x)" % _TABLE_LABELS.get(e, e[:5])) for e in ratio_engines
    )
    header += " %10s" % "Mcyc/s"
    lines.append(header)
    lines.append("-" * len(header))

    for r in records:
        per = r["engines"]
        row = "%-7s %-6s %12.0f" % (r["bench"], r["scale"], r["cycles"])
        row += "".join(" %9.3f" % per[e]["wall_s"] for e in engines)
        row += "".join(" %7.2fx" % per[e]["speedup"] for e in ratio_engines)
        row += " %10.2f" % per[engines[-1]]["sim_mcycles_per_s"]
        lines.append(row)
    lines.append("-" * len(header))
    per = agg["engines"]
    total = "%-7s %-6s %12s" % ("total", "", "")
    total += "".join(" %9.3f" % per[e]["wall_s"] for e in engines)
    total += "".join(" %7.2fx" % per[e]["speedup"] for e in ratio_engines)
    lines.append(total)
    return "\n".join(lines)


def obs_records(records):
    """Perf results as :mod:`repro.obs.record` RunRecords (one per engine)."""
    from ..obs.record import run_record

    out = []
    for r in records:
        per = r["engines"]
        for name in record_engines([r]):
            out.append(
                run_record(
                    r["bench"],
                    "engine-%s" % name,
                    r["input"],
                    r["cycles"],
                    ok=True,
                    extra={
                        "wall_s": per[name]["wall_s"],
                        "perf_scale": r["scale"],
                        "perf_speedup": per[name]["speedup"],
                    },
                )
            )
    return out


def run_cli(args):
    """``repro bench perf`` driver; returns ``(status, records)``.

    ``args`` is a :class:`repro.api.BenchPerfRequest`.
    """
    from ..obs import log

    scale = args.scale
    benches = list(args.benches) or None
    engines = args.engine or None
    started = time.perf_counter()
    try:
        records = run_perf(
            benches=benches,
            scale=scale,
            repeats=args.repeats,
            jobs=args.jobs or 1,
            engines=engines,
        )
    except PerfError as exc:
        print("perf: ERROR: %s" % exc)
        return 1, []
    agg = aggregate(records)

    if args.json:
        print(json.dumps(baseline_payload(records, scale), indent=2, sort_keys=True))
    else:
        print(render_table(records, agg))

    if args.metrics_out:
        from ..obs.record import write_jsonl

        out = obs_records(records)
        write_jsonl(out, args.metrics_out)
        log("perf: %d RunRecords -> %s", len(out), args.metrics_out)

    status = 0
    if args.update_baseline:
        payload = write_baseline(records, scale, path=args.baseline)
        # Advisory chatter goes through the obs.log funnel (stderr,
        # silenced by --quiet/REPRO_QUIET) — the table/JSON above is the
        # stdout payload; errors below stay on stdout because they *are*
        # the result of a failed check.
        log(
            "perf: baseline updated -> %s (%d history points)",
            args.baseline,
            len(payload.get("history", [])),
        )
    elif args.check_baseline:
        if not os.path.exists(args.baseline):
            print("perf: ERROR: baseline %s not found" % args.baseline)
            return 1, records
        try:
            baseline = read_baseline(args.baseline)
        except (PerfError, ValueError) as exc:
            print("perf: ERROR: %s" % exc)
            return 1, records
        errors, warnings = check_against_baseline(
            records, baseline, threshold=args.threshold
        )
        strict = args.strict
        for line in warnings:
            # Warnings are telemetry unless --strict promotes them to the
            # failure payload.
            if strict:
                print("perf: WARNING: %s" % line)
            else:
                log("perf: WARNING: %s", line)
        for line in errors:
            print("perf: ERROR: %s" % line)
        if errors:
            status = 1
        elif strict and warnings:
            status = 1
        else:
            name = record_engines(records)[-1]
            base_agg = baseline["aggregate"]["engines"].get(name)
            log(
                "perf: baseline check ok (%d records, %s aggregate %.2fx vs "
                "baseline %s)",
                len(records), name, agg["engines"][name]["speedup"],
                "%.2fx" % base_agg["speedup"] if base_agg else "n/a",
            )
    log("perf: %.1fs total", time.perf_counter() - started)
    return status, records
