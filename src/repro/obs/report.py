"""Unified experiment reporting (``repro report``).

The repo's evaluation artifacts are rich but scattered: RunRecord JSONL
streams (:mod:`repro.obs.record`), committed perf baselines with their
measurement history (``BENCH_*.json``, :mod:`repro.bench.perf`), lint
diagnostics (``repro lint --json``), timeline summaries
(:mod:`repro.obs.timeline`), and live daemon telemetry
(:mod:`repro.service.telemetry`). This module walks a results directory,
classifies every file by its wire schema, aggregates the lot into one
typed :class:`ExperimentReport`, and renders it as markdown or a
single-file HTML page (stdlib only, no plotting dependency — sparklines
are unicode blocks).

The report answers the GARDENIA-style questions every perf PR should
self-document: per-kernel speedup tables across variants, Fig. 10-style
stall breakdowns, cache effectiveness, lint status, the simulator's
perf trajectory across committed baseline history, and — when a daemon
stats/telemetry snapshot is present — the served traffic's latency
distributions, so an offline experiment and a served session read
identically.

Classification is by schema tag, never by filename: anything the repo's
other subsystems emit is recognized wherever it lands, and unknown files
are listed as skipped rather than guessed at.
"""

import html as _html
import json
import os
from dataclasses import dataclass, field

from .record import RECORD_SCHEMA, merge_records, read_jsonl

#: Schema identity of a rendered report's structured summary.
REPORT_SCHEMA = "repro.obs/experiment-report"
REPORT_VERSION = 1

#: Wire schema tags this module consumes. Spelled out here (rather than
#: imported) because the report is a *consumer* of wire objects: it must
#: recognize files written by any version of the producers without
#: importing their modules.
PERF_BASELINE_SCHEMA = "repro.bench/perf-baseline"
PERF_RECORD_SCHEMA = "repro.bench/perf-record"
TELEMETRY_SCHEMA = "repro.service/telemetry"
LINT_REPORT_SCHEMA = "repro.diag/lint-report"

#: The Fig. 10 cycle buckets, in presentation order. ``branch``/``barrier``
#: are the informational decomposition of ``other`` and stay out of totals.
BREAKDOWN_BUCKETS = ("issue", "backend", "queue", "other")

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def spark(values):
    """Unicode sparkline of a numeric series (empty series → empty string)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[3] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int((v - lo) * scale + 0.5)] for v in values)


@dataclass
class ExperimentReport:
    """Everything one results directory said, in one typed value."""

    title: str = "experiment report"
    #: ``[{"file", "kind", "items"}]`` — every file consumed (or skipped).
    sources: list = field(default_factory=list)
    #: Deduplicated RunRecords across every JSONL stream.
    runs: list = field(default_factory=list)
    #: Latest perf baseline payloads (one per ``BENCH_*.json`` consumed).
    perf: list = field(default_factory=list)
    #: Perf history entries across all baselines, in recording order.
    trajectory: list = field(default_factory=list)
    #: Lint reports: ``[{"target", "errors", "warnings", "diagnostics"}]``.
    lint: list = field(default_factory=list)
    #: Timeline summaries (:func:`repro.obs.timeline.summarize_timeline`).
    timelines: list = field(default_factory=list)
    #: Service telemetry snapshots (:mod:`repro.service.telemetry`).
    telemetry: list = field(default_factory=list)

    # -- derived views -------------------------------------------------------

    def kernels(self):
        """Sorted set of benchmark kernels the report covers."""
        names = {r.get("bench") for r in self.runs if r.get("bench")}
        for payload in self.perf:
            names.update(r.get("bench") for r in payload.get("records", []))
        return sorted(n for n in names if n)

    def variants(self):
        """Sorted set of run variants across all RunRecords."""
        return sorted({r.get("variant") for r in self.runs if r.get("variant")})

    def speedup_table(self):
        """``{bench: {variant: {"cycles", "speedup", "ok"}}}`` from runs."""
        table = {}
        for r in self.runs:
            bench, variant = r.get("bench"), r.get("variant")
            if not bench or not variant:
                continue
            table.setdefault(bench, {})[variant] = {
                "cycles": r.get("cycles"),
                "speedup": r.get("speedup"),
                "ok": r.get("ok"),
            }
        return table

    def stall_table(self):
        """``{bench: {variant: breakdown}}`` for runs carrying breakdowns."""
        table = {}
        for r in self.runs:
            breakdown = r.get("breakdown")
            if not breakdown:
                continue
            table.setdefault(r.get("bench"), {})[r.get("variant")] = breakdown
        return table

    def cache_summary(self):
        """Per-layer hit/miss totals, one contribution per source file.

        Records within one stream share the stream's per-request cache
        delta, so summing across records would multiply-count; instead
        each source file contributes its delta once.
        """
        by_file = {}
        for r in self.runs:
            cache = r.get("cache")
            if cache:
                by_file.setdefault(r.get("_source", ""), cache)
        totals = {}
        for cache in by_file.values():
            for layer, counts in cache.items():
                row = totals.setdefault(layer, {"hits": 0, "misses": 0})
                row["hits"] += counts.get("hits", 0)
                row["misses"] += counts.get("misses", 0)
        for row in totals.values():
            total = row["hits"] + row["misses"]
            row["hit_rate"] = round(row["hits"] / total, 4) if total else 0.0
        return totals

    def lint_rollup(self):
        """Totals and per-code counts across every lint report."""
        errors = warnings = 0
        codes = {}
        for entry in self.lint:
            errors += entry.get("errors", 0)
            warnings += entry.get("warnings", 0)
            for diag in entry.get("diagnostics", []):
                code = diag.get("code")
                if code:
                    codes[code] = codes.get(code, 0) + 1
        return {
            "targets": len(self.lint),
            "errors": errors,
            "warnings": warnings,
            "codes": dict(sorted(codes.items())),
        }

    def summary(self):
        """The small schema-stamped record a ``report`` response streams."""
        return {
            "schema": REPORT_SCHEMA,
            "version": REPORT_VERSION,
            "title": self.title,
            "kernels": self.kernels(),
            "variants": self.variants(),
            "sections": {
                "runs": len(self.runs),
                "perf": len(self.perf),
                "trajectory": len(self.trajectory),
                "lint": len(self.lint),
                "timelines": len(self.timelines),
                "telemetry": len(self.telemetry),
            },
            "sources": [s["file"] for s in self.sources if s["kind"] != "skipped"],
            "lint_rollup": self.lint_rollup(),
        }


# ---------------------------------------------------------------------------
# Collection


def _classify(payload):
    """``(kind, items)`` for one parsed JSON payload, by schema tag.

    Lint reports are matched by their ``repro.diag/lint-report`` schema
    tag; the bare-list shape of pre-envelope ``repro lint --json`` output
    is still recognized so archived results directories keep aggregating.
    """
    if isinstance(payload, list):
        if payload and all(
            isinstance(entry, dict) and "diagnostics" in entry for entry in payload
        ):
            return "lint", payload
        return "skipped", None
    if not isinstance(payload, dict):
        return "skipped", None
    schema = payload.get("schema")
    if schema == LINT_REPORT_SCHEMA:
        reports = payload.get("reports")
        return ("lint", reports) if isinstance(reports, list) else ("skipped", None)
    if schema == PERF_BASELINE_SCHEMA:
        # Every reader below takes the per-engine ``engines`` map; files
        # from before multi-engine runs lack it and are skipped.
        if all("engines" in r for r in payload.get("records", [])):
            return "perf", payload
        return "skipped", None
    if schema == TELEMETRY_SCHEMA:
        return "telemetry", payload
    if isinstance(payload.get("telemetry"), dict) and "counts" in payload:
        # A saved daemon `stats` reply: the telemetry snapshot rides inside.
        return "stats", payload
    if "utilization" in payload and "wall" in payload:
        return "timeline", payload
    return "skipped", None


def _trajectory_entries(perf_payload):
    """History entries of one baseline, oldest first, synthesizing one
    per measured engine from the latest records when the payload has no
    history list (a ``bench perf --json`` dump)."""
    entries = list(perf_payload.get("history") or [])
    if not entries and perf_payload.get("records"):
        from ..bench.perf import history_entries

        entries = history_entries(
            perf_payload["records"], perf_payload.get("scale"), git="(baseline)"
        )
        for entry in entries:
            del entry["recorded"]  # the payload does not say when it ran
    return entries


def collect(results_dir, extra_files=(), title=None):
    """Walk ``results_dir`` (recursively) into one :class:`ExperimentReport`.

    ``extra_files`` are consumed in addition to the directory walk — the
    CLI passes the committed ``BENCH_pipette.json`` so the trajectory
    section works even when the baseline lives outside the results
    directory. Files are visited in sorted order, so the report is
    deterministic for a given tree.
    """
    paths = []
    if results_dir and os.path.isdir(results_dir):
        for dirpath, dirnames, filenames in os.walk(results_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".json", ".jsonl")):
                    paths.append(os.path.join(dirpath, name))
    seen = {os.path.abspath(p) for p in paths}
    for path in extra_files:
        if path and os.path.exists(path) and os.path.abspath(path) not in seen:
            paths.append(path)
            seen.add(os.path.abspath(path))

    report = ExperimentReport(
        title=title or "experiment report (%s)" % (results_dir or "no directory")
    )
    record_lists = []
    for path in paths:
        display = (
            os.path.relpath(path, results_dir)
            if results_dir and os.path.isdir(results_dir)
            and os.path.abspath(path).startswith(os.path.abspath(results_dir) + os.sep)
            else os.path.basename(path)
        )
        try:
            if path.endswith(".jsonl"):
                records = [
                    dict(r, _source=display)
                    for r in read_jsonl(path)
                    if isinstance(r, dict) and r.get("schema") == RECORD_SCHEMA
                ]
                kind, items = ("runs", len(records)) if records else ("skipped", 0)
                if records:
                    record_lists.append(records)
            else:
                with open(path) as handle:
                    payload = json.load(handle)
                kind, data = _classify(payload)
                items = 0
                if kind == "lint":
                    report.lint.extend(data)
                    items = len(data)
                elif kind == "perf":
                    report.perf.append(data)
                    report.trajectory.extend(_trajectory_entries(data))
                    items = len(data.get("records", []))
                elif kind == "telemetry":
                    report.telemetry.append(data)
                    items = len(data.get("verbs", {}))
                elif kind == "stats":
                    report.telemetry.append(data["telemetry"])
                    items = len(data["telemetry"].get("verbs", {}))
                    kind = "telemetry"
                elif kind == "timeline":
                    report.timelines.append(data)
                    items = len(data.get("utilization", {}))
        except (OSError, ValueError):
            kind, items = "skipped", 0
        report.sources.append({"file": display, "kind": kind, "items": items})

    report.runs = merge_records(*record_lists)
    return report


# ---------------------------------------------------------------------------
# Shared table shaping (both renderers walk the same rows)


def _fmt_num(value, places=2):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) >= 1000:
            return "%d" % int(value)
        return ("%%.%df" % places) % value
    return str(value)


def _speedup_rows(report):
    table = report.speedup_table()
    variants = report.variants()
    rows = []
    for bench in sorted(table):
        row = [bench]
        for variant in variants:
            cell = table[bench].get(variant)
            if cell is None:
                row.append("-")
            elif cell.get("speedup") is not None:
                row.append(
                    "%s (%sx)" % (_fmt_num(cell["cycles"], 0), _fmt_num(cell["speedup"]))
                )
            else:
                row.append(_fmt_num(cell["cycles"], 0))
        rows.append(row)
    return ["kernel"] + variants, rows


def _stall_rows(report):
    rows = []
    for bench, variants in sorted(report.stall_table().items()):
        for variant, breakdown in sorted(variants.items()):
            total = sum(breakdown.get(b, 0.0) for b in BREAKDOWN_BUCKETS)
            if total <= 0:
                continue
            rows.append(
                [bench, variant]
                + [
                    "%.1f%%" % (100.0 * breakdown.get(b, 0.0) / total)
                    for b in BREAKDOWN_BUCKETS
                ]
            )
    return ["kernel", "variant"] + ["%s" % b for b in BREAKDOWN_BUCKETS], rows


# Canonical ordering and short column labels of every engine that appears in
# recorded perf data, including the retired closure-compiled ``fastpath``
# engine whose points stay in committed baselines and histories.
_ENGINE_ORDER = ("reference", "fastpath", "batch")
_ENGINE_LABELS = {"reference": "ref", "fastpath": "fast", "batch": "batch"}


def _engine_sorted(names):
    order = {name: i for i, name in enumerate(_ENGINE_ORDER)}
    return sorted(names, key=lambda n: (order.get(n, len(_ENGINE_ORDER)), n))


def _perf_rows(payload):
    """One row per record: a wall column per engine, a speedup column per
    non-reference engine, and the last (fastest) engine's Mcyc/s."""
    records = payload.get("records", [])
    names = _engine_sorted({name for r in records for name in r["engines"]})
    header = ["bench", "cycles"]
    header += ["%s (s)" % _ENGINE_LABELS.get(n, n) for n in names]
    header += ["%s (x)" % _ENGINE_LABELS.get(n, n) for n in names if n != "reference"]
    header.append("Mcyc/s")
    rows = []
    for r in records:
        engines = r["engines"]
        row = [r.get("bench"), _fmt_num(float(r.get("cycles", 0)), 0)]
        row += [_fmt_num((engines.get(n) or {}).get("wall_s"), 3) for n in names]
        row += [
            "%sx" % _fmt_num((engines.get(n) or {}).get("speedup"))
            for n in names
            if n != "reference"
        ]
        row.append(_fmt_num((engines.get(names[-1]) or {}).get("sim_mcycles_per_s")))
        rows.append(row)
    return header, rows


def _perf_aggregate(agg):
    """``(headline, parenthetical)`` for one aggregate: the headline is the
    last (fastest) engine's speedup, the parenthetical every engine's."""
    engines = agg["engines"]
    names = _engine_sorted(engines)
    bits = []
    for name in names:
        row = engines[name]
        bit = "%s %ss" % (_ENGINE_LABELS.get(name, name), _fmt_num(row.get("wall_s"), 3))
        if name != "reference":
            bit += " %sx" % _fmt_num(row.get("speedup"))
        bits.append(bit)
    headline = _fmt_num(engines[names[-1]].get("speedup")) if names else "-"
    return headline, "; ".join(bits)


def _trajectory_rows(report):
    rows = []
    for entry in report.trajectory:
        agg = entry.get("aggregate", {})
        rows.append(
            [
                str(entry.get("git", "?")),
                str(entry.get("engine", "fastpath")),
                str(entry.get("scale", "?")),
                "%sx" % _fmt_num(agg.get("speedup")),
                _fmt_num(agg.get("fast_wall_s"), 3),
                str(entry.get("recorded", "")),
            ]
        )
    return (
        ["git", "engine", "scale", "aggregate speedup", "wall (s)", "recorded"],
        rows,
    )


def _trajectory_sparks(report):
    """``[(label, sparkline, latest)]`` series across the history.

    History points are grouped per engine: one baseline update can append a
    point per measured engine, so a flat walk would interleave fastpath and
    batch speedups in a single series. Labels carry the engine only when
    more than one appears; engines with a single point are left to the
    trajectory table.
    """
    groups = {}
    for entry in report.trajectory:
        groups.setdefault(entry.get("engine", "fastpath"), []).append(entry)
    multi = len(groups) > 1
    out = []
    for engine in _engine_sorted(groups):
        entries = groups[engine]
        if len(entries) < 2:
            continue
        suffix = " [%s]" % engine if multi else ""
        series = [
            (
                "aggregate speedup" + suffix,
                [e.get("aggregate", {}).get("speedup") or 0.0 for e in entries],
            )
        ]
        benches = sorted(
            {b for e in entries for b in (e.get("benches") or {})}
        )
        for bench in benches:
            values = [
                ((e.get("benches") or {}).get(bench) or {}).get("sim_mcycles_per_s")
                for e in entries
            ]
            if sum(1 for v in values if v is not None) >= 2:
                series.append(
                    (
                        "%s Mcyc/s%s" % (bench, suffix),
                        [v if v is not None else 0.0 for v in values],
                    )
                )
        out += [
            (label, spark(values), _fmt_num(values[-1]))
            for label, values in series
        ]
    return out


def _telemetry_rows(snapshot):
    rows = []
    for verb, row in sorted(snapshot.get("verbs", {}).items()):
        latency = row.get("latency", {})
        outcomes = row.get("outcomes", {})
        count = latency.get("count", 0)
        mean = (latency.get("sum_s", 0.0) / count) if count else 0.0
        rows.append(
            [
                verb,
                str(row.get("requests", 0)),
                str(outcomes.get("completed", 0)),
                str(outcomes.get("failed", 0)),
                str(outcomes.get("rejected", 0)),
                "%.3f" % mean,
                _fmt_num(latency.get("p50_s"), 3),
                _fmt_num(latency.get("p90_s"), 3),
                _fmt_num(latency.get("p99_s"), 3),
            ]
        )
    return (
        ["verb", "requests", "completed", "failed", "rejected",
         "mean (s)", "p50 (s)", "p90 (s)", "p99 (s)"],
        rows,
    )


def _cache_rows(cache):
    rows = []
    for layer, counts in sorted(cache.items()):
        total = counts.get("hits", 0) + counts.get("misses", 0)
        rate = counts.get("hit_rate")
        if rate is None:
            rate = counts["hits"] / total if total else 0.0
        rows.append(
            [layer, str(counts.get("hits", 0)), str(counts.get("misses", 0)),
             "%.0f%%" % (100.0 * rate)]
        )
    return ["layer", "hits", "misses", "hit rate"], rows


def _timeline_lines(summary):
    lines = ["wall %s cycles" % _fmt_num(float(summary.get("wall", 0.0)), 0)]
    utilization = summary.get("utilization", {})
    busiest = sorted(
        utilization.items(), key=lambda kv: (-kv[1].get("busy", 0.0), kv[0])
    )[:3]
    for thread, row in busiest:
        lines.append(
            "%s: %.0f%% utilized (busy %s)"
            % (thread, 100.0 * row.get("utilization", 0.0), _fmt_num(row.get("busy"), 0))
        )
    top = summary.get("top_stalls") or []
    if top:
        worst = top[0]
        lines.append(
            "worst stall: %s %s for %s cycles at %s"
            % (
                worst.get("thread"),
                worst.get("bucket"),
                _fmt_num(worst.get("cycles"), 0),
                _fmt_num(worst.get("start"), 0),
            )
        )
    return lines


# ---------------------------------------------------------------------------
# Markdown renderer


def _md_table(header, rows):
    if not rows:
        return ["(no data)"]
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def render_markdown(report):
    """The whole report as GitHub-flavored markdown."""
    out = ["# %s" % report.title, ""]
    consumed = [s for s in report.sources if s["kind"] != "skipped"]
    skipped = [s for s in report.sources if s["kind"] == "skipped"]
    out.append(
        "Aggregated from %d file(s)%s: %s"
        % (
            len(consumed),
            " (%d skipped)" % len(skipped) if skipped else "",
            ", ".join("`%s`" % s["file"] for s in consumed) or "none",
        )
    )

    if report.runs:
        out += ["", "## Per-kernel speedups", ""]
        header, rows = _speedup_rows(report)
        out += _md_table(header, rows)
        out.append("")
        out.append("Cells are `cycles (speedup vs serial)`; `-` = variant not run.")

        header, rows = _stall_rows(report)
        if rows:
            out += ["", "## Cycle breakdown (Fig. 10 buckets)", ""]
            out += _md_table(header, rows)

        cache = report.cache_summary()
        if cache:
            out += ["", "## Cache effectiveness", ""]
            header, rows = _cache_rows(cache)
            out += _md_table(header, rows)

    if report.lint:
        rollup = report.lint_rollup()
        out += ["", "## Lint status", ""]
        out.append(
            "%d target(s): **%d error(s), %d warning(s)**%s"
            % (
                rollup["targets"],
                rollup["errors"],
                rollup["warnings"],
                ""
                if not rollup["codes"]
                else " — "
                + ", ".join("%s ×%d" % (c, n) for c, n in rollup["codes"].items()),
            )
        )

    for payload in report.perf:
        out += ["", "## Simulator performance (%s scale)" % payload.get("scale"), ""]
        header, rows = _perf_rows(payload)
        out += _md_table(header, rows)
        out.append("")
        out.append("Aggregate: **%sx** (%s)." % _perf_aggregate(payload["aggregate"]))

    sparks = _trajectory_sparks(report)
    if sparks:
        out += ["", "## Perf trajectory (%d points)" % len(report.trajectory), ""]
        for label, line, latest in sparks:
            out.append("- `%s` %s (latest %s)" % (line, label, latest))
        out.append("")
        header, rows = _trajectory_rows(report)
        out += _md_table(header, rows)

    for summary in report.timelines:
        out += ["", "## Timeline", ""]
        out += ["- %s" % line for line in _timeline_lines(summary)]

    for snapshot in report.telemetry:
        out += [
            "",
            "## Service telemetry (uptime %ss, peak %d in flight)"
            % (_fmt_num(snapshot.get("uptime_s")), snapshot.get("in_flight_peak", 0)),
            "",
        ]
        header, rows = _telemetry_rows(snapshot)
        out += _md_table(header, rows)
        if snapshot.get("rejections"):
            out.append("")
            out.append(
                "Rejections: "
                + ", ".join(
                    "%s ×%d" % (code, n)
                    for code, n in sorted(snapshot["rejections"].items())
                )
            )
        if snapshot.get("cache"):
            out += ["", "### Served cache effectiveness", ""]
            header, rows = _cache_rows(snapshot["cache"])
            out += _md_table(header, rows)

    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# HTML renderer (single file, stdlib only)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { color: #4a4e69; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #c9cbd8; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f2f2f7; }
.spark { font-family: monospace; font-size: 1.1rem; color: #3a6ea5; }
.meta { color: #666; font-size: .9rem; }
.ok { color: #2a7f3f; } .bad { color: #b3261e; }
""".strip()


def _html_table(header, rows):
    if not rows:
        return "<p class=\"meta\">(no data)</p>"
    head = "".join("<th>%s</th>" % _html.escape(str(h)) for h in header)
    body = "".join(
        "<tr>%s</tr>"
        % "".join("<td>%s</td>" % _html.escape(str(cell)) for cell in row)
        for row in rows
    )
    return "<table><thead><tr>%s</tr></thead><tbody>%s</tbody></table>" % (head, body)


def render_html(report):
    """The whole report as one self-contained HTML page."""
    esc = _html.escape
    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        "<title>%s</title>" % esc(report.title),
        "<style>%s</style>" % _CSS,
        "</head><body>",
        "<h1>%s</h1>" % esc(report.title),
    ]
    consumed = [s for s in report.sources if s["kind"] != "skipped"]
    parts.append(
        "<p class=\"meta\">Aggregated from %d file(s): %s</p>"
        % (len(consumed), esc(", ".join(s["file"] for s in consumed) or "none"))
    )

    if report.runs:
        parts.append("<h2>Per-kernel speedups</h2>")
        parts.append(_html_table(*_speedup_rows(report)))
        parts.append(
            "<p class=\"meta\">Cells are cycles (speedup vs serial).</p>"
        )
        header, rows = _stall_rows(report)
        if rows:
            parts.append("<h2>Cycle breakdown (Fig. 10 buckets)</h2>")
            parts.append(_html_table(header, rows))
        cache = report.cache_summary()
        if cache:
            parts.append("<h2>Cache effectiveness</h2>")
            parts.append(_html_table(*_cache_rows(cache)))

    if report.lint:
        rollup = report.lint_rollup()
        status = (
            "<span class=\"ok\">clean</span>"
            if not rollup["errors"] and not rollup["warnings"]
            else "<span class=\"bad\">%d error(s), %d warning(s)</span>"
            % (rollup["errors"], rollup["warnings"])
        )
        parts.append("<h2>Lint status</h2>")
        parts.append(
            "<p>%d target(s): %s</p>" % (rollup["targets"], status)
        )

    for payload in report.perf:
        parts.append(
            "<h2>Simulator performance (%s scale)</h2>" % esc(str(payload.get("scale")))
        )
        parts.append(_html_table(*_perf_rows(payload)))
        headline, text = _perf_aggregate(payload["aggregate"])
        parts.append(
            "<p>Aggregate <strong>%sx</strong> (%s).</p>" % (esc(headline), esc(text))
        )

    sparks = _trajectory_sparks(report)
    if sparks:
        parts.append("<h2>Perf trajectory (%d points)</h2>" % len(report.trajectory))
        parts.append("<ul>")
        for label, line, latest in sparks:
            parts.append(
                "<li><span class=\"spark\">%s</span> %s (latest %s)</li>"
                % (esc(line), esc(label), esc(latest))
            )
        parts.append("</ul>")
        parts.append(_html_table(*_trajectory_rows(report)))

    for summary in report.timelines:
        parts.append("<h2>Timeline</h2><ul>")
        parts += ["<li>%s</li>" % esc(line) for line in _timeline_lines(summary)]
        parts.append("</ul>")

    for snapshot in report.telemetry:
        parts.append(
            "<h2>Service telemetry (uptime %ss, peak %d in flight)</h2>"
            % (esc(_fmt_num(snapshot.get("uptime_s"))), snapshot.get("in_flight_peak", 0))
        )
        parts.append(_html_table(*_telemetry_rows(snapshot)))
        if snapshot.get("cache"):
            parts.append("<h3>Served cache effectiveness</h3>")
            parts.append(_html_table(*_cache_rows(snapshot["cache"])))

    parts.append("</body></html>")
    return "\n".join(parts)
