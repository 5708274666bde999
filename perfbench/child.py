"""Work that runs inside a fresh child process of the benchmark.

``python3 perfbench/child.py MODE --out FILE ...`` with MODE one of:

* ``sim``    -- ``sim_kernels``: set up (imports, inputs, compiles), then
  simulate all ten kernels on the batch engine, pass after pass; with
  ``--trace 1`` one more pass runs under the timing wrappers.
* ``replay`` -- ``serve_compile`` in-process: the request mix through
  ``repro.api.handle``; with ``--trace 1`` once more under the wrappers.
* ``cli``    -- one ``repro`` CLI invocation under the timing wrappers.
* ``probe``  -- import the CLI entry point and report the default engine.

The parent puts ``src/`` on ``PYTHONPATH`` and scrubs the environment; the
child writes one JSON document to ``--out`` (its stdout belongs to the
program under test).
"""

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import inputs  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# sim_kernels


def _setup_kernels(seed, tiny):
    """Build every kernel's input and compile its Phloem-static pipeline."""
    from repro.bench.harness import adapter_for
    from repro.bench.perf import build_input
    from repro.core.compiler import CompileOptions, compile_function

    kernels = []
    for bench, spec in inputs.sim_specs(seed, tiny).items():
        adapter = adapter_for(bench)
        data = build_input(spec)
        arrays, scalars = adapter.env(data)
        pipeline = compile_function(adapter.function(), options=CompileOptions())
        kernels.append((bench, adapter, data, arrays, scalars, pipeline))
    return kernels


def _simulate(kernels, recorder=None):
    """One pass over the kernels: ``[(bench, wall_s, cycles, ok, start)]``."""
    from repro.runtime.executor import run_pipeline

    rows = []
    for bench, adapter, data, arrays, scalars, pipeline in kernels:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            if recorder is not None:
                recorder.push("kernel." + bench)
            try:
                result = run_pipeline(pipeline, arrays, dict(scalars), engine="batch")
            finally:
                if recorder is not None:
                    recorder.pop()
            wall = time.perf_counter() - start
        finally:
            gc.enable()
        rows.append((bench, wall, result.cycles, bool(adapter.check(result.arrays, data)), start))
    return rows


def run_sim(args):
    kernels = _setup_kernels(args.seed, args.tiny)
    out = {"setup_s": time.time() - args.t0, "ready_at": time.perf_counter(), "passes": []}
    if not args.setup_only:
        start = time.perf_counter()
        while True:
            out["passes"].append(_simulate(kernels))
            if len(out["passes"]) >= 2 and time.perf_counter() - start >= args.seconds:
                break
        if args.trace:
            # The traced pass repeats the set-up too, so that the input
            # builders and compiler passes show in the layer split.
            out["traced"] = _traced(
                lambda rec: _simulate(_setup_kernels(args.seed, args.tiny), rec), args.run_id
            )
    _write(args.out, out)


def _traced(body, run_id):
    """Run ``body(recorder)`` under the wrappers inside one root span."""
    import hooks

    recorder = SpanRecorder(run_id)
    counters = hooks.install(recorder)
    gc.collect()
    start = time.perf_counter()
    recorder.push("pass")
    try:
        rows = body(recorder)
    finally:
        recorder.pop()
    wall = time.perf_counter() - start
    return {"start": start, "wall_s": wall, "rows": rows, "counters": counters,
            "recorder": recorder.export(), "open_spans": recorder.open_spans}


# ---------------------------------------------------------------------------
# serve_compile, in process


def _replay(mix, rounds, recorder=None):
    """``rounds`` passes over ``mix`` through ``repro.api.handle``."""
    import repro.api

    outputs = {}
    handle_ms = []
    failed = 0
    for _ in range(rounds):
        for label, request in mix:
            if recorder is not None:
                recorder.push("request")
            start = time.perf_counter()
            try:
                response = repro.api.handle(request)
            finally:
                if recorder is not None:
                    recorder.pop()
            handle_ms.append((time.perf_counter() - start) * 1e3)
            if not response.ok or outputs.setdefault(label, response.output) != response.output:
                failed += 1
    return {"outputs": outputs, "handle_ms": handle_ms, "failed": failed}


def run_replay(args):
    """One round gives the expected outputs (and warms lazy imports up);
    a traced run then times ``--rounds`` plain rounds and as many traced."""
    mix = inputs.request_mix(args.seed, args.tiny)
    out = _replay(mix, 1)
    if args.trace:
        gc.collect()
        start = time.perf_counter()
        out["plain"] = _replay(mix, args.rounds)
        out["plain"].update(start=start, wall_s=time.perf_counter() - start)
        out["traced"] = _traced(lambda rec: _replay(mix, args.rounds, rec), args.run_id)
    _write(args.out, out)


# ---------------------------------------------------------------------------
# traced CLI invocation and the set-up probe


def run_cli(args):
    from repro import cache
    from repro.cli import main

    result = _traced(lambda rec: main(args.argv), args.run_id)
    result["cache"] = cache.stats()
    code = result.pop("rows")
    _write(args.out, result)
    sys.stdout.flush()
    return code


def run_probe(args):
    import repro.cli  # noqa: F401  (the import is what the probe times)
    from repro.bench.harness import adapter_for
    from repro.core.compiler import CompileOptions, compile_function
    from repro.pipette.fastpath import resolve_engine

    pipeline = compile_function(adapter_for("bfs").function(), options=CompileOptions())
    _write(args.out, {"setup_s": time.time() - args.t0, "ready_at": time.perf_counter(),
                      "engine": resolve_engine(pipeline)})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sim", "replay", "cli", "probe"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=inputs.BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None, help="parent's spawn time")
    parser.add_argument("--run-id", default="run")
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_argv = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    args.argv = cli_argv
    if args.t0 is None:
        args.t0 = time.time()
    runner = {"sim": run_sim, "replay": run_replay, "cli": run_cli, "probe": run_probe}
    return runner[args.mode](args) or 0


if __name__ == "__main__":
    sys.exit(main())

