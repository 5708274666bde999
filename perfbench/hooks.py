"""Timing wrappers installed on the program for the traced run.

Everything here wraps public functions and classes of ``repro`` from the
outside; nothing under ``src/`` changes. Three rules decide where a
wrapper goes:

* A module-level function is replaced in *every* loaded ``repro`` module
  that holds it, because callers bind names at import time (``repro.cache``
  and ``repro.api.handlers`` import ``compile_function``; the compiler
  imports ``compile_source``, ``sanitize_pipeline`` and
  ``verify_pipeline``). Lazy ``from x import f`` inside a function reads
  the defining module at call time and so sees the wrapper too.
* Memory-hierarchy methods are wrapped on :class:`MemorySystem` itself,
  before any :meth:`Machine.run`: the batch and RA engines capture
  ``mem.miss_below_l2`` and ``mem._prefetch`` as bound methods when a
  stage is built.
* Stage and RA work is timed per generator resume, by wrapping the
  generator handed to :meth:`Scheduler.add`.

Tracing at resume granularity cannot separate the L1/L2 lookups that the
fast engines inline into stage code; those count as stage time.
"""

import importlib
import inspect
import re
import sys

#: ``(module, attribute, span name)`` for the module-level functions.
FUNCTION_SPANS = (
    ("repro.cache", "fingerprint_env", "cache.fingerprint_env"),
    ("repro.cache", "cached_compile", "cache.compile"),
    ("repro.cache", "cached_serial_run", "cache.serial_run"),
    ("repro.core.compiler", "compile_function", "core.compile"),
    ("repro.frontend.lowering", "compile_source", "frontend.lower"),
    ("repro.analysis.sanitize", "sanitize_pipeline", "analysis.sanitize"),
    ("repro.analysis.perfmodel", "perf_advisories", "analysis.perfmodel"),
    ("repro.ir.verifier", "verify_pipeline", "ir.verify"),
    ("repro.ir.serialize", "fingerprint", "ir.fingerprint"),
    ("repro.taco.lowering", "lower", "taco.lower"),
    ("repro.runtime.executor", "run_pipeline", "runtime.run_pipeline"),
    ("repro.api.handlers", "handle", "api.handle"),
)

#: Modules whose public functions build inputs (``workloads.build``).
GENERATOR_MODULES = ("repro.workloads.graphs", "repro.workloads.matrices")

#: Names modules are imported under before patching, so that every module
#: that binds a wrapped name at import time is loaded and gets patched.
PRELOAD = (
    "repro.cli",
    "repro.api",
    "repro.bench.experiments",
    "repro.bench.harness",
    "repro.bench.perf",
    "repro.taco",
    "repro.taco.kernels",
    "repro.workloads",
    "repro.workloads.datasets",
) + tuple(module for module, _, _ in FUNCTION_SPANS)

_RA_TASK = re.compile(r"\.ra\d+$")


class TimedGenerator:
    """A scheduler task generator whose every resume is one span."""

    __slots__ = ("gen", "push", "pop", "name")

    def __init__(self, gen, recorder, name):
        self.gen = gen
        self.push = recorder.push
        self.pop = recorder.pop
        self.name = name

    def send(self, value):
        self.push(self.name)
        try:
            return self.gen.send(value)
        finally:
            self.pop()


def _replace_everywhere(original, replacement):
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder):
    """Install every wrapper; returns the counter dict they fill.

    Counters: ``stages_built``, ``batch_stages``, ``batch_compiled``,
    ``sim_cycles``, ``dram_accesses``.
    """
    for module in PRELOAD:
        importlib.import_module(module)
    counters = {
        "stages_built": 0,
        "batch_stages": 0,
        "batch_compiled": 0,
        "sim_cycles": 0.0,
        "dram_accesses": 0,
    }

    for module, attr, span in FUNCTION_SPANS:
        original = getattr(sys.modules[module], attr)
        _replace_everywhere(original, recorder.wrap(span, original))

    for module in GENERATOR_MODULES:
        mod = sys.modules[module]
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == module and not attr.startswith("_"):
                _replace_everywhere(fn, recorder.wrap("workloads.build", fn))
    from repro.workloads import ALL_BENCHMARKS

    for bench in ALL_BENCHMARKS.values():
        for attr in ("make_env", "make_env_dp"):
            fn = getattr(bench, attr, None)
            if fn is not None:
                setattr(bench, attr, recorder.wrap("workloads.build", fn))

    from repro.pipette.batchpath import BatchStageInterp
    from repro.pipette.fastpath import FastStageInterp
    from repro.pipette.machine import Machine
    from repro.pipette.mem import MemorySystem
    from repro.pipette.sched import Scheduler

    for attr, span in (
        ("miss_below_l1", "pipette.mem_below_l1"),
        ("miss_below_l2", "pipette.mem_below_l2"),
        ("_prefetch", "pipette.prefetch"),
    ):
        setattr(MemorySystem, attr, recorder.wrap(span, getattr(MemorySystem, attr)))

    original_add = Scheduler.add

    def add(self, task, gen):
        kind = "pipette.ra" if _RA_TASK.search(task.name) else "pipette.stage"
        return original_add(self, task, TimedGenerator(gen, recorder, kind))

    Scheduler.add = add

    def timed_engine(engine):
        def build(stage, ctx, env):
            recorder.push("pipette.stage_setup")
            try:
                interp = engine(stage, ctx, env)
            finally:
                recorder.pop()
            counters["stages_built"] += 1
            if engine is BatchStageInterp:
                counters["batch_stages"] += 1
                if not isinstance(interp, FastStageInterp):
                    counters["batch_compiled"] += 1
            return interp

        return build

    Machine._ENGINE_CLASSES = {
        name: timed_engine(engine) for name, engine in Machine._ENGINE_CLASSES.items()
    }

    original_run = Machine.run

    def run(self, specs, *args, **kwargs):
        recorder.push("pipette.machine_run")
        try:
            result = original_run(self, specs, *args, **kwargs)
        finally:
            recorder.pop()
        counters["sim_cycles"] += result.cycles
        counters["dram_accesses"] += result.stats.dram_accesses
        return result

    Machine.run = run
    return counters
