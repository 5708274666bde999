"""High-level executors: run serial functions and pipelines conveniently.

Wraps :class:`~repro.pipette.machine.Machine` with input copying (runs never
mutate caller data unless asked) and result packaging, so benchmarks can
say ``run_serial(func, env)`` / ``run_pipeline(pipe, env)`` and compare
cycles and outputs directly.
"""

from ..ir.program import serial_pipeline
from ..pipette.config import MachineConfig
from ..pipette.energy import energy_of
from ..pipette.machine import Machine, RunSpec


class RunResult:
    """Cycles, final arrays, stats, and energy of one execution."""

    def __init__(self, cycles, arrays, stats, config, active_cores=1, machine=None):
        self.cycles = cycles
        self.arrays = arrays
        self.stats = stats
        self.config = config
        self.active_cores = active_cores
        self.machine = machine  # for post-run introspection (runtime.inspect)

    def energy(self):
        return energy_of(self.stats, self.config, active_cores=self.active_cores)

    def breakdown(self):
        return self.stats.cycle_breakdown()

    def __repr__(self):
        return "RunResult(%.0f cycles)" % self.cycles


def _copy_arrays(arrays):
    return {name: list(data) for name, data in arrays.items()}


def run_pipeline(
    pipeline, arrays, scalars, config=None, core=0, stage_cores=None, copy=True,
    tracer=None, engine=None,
):
    """Run one pipeline program; returns a :class:`RunResult`.

    ``tracer`` (a :class:`repro.obs.Tracer`) opts into cycle-domain event
    tracing; the default ``None`` keeps the run trace-free and unchanged.
    ``engine`` selects the execution engine by name (``"reference"`` or
    ``"batch"``); ``None`` defers to ``REPRO_ENGINE``, then batch.
    """
    config = config or MachineConfig()
    bound = _copy_arrays(arrays) if copy else arrays
    machine = Machine(config, tracer=tracer, engine=engine)
    spec = RunSpec(pipeline, bound, scalars, core=core, stage_cores=stage_cores)
    sim = machine.run(spec)
    cores_used = 1 if stage_cores is None else len(set(stage_cores))
    return RunResult(
        sim.cycles, sim.arrays(0), sim.stats, config, active_cores=cores_used, machine=machine
    )


def run_serial(
    function, arrays, scalars, config=None, copy=True, tracer=None, engine=None,
):
    """Run a serial Function as a single-stage pipeline."""
    return run_pipeline(
        serial_pipeline(function), arrays, scalars, config=config, copy=copy,
        tracer=tracer, engine=engine,
    )


def run_replicated(
    pipelines_and_envs, config, copy=True, tracer=None, engine=None,
):
    """Run several pipeline instances concurrently (replication, Fig. 14).

    ``pipelines_and_envs`` is a list of ``(pipeline, arrays, scalars, core)``
    tuples. Arrays may share the same underlying list objects to model
    shared data structures; when ``copy`` is set, identical objects are
    copied once and stay shared.
    """
    machine = Machine(config, tracer=tracer, engine=engine)
    specs = []
    copies = {}
    for pipeline, arrays, scalars, core in pipelines_and_envs:
        if copy:
            bound = {}
            for name, data in arrays.items():
                key = id(data)
                if key not in copies:
                    copies[key] = list(data)
                bound[name] = copies[key]
        else:
            bound = arrays
        specs.append(RunSpec(pipeline, bound, scalars, core=core))
    sim = machine.run(specs)
    arrays0 = sim.arrays(0)
    cores = len({spec.core for spec in specs})
    result = RunResult(
        sim.cycles, arrays0, sim.stats, config, active_cores=cores, machine=machine
    )
    result.replica_arrays = [sim.arrays(i) for i in range(len(specs))]
    return result
