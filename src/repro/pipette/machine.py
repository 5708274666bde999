"""The simulated multicore machine: cores, memory, queues, RAs, threads.

:class:`Machine` assembles a simulation from one or more
:class:`~repro.ir.program.PipelineProgram` instances (replicated pipelines
pass several, one per replica), binds arrays to simulated addresses, maps
stages to SMT thread slots, and runs the discrete-event scheduler to
completion. The result carries final array contents, cycle counts, and the
full statistics the evaluation figures need.
"""

from ..errors import ResourceError, SimulationError
from ..ir.verifier import verify_pipeline
from .batchpath import BatchStageInterp
from .fastpath import resolve_engine
from .interp import ArrayBinding, StageInterp, ThreadCtx
from .mem import AddressMap, MemorySystem
from .queues import HWQueue
from .refaccel import RAEngine
from .sched import BarrierSync, IssueLedger, Scheduler, SharedCells, Task
from .stats import SimStats


class RunSpec:
    """One pipeline instance to run: program + data bindings + placement.

    ``arrays`` maps array names to Python lists (mutated in place);
    ``scalars`` maps scalar parameter names to values. ``core`` places all
    stages on one core; ``stage_cores`` optionally places stage i on
    ``stage_cores[i]`` (pipelines may span cores, Sec. V).
    """

    def __init__(self, pipeline, arrays, scalars, core=0, stage_cores=None):
        self.pipeline = pipeline
        self.arrays = arrays
        self.scalars = scalars
        self.core = core
        self.stage_cores = stage_cores

    def core_of_stage(self, index):
        if self.stage_cores is not None:
            return self.stage_cores[index]
        return self.core


class RunEnv:
    """Per-replica runtime environment shared by that replica's stages/RAs."""

    def __init__(self, machine, replica_index, spec, stats):
        self.machine = machine
        self.replica_index = replica_index
        self.spec = spec
        self.stats = stats
        self.arrays = {}
        self.queues = {}
        self.shared = None  # installed by the machine (global across replicas)
        self.intrinsics = spec.pipeline.intrinsics
        self.barrier = None  # installed by the machine (global)
        self.core = spec.core
        self.atomic_overhead = 15
        self.stage_cores = {}

    def queue_of(self, interp, qid):
        return self.queues[qid]

    def remote_queue(self, interp, qid, replica):
        """Resolve a distribute target: queue ``qid`` of ``replica``."""
        envs = self.machine.envs
        if not 0 <= replica < len(envs):
            raise SimulationError("enq_dist to replica %d of %d" % (replica, len(envs)))
        target = envs[replica]
        queue = target.queues[qid]
        extra = 0.0
        if target.core_of_queue_consumer(qid) != interp.ctx.core:
            extra = max(0.0, self.machine.config.xcore_queue_latency - queue.latency)
        return queue, extra

    def all_replica_queues(self, interp, qid):
        for replica in range(len(self.machine.envs)):
            yield self.remote_queue(interp, qid, replica)

    def core_of_queue_consumer(self, qid):
        consumer = self.spec.pipeline.queues[qid].consumer
        if consumer[0] == "stage":
            return self.spec.core_of_stage(consumer[1])
        return self.core

    def on_thread_done(self, interp):
        if self.barrier is not None:
            self.barrier.drop_participant()


class SimResult:
    """Outcome of one simulation run."""

    def __init__(self, cycles, stats, envs):
        self.cycles = cycles
        self.stats = stats
        self._envs = envs

    def arrays(self, replica=0):
        """Final array contents (name -> list) of one replica."""
        return {name: b.data for name, b in self._envs[replica].arrays.items()}

    def __repr__(self):
        return "SimResult(%.0f cycles, %d uops)" % (self.cycles, self.stats.total_uops)


def _static_deadlock_verdict(specs):
    """One report line cross-linking the static analyzer's verdict.

    Called only when the scheduler is already raising a deadlock, so cost
    does not matter; imported lazily because the simulator must stay
    importable without the analysis stack.
    """
    try:
        from ..analysis.sanitize import sanitize_pipeline
    except ImportError:  # pragma: no cover - analysis stack always ships
        return None
    findings = []
    for spec in specs:
        try:
            diags = sanitize_pipeline(spec.pipeline)
        except Exception:  # pragma: no cover - a broken pipeline: no verdict
            return None
        findings.extend(
            d for d in diags if d.severity == "error" or d.code.startswith("PHL2")
        )
    if findings:
        return "static analysis predicted this: %s" % "; ".join(
            d.render() for d in findings[:4]
        )
    return (
        "static analysis found no topology cycle or token imbalance; "
        "suspect undersized queues for this input (queue depths come from "
        "pipette.config) or data-dependent token loss"
    )


class Machine:
    """A Pipette multicore machine ready to run pipeline programs.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) opts the whole run into
    cycle-domain event tracing: scheduler spans, stall intervals, queue
    occupancy samples, and RA loads. With the default ``None`` no event
    buffer exists and the simulation is unchanged.

    ``engine`` selects the stage execution engine by name (``"reference"``
    or ``"batch"``); ``None`` defers to ``REPRO_ENGINE``, then batch (see
    :func:`~repro.pipette.fastpath.resolve_engine`). Both engines produce
    bit-identical :class:`SimStats`.
    """

    _ENGINE_CLASSES = {
        "reference": StageInterp,
        "batch": BatchStageInterp,
    }

    def __init__(self, config, tracer=None, engine=None):
        self.config = config
        self.stats = None
        self.mem = None
        self.envs = []
        self.tracer = tracer
        self.engine = engine

    def run(self, specs, barrier_cost=30.0):
        """Run the given :class:`RunSpec` list to completion.

        All specs run concurrently (replicas, or co-scheduled independent
        pipelines); a single global barrier spans every stage thread, which
        is how program phases stay aligned across replicas.
        """
        if isinstance(specs, RunSpec):
            specs = [specs]
        config = self.config
        stats = SimStats()
        self.stats = stats
        self.mem = MemorySystem(config, stats)
        addr_map = AddressMap()
        ledgers = [IssueLedger(config.issue_width) for _ in range(config.cores)]
        tracer = self.tracer
        topology = {"task_replica": {}, "producer": {}, "consumer": {}}
        scheduler = Scheduler(
            tracer=tracer,
            topology=topology,
            deadlock_hint=lambda: _static_deadlock_verdict(specs),
        )
        self.envs = []

        threads_per_core = [0] * config.cores
        stage_tasks = []
        buffer_bases = {}
        # Shared scalar cells span replicas: replicated pipelines exchange
        # per-replica fringe sizes through distinct keys.
        shared_cells = SharedCells()

        for replica, spec in enumerate(specs):
            pipeline = spec.pipeline
            verify_pipeline(pipeline, max_queues=config.max_queues, max_ras=config.max_ras)
            engine = self._ENGINE_CLASSES[resolve_engine(pipeline, self.engine)]
            env = RunEnv(self, replica, spec, stats)
            env.shared = shared_cells
            self.envs.append(env)

            for name, decl in pipeline.arrays.items():
                if name not in spec.arrays:
                    raise SimulationError("run: array %r not bound" % name)
                data = spec.arrays[name]
                key = id(data)
                if key in buffer_bases:
                    base = buffer_bases[key]
                else:
                    base = addr_map.register(
                        "r%d.%s" % (replica, name), len(data) * decl.elem_size
                    )
                    buffer_bases[key] = base
                env.arrays[name] = ArrayBinding(name, data, base, decl.elem_size, decl.is_float)

            for q in pipeline.queues.values():
                latency = config.queue_latency
                prod_core = env.core
                cons_core = env.core
                if q.producer[0] == "stage":
                    prod_core = spec.core_of_stage(q.producer[1])
                if q.consumer[0] == "stage":
                    cons_core = spec.core_of_stage(q.consumer[1])
                if prod_core != cons_core:
                    latency = config.xcore_queue_latency
                env.queues[q.qid] = HWQueue(
                    q.qid,
                    q.capacity,
                    latency,
                    tracer=tracer,
                    label="r%d.q%d" % (replica, q.qid),
                )

            for stage in pipeline.stages:
                core = spec.core_of_stage(stage.index)
                if not 0 <= core < config.cores:
                    raise ResourceError("stage mapped to core %d of %d" % (core, config.cores))
                threads_per_core[core] += 1
                name = "r%d.s%d.%s" % (replica, stage.index, stage.name)
                task = Task(name)
                tstats = stats.new_thread(name)
                ctx = ThreadCtx(config, core, ledgers[core], self.mem, tstats, task, tracer=tracer)
                for pname, value in spec.scalars.items():
                    ctx.regs[pname] = value
                missing = [p for p in pipeline.scalar_params if p not in spec.scalars]
                if missing:
                    raise SimulationError("run: scalar params %s not bound" % missing)
                interp = engine(stage, ctx, env)
                task.clock_ref = lambda c=ctx: c.cursor
                scheduler.add(task, interp.run())
                stage_tasks.append((task, ctx))

            for spec_ra in pipeline.ras:
                name = "r%d.ra%d" % (replica, spec_ra.raid)
                task = Task(name, daemon=True)
                engine = RAEngine(spec_ra, env, task)
                task.clock_ref = lambda e=engine: e.clock
                scheduler.add(task, engine.run())

            # Queue-endpoint topology for the scheduler's deadlock report:
            # which task sits at each end of each queue of this replica.
            stage_names = {
                s.index: "r%d.s%d.%s" % (replica, s.index, s.name)
                for s in pipeline.stages
            }
            ra_names = {r.raid: "r%d.ra%d" % (replica, r.raid) for r in pipeline.ras}
            for name in list(stage_names.values()) + list(ra_names.values()):
                topology["task_replica"][name] = replica
            for q in pipeline.queues.values():
                for role, (ekind, eidx) in (("producer", q.producer), ("consumer", q.consumer)):
                    owner = stage_names.get(eidx) if ekind == "stage" else ra_names.get(eidx)
                    if ekind != "extern" and owner is not None:
                        topology[role][(replica, q.qid)] = owner

        for core, used in enumerate(threads_per_core):
            if used > config.smt_threads:
                raise ResourceError(
                    "core %d assigned %d stage threads but supports %d SMT threads"
                    % (core, used, config.smt_threads)
                )

        barrier = BarrierSync(len(stage_tasks), cost=barrier_cost)
        for env in self.envs:
            env.barrier = barrier

        scheduler.run()

        wall = max((ctx.stats.end_cycle for _, ctx in stage_tasks), default=0.0)
        stats.wall_cycles = wall
        for replica, env in enumerate(self.envs):
            for qid in sorted(env.queues):
                stats.register_queue("r%d.q%d" % (replica, qid), env.queues[qid])
        if tracer is not None:
            tracer.meta.setdefault("wall_cycles", wall)
        return SimResult(wall, stats, self.envs)
