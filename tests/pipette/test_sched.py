"""Scheduler, barrier, and issue-ledger behaviour."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.pipette.queues import HWQueue
from repro.pipette.sched import BLOCKED, BarrierSync, IssueLedger, Scheduler, SharedCells, Task


def _simple_task(name, log, daemon=False):
    task = Task(name, daemon=daemon)
    task.clock_ref = lambda: 0.0

    def gen():
        log.append(name)
        if False:
            yield

    return task, gen()


def test_runs_all_tasks():
    log = []
    sched = Scheduler()
    for name in ("a", "b", "c"):
        task, gen = _simple_task(name, log)
        sched.add(task, gen)
    sched.run()
    assert sorted(log) == ["a", "b", "c"]


def test_producer_consumer_unblocks():
    q = HWQueue(0, 2, 0)
    got = []
    sched = Scheduler()

    consumer = Task("consumer")
    consumer.clock_ref = lambda: 0.0

    def consume():
        while True:
            res = q.try_deq(0.0)
            if res is not None:
                got.append(res[0])
                return
            consumer.block(("deq", 0))
            q.waiting_consumers.append(consumer)
            yield BLOCKED

    producer = Task("producer")
    producer.clock_ref = lambda: 5.0

    def produce():
        q.try_enq(0.0, 42)
        if False:
            yield

    sched.add(consumer, consume())
    sched.add(producer, produce())
    sched.run()
    assert got == [42]


def test_deadlock_detected():
    q = HWQueue(0, 2, 0)
    sched = Scheduler()
    task = Task("stuck")
    task.clock_ref = lambda: 0.0

    def wait_forever():
        while True:
            task.block(("deq", 0))
            q.waiting_consumers.append(task)
            yield BLOCKED

    sched.add(task, wait_forever())
    with pytest.raises(DeadlockError, match="stuck"):
        sched.run()


def test_daemons_do_not_keep_simulation_alive():
    log = []
    sched = Scheduler()
    daemon = Task("ra", daemon=True)
    daemon.clock_ref = lambda: 0.0

    def spin():
        while True:
            daemon.block(("ra-deq", 0))
            yield BLOCKED

    task, gen = _simple_task("main", log)
    sched.add(daemon, spin())
    sched.add(task, gen)
    sched.run()
    assert log == ["main"]


class TestBarrier:
    def test_last_arrival_releases(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=10.0)
        assert barrier.arrive(t1, 100.0) is None
        release = barrier.arrive(t2, 50.0)
        assert release == 110.0  # max arrival + cost
        assert barrier.last_release == 110.0
        assert t1.runnable  # woken

    def test_generation_reuse(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=0.0)
        barrier.arrive(t1, 1.0)
        barrier.arrive(t2, 2.0)
        assert barrier.generation == 1
        barrier.arrive(t1, 5.0)
        assert barrier.arrive(t2, 7.0) == 7.0

    def test_drop_participant_releases_waiters(self):
        t1, t2 = Task("a"), Task("b")
        t1.clock_ref = t2.clock_ref = lambda: 0.0
        barrier = BarrierSync(2, cost=0.0)
        barrier.arrive(t1, 3.0)
        t1.block("barrier")
        barrier.drop_participant()  # t2 finished without arriving
        assert t1.runnable
        assert barrier.last_release == 3.0


class TestIssueLedger:
    def test_capacity_per_cycle(self):
        ledger = IssueLedger(2)
        slots = [ledger.acquire(0.0) for _ in range(5)]
        assert slots == [0.0, 0.0, 1.0, 1.0, 2.0]

    def test_fractional_time_rounds_up(self):
        ledger = IssueLedger(1)
        assert ledger.acquire(2.5) == 3.0

    def test_out_of_order_acquisition(self):
        ledger = IssueLedger(1)
        assert ledger.acquire(10.0) == 10.0
        assert ledger.acquire(0.0) == 0.0  # earlier cycles stay available

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from([0, IssueLedger.INITIAL_CYCLES - 8]),
        st.lists(st.floats(0, 40), min_size=0, max_size=60),
        st.floats(0, 50),
    )
    # The probe steps off the end of a full last cycle of the initial list.
    @example(1, IssueLedger.INITIAL_CYCLES - 8, [float(i) for i in range(8)], 2.0)
    def test_acquire_equals_per_cycle_scan(self, width, base, warmup, t):
        """The ledger's closed-form slot probe == scanning cycle by cycle.
        ``base`` shifts every time onto the end of the initial slot list,
        so the probe also crosses into cycles the list does not hold yet."""
        ledger = IssueLedger(width)
        for w in warmup:
            ledger.acquire(base + w)
        t += base
        # Naive per-cycle model of the same scoreboard state; a cycle past
        # the end of the slot list has count 0.
        shadow = list(ledger.slots)

        def count(c):
            return shadow[c] if c < len(shadow) else 0

        c = math.ceil(t)
        while count(c) >= width:
            c += 1  # stepping one quiescent cycle at a time
        got = ledger.acquire(t)
        assert got == float(c)
        assert ledger.slots[c] == count(c) + 1

    def test_acquire_far_past_end_grows_in_place(self):
        """Compiled stages bind ``slots`` once, so growth must extend the
        same list object and keep every earlier count."""
        ledger = IssueLedger(1)
        slots = ledger.slots
        size = len(slots)
        assert ledger.acquire(3.0) == 3.0
        assert ledger.acquire(size - 1.0) == size - 1.0
        # The probe steps off the end of a full last cycle.
        assert ledger.acquire(size - 1.0) == float(size)
        far = 5 * size + 17
        assert ledger.acquire(far - 0.5) == float(far)
        assert ledger.slots is slots
        # Headroom is about an eighth, not a doubling.
        assert far < len(slots) <= 1.125 * (far + 1)
        assert (slots[3], slots[size - 1], slots[size], slots[far]) == (1, 1, 1, 1)
        assert sum(slots) == 4


@pytest.fixture
def recorded_ledgers(monkeypatch):
    """Every IssueLedger a Machine builds, in construction order."""
    from repro.pipette import machine

    made = []

    class RecordingLedger(IssueLedger):
        __slots__ = ()

        def __init__(self, width):
            super().__init__(width)
            made.append(self)

    monkeypatch.setattr(machine, "IssueLedger", RecordingLedger)
    return made


def _stripped(slots):
    end = len(slots)
    while end and not slots[end - 1]:
        end -= 1
    return slots[:end]


def test_ledger_length_tracks_simulated_cycles(recorded_ledgers):
    """After a QUICK bfs run the slot list is about one entry per
    simulated cycle: growth by an eighth stays under 1.25x plus the
    initial length."""
    from repro.bench.harness import adapter_for
    from repro.bench.perf import QUICK_INPUTS, build_input
    from repro.core import CompileOptions, compile_function
    from repro.runtime import run_pipeline

    adapter = adapter_for("bfs")
    arrays, scalars = adapter.env(build_input(QUICK_INPUTS["bfs"]))
    pipeline = compile_function(adapter.function(), options=CompileOptions())
    result = run_pipeline(pipeline, arrays, scalars, engine="batch")
    (ledger,) = recorded_ledgers
    assert result.cycles > IssueLedger.INITIAL_CYCLES  # the list had to grow
    assert len(ledger.slots) <= 1.25 * result.cycles + IssueLedger.INITIAL_CYCLES
    assert sum(ledger.slots) == result.stats.summary()["uops"]


def test_ledgers_equal_across_engines(recorded_ledgers, tiny_graph, tiny_config):
    """A multi-stage kernel leaves the same slot counts in the reference
    and batch ledgers; a compiled stage's deferred write through its
    initial ``lc = -1`` would land at the list's tail and show up here."""
    from repro.bench.harness import adapter_for
    from repro.core import CompileOptions, compile_function
    from repro.runtime import run_pipeline

    adapter = adapter_for("bfs")
    arrays, scalars = adapter.env(tiny_graph)
    pipeline = compile_function(adapter.function(), options=CompileOptions(num_stages=4))
    assert len(pipeline.stages) > 1
    counts = {}
    for engine in ("reference", "batch"):
        recorded_ledgers.clear()
        result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine=engine)
        assert len(recorded_ledgers) == tiny_config.cores
        assert result.cycles > IssueLedger.INITIAL_CYCLES
        counts[engine] = [_stripped(ledger.slots) for ledger in recorded_ledgers]
    assert counts["batch"] == counts["reference"]


class TestClockNormalization:
    """Heap keys must never mix int and float clocks.

    Reference accelerators keep an *integer* front clock while stage
    cursors are floats; ``Task.time`` normalizes both to float so heap
    tuples always compare like-typed keys, and the FIFO counter (not task
    identity) breaks exact ties.
    """

    def test_time_is_float_for_int_clock(self):
        task = Task("ra")
        task.clock_ref = lambda: 5  # RA-style integer cycle counter
        assert type(task.time) is float and task.time == 5.0

    def test_time_is_float_before_clock_ref_is_set(self):
        assert type(Task("unbound").time) is float

    def test_heap_order_with_mixed_clock_types_and_ties(self):
        log = []
        sched = Scheduler()
        clocks = {"int-clock": 7, "float-clock": 7.0, "late": 9.5}
        for name, now in clocks.items():
            task = Task(name)
            task.clock_ref = (lambda t: lambda: t)(now)

            def gen(name=name):
                log.append(name)
                if False:
                    yield

            sched.add(task, gen())
        sched.run()
        # equal-time tasks run in push (FIFO) order regardless of clock type
        assert log == ["int-clock", "float-clock", "late"]


def test_shared_cells():
    cells = SharedCells()
    assert cells.read("x") == 0
    cells.write("x", 41)
    assert cells.read("x") == 41
