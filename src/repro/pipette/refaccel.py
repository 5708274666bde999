"""Reference accelerator (RA) engines (Pipette Sec. III, "Offloading
memory accesses").

An RA is a runtime-configured FSM that interposes on the queue interface:
it dequeues values from its input queue, launches the configured memory
accesses (INDIRECT: value is an index; SCAN: value pairs are start/end of a
linear sweep), and delivers loaded elements *in order* to its output queue.
It can keep several loads in flight (``ra_mshrs``), which is where the
memory-level parallelism of a decoupled pipeline comes from.

Chaining (the paper's extension for e.g. BFS's nodes->edges indirection
sequence) needs no special support here: a chained RA is simply an RA whose
input queue is another RA's output queue.

RAs run as daemon tasks: they loop forever and the simulation ends when all
stage threads are done. Control values are forwarded downstream unchanged
so end-of-stream markers survive offloading.

This module is the RA *oracle*: one plain engine written against the spec,
using the queues' ``try_deq``/``try_enq`` and :meth:`MemorySystem.access
<repro.pipette.mem.MemorySystem.access>` for timing. The reference engine
runs it as is; the batch engine runs an RA loop generated from the same
memory-walk template as its compiled stages
(:mod:`repro.pipette.batchpath`), which the conformance suites hold
bit-identical to this one.
"""

from collections import deque

from ..errors import SimulationError
from ..ir.program import RA_INDIRECT, RA_SCAN
from ..ir.values import is_control
from .sched import BLOCKED


class RAEngine:
    """One reference accelerator instance bound to a simulation run."""

    def __init__(self, spec, env, task):
        self.spec = spec
        self.env = env
        self.task = task
        self.clock = 0.0
        self.inflight = deque()  # completion times of outstanding loads
        self.last_delivery = 0.0
        self.tracer = env.machine.tracer

    # -- blocking queue helpers (RA-side) ----------------------------------

    def _deq(self, queue):
        while True:
            res = queue.try_deq(self.clock)
            if res is not None:
                value, t = res
                if t > self.clock:
                    self.clock = t
                return value
            self.task.block(("ra-deq", queue.qid))
            queue.waiting_consumers.append(self.task)
            yield BLOCKED

    def _enq(self, queue, value, at):
        """Enqueue no earlier than cycle ``at``; returns the enqueue cycle."""
        while True:
            t = queue.try_enq(at, value)
            if t is not None:
                return t
            self.task.block(("ra-enq", queue.qid))
            queue.waiting_producers.append(self.task)
            yield BLOCKED

    # -- the load pipeline --------------------------------------------------

    def _load_and_deliver(self, binding, index, out_queue):
        """Issue one load and enqueue its value, preserving delivery order.

        ``self.clock`` is the engine's *front* clock: it advances with input
        consumption and load issue, throttled only by the MSHR bound, so up
        to ``ra_mshrs`` loads overlap — the memory-level parallelism an RA
        exists to provide. Deliveries carry their own (in-order) timestamps;
        a full output queue backpressures the front.
        """
        if len(self.inflight) >= self.env.machine.config.ra_mshrs:
            oldest = self.inflight.popleft()
            if oldest > self.clock:
                self.clock = oldest
        start = self.clock
        addr = binding.base + index * binding.elem_size
        latency = self.env.machine.mem.access(self.env.core, addr, start, stream_id=binding.name)
        completion = start + latency
        if self.tracer is not None:
            self.tracer.ra_load(self.task.name, start, completion)
        self.inflight.append(completion)
        self.clock += 1  # one engine slot per accepted request
        try:
            value = binding.data[index]
        except IndexError:
            raise SimulationError(
                "RA %d: load %s[%d] out of bounds (len %d)"
                % (self.spec.raid, self.spec.array, index, len(binding.data))
            )
        delivery = max(completion, self.last_delivery)
        self.env.stats.ra_loads += 1
        t = yield from self._enq(out_queue, value, delivery)
        self.last_delivery = max(delivery, t)
        if t > delivery and t - latency > self.clock:
            # Output backpressure: stall the front correspondingly.
            self.clock = t - latency

    def run(self):
        """Main RA loop (a daemon task generator)."""
        env = self.env
        spec = self.spec
        in_queue = env.queues[spec.in_queue]
        out_queue = env.queues[spec.out_queue]
        binding = env.arrays.get(spec.array[1:] if spec.array.startswith("@") else spec.array)
        if binding is None:
            raise SimulationError("RA %d bound to unknown array %s" % (spec.raid, spec.array))

        if spec.mode not in (RA_INDIRECT, RA_SCAN):
            raise SimulationError("RA %d: unknown mode %r" % (spec.raid, spec.mode))
        while True:
            value = yield from self._deq(in_queue)
            if is_control(value):
                if spec.forward_ctrl:
                    t = yield from self._enq(out_queue, value, self.clock)
                    if t > self.clock:
                        self.clock = t
                continue
            if spec.mode == RA_SCAN:  # value starts a [start, end) sweep
                end = yield from self._deq(in_queue)
                if is_control(end):
                    raise SimulationError(
                        "RA %d (scan): control value arrived mid-pair" % spec.raid
                    )
                indices = range(value, end)
            else:
                indices = (value,)
            for index in indices:
                yield from self._load_and_deliver(binding, index, out_queue)
