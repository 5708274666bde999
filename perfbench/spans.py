"""Wall-clock spans for the traced benchmark run.

A :class:`SpanRecorder` keeps a stack of open spans. Closing a span adds
its duration and its *self time* (duration minus the time its direct child
spans took) to per-name totals, so layer self times are exact however many
spans a pass opens. Span records (id, name, start, end, parent, run id)
are kept in memory for the Chrome trace written at exit; fine-grained
spans past ``keep`` are still counted in the totals but not kept, and the
number dropped is reported.

:func:`self_times` recomputes self time from kept span records with the
interval definition (duration minus the union of the child intervals
clipped to the span); the tests pin it on synthetic spans and against the
recorder's own totals.
"""

import time

#: Spans at this stack depth or shallower are always kept (passes,
#: invocations, kernels, simulations); deeper ones only up to ``keep``.
COARSE_DEPTH = 3

#: Default cap on kept fine-grained span records per recorder.
KEEP_SPANS = 20_000


class SpanRecorder:
    """Nested spans of one traced pass, recorded in one thread."""

    def __init__(self, run_id, keep=KEEP_SPANS, clock=time.perf_counter):
        self.run_id = run_id
        self.keep = keep
        self.clock = clock
        #: ``name -> [count, total_s, self_s]`` over every closed span.
        self.totals = {}
        #: Kept records: ``(span_id, name, start, end, parent_id)``.
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 0
        self._reserved = 0

    def push(self, name):
        self._next_id += 1
        kept = len(self._stack) <= COARSE_DEPTH
        if not kept:
            kept = self._reserved < self.keep
            if kept:
                self._reserved += 1
            else:
                self.dropped += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0, kept])

    def pop(self):
        end = self.clock()
        span_id, name, start, child_s, kept = self._stack.pop()
        duration = end - start
        stack = self._stack
        if stack:
            stack[-1][3] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if kept:
            self.spans.append((span_id, name, start, end, stack[-1][0] if stack else None))

    @property
    def open_spans(self):
        return len(self._stack)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a ``name`` span."""
        push, pop = self.push, self.pop

        def traced(*args, **kwargs):
            push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def export(self):
        """Plain-data dump: totals, kept spans, drop count, run id."""
        return {
            "run": self.run_id,
            "totals": {name: list(v) for name, v in self.totals.items()},
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """``{name: self seconds}`` from span records.

    A span's self time is its duration minus the part of its interval that
    its child spans (records naming it as parent) cover.
    """
    children = {}
    for span_id, _name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, name, start, end, _parent in spans:
        own = (end - start) - _covered(children.get(span_id, ()), start, end)
        out[name] = out.get(name, 0.0) + own
    return out


def chrome_trace(dumps):
    """Chrome trace-event dict over recorder dumps (one track per run)."""
    events = []
    origin = min((s[2] for dump in dumps for s in dump["spans"]), default=0.0)
    for tid, dump in enumerate(dumps, start=1):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": str(dump["run"])}}
        )
        for span_id, name, start, end, parent in dump["spans"]:
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "pid": 1,
                    "tid": tid,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent, "run": dump["run"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
