"""Batch-advance execution engine: whole-stage compilation to one generator.

The reference interpreter (:mod:`repro.pipette.interp`) walks each stage's
region tree statement by statement, re-dispatching on ``stmt.kind`` and
re-resolving operands (register dicts, ready-time dicts) on every
execution. Profiling a QUICK ``bfs`` run shows those per-statement costs —
not the scheduler — dominate the simulator's wall time.

This engine removes the per-statement machinery by compiling each
stage's whole region tree into **one generated Python generator function**:

* registers and their ready cycles become *frame locals* (name-mangled
  ``R<n>``/``Y<n>``), so dependence tracking is local-variable access, not
  dict traffic; generator frames preserve locals across ``yield``;
* control flow (``if``/``for``/``loop``/``break``/``continue``, control
  handlers) becomes native Python control flow; multi-level breaks
  propagate through a ``_sig`` counter that mirrors the interpreter's
  ``('break', n)`` / ``('continue', 1)`` signals exactly;
* the timing primitives (issue-ledger acquire, ROB retire, MSHR claim, L1
  lookup + stride-prefetcher observe, gshare predict) are emitted inline,
  transcribed from the reference interpreter — the same arithmetic in the
  same order on the same shared structures;
* machine-configuration constants (issue width, ROB/MSHR sizes, cache
  geometry, latencies, branch PCs) are baked into the source as literals;
* the generator ``yield``\\ s only at true blocking points (queue
  full/empty, barrier). Between those *interesting events* the stage runs
  as straight-line compiled Python: the clock advances in closed form
  through the very timestamps the components expose via their
  ``next_event_cycle()`` contracts (a queue entry's visibility cycle, an
  MSHR/ROB head's completion, a DRAM window boundary, a branch redirect
  target), never by stepping cycles.

Bit-identical stats discipline
------------------------------

Thread-private hot state is mirrored in frame locals (``cur`` for
``ctx.cursor``, ``rlast`` for ``ctx.rob_last``, the gshare history, and the
:class:`~repro.pipette.stats.ThreadStats` counters listed in
``stats.MIRROR_COUNTERS`` / ``stats.MIRROR_STALLS``). Mirrors are flushed
back to the context before **every** ``yield`` and at stage completion, so
anything that can observe the thread from outside between resumes — the
scheduler's heap key (``task.time`` -> ``ctx.cursor``), tracer spans,
deadlock reports — sees exactly the state the reference interpreter would
expose. Shared structures (issue-ledger slots, queues, caches, DRAM
windows, ``SimStats``) are never mirrored; the generated code mutates them
directly with the interpreter's exact update sequences, so stall/occupancy
accrual stays a *closed-form replay* of the per-statement arithmetic — the
float additions happen in the same order on the same values, which is why
the accrued buckets are bit-identical rather than merely close.

A stage the compiler cannot express (it raises :class:`UnsupportedStage`,
e.g. for a recursive control handler) falls back to the reference
:class:`~repro.pipette.interp.StageInterp`. The run then mixes engines per
stage but stays bit-identical by construction: the fallback *is* the
oracle.

The reference interpreter remains the conformance oracle: see
``tests/pipette/test_fastpath_conformance.py`` (engine matrix) and the
engine-differential fuzzer in ``tests/test_compiler_fuzz.py``.
"""

from ..errors import SimulationError
from ..ir.ops import TERNARY_OPS, _checked_div, _checked_mod
from ..ir.values import Ctrl
from .interp import StageInterp, _assign_pcs
from .sched import BLOCKED
from .stats import MIRROR_COUNTERS, MIRROR_STALLS

__all__ = ["BatchStageInterp", "UnsupportedStage"]


class UnsupportedStage(Exception):
    """Raised by the stage compiler when a stage shape cannot be expressed;
    the factory falls back to the reference interpreter for that stage."""


#: Compiled code objects keyed by generated source text. The source bakes in
#: every structural and configuration literal, so text equality is exactly
#: compile-compatibility; captures (queues, arrays, ctx) bind per run.
_CODE_CACHE = {}
_CODE_CACHE_MAX = 512

#: Generated-source size guard: a pathological handler-inline blowup falls
#: back to the reference interpreter instead of compiling a megabyte of Python.
_MAX_LINES = 20000

#: Mirror-local names for the ThreadStats counters, in field order.
_STAT_LOCALS = {
    "uops": "u",
    "loads": "ld",
    "stores": "st",
    "branches": "br",
    "mispredicts": "mp",
    "queue_ops": "qo",
    "queue_stall": "qs",
    "mem_stall": "ms",
    "branch_stall": "bs",
    "barrier_stall": "bars",
}

#: ``assign`` ops as source expressions over operand expressions a/b/c.
#: div/mod call the shared checked helpers so error behavior (and C
#: truncation semantics) is the interpreter's own code, not a copy.
_BINARY_EXPR = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "div": "_div({a}, {b})",
    "mod": "_mod({a}, {b})",
    "and": "(int({a}) & int({b}))",
    "or": "(int({a}) | int({b}))",
    "xor": "(int({a}) ^ int({b}))",
    "shl": "(int({a}) << int({b}))",
    "shr": "(int({a}) >> int({b}))",
    "lt": "(1 if {a} < {b} else 0)",
    "le": "(1 if {a} <= {b} else 0)",
    "gt": "(1 if {a} > {b} else 0)",
    "ge": "(1 if {a} >= {b} else 0)",
    "eq": "(1 if {a} == {b} else 0)",
    "ne": "(1 if {a} != {b} else 0)",
    "min": "({a} if {a} < {b} else {b})",
    "max": "({a} if {a} > {b} else {b})",
    "pack2": "({a}, {b})",
}

_UNARY_EXPR = {
    "neg": "(-{a})",
    "not": "(0 if {a} else 1)",
    "mov": "{a}",
    "fst": "{a}[0]",
    "snd": "{a}[1]",
}


def _is_reg(operand):
    return type(operand) is str and not operand.startswith("@")


def _oob_raiser(stage_name, array_op, data):
    """Builds the exact out-of-bounds SimulationError the interpreter raises."""

    def raiser(idx):
        return SimulationError(
            "stage %s: load %s[%d] out of bounds (len %d)"
            % (stage_name, array_op, idx, len(data))
        )

    return raiser


def _resolve_handle(arrays, operand, value):
    """Pointer-register -> ArrayBinding, mirroring StageInterp.array_binding."""
    if not isinstance(value, str) or not value.startswith("@"):
        raise SimulationError("register %r used as pointer holds %r" % (operand, value))
    found = arrays.get(value[1:])
    if found is None:
        raise SimulationError("unbound array %s" % value)
    return found


def _dangling(stage_name, sig):
    signal = ("continue", 1) if sig < 0 else ("break", sig)
    return SimulationError(
        "stage %s finished with dangling control signal %r" % (stage_name, signal)
    )


class _StageCompiler:
    """Emits the generator-function source for one stage on one thread.

    Loop contexts track what the innermost *generated Python loop* is, so a
    pending control signal (``_sig`` > 0: break that many IR loops;
    ``_sig`` < 0: continue the nearest IR loop) is consumed or propagated
    with exactly the interpreter's semantics:

    * ``for``/``loop`` contexts consume a continue (restart, for-loops
      re-running their increment first) and exit on break, decrementing the
      level count in their epilogue;
    * synthetic loops (the deq handler-retry loop, the top-level body
      wrapper) are transparent: they just break outward, leaving ``_sig``
      for the enclosing context — the interpreter's "return the signal
      verbatim" behavior for non-loop frames.
    """

    def __init__(self, stage, ctx, runenv):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv
        self.pcs = _assign_pcs(stage)
        self.traced = ctx.tracer is not None
        self.lines = []
        self.indent = 2
        self._fresh = 0
        self.regmap = {}
        self.captures = {
            "ctx": ctx,
            "task": ctx.task,
            "env": runenv,
            "tstats": ctx.stats,
            "sstats": runenv.stats,
            "ledger": ctx.ledger,
            "rob": ctx.rob,
            "mshr": ctx.mshr,
            "pred": ctx.pred,
            "_div": _checked_div,
            "_mod": _checked_mod,
            "_rh": _resolve_handle,
            "_dangle": _dangling,
            "SN": stage.name,
            # Hot builtins rebound as frame locals: the prologue's
            # ``int = C['int']`` turns every use into a LOAD_FAST instead
            # of a namespace-then-builtins LOAD_GLOBAL chain.
            "int": int,
            "max": max,
            "len": len,
            "type": type,
            "range": range,
        }
        if self.traced:
            self.captures["tracer"] = ctx.tracer
            self.captures["TN"] = ctx.stats.name
        self._queue_locals = set()
        self._enq_qids = set()  # queues enqueued inline (counter deltas live)
        self._deq_qids = set()  # queues dequeued inline
        self._oob_raisers = {}
        self._loop_stack = []  # ("for", inc_src) | ("loop", None) | ("syn", None)
        self._handler_stack = []  # qids currently being inlined (recursion guard)
        # Config literals baked into the source.
        cfg = ctx.config
        self.W = cfg.issue_width
        self.ROB = cfg.rob_size
        self.MSHRS = cfg.mshrs
        self.PEN = cfg.mispredict_penalty
        self.cfg = cfg
        mem = ctx.mem
        self.SHIFT = mem.LINE_SHIFT
        l1 = mem.l1[ctx.core]
        self.SCOUNT = l1.sets_count
        self.L1WAYS = l1.ways
        self.L1LAT = cfg.l1.latency
        self.PF_ON = cfg.prefetch_enabled
        self.PF_DEG = cfg.prefetch_degree
        self.MAXSTRIDE = mem.prefetchers[ctx.core].MAX_STRIDE
        l2 = mem.l2[ctx.core]
        self.L2SCOUNT = l2.sets_count
        self.L2WAYS = l2.ways
        self.L2LAT = cfg.l2.latency
        self.captures["l1_sets"] = l1.sets
        self.captures["l1_stats"] = l1.stats
        self.captures["l2_sets"] = l2.sets
        self.captures["l2_stats"] = l2.stats
        self.captures["below_l2"] = mem.miss_below_l2
        self.captures["pf_streams"] = mem.prefetchers[ctx.core].streams
        self.captures["pf_one"] = mem._prefetch
        # Bound methods captured by name are bound once: each attribute
        # access makes a new bound-method object, which cap() would reject
        # as a collision on the stage's second statement that uses it.
        self._mem_access = mem.access
        self._acquire = ctx.ledger.acquire
        self._remote_queue = runenv.remote_queue
        self._all_replica_queues = runenv.all_replica_queues

    # -- emission helpers ---------------------------------------------------

    def w(self, text):
        self.lines.append("    " * self.indent + text)
        if len(self.lines) > _MAX_LINES:
            raise UnsupportedStage("generated stage body too large")

    def push(self):
        self.indent += 1

    def pop(self):
        self.indent -= 1

    def fresh(self, base):
        self._fresh += 1
        return "%s%d" % (base, self._fresh)

    def cap(self, name, obj):
        existing = self.captures.get(name)
        if existing is not None and existing is not obj:
            raise UnsupportedStage("capture name collision %r" % name)
        self.captures[name] = obj
        return name

    # -- operand expressions ------------------------------------------------

    def reg(self, name):
        """(value local, ready local) for a register name, allocating once."""
        pair = self.regmap.get(name)
        if pair is None:
            k = len(self.regmap)
            pair = self.regmap[name] = ("R%d" % k, "Y%d" % k)
        return pair

    def val(self, operand):
        if _is_reg(operand):
            return self.reg(operand)[0]
        return repr(operand)

    def rdy(self, operand):
        if _is_reg(operand):
            return self.reg(operand)[1]
        return "0.0"

    def dep2(self, a, b):
        """max(ready(a), ready(b)) as an expression."""
        ra, rb = self.rdy(a), self.rdy(b)
        if ra == "0.0":
            return rb
        if rb == "0.0":
            return ra
        return "(%s if %s > %s else %s)" % (ra, ra, rb, rb)

    # -- inline timing blocks (transcribed from interp.py / sched.py) -------

    def emit_acquire(self, n=1):
        """IssueLedger.acquire x n + ThreadCtx.issue bookkeeping; leaves ``t``.

        ``slots`` is bound once in the prologue (IssueLedger.prune would
        rebind the dict, but nothing calls it during a machine run).
        ``c + 0.0`` == ``float(c)`` exactly for any cycle count below 2**53.

        The ledger dict is shared with co-scheduled threads, but those only
        run after this generator yields: the current cycle's count lives in
        the ``(lc, ln)`` locals and the dict write is deferred until the
        cycle fills, the cycle changes, or a sync point / direct
        ``ledger.acquire`` call needs the dict authoritative again.
        """
        self.w("c = int(cur)")
        self.w("if c < cur:")
        self.w("    c += 1")
        # (lc, ln) cache the true slot count of the last acquired cycle
        # with the dict write deferred: between yields no other thread
        # runs, so the dict only needs to be correct again at the next
        # sync (or before a real ledger.acquire call). The common case
        # (same cycle, slots left) touches no dict at all.
        self.w("if c == lc and ln < %d:" % self.W)
        self.w("    ln += 1")
        self.w("else:")
        self.w("    if ln:")
        self.w("        slots[lc] = ln")
        self.w("    n = sget(c, 0)")
        self.w("    while n >= %d:" % self.W)
        self.w("        c += 1")
        self.w("        n = sget(c, 0)")
        self.w("    lc = c")
        self.w("    ln = n + 1")
        for _ in range(n - 1):
            # ``cur`` is untouched since the previous acquire landed on
            # ``lc``, so the reference's int()/ceil probe would recompute
            # exactly ``lc``; only the slot-count check remains.
            self.w("if ln < %d:" % self.W)
            self.w("    ln += 1")
            self.w("else:")
            self.w("    slots[lc] = ln")
            self.w("    c = lc + 1")
            self.w("    n = sget(c, 0)")
            self.w("    while n >= %d:" % self.W)
            self.w("        c += 1")
            self.w("        n = sget(c, 0)")
            self.w("    lc = c")
            self.w("    ln = n + 1")
        # Only the final slot's cycle is observable (ThreadCtx.issue
        # threads ``t`` through the chain and stores the last).
        self.w("t = cur = lc + 0.0")
        self.w("u += %d" % n)

    def emit_comp(self, dep_src, latency=1):
        """``comp = max(t, dep) + latency``; a statically-zero dep folds
        away (``t`` is a cursor value, never negative)."""
        if dep_src == "0.0":
            self.w("comp = t + %d" % latency)
        elif dep_src.isidentifier():
            self.w("comp = (t if t > %s else %s) + %d" % (dep_src, dep_src, latency))
        else:
            self.w("dep = %s" % dep_src)
            self.w("comp = (t if t > dep else dep) + %d" % latency)

    def emit_start(self, dep_src):
        """``start = max(t, dep)`` with the same zero-dep fold."""
        if dep_src == "0.0":
            self.w("start = t")
        elif dep_src.isidentifier():
            self.w("start = t if t > %s else %s" % (dep_src, dep_src))
        else:
            self.w("dep = %s" % dep_src)
            self.w("start = t if t > dep else dep")

    def emit_retire(self, comp_expr):
        """ThreadCtx.retire, on the ``rlast``/ring mirrors.

        The ROB deque (pop oldest once at capacity, else just grow) is a
        ring of the last ``rob_size`` retire times. The ring starts
        prefilled with 0.0: cursors are never negative, so popping a
        sentinel is exactly the reference's not-yet-full no-pop case. The
        deque itself is thread-private and observed by nothing else, so the
        ring never needs flushing back.
        """
        r = comp_expr
        if not comp_expr.isidentifier():
            self.w("r = %s" % comp_expr)
            r = "r"
        self.w("if %s > rlast:" % r)
        self.w("    rlast = %s" % r)
        self.w("oldest = ring[ri]")
        self.w("if oldest > cur:")
        self.w("    ms += oldest - cur")
        if self.traced:
            self.w("    tracer.stall(TN, 'mem', cur, oldest)")
        self.w("    cur = oldest")
        self.w("ring[ri] = rlast")
        self.w("ri += 1")
        self.w("if ri == %d:" % self.ROB)
        self.w("    ri = 0")

    def emit_mshr(self, comp_expr):
        """ThreadCtx.mshr_claim, as a prefilled ring like the ROB."""
        self.w("oldest = mring[mi]")
        self.w("if oldest > cur:")
        self.w("    ms += oldest - cur")
        if self.traced:
            self.w("    tracer.stall(TN, 'mem', cur, oldest)")
        self.w("    cur = oldest")
        self.w("mring[mi] = %s" % comp_expr)
        self.w("mi += 1")
        self.w("if mi == %d:" % self.MSHRS)
        self.w("    mi = 0")

    def emit_predict(self, pc):
        """GsharePredictor.predict_and_update on the ``ph`` mirror; needs a
        ``taken`` local in scope, leaves ``correct``."""
        self.w("pidx = (%d ^ ph) & pmask" % pc)
        self.w("pctr = ptable[pidx]")
        # Counter update, history shift, and direction check folded into the
        # taken arms: ``(pctr >= 2) == taken`` is ``pctr >= 2`` when taken
        # and ``pctr < 2`` when not.
        self.w("if taken:")
        self.w("    if pctr < 3:")
        self.w("        ptable[pidx] = pctr + 1")
        self.w("    ph = ((ph << 1) | 1) & hmask")
        self.w("    correct = pctr >= 2")
        self.w("else:")
        self.w("    if pctr > 0:")
        self.w("        ptable[pidx] = pctr - 1")
        self.w("    ph = (ph << 1) & hmask")
        self.w("    correct = pctr < 2")

    def emit_sync(self):
        """Flush every mirrored local back to the context/stats objects.

        Emitted before every ``yield`` (and at completion), so external
        observers between resumes — scheduler heap keys, tracer spans,
        deadlock reports — see reference-identical state.

        Emits a placeholder: queue-counter deltas are part of the flush but
        the full queue set is only known once the whole body has been
        emitted, so :meth:`compile` expands the marker afterwards.
        """
        self.w("#SYNC#")

    def sync_lines(self):
        """The real flush block (see emit_sync). Thread-private mirrors
        write back absolute values; counters shared with other threads
        (SimStats queue totals, HWQueue counters) accumulate as deltas and
        flush with ``+=`` / max-merge so concurrent method-path updates are
        never overwritten."""
        out = [
            "ctx.cursor = cur",
            "ctx.rob_last = rlast",
            "pred.history = ph",
            # Deferred ledger write (see emit_acquire): other threads read
            # the slot dict while this one is suspended, so make it
            # authoritative and drop the cache.
            "if ln:",
            "    slots[lc] = ln",
            "    lc = -1",
            "    ln = 0",
            # Cache hit/miss deltas: the counters are shared with RAs and
            # co-scheduled threads, so they accumulate locally and flush
            # additively (ints: exact in any interleaving).
            "l1_stats.hits += l1h",
            "l1_stats.misses += l1m",
            "l2_stats.hits += l2h",
            "l2_stats.misses += l2m",
            "l1h = l1m = l2h = l2m = 0",
        ]
        for field in MIRROR_COUNTERS + MIRROR_STALLS:
            out.append("tstats.%s = %s" % (field, _STAT_LOCALS[field]))
        if self._enq_qids or self._deq_qids:
            out.append("sstats.queue_enqs += sqe")
            out.append("sqe = 0")
            out.append("sstats.queue_deqs += sqd")
            out.append("sqd = 0")
        for qid in sorted(self._enq_qids):
            base = "q%d" % qid
            out.append("%s.total_enqs += %s_enqs" % (base, base))
            out.append("%s_enqs = 0" % base)
            out.append("if %s_mo > %s.max_occupancy:" % (base, base))
            out.append("    %s.max_occupancy = %s_mo" % (base, base))
        for qid in sorted(self._deq_qids):
            base = "q%d" % qid
            out.append("%s.total_deqs += %s_deqs" % (base, base))
            out.append("%s_deqs = 0" % base)
        return out

    def emit_l1_access(self, start="start", stream="sname", store=False):
        """Inline L1 lookup (+ stride observe unless a store); leaves
        ``latency``. ``stream`` names a local holding the stream id; the
        address line must already be in ``line``. Transcribed from
        MemorySystem.access."""
        self.w("sindex = line %% %d" % self.SCOUNT)
        self.w("tag = line // %d" % self.SCOUNT)
        self.w("entry = l1get(sindex)")
        self.w("if entry is not None and entry[0] == tag:")
        self.w("    l1h += 1")
        self.w("    latency = %d" % self.L1LAT)
        self.w("elif entry is not None and tag in entry:")
        self.w("    pos = entry.index(tag, 1)")
        self.w("    del entry[pos]")
        self.w("    entry.insert(0, tag)")
        self.w("    l1h += 1")
        self.w("    latency = %d" % self.L1LAT)
        self.w("else:")
        self.w("    if entry is None:")
        self.w("        l1_sets[sindex] = [tag]")
        self.w("    else:")
        self.w("        entry.insert(0, tag)")
        self.w("        if len(entry) > %d:" % self.L1WAYS)
        self.w("            entry.pop()")
        self.w("    l1m += 1")
        # L2 lookup inlined too (Cache.access, same discipline as the L1
        # block); only the below-L2 walk stays a call.
        self.w("    e2 = l2get(line %% %d)" % self.L2SCOUNT)
        self.w("    t2 = line // %d" % self.L2SCOUNT)
        self.w("    if e2 is not None and e2[0] == t2:")
        self.w("        l2h += 1")
        self.w("        latency = %d" % self.L2LAT)
        self.w("    elif e2 is not None and t2 in e2:")
        self.w("        pos = e2.index(t2, 1)")
        self.w("        del e2[pos]")
        self.w("        e2.insert(0, t2)")
        self.w("        l2h += 1")
        self.w("        latency = %d" % self.L2LAT)
        self.w("    else:")
        self.w("        if e2 is None:")
        self.w("            l2_sets[line %% %d] = [t2]" % self.L2SCOUNT)
        self.w("        else:")
        self.w("            e2.insert(0, t2)")
        self.w("            if len(e2) > %d:" % self.L2WAYS)
        self.w("                e2.pop()")
        self.w("        l2m += 1")
        self.w("        latency = below_l2(%d, line, %s)" % (self.ctx.core, start))
        if self.PF_ON and not store:
            self.w("sentry = pfget(%s)" % stream)
            self.w("if sentry is None:")
            self.w("    pf_streams[%s] = (line, 0, 0)" % stream)
            self.w("else:")
            self.w("    last_line, pstride, prun = sentry")
            self.w("    delta = line - last_line")
            self.w("    if delta != 0:")
            self.w(
                "        if delta == pstride and"
                " 0 < (pstride if pstride > 0 else -pstride) <= %d:" % self.MAXSTRIDE
            )
            self.w("            prun = prun + 1 if prun < 8 else 8")
            self.w("            pf_streams[%s] = (line, pstride, prun)" % stream)
            self.w("            if prun >= 2:")
            self.w("                later = %s + latency" % start)
            self.w("                for k in range(1, %d):" % (self.PF_DEG + 1))
            self.w("                    pf_one(%d, line + pstride * k, later)" % self.ctx.core)
            self.w("        else:")
            self.w("            pf_streams[%s] = (line, delta, 1)" % stream)

    # -- signal propagation -------------------------------------------------

    def emit_signal_check(self):
        """Consume/propagate a pending control signal at the innermost
        generated Python loop; emitted after every can-signal statement."""
        kind, inc = self._loop_stack[-1]
        self.w("if _sig:")
        if kind == "syn":
            self.w("    break")
        elif kind == "loop":
            self.w("    if _sig < 0:")
            self.w("        _sig = 0")
            self.w("        continue")
            self.w("    break")
        else:  # for: a consumed continue re-runs the increment first
            self.w("    if _sig < 0:")
            self.w("        _sig = 0")
            self.w("        %s" % inc)
            self.w("        continue")
            self.w("    break")

    # -- queue helpers ------------------------------------------------------

    def queue_locals(self, qid):
        """Capture queue ``qid`` and register its per-run locals; returns the
        base name. Queue latency resolves at machine setup (xcore placement),
        so it binds as a capture rather than a literal."""
        base = "q%d" % qid
        queue = self.env.queues[qid]
        self.cap(base, queue)
        if qid not in self._queue_locals:
            self._queue_locals.add(qid)
        return base

    def queue_prologue_lines(self):
        out = []
        for qid in sorted(self._queue_locals):
            base = "q%d" % qid
            out.append("%s_entries = %s.entries" % (base, base))
            out.append("%s_free = %s.slot_free" % (base, base))
            out.append("%s_lat = %s.latency" % (base, base))
            if self.traced:
                out.append("%s_tr = %s.tracer" % (base, base))
                out.append("%s_lbl = %s.label" % (base, base))
        if self._enq_qids or self._deq_qids:
            out.append("sqe = 0")
            out.append("sqd = 0")
        for qid in sorted(self._enq_qids):
            base = "q%d" % qid
            out.append("%s_enqs = 0" % base)
            out.append("%s_mo = %s.max_occupancy" % (base, base))
        for qid in sorted(self._deq_qids):
            out.append("q%d_deqs = 0" % qid)
        return out

    def emit_queue_counter(self, base, t_expr):
        if self.traced:
            self.w("if %s_tr is not None:" % base)
            self.w("    %s_tr.counter(%s_lbl, %s, len(%s_entries))" % (base, base, t_expr, base))

    def emit_wake(self, base, side):
        self.w("if %s.%s:" % (base, side))
        self.w("    _ws = %s.%s" % (base, side))
        self.w("    %s.%s = []" % (base, side))
        self.w("    for _wt in _ws:")
        self.w("        _wt.wake()")

    # -- statement emitters -------------------------------------------------
    # Each returns True when a control signal may be pending afterwards.

    def emit_body(self, body):
        can_signal = False
        for stmt in body:
            if stmt.kind == "comment":
                continue
            stepped = self.emit_stmt(stmt)
            if stepped:
                self.emit_signal_check()
                can_signal = True
        return can_signal

    def emit_stmt(self, stmt):
        method = getattr(self, "_emit_" + stmt.kind, None)
        if method is None:
            raise UnsupportedStage("unknown statement kind %r" % stmt.kind)
        return method(stmt)

    def _emit_assign(self, stmt):
        op = stmt.op
        args = stmt.args
        if op in _BINARY_EXPR:
            expr = _BINARY_EXPR[op].format(a=self.val(args[0]), b=self.val(args[1]))
            dep = self.dep2(args[0], args[1])
        elif op in TERNARY_OPS:
            expr = "(%s if %s else %s)" % (self.val(args[1]), self.val(args[0]), self.val(args[2]))
            regs = [a for a in args if _is_reg(a)]
            if not regs:
                dep = "0.0"
            elif len(regs) == 1:
                dep = self.rdy(regs[0])
            else:
                dep = "max(%s)" % ", ".join(self.rdy(a) for a in regs)
        elif op in _UNARY_EXPR:
            expr = _UNARY_EXPR[op].format(a=self.val(args[0]))
            dep = self.rdy(args[0])
        else:
            raise UnsupportedStage("unknown assign op %r" % op)
        rd, ry = self.reg(stmt.dst)
        latency = self.cfg.op_latency(op)
        # Evaluation happens after issue+dep, like the interpreter: even a
        # div-by-zero propagates with the slot already consumed.
        self.emit_acquire(1)
        self.emit_comp(dep, latency)
        self.w("%s = %s" % (rd, expr))
        self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def _binding_locals(self, operand):
        """Static ``@name`` binding -> (data, base, esize, sname, oob) capture
        names, or None for a pointer register."""
        if not (type(operand) is str and operand.startswith("@")):
            return None
        binding = self.env.arrays.get(operand[1:])
        if binding is None:
            # Unbound symbol: fall back so the error surfaces at execution
            # time with the reference engine's message, not at bind time.
            raise UnsupportedStage("unbound array %s" % operand)
        tag = operand[1:]
        d = self.cap("d_" + tag, binding.data)
        b = self.cap("b_" + tag, binding.base)
        z = self.cap("z_" + tag, binding.elem_size)
        s = self.cap("s_" + tag, binding.name)
        # One raiser per array: _oob_raiser builds a fresh closure, so a
        # second access to the same array must reuse the first one or the
        # cap() identity check would reject it as a collision.
        raiser = self._oob_raisers.get(tag)
        if raiser is None:
            raiser = self._oob_raisers[tag] = _oob_raiser(
                self.stage.name, operand, binding.data
            )
        oob = self.cap("oob_" + tag, raiser)
        return d, b, z, s, oob

    def _emit_load(self, stmt):
        static = self._binding_locals(stmt.array)
        rd, ry = self.reg(stmt.dst)
        iv = self.val(stmt.index)
        idep = self.rdy(stmt.index)
        if static is not None:
            d, b, z, s, oob = static
            self.w("idx = %s" % iv)
            self.emit_acquire(1)
            self.emit_start(idep)
            self.w("line = (%s + idx * %s) >> %d" % (b, z, self.SHIFT))
            self.emit_l1_access(stream=s)
            self.w("comp = start + latency")
            self.w("try:")
            self.w("    v = %s[idx]" % d)
            self.w("except IndexError:")
            self.w("    raise %s(idx)" % oob)
        else:
            # Pointer-register load: binding resolves per execution; the
            # pointer register's ready time joins the dependence, exactly
            # like the interpreter's array-operand ready lookup.
            self.cap("arrays", self.env.arrays)
            pr, py = self.reg(stmt.array)
            aop = self.cap("ao%d" % self.pcs[id(stmt)], stmt.array)
            self.w("bind = _rh(arrays, %s, %s)" % (aop, pr))
            self.w("idx = %s" % iv)
            self.emit_acquire(1)
            self.w("dep = %s" % idep)
            self.w("pr = %s" % py)
            self.w("if pr > dep:")
            self.w("    dep = pr")
            self.w("start = t if t > dep else dep")
            self.w("line = (bind.base + idx * bind.elem_size) >> %d" % self.SHIFT)
            self.emit_l1_access(stream="bind.name")
            self.w("comp = start + latency")
            self.w("try:")
            self.w("    v = bind.data[idx]")
            self.w("except IndexError:")
            self.w(
                "    raise SimulationError('stage %%s: load %%s[%%d] out of bounds "
                "(len %%d)' %% (SN, %s, idx, len(bind.data)))" % aop
            )
        self.w("%s = v" % rd)
        self.w("%s = comp" % ry)
        self.w("ld += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        return False

    def _emit_store(self, stmt):
        static = self._binding_locals(stmt.array)
        iv = self.val(stmt.index)
        vv = self.val(stmt.value)
        dep = self.dep2(stmt.index, stmt.value)
        if static is None:
            self.cap("arrays", self.env.arrays)
            pr, py = self.reg(stmt.array)
            aop = self.cap("ao%d" % self.pcs[id(stmt)], stmt.array)
            self.w("bind = _rh(arrays, %s, %s)" % (aop, pr))
        self.w("idx = %s" % iv)
        self.w("v = %s" % vv)
        self.emit_acquire(1)
        if static is None:
            self.emit_start(dep)
            self.w("line = (bind.base + idx * bind.elem_size) >> %d" % self.SHIFT)
            self.emit_l1_access(store=True)
            self.w("try:")
            self.w("    bind.data[idx] = v")
            self.w("except IndexError:")
            self.w(
                "    raise SimulationError('stage %%s: store %%s[%%d] out of bounds "
                "(len %%d)' %% (SN, %s, idx, len(bind.data)))" % aop
            )
        else:
            d, b, z, s, _ = static
            self.emit_start(dep)
            self.w("line = (%s + idx * %s) >> %d" % (b, z, self.SHIFT))
            self.emit_l1_access(store=True)
            self.w("try:")
            self.w("    %s[idx] = v" % d)
            self.w("except IndexError:")
            self.w(
                "    raise SimulationError('stage %%s: store %%s[%%d] out of bounds "
                "(len %%d)' %% (SN, %r, idx, len(%s)))" % (stmt.array, d)
            )
        self.w("st += 1")
        self.emit_retire("start + 1")
        return False

    def _emit_prefetch(self, stmt):
        static = self._binding_locals(stmt.array)
        iv = self.val(stmt.index)
        if static is None:
            self.cap("arrays", self.env.arrays)
            pr, _ = self.reg(stmt.array)
            aop = self.cap("ao%d" % self.pcs[id(stmt)], stmt.array)
            self.w("bind = _rh(arrays, %s, %s)" % (aop, pr))
        self.w("idx = %s" % iv)
        self.emit_acquire(1)
        self.emit_start(self.rdy(stmt.index))
        if static is None:
            self.w("if 0 <= idx < len(bind.data):")
            self.push()
            self.w("line = (bind.base + idx * bind.elem_size) >> %d" % self.SHIFT)
            self.emit_l1_access(stream="bind.name")
        else:
            d, b, z, s, _ = static
            self.w("if 0 <= idx < len(%s):" % d)
            self.push()
            self.w("line = (%s + idx * %s) >> %d" % (b, z, self.SHIFT))
            self.emit_l1_access(stream=s)
        self.w("comp = start + latency")
        self.w("ld += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        self.pop()
        return False

    def _emit_if(self, stmt):
        pc = self.pcs[id(stmt)]
        self.w("v = %s" % self.val(stmt.cond))
        self.w("taken = True if v else False")
        self.emit_acquire(1)
        self.w("br += 1")
        self.emit_predict(pc)
        cdy = self.rdy(stmt.cond)
        self.w("if not correct:")
        if cdy == "0.0":
            self.w("    resolve = t")
        else:
            self.w("    resolve = t if t > %s else %s" % (cdy, cdy))
        self.w("    target = resolve + %d" % self.PEN)
        self.w("    mp += 1")
        self.w("    bs += target - cur")
        if self.traced:
            self.w("    if target > cur:")
            self.w("        tracer.stall(TN, 'branch', cur, target)")
        self.w("    cur = target")
        then_body = [s for s in stmt.then_body if s.kind != "comment"]
        else_body = [s for s in (stmt.else_body or []) if s.kind != "comment"]
        can_signal = False
        if then_body and else_body:
            self.w("if taken:")
            self.push()
            can_signal |= self.emit_body(stmt.then_body)
            self.pop()
            self.w("else:")
            self.push()
            can_signal |= self.emit_body(stmt.else_body)
            self.pop()
        elif then_body:
            self.w("if taken:")
            self.push()
            can_signal |= self.emit_body(stmt.then_body)
            self.pop()
        elif else_body:
            self.w("if not taken:")
            self.push()
            can_signal |= self.emit_body(stmt.else_body)
            self.pop()
        return can_signal

    def _emit_for(self, stmt):
        pc = self.pcs[id(stmt)]
        i = self.fresh("i")
        hi = self.fresh("hi")
        step = self.fresh("stp")
        bd = self.fresh("bd")
        rv, ry = self.reg(stmt.var)
        self.w("%s = %s" % (i, self.val(stmt.lo)))
        self.w("%s = %s" % (hi, self.val(stmt.hi)))
        self.w("%s = %s" % (step, self.val(stmt.step)))
        self.w("%s = %s" % (bd, self.dep2(stmt.lo, stmt.hi)))
        inc = "%s += %s" % (i, step)
        self.w("while True:")
        self.push()
        self.w("taken = %s < %s" % (i, hi))
        # Loop control costs real instructions (interp.exec_for): inc,
        # compare, branch — issue(3) then the gshare predict.
        self.emit_acquire(3)
        self.w("br += 1")
        self.emit_predict(pc)
        self.w("if not correct:")
        self.w("    resolve = t if t > %s else %s" % (bd, bd))
        self.w("    target = resolve + %d" % self.PEN)
        self.w("    mp += 1")
        self.w("    d = target - cur")
        self.w("    bs += d if d > 0.0 else 0.0")
        self.w("    if target > cur:")
        if self.traced:
            self.w("        tracer.stall(TN, 'branch', cur, target)")
        self.w("        cur = target")
        self.w("if not taken:")
        self.w("    break")
        self.w("%s = %s" % (rv, i))
        self.w("%s = cur" % ry)
        self._loop_stack.append(("for", inc))
        body_signals = self.emit_body(stmt.body)
        self._loop_stack.pop()
        self.w(inc)
        self.pop()
        if body_signals:
            self.w("if _sig:")
            self.w("    _sig -= 1")
            return True
        return False

    def _emit_loop(self, stmt):
        self.w("while True:")
        self.push()
        self._loop_stack.append(("loop", None))
        body_signals = self.emit_body(stmt.body)
        self._loop_stack.pop()
        self.pop()
        if not body_signals:
            raise UnsupportedStage("loop with no reachable break")
        self.w("if _sig:")
        self.w("    _sig -= 1")
        return True

    def _emit_break(self, stmt):
        self.w("_sig = %d" % stmt.levels)
        return True

    def _emit_continue(self, stmt):
        self.w("_sig = -1")
        return True

    # -- queue statements ---------------------------------------------------

    def _emit_try_enq_inline(self, base, start_expr, value_expr, extra=None):
        """HWQueue.try_enq inlined; ``qt`` holds the completion or the
        blocked path runs. Follows StageInterp.do_enq exactly."""
        lat = "%s_lat" % base
        if extra:
            lat = "%s + %s" % (lat, extra)
        self._enq_qids.add(int(base[1:]))
        self.w("if %s_free:" % base)
        self.push()
        self.w("freed = %s_free.popleft()" % base)
        self.w("qt = freed if freed > %s else %s" % (start_expr, start_expr))
        self.w("%s_entries.append((%s, qt + %s))" % (base, value_expr, lat))
        self.w("%s_enqs += 1" % base)
        self.w("occ = len(%s_entries)" % base)
        self.w("if occ > %s_mo:" % base)
        self.w("    %s_mo = occ" % base)
        self.emit_queue_counter(base, "qt")
        self.emit_wake(base, "waiting_consumers")
        # The slot existed only in the future: effectively full now.
        self.w("if qt > start:")
        self.w("    qs += qt - cur")
        if self.traced:
            self.w("    tracer.stall(TN, 'queue', cur, qt)")
        self.w("    cur = qt")
        self.pop()
        self.w("else:")
        self.push()
        self.w("%s.full_blocks += 1" % base)
        self.w("wait_from = cur")
        self.emit_sync()
        self.w("while True:")
        self.w("    task.block(('enq', %d))" % self.env.queues[int(base[1:])].qid)
        self.w("    %s.waiting_producers.append(task)" % base)
        self.w("    yield BLOCKED")
        self.w(
            "    qt = %s.try_enq(start if start > cur else cur, %s%s)"
            % (base, value_expr, (", " + extra) if extra else "")
        )
        self.w("    if qt is not None:")
        self.w("        break")
        self.w("if qt > cur:")
        self.w("    qs += qt - wait_from")
        if self.traced:
            self.w("    tracer.stall(TN, 'queue', wait_from, qt)")
        self.w("    cur = qt")
        self.pop()

    def _emit_enq_common(self, qid, value_expr, dep_expr):
        base = self.queue_locals(qid)
        self.w("ev = %s" % value_expr)
        self.emit_acquire(1)
        self.emit_start(dep_expr)
        self._emit_try_enq_inline(base, "start", "ev")
        self.w("qo += 1")
        self.w("sqe += 1")
        self.emit_retire("(qt if qt > start else start) + 1")

    def _emit_enq(self, stmt):
        self._emit_enq_common(stmt.queue, self.val(stmt.value), self.rdy(stmt.value))
        return False

    def _emit_enq_ctrl(self, stmt):
        ctrl = self.cap("ctrl%d" % self.pcs[id(stmt)], stmt.ctrl)
        self._emit_enq_common(stmt.queue, ctrl, "0.0")
        self.w("sstats.ctrl_values += 1")
        return False

    def _emit_deq_once(self, base, qid):
        """One dequeue attempt incl. the blocked path; leaves ``dv``/``qt``."""
        self._deq_qids.add(qid)
        self.emit_acquire(1)
        self.w("if %s_entries:" % base)
        self.push()
        self.w("dv, avail = %s_entries.popleft()" % base)
        self.w("qt = avail if avail > t else t")
        self.w("%s_free.append(qt)" % base)
        self.w("%s_deqs += 1" % base)
        self.emit_queue_counter(base, "qt")
        self.emit_wake(base, "waiting_producers")
        self.pop()
        self.w("else:")
        self.push()
        self.w("%s.empty_blocks += 1" % base)
        self.w("wait_from = cur")
        self.emit_sync()
        self.w("while True:")
        self.w("    task.block(('deq', %d))" % qid)
        self.w("    %s.waiting_consumers.append(task)" % base)
        self.w("    yield BLOCKED")
        self.w("    res = %s.try_deq(cur)" % base)
        self.w("    if res is not None:")
        self.w("        break")
        self.w("dv, qt = res")
        self.w("if qt > cur:")
        self.w("    d = qt - wait_from")
        self.w("    qs += d if d > 0.0 else 0.0")
        if self.traced:
            self.w("    if qt > wait_from:")
            self.w("        tracer.stall(TN, 'queue', wait_from, qt)")
        self.w("    cur = qt")
        self.pop()
        self.w("qo += 1")
        self.w("sqd += 1")
        self.emit_retire("qt + 1")

    def _emit_deq(self, stmt):
        qid = stmt.queue
        base = self.queue_locals(qid)
        rd, ry = self.reg(stmt.dst)
        handler = self.stage.handlers.get(qid)
        if handler is None:
            self._emit_deq_once(base, qid)
            self.w("%s = dv" % rd)
            self.w("%s = qt" % ry)
            return False
        if qid in self._handler_stack:
            raise UnsupportedStage("recursive control handler on queue %d" % qid)
        cr, cy = self.reg("%ctrl")
        self.w("while True:")
        self.push()
        self._emit_deq_once(base, qid)
        self.w("if type(dv) is Ctrl:")
        self.push()
        self.w("%s = dv" % cr)
        self.w("%s = qt" % cy)
        self._handler_stack.append(qid)
        self._loop_stack.append(("syn", None))
        handler_signals = self.emit_body(handler)
        self._loop_stack.pop()
        self._handler_stack.pop()
        self.w("continue")  # handler fell through: retry the dequeue
        self.pop()
        self.w("%s = dv" % rd)
        self.w("%s = qt" % ry)
        self.w("break")
        self.pop()
        return handler_signals

    def _emit_peek(self, stmt):
        qid = stmt.queue
        base = self.queue_locals(qid)
        rd, ry = self.reg(stmt.dst)
        self.emit_acquire(1)
        self.w("if %s_entries:" % base)
        self.w("    dv, avail = %s_entries[0]" % base)
        self.w("    qt = avail if avail > t else t")
        self.w("else:")
        self.push()
        self.w("wait_from = cur")
        self.emit_sync()
        self.w("while True:")
        self.w("    task.block(('peek', %d))" % qid)
        self.w("    %s.waiting_consumers.append(task)" % base)
        self.w("    yield BLOCKED")
        self.w("    res = %s.try_peek(cur)" % base)
        self.w("    if res is not None:")
        self.w("        break")
        self.w("dv, qt = res")
        self.w("if qt > cur:")
        self.w("    d = qt - wait_from")
        self.w("    qs += d if d > 0.0 else 0.0")
        if self.traced:
            self.w("    if qt > wait_from:")
            self.w("        tracer.stall(TN, 'queue', wait_from, qt)")
        self.w("    cur = qt")
        self.pop()
        self.w("%s = dv" % rd)
        self.w("%s = qt" % ry)
        self.emit_retire("qt + 1")
        return False

    def _emit_is_control(self, stmt):
        rd, ry = self.reg(stmt.dst)
        self.w("v = %s" % self.val(stmt.src))
        self.emit_acquire(1)
        self.emit_comp(self.rdy(stmt.src))
        self.w("%s = 1 if type(v) is Ctrl else 0" % rd)
        self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def _emit_call(self, stmt):
        self.cap("intrinsics", self.env.intrinsics)
        self.cap("acquire", self._acquire)
        vals = ", ".join(self.val(a) for a in stmt.args)
        regs = [a for a in stmt.args if _is_reg(a)]
        self.w("fn = intrinsics.get(%r)" % stmt.func)
        self.w("if fn is None:")
        self.w("    raise SimulationError('unbound intrinsic %%r' %% (%r,))" % stmt.func)
        self.w("k = fn.cost")
        self.w("if k < 1:")
        self.w("    k = 1")
        # Intrinsic cost is a runtime property of the binding; the generic
        # acquire chain mirrors ThreadCtx.issue(n). The real ledger method
        # reads the slot dict, so the deferred write must land first.
        self.w("if ln:")
        self.w("    slots[lc] = ln")
        self.w("    lc = -1")
        self.w("    ln = 0")
        self.w("t = acquire(cur)")
        self.w("for _ in range(k - 1):")
        self.w("    t = acquire(t)")
        self.w("cur = t")
        self.w("u += k")
        if not regs:
            dep = "0.0"
        elif len(regs) == 1:
            dep = self.rdy(regs[0])
        else:
            dep = "max(%s)" % ", ".join(self.rdy(a) for a in regs)
        self.emit_comp(dep)
        self.w("res = fn.fn(%s)" % vals)
        if stmt.dst is not None:
            rd, ry = self.reg(stmt.dst)
            self.w("%s = res if res is not None else 0" % rd)
            self.w("%s = comp" % ry)
        self.emit_retire("comp")
        return False

    def _emit_barrier(self, stmt):
        self.cap("barrier_of", _barrier_of)
        self.w("bobj = barrier_of(env)")
        self.w("rel = bobj.arrive(task, cur)")
        self.w("if rel is None:")
        self.push()
        self.w("task.block(('barrier', %r))" % stmt.tag)
        self.emit_sync()
        self.w("yield BLOCKED")
        self.w("rel = bobj.last_release")
        self.pop()
        self.w("if rel > cur:")
        self.w("    bars += rel - cur")
        if self.traced:
            self.w("    tracer.stall(TN, 'barrier', cur, rel)")
        self.w("    cur = rel")
        return False

    def _emit_read_shared(self, stmt):
        self.cap("shared", self.env.shared)
        rd, ry = self.reg(stmt.dst)
        self.emit_acquire(1)
        self.w("%s = shared.read(%r)" % (rd, stmt.var))
        self.w("%s = t + 1" % ry)
        self.emit_retire("t + 1")
        return False

    def _emit_write_shared(self, stmt):
        self.cap("shared", self.env.shared)
        self.w("v = %s" % self.val(stmt.value))
        self.emit_acquire(1)
        self.w("shared.write(%r, v)" % stmt.var)
        self.emit_comp(self.rdy(stmt.value))
        self.emit_retire("comp")
        return False

    def _emit_atomic_rmw(self, stmt):
        self.cap("mem_access", self._mem_access)
        static = self._binding_locals(stmt.array)
        if stmt.op not in _BINARY_EXPR:
            raise UnsupportedStage("unknown atomic op %r" % stmt.op)
        if static is None:
            self.cap("arrays", self.env.arrays)
            pr, _ = self.reg(stmt.array)
            aop = self.cap("ao%d" % self.pcs[id(stmt)], stmt.array)
            self.w("bind = _rh(arrays, %s, %s)" % (aop, pr))
        self.w("idx = %s" % self.val(stmt.index))
        self.w("v = %s" % self.val(stmt.value))
        self.emit_acquire(3)
        self.emit_start(self.dep2(stmt.index, stmt.value))
        if static is None:
            self.w("addr = bind.base + idx * bind.elem_size")
            self.w("latency = mem_access(%d, addr, start, stream_id=bind.name)" % self.ctx.core)
            self.w("comp = start + latency + env.atomic_overhead")
            self.w("old = bind.data[idx]")
            self.w("bind.data[idx] = %s" % _BINARY_EXPR[stmt.op].format(a="old", b="v"))
        else:
            d, b, z, s, _ = static
            self.w("addr = %s + idx * %s" % (b, z))
            self.w("latency = mem_access(%d, addr, start, stream_id=%s)" % (self.ctx.core, s))
            self.w("comp = start + latency + env.atomic_overhead")
            self.w("old = %s[idx]" % d)
            self.w("%s[idx] = %s" % (d, _BINARY_EXPR[stmt.op].format(a="old", b="v")))
        if stmt.dst is not None:
            rd, ry = self.reg(stmt.dst)
            self.w("%s = old" % rd)
            self.w("%s = comp" % ry)
        self.w("ld += 1")
        self.w("st += 1")
        self.emit_mshr("comp")
        self.emit_retire("comp")
        return False

    def _emit_do_enq_dynamic(self, queue_var, value_expr, dep_expr, extra_var):
        """StageInterp.do_enq on a runtime-resolved queue (method calls)."""
        self.w("ev = %s" % value_expr)
        self.emit_acquire(1)
        self.emit_start(dep_expr)
        self.w("qt = %s.try_enq(start, ev, %s)" % (queue_var, extra_var))
        self.w("if qt is None:")
        self.push()
        self.w("wait_from = cur")
        self.emit_sync()
        self.w("while True:")
        self.w("    task.block(('enq', %s.qid))" % queue_var)
        self.w("    %s.waiting_producers.append(task)" % queue_var)
        self.w("    yield BLOCKED")
        self.w(
            "    qt = %s.try_enq(start if start > cur else cur, ev, %s)"
            % (queue_var, extra_var)
        )
        self.w("    if qt is not None:")
        self.w("        break")
        self.w("if qt > cur:")
        self.w("    qs += qt - wait_from")
        if self.traced:
            self.w("    tracer.stall(TN, 'queue', wait_from, qt)")
        self.w("    cur = qt")
        self.pop()
        self.w("elif qt > start:")
        self.w("    qs += qt - cur")
        if self.traced:
            self.w("    tracer.stall(TN, 'queue', cur, qt)")
        self.w("    cur = qt")
        self.w("qo += 1")
        self.w("sstats.queue_enqs += 1")
        self.emit_retire("(qt if qt > start else start) + 1")

    def _emit_enq_dist(self, stmt):
        self.cap("remote_queue", self._remote_queue)
        self.cap("self_interp", None)  # patched post-construction
        self.w("rq, rx = remote_queue(self_interp, %d, %s)" % (stmt.queue, self.val(stmt.replica)))
        self._emit_do_enq_dynamic("rq", self.val(stmt.value), self.rdy(stmt.value), "rx")
        return False

    def _emit_enq_ctrl_dist(self, stmt):
        self.cap("all_replica_queues", self._all_replica_queues)
        self.cap("self_interp", None)  # patched post-construction
        ctrl = self.cap("ctrl%d" % self.pcs[id(stmt)], stmt.ctrl)
        self.w("for rq, rx in all_replica_queues(self_interp, %d):" % stmt.queue)
        self.push()
        self._emit_do_enq_dynamic("rq", ctrl, "0.0", "rx")
        self.w("sstats.ctrl_values += 1")
        self.pop()
        return False

    # -- whole-stage assembly ----------------------------------------------

    def compile(self):
        """Emit the full generator-function source; returns (source, captures)."""
        # Body first (at indent 2, inside the top-level synthetic loop):
        # emission discovers registers, queues, and captures as it goes.
        self._loop_stack.append(("syn", None))
        self.emit_body(self.stage.body)
        self._loop_stack.pop()
        # Expand sync markers now that the full queue set is known.
        sync = self.sync_lines()
        body_lines = []
        for line in self.lines:
            text = line.lstrip()
            if text == "#SYNC#":
                pad = line[: len(line) - len(text)]
                body_lines.extend(pad + s for s in sync)
            else:
                body_lines.append(line)
        self.cap("self_interp", None)  # patched with the interp object per run

        head = ["def __batch_stage(C):"]

        def p(text):
            head.append("    " + text)

        for name in sorted(self.captures):
            p("%s = C[%r]" % (name, name))
        p("regs = ctx.regs")
        p("ready = ctx.ready")
        p("ptable = pred.table")
        p("pmask = pred.mask")
        p("hmask = pred.history_mask")
        # Hot structures bound once: the ledger's slot dict is only rebound
        # by IssueLedger.prune, which no machine-run path calls. The ROB and
        # MSHR live as prefilled rings (see emit_retire); ThreadCtx always
        # hands the engine freshly-empty deques, so the rings start at zero.
        p("slots = ledger.slots")
        p("sget = slots.get")
        p("lc = -1")
        p("ln = 0")
        p("l1h = l1m = l2h = l2m = 0")
        p("l1get = l1_sets.get")
        p("l2get = l2_sets.get")
        p("pfget = pf_streams.get")
        p("ring = [0.0] * %d" % self.ROB)
        p("ri = 0")
        p("mring = [0.0] * %d" % self.MSHRS)
        p("mi = 0")
        for line in self.queue_prologue_lines():
            p(line)
        p("cur = ctx.cursor")
        p("rlast = ctx.rob_last")
        p("ph = pred.history")
        for field in MIRROR_COUNTERS + MIRROR_STALLS:
            p("%s = tstats.%s" % (_STAT_LOCALS[field], field))
        p("_sig = 0")
        p("tstats.start_cycle = cur")
        # Registers live as frame locals; scalar parameters were bound into
        # ctx.regs before engine construction, everything else starts unset.
        for name in sorted(self.regmap):
            rd, ry = self.regmap[name]
            p("%s = regs.get(%r)" % (rd, name))
            p("%s = ready.get(%r, 0.0)" % (ry, name))
        p("if False:")
        p("    yield BLOCKED  # makes this a generator even for never-blocking stages")
        # The top-level body runs inside a transparent one-shot loop so a
        # (dangling) signal can skip the remaining statements, exactly like
        # exec_body returning early.
        p("while True:")

        tail = []

        def q(text):
            tail.append("    " + text)

        q("    break")
        q("if _sig:")
        q("    raise _dangle(SN, _sig)")
        # Normal completion: flush mirrors, write registers back, finish.
        for line in sync:
            q(line)
        for name in sorted(self.regmap):
            rd, ry = self.regmap[name]
            q("regs[%r] = %s" % (name, rd))
            q("ready[%r] = %s" % (name, ry))
        q("tstats.end_cycle = cur")
        q("env.on_thread_done(self_interp)")

        source = "\n".join(head + body_lines + tail) + "\n"
        return source, self.captures


def _barrier_of(env):
    return env.barrier


class _CompiledStage:
    """One compiled stage thread; public surface mirrors StageInterp."""

    def __init__(self, stage, ctx, runenv, source, captures):
        self.stage = stage
        self.ctx = ctx
        self.env = runenv
        self.handlers = stage.handlers
        captures = dict(captures)
        captures["self_interp"] = self
        self._captures = captures
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            code = compile(source, "<batchpath:%s>" % stage.name, "exec")
            _CODE_CACHE[source] = code
        namespace = {
            "BLOCKED": BLOCKED,
            "Ctrl": Ctrl,
            "SimulationError": SimulationError,
        }
        exec(code, namespace)
        self._fn = namespace["__batch_stage"]
        self.source = source  # kept for introspection/debugging

    def run(self):
        return self._fn(self._captures)


def BatchStageInterp(stage, ctx, runenv):
    """Factory: the batch-compiled stage thread, or the reference
    interpreter when the stage's shape is outside the compiler (drop-in
    for StageInterp)."""
    try:
        compiler = _StageCompiler(stage, ctx, runenv)
        source, captures = compiler.compile()
        return _CompiledStage(stage, ctx, runenv, source, captures)
    except UnsupportedStage:
        return StageInterp(stage, ctx, runenv)
