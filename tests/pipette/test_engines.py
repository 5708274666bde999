"""Engine selection and the batch engine's per-stage fallback.

The batch engine compiles each stage into one generated generator; a stage
shape the compiler cannot express raises
:class:`~repro.pipette.batchpath.UnsupportedStage` and that stage runs on
the reference interpreter instead. Every raise site is forced here, and
each forced run must still be bit-identical to ``engine="reference"``.
"""

import pytest

from repro import ir
from repro.bench.harness import adapter_for
from repro.cli import build_parser
from repro.errors import SimulationError
from repro.pipette import batchpath
from repro.pipette.fastpath import ENGINES, resolve_engine
from repro.pipette.interp import StageInterp
from repro.pipette.machine import Machine
from repro.runtime import run_pipeline


@pytest.fixture
def batch_builds(monkeypatch):
    """Records what every batch stage construction returned and, for each
    stage that fell back, the :class:`UnsupportedStage` reason."""
    built = []
    reasons = {}

    def build(stage, ctx, env):
        interp = batchpath.BatchStageInterp(stage, ctx, env)
        built.append((stage.name, type(interp)))
        return interp

    original = batchpath._StageCompiler.compile

    def compile_recording(self):
        try:
            return original(self)
        except batchpath.UnsupportedStage as exc:
            reasons[self.stage.name] = str(exc)
            raise

    monkeypatch.setitem(Machine._ENGINE_CLASSES, "batch", build)
    monkeypatch.setattr(batchpath._StageCompiler, "compile", compile_recording)
    return built, reasons


def _assert_identical(result, oracle):
    assert result.arrays == oracle.arrays
    assert result.cycles == oracle.cycles
    assert result.stats.summary() == oracle.stats.summary()
    assert result.breakdown() == oracle.breakdown()
    assert result.energy().as_dict() == oracle.energy().as_dict()


# -- engine selection ---------------------------------------------------------


def test_default_engine_is_batch(monkeypatch):
    assert ENGINES == ("reference", "batch")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(None) == "batch"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert resolve_engine(None) == "reference"
    assert resolve_engine(None, "batch") == "batch"  # explicit beats env


@pytest.mark.parametrize("via", ["argument", "env"])
@pytest.mark.parametrize("name", ["fastpath", "warp-drive"])
def test_unknown_engine_is_named_error(name, via, monkeypatch):
    """The retired fastpath engine fails like any unknown name; it never
    silently runs another engine."""
    pipeline, arrays, scalars = _two_stage()
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    kwargs = {"engine": name}
    if via == "env":
        monkeypatch.setenv("REPRO_ENGINE", name)
        kwargs = {}
    with pytest.raises(ValueError, match="reference, batch") as info:
        run_pipeline(pipeline, arrays, scalars, **kwargs)
    assert repr(name) in str(info.value)


@pytest.mark.parametrize("name", ["fastpath", "warp-drive"])
def test_bench_perf_rejects_unknown_engine_flag(name, capsys):
    # argparse exits 2 before anything is measured.
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["bench", "perf", "--engine", name])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "reference" in err and "batch" in err


# -- the bc data-parallel pipeline compiles every stage -----------------------


def test_bc_data_parallel_compiles_every_stage(batch_builds, micro_graph, tiny_config):
    """bc's dp workers issue several atomic RMWs per stage; each must reuse
    one captured ``mem_access`` rather than collide and fall back."""
    built, reasons = batch_builds
    adapter = adapter_for("bc")
    arrays, scalars = adapter.dp_env(micro_graph, 3)
    pipeline = adapter.dp_pipeline(3)
    result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="batch")
    oracle = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="reference")
    assert len(built) == 3
    assert reasons == {}
    assert all(kind is batchpath._CompiledStage for _, kind in built)
    _assert_identical(result, oracle)


#: Two statements per stage that capture the same bound method by name.
REPEATED_CAPTURES = {
    "call": dict(consumer_extra=[
        ir.Call("x", "work", ["v"]), ir.Call("y", "work", ["x"]),
    ]),
    "atomic_rmw": dict(consumer_extra=[
        ir.AtomicRMW(None, "add", "@hi", 0, "v"), ir.AtomicRMW(None, "max", "@hi", 1, "v"),
    ], extra_arrays=("hi",)),
    "enq_dist": dict(producer_tail=[ir.EnqDist(0, 100, 0), ir.EnqDist(0, 200, 0)]),
    "enq_ctrl_dist": dict(producer_tail=[
        ir.EnqCtrlDist(0, ir.Ctrl("NEXT")), ir.EnqCtrlDist(0, ir.Ctrl("NEXT")),
    ]),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_CAPTURES))
def test_repeated_bound_method_captures_compile(kind, batch_builds, tiny_config):
    built, reasons = batch_builds
    pipeline, arrays, scalars = _two_stage(**REPEATED_CAPTURES[kind])
    pipeline.intrinsics = {"work": ir.Intrinsic("work", lambda x: x * 2, cost=3)}
    result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="batch")
    oracle = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="reference")
    assert reasons == {}
    assert sorted(built) == [("c", batchpath._CompiledStage), ("p", batchpath._CompiledStage)]
    _assert_identical(result, oracle)


# -- every UnsupportedStage raise site falls back to the reference ------------


def _two_stage(consumer_extra=(), handler=None, producer_tail=(), extra_arrays=()):
    """Producer streams ``a[0..n)``, then ``producer_tail``, then ``DONE``;
    the consumer sums the stream into ``out[0]``, runs ``consumer_extra``
    once per element, and leaves its loop through the queue-0 handler."""
    b0 = ir.IRBuilder()
    with b0.for_("i", 0, "n"):
        v = b0.load("@a", "i")
        b0.enq(0, v)
    for stmt in producer_tail:
        b0.emit(stmt)
    b0.enq_ctrl(0, "DONE")
    producer = ir.StageProgram(0, "p", b0.finish())

    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    b1.mov(0, dst="zero")
    b1.mov(0, dst="seen")
    with b1.loop():
        v = b1.deq(0, dst="v")
        b1.binop("add", "acc", v, dst="acc")
        for stmt in consumer_extra:
            b1.emit(stmt)
    b1.store("@out", 0, "acc")
    consumer = ir.StageProgram(
        1, "c", b1.finish(), handlers={0: handler or [ir.Break(1)]}
    )
    decls = {"a": ir.ArrayDecl("a"), "out": ir.ArrayDecl("out")}
    for name in extra_arrays:
        decls[name] = ir.ArrayDecl(name)
    pipeline = ir.PipelineProgram(
        "t", [producer, consumer], [ir.QueueSpec(0, ("stage", 0), ("stage", 1))], [],
        decls, ["n"],
    )
    arrays = {"a": [3, 1, 4, 1, 5, 9, 2, 6], "out": [0]}
    arrays.update({name: [0] * 8 for name in extra_arrays})
    return pipeline, arrays, {"n": 8}


def _case_size_guard(monkeypatch):
    monkeypatch.setattr(batchpath, "_MAX_LINES", 10)
    return _two_stage(), {"p", "c"}, "generated stage body too large"


def _case_capture_collision(monkeypatch):
    # Names are unique per object for every capture verified IR can emit,
    # so occupy the consumer's ``out`` data capture with a foreign list.
    original = batchpath._StageCompiler.__init__

    def seeded(self, stage, ctx, runenv):
        original(self, stage, ctx, runenv)
        self.captures["d_out"] = ["foreign"]

    monkeypatch.setattr(batchpath._StageCompiler, "__init__", seeded)
    return _two_stage(), {"c"}, "capture name collision 'd_out'"


def _case_unknown_statement_kind(monkeypatch):
    monkeypatch.delattr(batchpath._StageCompiler, "_emit_prefetch")
    extra = [ir.Prefetch("@a", "v")]
    return _two_stage(extra), {"c"}, "unknown statement kind 'prefetch'"


def _case_unknown_assign_op(monkeypatch):
    monkeypatch.delitem(batchpath._BINARY_EXPR, "xor")
    extra = [ir.Assign("x", "xor", ["acc", "v"]), ir.Store("@out", 0, "x")]
    return _two_stage(extra), {"c"}, "unknown assign op 'xor'"


def _case_unbound_array(monkeypatch):
    # The verifier rejects an undeclared array symbol, so the machine's
    # check is bypassed; the load sits on a never-taken branch.
    monkeypatch.setattr(
        "repro.pipette.machine.verify_pipeline", lambda *args, **kwargs: None
    )
    extra = [ir.If("zero", [ir.Load("g", "@ghost", 0)], [])]
    return _two_stage(extra), {"c"}, "unbound array @ghost"


def _case_recursive_handler(monkeypatch):
    # The queue-0 handler dequeues queue 0 itself: NEXT pulls the trailing
    # element into the sum, DONE leaves the loop.
    handler = [
        ir.Assign("seen", "add", ["seen", 1]),
        ir.Assign("stop", "ge", ["seen", 2]),
        ir.If("stop", [ir.Break(1)], []),
        ir.Deq("w", 0),
        ir.Assign("acc", "add", ["acc", "w"]),
    ]
    tail = [ir.EnqCtrl(0, ir.Ctrl("NEXT")), ir.Enq(0, 100)]
    return (
        _two_stage(handler=handler, producer_tail=tail),
        {"c"},
        "recursive control handler on queue 0",
    )


def _case_unknown_atomic_op(monkeypatch):
    monkeypatch.delitem(batchpath._BINARY_EXPR, "max")
    extra = [ir.AtomicRMW(None, "max", "@hi", 0, "v")]
    return (
        _two_stage(extra, extra_arrays=("hi",)), {"c"}, "unknown atomic op 'max'"
    )


FALLBACK_CASES = {
    "size_guard": _case_size_guard,
    "capture_collision": _case_capture_collision,
    "unknown_statement_kind": _case_unknown_statement_kind,
    "unknown_assign_op": _case_unknown_assign_op,
    "unbound_array": _case_unbound_array,
    "recursive_handler": _case_recursive_handler,
    "unknown_atomic_op": _case_unknown_atomic_op,
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_unsupported_stage_falls_back_to_reference(case, monkeypatch, batch_builds, tiny_config):
    built, reasons = batch_builds
    (pipeline, arrays, scalars), fallen, reason = FALLBACK_CASES[case](monkeypatch)
    result = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="batch")
    oracle = run_pipeline(pipeline, arrays, scalars, config=tiny_config, engine="reference")
    assert set(reasons) == fallen
    assert all(text == reason for text in reasons.values())
    assert sorted(name for name, _ in built) == ["c", "p"]
    for name, kind in built:
        assert kind is (StageInterp if name in fallen else batchpath._CompiledStage)
    _assert_identical(result, oracle)
    assert result.arrays["out"][0] > 0


def test_loop_without_break_falls_back_to_reference(batch_builds, tiny_config):
    """A ``loop`` with no reachable break can only end in an error; the
    fallback raises the reference interpreter's own error."""
    built, reasons = batch_builds
    b = ir.IRBuilder()
    b.mov(0, dst="i")
    with b.loop():
        v = b.load("@a", "i")
        b.store("@a", "i", v)
        b.binop("add", "i", 1, dst="i")
    stage = ir.StageProgram(0, "spin", b.finish())
    pipeline = ir.PipelineProgram("t", [stage], [], [], {"a": ir.ArrayDecl("a")}, [])
    errors = {}
    for engine in ("batch", "reference"):
        with pytest.raises(SimulationError, match="out of bounds") as info:
            run_pipeline(pipeline, {"a": [1, 2, 3]}, {}, config=tiny_config, engine=engine)
        errors[engine] = str(info.value)
    assert errors["batch"] == errors["reference"]
    assert reasons == {"spin": "loop with no reachable break"}
    assert built == [("spin", StageInterp)]
