"""Reference accelerators: indirect, scan, chaining, control forwarding.

Every test runs on both engines: the reference RA (the oracle) and the
batch engine's generated RA, which must match it bit for bit.
"""

import copy

import pytest

from repro import ir
from repro.errors import SimulationError
from repro.pipette import Machine, MachineConfig, RunSpec, batchpath
from repro.pipette.fastpath import ENGINES
from repro.pipette.refaccel import RAEngine


def _pipe(stages, queues, ras, arrays):
    decls = {name: ir.ArrayDecl(name) for name in arrays}
    return ir.PipelineProgram("t", stages, queues, ras, decls, [])


def _run(pipe, arrays, config=None):
    """Run ``pipe`` on every engine and return the reference result; each
    engine's arrays, cycles and ``stats.summary()`` must equal the oracle's."""
    config = config or MachineConfig()
    results = {
        name: Machine(config, engine=name).run(RunSpec(pipe, copy.deepcopy(arrays), {}))
        for name in ENGINES
    }
    oracle = results["reference"]
    for name, result in results.items():
        assert result.arrays() == oracle.arrays(), name
        assert result.cycles == oracle.cycles, name
        assert result.stats.summary() == oracle.stats.summary(), name
    return oracle


def _indirect_pipe(indices):
    b0 = ir.IRBuilder()
    for idx in indices:
        b0.enq(0, idx)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, len(indices)):
        v = b1.deq(1)
        b1.store("@out", "i", v)
    s1 = ir.StageProgram(1, "c", b1.finish())
    return _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)],
        {"a": None, "out": None},
    )


def test_indirect_ra():
    res = _run(_indirect_pipe((2, 0, 1)), {"a": [10, 11, 12], "out": [0, 0, 0]})
    assert res.arrays()["out"] == [12, 10, 11]
    assert res.stats.ra_loads == 3


def test_scan_ra():
    b0 = ir.IRBuilder()
    b0.enq(0, 1)
    b0.enq(0, 4)  # scan [1, 4)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.for_("i", 0, 3):
        v = b1.deq(1)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_SCAN, "@a", 0, 1)],
        {"a": None, "out": None},
    )
    res = _run(pipe, {"a": [100, 1, 2, 3, 100], "out": [0]})
    assert res.arrays()["out"] == [6]


def test_chained_ras_bfs_shape():
    """nodes-indirect chained into edges-scan: the paper's BFS chain."""
    nodes = [0, 2, 5]
    edges = [7, 8, 9, 10, 11]
    b0 = ir.IRBuilder()
    for v in (0, 1):
        b0.enq(0, v)
        b0.enq(0, v + 1)
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    with b1.for_("i", 0, 5):
        v = b1.deq(2)
        b1.store("@out", "i", v)
    s1 = ir.StageProgram(1, "c", b1.finish())
    pipe = _pipe(
        [s0, s1],
        [
            ir.QueueSpec(0, ("stage", 0), ("ra", 0)),
            ir.QueueSpec(1, ("ra", 0), ("ra", 1)),
            ir.QueueSpec(2, ("ra", 1), ("stage", 1)),
        ],
        [
            ir.RASpec(0, ir.RA_INDIRECT, "@nodes", 0, 1),
            ir.RASpec(1, ir.RA_SCAN, "@edges", 1, 2),
        ],
        {"nodes": None, "edges": None, "out": None},
    )
    res = _run(pipe, {"nodes": nodes, "edges": edges, "out": [0] * 5})
    assert res.arrays()["out"] == edges


def test_ctrl_forwarded_through_chain():
    b0 = ir.IRBuilder()
    b0.enq(0, 0)
    b0.enq(0, 1)
    b0.enq_ctrl(0, "DONE")
    s0 = ir.StageProgram(0, "p", b0.finish())
    b1 = ir.IRBuilder()
    b1.mov(0, dst="acc")
    with b1.loop():
        v = b1.deq(1)
        b1.binop("add", "acc", v, dst="acc")
    b1.store("@out", 0, "acc")
    s1 = ir.StageProgram(1, "c", b1.finish(), handlers={1: [ir.Break(1)]})
    pipe = _pipe(
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
        [ir.RASpec(0, ir.RA_INDIRECT, "@a", 0, 1)],
        {"a": None, "out": None},
    )
    res = _run(pipe, {"a": [5, 6], "out": [0]})
    assert res.arrays()["out"] == [11]


def test_ra_overlaps_memory():
    """An RA keeps ra_mshrs loads in flight: much faster than serialized."""
    import random

    rng = random.Random(0)
    n = 400
    table = [rng.randrange(n) for _ in range(n)]
    data = [rng.randrange(100) for _ in range(n)]

    def run(mshrs):
        b0 = ir.IRBuilder()
        with b0.for_("i", 0, n):
            idx = b0.load("@table", "i")
            b0.enq(0, idx)
        s0 = ir.StageProgram(0, "p", b0.finish())
        b1 = ir.IRBuilder()
        b1.mov(0, dst="acc")
        with b1.for_("i", 0, n):
            v = b1.deq(1)
            b1.binop("add", "acc", v, dst="acc")
        b1.store("@out", 0, "acc")
        s1 = ir.StageProgram(1, "c", b1.finish())
        pipe = _pipe(
            [s0, s1],
            [ir.QueueSpec(0, ("stage", 0), ("ra", 0)), ir.QueueSpec(1, ("ra", 0), ("stage", 1))],
            [ir.RASpec(0, ir.RA_INDIRECT, "@data", 0, 1)],
            {"table": None, "data": None, "out": None},
        )
        from repro.pipette.config import CacheConfig

        cfg = MachineConfig(
            ra_mshrs=mshrs,
            l1=CacheConfig(1024, 2, 4),
            l2=CacheConfig(2048, 4, 12),
            l3_per_core=CacheConfig(4096, 8, 40),
        )
        res = _run(pipe, {"table": table, "data": data, "out": [0]}, cfg)
        assert res.arrays()["out"] == [sum(data[i] for i in table)]
        return res.cycles

    assert run(16) < 0.7 * run(1)


@pytest.mark.parametrize("engine", ENGINES)
def test_ra_load_out_of_bounds(engine):
    pipe = _indirect_pipe((1, 5))
    with pytest.raises(SimulationError) as info:
        Machine(MachineConfig(), engine=engine).run(
            RunSpec(pipe, {"a": [10, 11, 12], "out": [0, 0]}, {})
        )
    assert str(info.value) == "RA 0: load @a[5] out of bounds (len 3)"


def test_batch_engine_compiles_ras(monkeypatch):
    """The batch engine runs generated RAs, not the oracle; a misconfigured
    RA falls back to the oracle, which raises its own error."""
    built = []

    def build(spec, env, task):
        ra = batchpath.BatchRAEngine(spec, env, task)
        built.append(type(ra))
        return ra

    monkeypatch.setitem(Machine._RA_CLASSES, "batch", build)
    Machine(MachineConfig(), engine="batch").run(
        RunSpec(_indirect_pipe((0,)), {"a": [1], "out": [0]}, {})
    )
    assert built == [batchpath._CompiledRA]

    pipe = _indirect_pipe((0,))
    pipe.ras[0].mode = "gather"
    with pytest.raises(SimulationError, match="RA 0: unknown mode 'gather'"):
        Machine(MachineConfig(), engine="batch").run(RunSpec(pipe, {"a": [1], "out": [0]}, {}))
    assert built[-1] is RAEngine
