"""Canonical IR serialization: stability, completeness, process-invariance."""

import subprocess
import sys

import pytest

from repro.core import CompileOptions, compile_function
from repro.errors import PhloemError
from repro.ir import canonical_function, canonical_pipeline, fingerprint
from repro.workloads import bfs, spmm


def test_fingerprint_stable_under_clone():
    fn = bfs.function()
    assert fingerprint(fn) == fingerprint(fn.clone())


def test_pipeline_fingerprint_stable_under_clone():
    pipeline = compile_function(bfs.function(), options=CompileOptions(num_stages=3))
    assert fingerprint(pipeline) == fingerprint(pipeline.clone())


def test_fingerprint_distinguishes_functions():
    assert fingerprint(bfs.function()) != fingerprint(spmm.function())


def test_fingerprint_tracks_pipeline_shape():
    fn = bfs.function()
    p2 = compile_function(fn, options=CompileOptions(num_stages=2))
    p4 = compile_function(fn, options=CompileOptions(num_stages=4))
    assert fingerprint(p2) != fingerprint(p4)


def test_pipeline_meta_excluded():
    fn = bfs.function()
    a = compile_function(fn, options=CompileOptions(num_stages=3))
    b = compile_function(fn, options=CompileOptions(num_stages=3))
    b.meta["provenance"] = "different"
    assert fingerprint(a) == fingerprint(b)


def test_canonical_text_covers_queues_and_stages():
    text = canonical_pipeline(compile_function(
        bfs.function(), options=CompileOptions(num_stages=3)
    ))
    assert text.startswith("pipeline ")
    assert "queue " in text and "stage " in text


def test_canonical_function_lists_arrays_sorted():
    text = canonical_function(bfs.function())
    arrays = [line.split()[1] for line in text.splitlines() if line.startswith("array ")]
    assert arrays == sorted(arrays)


def test_unknown_object_raises():
    with pytest.raises(PhloemError):
        fingerprint(object())


def test_unknown_statement_kind_raises():
    class Mystery:
        kind = "mystery"

    fn = bfs.function()
    fn.body.append(Mystery())
    with pytest.raises(PhloemError):
        fingerprint(fn)


def test_fingerprint_stable_across_processes():
    """The cache key must not depend on per-process state (PYTHONHASHSEED)."""
    code = (
        "from repro.ir import fingerprint\n"
        "from repro.workloads import bfs\n"
        "print(fingerprint(bfs.function()))\n"
    )
    prints = set()
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            cwd="/root/repo",
            check=True,
        )
        prints.add(proc.stdout.strip())
    assert prints == {fingerprint(bfs.function())}
