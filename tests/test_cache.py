"""Memo layers: hits, misses, invalidation, disk persistence."""

import pytest

from repro import CompileOptions, cache
from repro.ir import fingerprint
from repro.pipette.config import SCALED_1CORE
from repro.workloads import bfs
from repro.workloads.graphs import uniform_random


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk layer at a fresh directory; start from zero."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache.reset()
    yield
    cache.reset()


def test_compile_cache_hit():
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    first = cache.cached_compile(fn, options)
    second = cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 1, "misses": 1}
    assert fingerprint(first) == fingerprint(second)
    assert first is not second  # callers get independent clones
    assert second.intrinsics.keys() == fn.intrinsics.keys()


def test_compile_cache_invalidated_by_option_change():
    fn = bfs.function()
    cache.cached_compile(fn, CompileOptions(num_stages=3))
    cache.cached_compile(fn, CompileOptions(num_stages=3, queue_capacity=8))
    cache.cached_compile(fn, CompileOptions(num_stages=4))
    assert cache.stats()["pipeline"] == {"hits": 0, "misses": 3}


def test_compile_cache_survives_memory_reset():
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    warm = cache.cached_compile(fn, options)
    cache.reset()  # drop the in-process dicts; the pickle dir remains
    from_disk = cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 1, "misses": 0}
    assert fingerprint(from_disk) == fingerprint(warm)


def test_no_cache_env_disables_disk(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert cache.cache_dir() is None
    fn = bfs.function()
    options = CompileOptions(num_stages=3)
    cache.cached_compile(fn, options)
    cache.reset()
    cache.cached_compile(fn, options)
    assert cache.stats()["pipeline"] == {"hits": 0, "misses": 1}


def test_serial_baseline_cache(tiny_config):
    fn = bfs.function()
    graph = uniform_random(80, 3, seed=1)
    arrays, scalars = bfs.make_env(graph)
    first = cache.cached_serial_run(fn, arrays, scalars, tiny_config)
    arrays2, scalars2 = bfs.make_env(graph)
    second = cache.cached_serial_run(fn, arrays2, scalars2, tiny_config)
    assert cache.stats()["baseline"] == {"hits": 1, "misses": 1}
    assert second.cycles == first.cycles
    assert second.breakdown() == first.breakdown()
    assert second.energy().as_dict() == first.energy().as_dict()
    assert bfs.check(second.arrays, graph)


def test_serial_baseline_keyed_on_input_and_config(tiny_config):
    fn = bfs.function()
    a, s = bfs.make_env(uniform_random(80, 3, seed=1))
    b, t = bfs.make_env(uniform_random(80, 3, seed=2))
    cache.cached_serial_run(fn, a, s, tiny_config)
    cache.cached_serial_run(fn, b, t, tiny_config)
    cache.cached_serial_run(fn, a, s, SCALED_1CORE)
    assert cache.stats()["baseline"] == {"hits": 0, "misses": 3}


def test_search_cache_memoizes_payload():
    calls = []

    def compute():
        calls.append(1)
        return {"points": [([1], 2, 1.5)], "best": [1]}

    key_parts = ("fn-print", ["env-print"], "cfg-print", {"max_stages": 3})
    first = cache.cached_search(key_parts, compute)
    second = cache.cached_search(key_parts, compute)
    assert len(calls) == 1
    assert second == first
    assert cache.stats()["search"] == {"hits": 1, "misses": 1}


def test_stats_delta_and_merge():
    fn = bfs.function()
    before = cache.stats_snapshot()
    cache.cached_compile(fn, CompileOptions(num_stages=3))
    delta = cache.stats_delta(before)
    assert delta[("pipeline", "misses")] == 1
    cache.merge_stats(delta)  # as the parent does for each worker
    assert cache.stats()["pipeline"]["misses"] == 2


def test_canonical_form_of_arrays_is_pinned():
    """The inlined int/float branch of ``_canon``'s list case writes the
    same text as the type-tagged recursion: bools, ``None``, nested values
    and int/float subclasses keep their tags, and environment digests keep
    the value every existing cache entry was stored under."""

    class Count(int):
        pass

    class Weight(float):
        pass

    arrays = {
        "mixed": [0, -3, 2**70, 1.5, -0.0, float("inf"), True, False, None, [1, 2.0, [False]], (3, None)],
        "subclasses": [Count(4), Weight(0.25), 7],
        "floats": (0.1, 2.0, float("nan")),
        "empty": [],
    }
    expected = {
        "mixed": "[i:0,i:-3,i:1180591620717411303424,f:1.5,f:-0.0,f:inf,b:1,b:0,none,"
        "[i:1,f:2.0,[b:0]],[i:3,none]]",
        "subclasses": "[i:4,f:0.25,i:7]",
        "floats": "[f:0.1,f:2.0,f:nan]",
        "empty": "[]",
    }
    assert {name: cache._canon(list(values)) for name, values in arrays.items()} == expected
    scalars = {"n": 11, "alpha": 0.85, "flag": True, "root": None}
    assert cache.fingerprint_env(arrays, scalars) == (
        "8d7bcd3d89f3f961ac234c53709bc69f88d99ee2de4f799407a09570955bdc65"
    )
    # A bool is not its int: the two arrays must not share a key.
    assert cache.fingerprint_env({"a": [True]}, {}) != cache.fingerprint_env({"a": [1]}, {})
