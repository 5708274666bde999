"""Content-addressed memo layers for the evaluation harness.

Regenerating the paper's figures repeats two kinds of work across figures
and across invocations: compiling the same ``(function, options)`` pipeline
and simulating the same ``(function, input, config)`` serial baseline. This
module memoizes both (plus the profile-guided search's scores) behind
stable content hashes:

* **pipeline** — compiled pipelines keyed by the canonical IR fingerprint
  (:func:`repro.ir.fingerprint`) plus ``CompileOptions.cache_key()``;
* **baseline** — serial-run results (cycles, output arrays, cycle/energy
  breakdowns) keyed by function + input contents + machine config;
* **search** — profile-guided search scores keyed by function, training
  inputs, config, and search parameters.

Each layer has an in-process dict in front of a shared on-disk pickle store
(``REPRO_CACHE_DIR``, default ``~/.cache/phloem-repro``), so warm results
survive process restarts and are shared by every worker of the parallel
harness (:mod:`repro.bench.parallel`) and every client of the
compile-and-simulate daemon (:mod:`repro.service`). ``REPRO_NO_CACHE=1``
disables the disk layer. Keys are salted with the package version:
upgrading the compiler invalidates every cached artifact.

Concurrency: entries are written with write-then-rename (readers never
observe a partial pickle), and each compute-on-miss runs under a per-key
``flock`` so simultaneous clients asking for the same artifact do the
work once — the first takes the miss and computes, the rest block briefly
and take a hit off the store the winner populated.

Cached values are treated as immutable: :func:`cached_compile` returns a
fresh clone per call, and :class:`BaselineResult` arrays must not be
mutated by callers (the harness only reads them for output validation).
"""

import contextlib
import hashlib
import os
import pickle
import tempfile
from dataclasses import asdict, is_dataclass

try:
    import fcntl
except ImportError:  # non-POSIX: atomic rename still guards writes
    fcntl = None

from .core.compiler import compile_function
from .ir.serialize import fingerprint
from .runtime.executor import run_serial

#: Memo layers, in the order stats are reported.
LAYERS = ("pipeline", "baseline", "search")

_memory = {layer: {} for layer in LAYERS}
_stats = {layer: {"hits": 0, "misses": 0} for layer in LAYERS}


# ---------------------------------------------------------------------------
# Key construction


def _canon(value):
    """Canonical text of a plain-data value (dicts sorted, type-tagged)."""
    if isinstance(value, dict):
        return "{" + ",".join("%s=%s" % (k, _canon(value[k])) for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, bool):
        return "b:%d" % value
    if isinstance(value, int):
        return "i:%d" % value
    if isinstance(value, float):
        return "f:%s" % repr(value)
    if value is None:
        return "none"
    return "s:%s" % value


def content_hash(*parts):
    """SHA-256 over the canonical forms of ``parts`` (the cache key)."""
    from . import __version__

    h = hashlib.sha256()
    h.update(("v:%s" % __version__).encode("utf-8"))
    for part in parts:
        h.update(b"\x00")
        h.update(_canon(part).encode("utf-8"))
    return h.hexdigest()


def fingerprint_env(arrays, scalars):
    """Content hash of one benchmark environment (arrays + scalars)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(("a:%s=" % name).encode("utf-8"))
        h.update(_canon(list(arrays[name])).encode("utf-8"))
    for name in sorted(scalars):
        h.update(("s:%s=%s" % (name, _canon(scalars[name]))).encode("utf-8"))
    return h.hexdigest()


def fingerprint_config(config):
    """Content hash of a :class:`~repro.pipette.config.MachineConfig`."""
    data = asdict(config) if is_dataclass(config) else vars(config)
    return content_hash("config", data)


# ---------------------------------------------------------------------------
# Storage: per-process memory in front of a shared pickle directory


def cache_dir():
    """The on-disk cache directory, or ``None`` when disk caching is off."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    path = os.environ.get("REPRO_CACHE_DIR")
    if not path:
        path = os.path.join(os.path.expanduser("~"), ".cache", "phloem-repro")
    return path


def _disk_path(layer, key):
    base = cache_dir()
    if base is None:
        return None
    return os.path.join(base, layer, key + ".pkl")


def _load(layer, key):
    if key in _memory[layer]:
        _stats[layer]["hits"] += 1
        return _memory[layer][key]
    path = _disk_path(layer, key)
    if path is not None and os.path.exists(path):
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            value = None  # truncated or stale entry: treat as a miss
        if value is not None:
            _memory[layer][key] = value
            _stats[layer]["hits"] += 1
            return value
    _stats[layer]["misses"] += 1
    return None


@contextlib.contextmanager
def _key_lock(layer, key):
    """Serialize compute-on-miss for one cache key across processes.

    An exclusive ``flock`` on ``<layer>/<key>.lock`` (released on close —
    and by the OS if the holder dies). Degrades to a no-op when disk
    caching is off or the platform has no ``fcntl``; the write-then-rename
    in :func:`_store` still guards against corruption, the lock only
    deduplicates the work.
    """
    base = cache_dir()
    if base is None or fcntl is None:
        yield
        return
    path = os.path.join(base, layer, key + ".lock")
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            pass
        yield
    finally:
        os.close(fd)


def _get_or_compute(layer, key, compute):
    """One-miss-many-hits lookup: the shared compute-on-miss protocol.

    Memory first (no lock), then the disk store under the per-key lock —
    re-checked after acquisition, because a concurrent process may have
    computed the value while this one waited.
    """
    if key in _memory[layer]:
        _stats[layer]["hits"] += 1
        return _memory[layer][key]
    with _key_lock(layer, key):
        value = _load(layer, key)
        if value is None:
            value = compute()
            _store(layer, key, value)
        return value


def _store(layer, key, value):
    _memory[layer][key] = value
    path = _disk_path(layer, key)
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Write-then-rename so concurrent harness workers never observe a
        # partially written pickle.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        pass  # disk cache is best-effort; memory layer already holds it


def reset(memory=True, stats=True):
    """Clear the in-process memo layers and/or hit counters (tests)."""
    if memory:
        for layer in LAYERS:
            _memory[layer].clear()
    if stats:
        for layer in LAYERS:
            _stats[layer]["hits"] = 0
            _stats[layer]["misses"] = 0


# ---------------------------------------------------------------------------
# Statistics (merged across pool workers by repro.bench.parallel)


def stats_snapshot():
    """Flat ``{(layer, kind): count}`` copy of the hit/miss counters."""
    return {
        (layer, kind): _stats[layer][kind] for layer in LAYERS for kind in ("hits", "misses")
    }


def stats_delta(before):
    """Counter increments since a :func:`stats_snapshot`."""
    now = stats_snapshot()
    return {key: now[key] - before.get(key, 0) for key in now}


def merge_stats(delta):
    """Fold a worker's :func:`stats_delta` into this process's counters."""
    for (layer, kind), count in delta.items():
        _stats[layer][kind] += count


def stats_since(snapshot):
    """``{layer: {"hits": n, "misses": n}}`` increments since a snapshot.

    The per-request cache view of the API layer: a one-shot CLI process
    reports the same numbers as before (nothing precedes the request), a
    long-lived service worker reports just this request's traffic — which
    is how a client sees its warm submission hit the shared cache.
    """
    delta = stats_delta(snapshot)
    return {
        layer: {kind: delta[(layer, kind)] for kind in ("hits", "misses")} for layer in LAYERS
    }


def stats():
    """``{layer: {"hits": n, "misses": n}}`` view of the counters."""
    return {layer: dict(_stats[layer]) for layer in LAYERS}


# ---------------------------------------------------------------------------
# Layer 1: compiled pipelines


def cached_compile(function, options):
    """``compile_function(function, options=options)``, memoized.

    The key is the canonical IR fingerprint of ``function`` plus
    ``options.cache_key()``; a warm hit skips the whole pass stack. Returns
    a fresh clone so callers may mutate their pipeline freely. Intrinsic
    implementations (opaque callables) are stripped before pickling and
    reattached from ``function`` on the way out.
    """
    key = content_hash("pipeline", fingerprint(function), options.cache_key())

    def compute():
        pipeline = compile_function(function, options=options)
        stored = pipeline.clone()
        stored.intrinsics = {}
        return stored

    value = _get_or_compute("pipeline", key, compute)
    pipeline = value.clone()
    pipeline.intrinsics = dict(function.intrinsics)
    return pipeline


# ---------------------------------------------------------------------------
# Layer 2: serial baselines


class _EnergyView:
    """Mimics the ``energy()`` result of a live run (``as_dict()``)."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = values

    def as_dict(self):
        """The per-component energy dict, as recorded at simulation time."""
        return dict(self._values)


class BaselineResult:
    """A cached serial run: quacks like the slice of ``RunResult`` the
    harness consumes (``cycles``, ``arrays``, ``breakdown()``, ``energy()``,
    ``summary()``).
    """

    __slots__ = ("cycles", "arrays", "_breakdown", "_energy", "_summary")

    def __init__(self, cycles, arrays, breakdown, energy, summary=None):
        self.cycles = cycles
        self.arrays = arrays
        self._breakdown = breakdown
        self._energy = energy
        self._summary = summary

    def breakdown(self):
        """Cycle breakdown dict, as recorded at simulation time."""
        return dict(self._breakdown)

    def energy(self):
        """Energy view whose ``as_dict()`` matches the live run's."""
        return _EnergyView(self._energy)

    def summary(self):
        """The ``SimStats.summary()`` dict recorded at simulation time."""
        return None if self._summary is None else dict(self._summary)

    def __repr__(self):
        return "BaselineResult(%.0f cycles)" % self.cycles


def cached_serial_run(function, arrays, scalars, config):
    """``run_serial(...)``, memoized on function + input contents + config.

    This is the shared serial-baseline cache: every figure experiment and
    ``run_suite`` call that simulates the same serial ``(benchmark, input)``
    pair under the same machine config gets the recorded result back
    instead of re-simulating it.
    """
    key = content_hash(
        "baseline",
        fingerprint(function),
        fingerprint_env(arrays, scalars),
        fingerprint_config(config),
    )

    def compute():
        result = run_serial(function, arrays, scalars, config=config)
        return {
            "cycles": result.cycles,
            "arrays": result.arrays,
            "breakdown": result.breakdown(),
            "energy": result.energy().as_dict(),
            "summary": result.stats.summary(),
        }

    return BaselineResult(**_get_or_compute("baseline", key, compute))


# ---------------------------------------------------------------------------
# Layer 3: profile-guided search scores


def cached_search(key_parts, compute):
    """Memoize a profile-guided search's *scores* (not its pipelines).

    ``compute()`` must return a plain-data payload (the harness stores
    candidate indices, unit counts, and speedups); the winning pipeline is
    recompiled through :func:`cached_compile` on a warm hit, which keeps
    pickles small and pipelines importable everywhere.
    """
    key = content_hash("search", *key_parts)
    return _get_or_compute("search", key, compute)
