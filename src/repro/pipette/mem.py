"""Memory hierarchy model: set-associative caches, stride prefetcher, DRAM.

Timing-only: data lives in NumPy arrays bound by the executor; this module
answers "how many cycles does the access at address X issued at cycle T
take", updating tag state, the prefetcher, and the DRAM bandwidth ledgers.
"""


class Cache:
    """One set-associative LRU cache level (tags only)."""

    __slots__ = ("sets_count", "ways", "latency", "sets", "stats")

    def __init__(self, cfg, stats):
        self.sets_count = cfg.sets
        self.ways = cfg.ways
        self.latency = cfg.latency
        self.sets = {}
        self.stats = stats

    def access(self, line):
        """Look up ``line``; returns True on hit. Updates LRU and counters."""
        index = line % self.sets_count
        tag = line // self.sets_count
        entry = self.sets.get(index)
        if entry is None:
            self.sets[index] = [tag]
            self.stats.misses += 1
            return False
        if entry[0] == tag:
            # MRU hit: streaming accesses land here, skipping the list scan
            # and the LRU reorder (a no-op at position 0).
            self.stats.hits += 1
            return True
        try:
            pos = entry.index(tag, 1)
        except ValueError:
            self.stats.misses += 1
            entry.insert(0, tag)
            if len(entry) > self.ways:
                entry.pop()
            return False
        del entry[pos]
        entry.insert(0, tag)
        self.stats.hits += 1
        return True

    def fill(self, line, prefetch=False):
        """Install ``line`` without counting an access (miss fill / prefetch)."""
        index = line % self.sets_count
        tag = line // self.sets_count
        entry = self.sets.get(index)
        if entry is None:
            self.sets[index] = [tag]
        elif tag not in entry:
            entry.insert(0, tag)
            if len(entry) > self.ways:
                entry.pop()
        if prefetch:
            self.stats.prefetch_fills += 1

    def contains(self, line):
        entry = self.sets.get(line % self.sets_count)
        return entry is not None and (line // self.sets_count) in entry


class _StreamTable:
    """Per-core stride detector: array symbol -> (last line, stride, run).

    Detects constant line strides (not just +1), like the L2 stride
    prefetchers of the Skylake-class cores in Table III — unit-stride scans
    *and* large fixed strides (e.g. walking a dense matrix by column) are
    covered; irregular gathers are not, which is the whole point.
    """

    __slots__ = ("streams",)

    MAX_STRIDE = 32  # lines; beyond this, prefetching would thrash

    def __init__(self):
        self.streams = {}

    def observe(self, stream_id, line):
        """Returns the detected line stride to prefetch along (0 = none)."""
        entry = self.streams.get(stream_id)
        if entry is None:
            self.streams[stream_id] = (line, 0, 0)
            return 0
        last_line, stride, run = entry
        delta = line - last_line
        if delta == 0:
            return 0
        if delta == stride and 0 < abs(stride) <= self.MAX_STRIDE:
            run = min(run + 1, 8)
            self.streams[stream_id] = (line, stride, run)
            return stride if run >= 2 else 0
        self.streams[stream_id] = (line, delta, 1)
        return 0


class MemorySystem:
    """The full hierarchy shared by all cores of a machine."""

    LINE_SHIFT = 6

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self.l1 = [Cache(config.l1, stats.cache("L1")) for _ in range(config.cores)]
        self.l2 = [Cache(config.l2, stats.cache("L2")) for _ in range(config.cores)]
        self.l3 = Cache(config.l3, stats.cache("L3"))
        # Bandwidth ledger per controller: 64-cycle windows with a fixed
        # request capacity. Window-based accounting is insensitive to the
        # order in which decoupled threads (whose local clocks drift)
        # present their requests, unlike a single next-free cursor.
        self.window_shift = 6
        self.window_capacity = max(1, (1 << self.window_shift) // config.dram_service)
        self.windows = [dict() for _ in range(config.dram_controllers)]
        self.window_low = [0] * config.dram_controllers
        self.prefetchers = [_StreamTable() for _ in range(config.cores)]

    def _dram(self, line, now):
        """DRAM access: bank-conflict-free but bandwidth-limited per controller."""
        self.stats.dram_accesses += 1
        ctrl = line % len(self.windows)
        table = self.windows[ctrl]
        window = int(now) >> self.window_shift
        if len(table) > 8192:
            horizon = window - 4096
            table = {w: c for w, c in table.items() if w >= horizon}
            self.windows[ctrl] = table
        while table.get(window, 0) >= self.window_capacity:
            window += 1
        table[window] = table.get(window, 0) + 1
        queue_delay = max(0.0, float(window << self.window_shift) - now)
        return queue_delay + self.config.dram_latency

    def next_dram_window_cycle(self, line, now):
        """Event-horizon contract: the cycle at which the controller owning
        ``line`` next has spare bandwidth for a request presented at
        ``now``, without consuming any. ``_dram``'s queue delay is exactly
        ``this - now``: the closed form by which a bandwidth-saturated
        access skips ahead to the first open 64-cycle window."""
        ctrl = line % len(self.windows)
        table = self.windows[ctrl]
        window = int(now) >> self.window_shift
        while table.get(window, 0) >= self.window_capacity:
            window += 1
        start = float(window << self.window_shift)
        return start if start > now else now

    def access(self, core, addr, now, stream_id=None, is_store=False):
        """Access ``addr`` from ``core`` at cycle ``now``; returns latency.

        ``stream_id`` identifies the accessed array for the stride
        prefetcher. Stores are write-allocate and write-back; their latency
        is hidden by the store buffer, so callers usually ignore it.

        The L1 lookup is inlined (not a :meth:`Cache.access` call) because
        this is the hottest function in the simulator: the MRU compare
        catches streaming accesses, the membership test avoids raising
        ``ValueError`` for every L1 miss, and the tag is installed directly
        instead of via a redundant post-lookup ``fill``. Tag state, LRU
        order, and hit/miss counters end up exactly as the plain
        lookup-then-fill sequence would leave them.
        """
        cfg = self.config
        line = addr >> self.LINE_SHIFT
        l1 = self.l1[core]
        sets = l1.sets
        index = line % l1.sets_count
        tag = line // l1.sets_count
        entry = sets.get(index)
        if entry is not None and entry[0] == tag:
            l1.stats.hits += 1
            latency = cfg.l1.latency
        elif entry is not None and tag in entry:
            pos = entry.index(tag, 1)
            del entry[pos]
            entry.insert(0, tag)
            l1.stats.hits += 1
            latency = cfg.l1.latency
        else:
            if entry is None:
                sets[index] = [tag]
            else:
                entry.insert(0, tag)
                if len(entry) > l1.ways:
                    entry.pop()
            l1.stats.misses += 1
            latency = self.miss_below_l1(core, line, now)

        if cfg.prefetch_enabled and stream_id is not None and not is_store:
            stride = self.prefetchers[core].observe(stream_id, line)
            if stride:
                for step in range(1, cfg.prefetch_degree + 1):
                    self._prefetch(core, line + stride * step, now + latency)
        return latency

    def miss_below_l1(self, core, line, now):
        """L2 -> L3 -> DRAM walk after an L1 miss; returns the latency.

        The caller has already updated L1 tag state and counters (the L1
        install is part of the miss handling, not of this walk), which lets
        the fast-path load closures inline the L1 lookup and share this
        method for the miss side.
        """
        cfg = self.config
        if self.l2[core].access(line):
            return cfg.l2.latency
        return self.miss_below_l2(core, line, now)

    def miss_below_l2(self, core, line, now):
        """L3 -> DRAM walk after an L2 miss; returns the latency.

        Split from :meth:`miss_below_l1` so engines that also inline the L2
        lookup (batchpath, the RA loop) can share the walk below it. The
        caller has already updated L2 tag state and counters.
        """
        l2 = self.l2[core]
        l3 = self.l3
        if l3.access(line):
            l2.fill(line)
            return l3.latency
        latency = l3.latency + self._dram(line, now)
        l3.fill(line)
        l2.fill(line)
        return latency

    def _prefetch(self, core, line, now):
        """Bring ``line`` toward the core without charging request latency."""
        if self.l2[core].contains(line):
            return
        if not self.l3.contains(line):
            self._dram(line, now)  # prefetches still consume DRAM bandwidth
            self.l3.fill(line, prefetch=True)
        self.l2[core].fill(line, prefetch=True)


class AddressMap:
    """Assigns each array a base address in a flat physical space.

    Bases are spread 4 KiB-aligned with guard gaps so distinct arrays never
    share a cache line, mirroring separately-allocated buffers.
    """

    PAGE = 4096

    def __init__(self):
        self.bases = {}
        self.next_base = self.PAGE

    def register(self, name, size_bytes):
        if name in self.bases:
            return self.bases[name]
        base = self.next_base
        self.bases[name] = base
        pages = (size_bytes + self.PAGE - 1) // self.PAGE + 1
        self.next_base = base + pages * self.PAGE
        return base

    def address(self, name, index, elem_size):
        return self.bases[name] + index * elem_size
