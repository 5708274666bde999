"""Host-speed probe: puts walls measured at different host speeds on one scale.

The benchmark shares a small virtual machine whose cores slow down by up to
1.6x for seconds to minutes at a time, depending on load elsewhere on the
host. Such a phase moves every wall measured in it, and no amount of
repetition inside a 20-second run averages it out.

While a workload runs, a probe process on the other core times a fixed
pure-Python loop every ``INTERVAL`` seconds. A wall measured over
``[start, end]`` is rescaled by ``REFERENCE_S / mean(probe times around
it)``, which gives seconds on a host where the probe loop takes
``REFERENCE_S``. The probe loop is part of the benchmark, so no change to
the program moves it. A change that makes the program load both cores
would slow the probe too; a wall normalised that way reads slightly low.

Run as a script, this module is the probe itself::

    python3 perfbench/hostspeed.py SAMPLES_FILE
"""

import os
import statistics
import subprocess
import sys
import time

#: Iterations of the probe loop (5 to 10 ms on the 2.1 GHz Xeon virtual
#: machine the benchmark was defined on, depending on its speed phase).
PROBE_ITERATIONS = 100_000

#: Seconds between probe samples.
INTERVAL = 0.1

#: Probe-loop time of the reference host the normalised walls refer to.
REFERENCE_S = 0.008

#: Probe samples within this many seconds of a wall's interval count for it.
WINDOW_S = 0.25


def _probe_loop():
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return total


def probe(path):
    """Append ``start duration`` lines to ``path`` until terminated."""
    with open(path, "w") as out:
        while True:
            start = time.perf_counter()
            _probe_loop()
            out.write("%.6f %.6f\n" % (start, time.perf_counter() - start))
            out.flush()
            time.sleep(INTERVAL)


class HostSpeed:
    """A running probe and the rescaling of walls by its samples.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    timestamps taken in any process of the run line up with the probe's.
    """

    def __init__(self, path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self._samples = []

    def _load(self):
        try:
            with open(self.path) as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        self._samples = [tuple(map(float, line.split())) for line in lines if " " in line]

    def factor(self, start, end):
        """``REFERENCE_S`` over the mean probe time around ``[start, end]``."""
        if not self._samples or self._samples[-1][0] < end:
            self._load()
        near = [d for t, d in self._samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise RuntimeError("host-speed probe has no samples around the wall")
        return REFERENCE_S / statistics.mean(near)

    def mean_factor(self):
        """``REFERENCE_S`` over the mean of every probe sample so far."""
        self._load()
        if not self._samples:
            return 0.0
        return REFERENCE_S / statistics.mean(d for _, d in self._samples)

    def normalize(self, start, seconds):
        """``seconds`` measured from ``start``, on the reference host's scale."""
        return seconds * self.factor(start, start + seconds)

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


if __name__ == "__main__":
    probe(sys.argv[1])
