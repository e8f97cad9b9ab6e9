"""Time measured in units of a fixed probe, so that a busy host does not show.

On a shared 2-vCPU x86_64 VM, other tenants of the host slowed every
instruction of a process by up to 2x for minutes at a time, so the wall time
of a multi-second operation was bimodal from one run to the next, and no
minimum or median over a 10-60 s run got rid of it. `SpeedClock` measures that slow-
down as it happens: every `INTERVAL` seconds of wall time a SIGALRM handler
runs a fixed probe and times it. Wall time between two probes is divided by
the probes' duration, so the clock counts "probe units": how many probes the
CPU could have run in that time at the speed it had then. The probes
themselves are not counted.

The probe mixes tiny numpy products with Python arithmetic and allocation,
like a step of the dynamics: it slows as much as the program does when the
host is busy. (A pure-Python loop tracked the slowdown about half as well.)
Units convert to seconds at a fixed `REFERENCE_S` per probe, about the
fastest probe seen on a 2-vCPU x86_64 VM, so figures read roughly as seconds
on that machine at its fastest. A run's own fastest probe is not used: it
varied by 5-10% from run to run.

The handler needs no hook in the program. It runs in the main thread between
bytecodes, so a long C call (a large matmul, or the main thread waiting on a
worker pool) delays it and that segment gets the speed measured at its ends.
Importing this module imports numpy, so set-up timed with the clock excludes
numpy's import.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.005            # seconds of wall time between probes
REFERENCE_S = 35e-6         # seconds per probe unit
# A probe this long was interrupted (by a thread switch: the GIL changes hands
# every 5 ms, or by the OS), not slowed; the last speed stands.
MAX_PROBE_S = 1e-3

_M = np.eye(4) * 0.5
_V = np.ones(4)


def probe() -> dict:
    """Fixed work of about 30 us on a quiet x86_64 core."""
    x, s, d = _V, 0, {}
    for i in range(14):
        x = _M @ x + 0.5
        s += sum(range(i * 10))
        d = {"x": x, "s": [i, s]}
    return d


class SpeedClock:
    """A probe-unit clock driven by SIGALRM; start it in the main thread."""

    def __init__(self):
        self.units = 0.0        # probe units up to `mark`
        self.mark = 0.0         # perf_counter at the end of the last probe
        self.inv_probe = 0.0    # 1 / duration of the last probe
        self.count = 0          # probes so far; read() retries if it moves
        self.fastest = float("inf")
        self._saved = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        inv_new = self.inv_probe
        if t1 - t0 < MAX_PROBE_S:
            inv_new = 1.0 / (t1 - t0)
            self.fastest = min(self.fastest, t1 - t0)
        # the segment since the last probe runs at the mean of the speeds
        # measured at its two ends
        self.units += (t0 - self.mark) * 0.5 * (self.inv_probe + inv_new)
        self.inv_probe = inv_new
        self.mark = t1
        self.count += 1

    def start(self):
        for _ in range(3):      # warm the probe's code path before it counts
            probe()
        t0 = time.perf_counter()
        probe()
        self.mark = time.perf_counter()
        self.inv_probe = 1.0 / min(self.mark - t0, MAX_PROBE_S)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def read(self) -> float:
        """Probe units since `start`."""
        while True:
            count = self.count
            value = self.units + (time.perf_counter() - self.mark) * self.inv_probe
            if count == self.count:
                return value

    def seconds(self, units: float) -> float:
        return units * REFERENCE_S
