"""Host-speed normalisation for timings on a shared machine.

On a machine whose cores are shared with other tenants, the same Python
code runs 10-60% slower for stretches of seconds to minutes, and these
stretches come and go between runs. A fixed pure-Python loop that never
calls inttiles is timed from a timer signal every PROBE_EVERY_S while the
ops run. Each op's time is its wall time minus the probe runs inside it,
divided by the host's slowdown: the median probe time from WINDOW_NS before
the op to WINDOW_NS after it, relative to PROBE_REF_NS. A change to
inttiles cannot move the probe, so it shows in full in the scaled times;
only the host's drift is divided out. The scaling is imperfect: contention
slows the workloads and the probe by slightly different factors, which
leaves a run-to-run spread of about 5-10% where the raw times spread 20-30%.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

PROBE_REF_NS = 400_000  # probe time on an idle core of the reference host
PROBE_EVERY_S = 0.02
WINDOW_NS = 250_000_000

clock = time.perf_counter_ns


def probe_loop() -> int:
    """Interpreter arithmetic plus a walk over a list too large for L1, the
    two kinds of work the workloads mix, which contention slows unequally."""
    total = 0
    for i in range(2500):
        total += i * i % 7
    cells = [0] * 15000
    for i in range(0, 15000, 7):
        cells[i] += i
    return total + sum(cells[1::3])


def probe_median(samples: int = 31) -> int:
    """Median probe time over `samples` back-to-back runs."""
    times = []
    for _ in range(samples):
        start = clock()
        probe_loop()
        times.append(clock() - start)
    return statistics.median(times)


class HostSpeed:
    """Runs the probe from SIGALRM while in use; single-threaded callers only."""

    def __init__(self):
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._prefix: list[int] | None = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        probe_loop()
        self.starts.append(start)
        self.durations.append(clock() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._prefix = [0, *itertools.accumulate(self.durations)]

    def _window(self, start: int, end: int) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def probe_time(self, start: int, end: int) -> int:
        """Time spent in probes that began inside [start, end)."""
        lo, hi = self._window(start, end)
        return self._prefix[hi] - self._prefix[lo]

    def scaled(self, start: int, end: int) -> float:
        """Op time in ns at the reference host speed."""
        busy = end - start - self.probe_time(start, end)
        return busy / self.slowdown(start - WINDOW_NS, end + WINDOW_NS)

    def slowdown(self, start: int, end: int) -> float:
        """Median probe time inside [start, end), else over the whole use, / PROBE_REF_NS."""
        lo, hi = self._window(start, end)
        inside = self.durations[lo:hi] or self.durations or [probe_median()]
        return statistics.median(inside) / PROBE_REF_NS
