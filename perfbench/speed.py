"""Machine-speed calibration for the end-to-end times.

On a shared VM the speed of the CPU drifts by 10-20 % over seconds to
minutes, and CPU time drifts with wall time, so the drift is not waiting.
A fixed pure-Python kernel, timed between ops about every quarter second
and smoothed over about 1.5 s, tracks it.  Every end-to-end time is reported scaled to REF_S, the
kernel's duration at the reference speed:

    reported = measured * REF_S / kernel_time_around_the_measurement

The kernel does not touch treepin and allocates no objects the garbage
collector tracks, so a change to the program cannot change the scale.
Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.00055
_TABLE = list(range(256))
_N = 5000
EVERY_S = 0.25


def kernel_s() -> float:
    t = time.perf_counter()
    tab = _TABLE
    s = 0
    for i in range(_N):
        s = (s + tab[i & 255] * i) % 1000003
    return time.perf_counter() - t


def probe() -> float:
    """Median of three kernel timings."""
    return statistics.median(kernel_s() for _ in range(3))


class SpeedTrack:
    """Kernel timings at window boundaries; window w lies between
    points[w] and points[w + 1]."""

    def __init__(self) -> None:
        self.points = [probe()]
        self._next = time.perf_counter() + EVERY_S

    @property
    def window(self) -> int:
        return len(self.points) - 1

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.points.append(probe())
            self._next = time.perf_counter() + EVERY_S

    def finish(self) -> None:
        self.points.append(probe())

    def scale(self, w: int) -> float:
        """REF_S over the median kernel time of the six points nearest
        window w (about 1.5 s), which smooths the kernel's own noise but
        still follows the drift."""
        lo = max(0, min(w - 2, len(self.points) - 6))
        return REF_S / statistics.median(self.points[lo : lo + 6])
