"""Machine-speed calibration for the benchmark's times.

On a shared machine the speed of the same single-threaded Python work
drifts with the load of other tenants.  On the 2-core VM this benchmark was
tuned on, two sets of ten runs of one workload, twenty minutes apart, had
medians a quarter apart; the two CPUs ran the same loop up to 2x apart at
one moment; and process CPU time drifted with wall time.  No median within
one run removes a slow stretch that covers the whole run.  So the benchmark
also times a fixed calibration loop in the same process, between the units
of measured work, and divides each pass's times by the median loop time
over ``REFERENCE_S``: seconds at the loop's reference speed.  The measured
times are printed next to them.

The loop is the benchmark's own code, not the package's, so a change to the
package cannot speed it up or slow it down.  It runs with the garbage
collector off, so the objects the package leaves alive do not slow it
either.  It does the same kind of work as the solvers: a recursive generator
of restricted growth strings, tuples and small sets.
"""

from __future__ import annotations

import gc
import statistics
import time

# loop time at the reference speed, a typical loop time on the tuning
# machine, so that scaled times read close to its wall times
REFERENCE_S = 0.020
SAMPLE_EVERY_S = 1.0


def _strings(m: int, k: int):
    prefix = [0] * m

    def rec(i, used):
        if i == m:
            yield tuple(prefix)
            return
        for val in range(min(used + 1, k)):
            prefix[i] = val
            yield from rec(i + 1, max(used, val + 1))

    return rec(0, 0)


def _loop() -> int:
    total = 0
    for colors in _strings(9, 4):
        head = colors[:5]
        if len(set(head)) == len(head):
            total += 1
        total += colors[-1]
    return total


_CHECKSUM = _loop()


def sample() -> float:
    """Seconds for one calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = _loop()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _CHECKSUM:
        raise RuntimeError("calibration loop result changed")
    return elapsed


def slowdown_now(count: int = 5) -> float:
    """Median of ``count`` samples taken now, over the reference."""
    return statistics.median(sample() for _ in range(count)) / REFERENCE_S


class Clock:
    """Calibration samples taken between units of measured work."""

    def __init__(self):
        self.samples = []
        self._last = None

    def tick(self):
        """Take a sample if none was taken in the last ``SAMPLE_EVERY_S``."""
        now = time.perf_counter()
        if self._last is None or now - self._last >= SAMPLE_EVERY_S:
            self.samples.append(sample())
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        """Median calibration time over the reference: 1.0 at full speed."""
        return statistics.median(self.samples) / REFERENCE_S
