"""Machine-speed meter: scale measured times to a fixed nominal speed.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, while nothing else runs in the benchmark's own process: the same
pass of identical work took 6.1-10.6 s within four minutes on a shared
2-vCPU Xeon.  Raw seconds from two sets of runs then disagree by more than
any useful bound.  So while a workload runs, ``SpeedMeter`` interrupts it
every ``PERIOD`` seconds and times ``reference``, a fixed piece of work that
does not touch cf2.  A measured interval is scaled by how fast the
reference ran during it:

    scaled = measured * mean(NOMINAL_S / r_i)

over the reference times r_i sampled in that interval.  ``NOMINAL_S`` is a
typical time of the reference on that Xeon, so scaled seconds read like
seconds there.  The meter's own time is taken out of the clock the ops
are timed with.  On the machine above, twelve repeats of one 2-s op
varied by 8-12% (coefficient of variation) raw and by 2-4% scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.1  # seconds between reference samples
NOMINAL_S = 0.007  # a typical time of ``reference`` on the 2-vCPU Xeon
MIN_SAMPLES = 5

_BIG = (1 << 16384) - 0x1234567
_SHIFTS = tuple((7 * i) % 61 for i in range(64))


def _step(acc: int, i: int) -> int:
    return (acc ^ (i * 0x9E3779B1)) & 0xFFFF


def reference() -> int:
    """Fixed work in the two shapes cf2 spends its time on: interpreted
    small-integer arithmetic with calls and dict stores, and shifts and XORs
    of 16k-bit integers."""
    acc, table = 0, {}
    for i in range(15000):
        acc = _step(acc, i)
        table[i & 255] = acc
    big = 0
    for s in _SHIFTS * 45:
        big ^= _BIG << s
    return acc ^ (big & 0xFFFF)


class SpeedMeter:
    """Samples ``reference`` on a SIGALRM timer while it is entered.

    ``samples`` holds (start, duration) of each reference run in
    ``time.perf_counter`` time; ``clock`` is ``perf_counter`` less the time
    spent in the meter, so ops timed with it exclude the samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.stolen = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.stolen += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def __enter__(self) -> "SpeedMeter":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start: float, end: float) -> float:
        """mean(NOMINAL_S / r) over the samples in [start, end] of
        ``perf_counter`` time, the window widened on both sides until it
        holds ``MIN_SAMPLES`` (or every sample there is)."""
        pad = 0.0
        while True:
            inside = [d for t, d in self.samples if start - pad <= t <= end + pad]
            if len(inside) >= min(MIN_SAMPLES, len(self.samples)):
                break
            pad += PERIOD
        if not inside:
            raise RuntimeError("the speed meter took no samples")
        return statistics.fmean(NOMINAL_S / d for d in inside)


def sample(n: int) -> float:
    """mean(NOMINAL_S / r) over ``n`` reference runs made now, for intervals
    (such as a child process) that the timer cannot sample."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference()
        out.append(NOMINAL_S / (time.perf_counter() - t0))
    return statistics.fmean(out)
