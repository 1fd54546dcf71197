"""A clock that reads in seconds of a machine at a fixed speed.

Other load on a shared host changes this machine's speed by up to 2x,
and the speed can hold for a few hundred milliseconds or for minutes.
Wall time over a run then depends on when the run happened more than on
the program.  ``ScaledClock`` takes that out.  While it runs, a timer
signal every ``INTERVAL`` seconds runs the probe: a fixed block of
pure-Python work (a product of two small sparse polynomials held as
tuple-keyed dicts with big-integer coefficients, the kind of work
grasshilb does).  The probe uses no grasshilb code, so a change to the
program cannot move it.  The program's time between two probes is
scaled by ``PROBE_SECONDS`` over the duration of the probe that ends it,
and the probes' own time is left out.  A stretch that ran at half speed
thus counts half, and a scaled time reads as seconds on a machine whose
probe takes ``PROBE_SECONDS``.

The signal handler runs between bytecodes of the main thread, so a long
call into C (``json.dumps`` of a large document) delays the next probe
and its whole stretch takes the speed that probe measures.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# seconds between probes, and the probe's duration at full speed on a
# 2-vCPU shared VM (Python 3.11)
INTERVAL = 0.01
PROBE_SECONDS = 0.00047


def _operands():
    """Two fixed polynomials of 20 terms in 6 variables (no `random`, so
    that the set-up probe does not import it ahead of grasshilb)."""
    def poly(seed):
        # exponents: the base-5 digits of 20 distinct numbers
        return {tuple((seed * i + 7) // 5 ** j % 5 for j in range(6)):
                (seed * i % 19 - 9) * 12345678901234567 for i in range(20)}
    return poly(3), poly(8)


_A, _B = _operands()


def probe():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


class ScaledClock:
    """Probe the machine's speed while running; ``scaled(start, end)``
    then gives the scaled seconds between two ``time.perf_counter()``
    readings taken in between ``start()`` and ``stop()``."""

    def __init__(self):
        self.starts = []    # perf_counter when each probe began
        self.ends = []      # ... and when it ended
        self._busy = False
        self._previous = None

    def _probe(self, signum=None, frame=None):
        if self._busy:      # the timer fired during a probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()        # a collection here would be the program's cost
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        """Stop the timer, then probe once more, so that every moment
        since ``start()`` lies in a stretch that a probe ends."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self, start, end):
        """Scaled seconds of the program between two perf_counter
        readings, leaving out the probes that ran in between."""
        return PROBE_SECONDS * self._sum(
            start, end, lambda k: 1 / (self.ends[k] - self.starts[k]))

    def wall(self, start, end):
        """Unscaled seconds between the two readings, probes left out."""
        return self._sum(start, end, lambda k: 1.0)

    def _sum(self, start, end, weight):
        """Sum over the stretches between probes of the part of
        [start, end] each covers, times `weight` of the probe ending it."""
        total = 0.0
        k = bisect.bisect_right(self.ends, start)
        low = start
        while low < end:
            high = min(end, self.starts[k])
            if high > low:
                total += (high - low) * weight(k)
            low = max(low, self.ends[k])
            k += 1
        return total
