"""Wall time corrected for the speed a shared machine gives the process.

On a machine shared with other jobs the same Python code runs at speeds
up to about 1.9x apart, switching every few seconds (process CPU time
slows down with wall time, so the time is not taken away: the core runs
slower, most likely while another job loads its sibling thread).  A draw
of 12 s meets whatever mix of speeds it meets, and the raw wall times of
ten runs of the same code spread by a quarter or more.

``SpeedClock`` measures the speed alongside the benchmark: a timer
interrupts the process every ``PERIOD`` seconds and times a fixed probe
loop of interpreter work.  An interval's corrected time is

    (wall time - probe time inside it) * mean(NOMINAL_PROBE / probe time)

where the mean is over the probes inside the interval (widened to the
``MIN_PROBES`` nearest probes when it holds fewer).  It counts the
interval in probe lengths and converts them to seconds at a fixed probe
time, so it estimates how long the interval would have taken on a core
that runs the probe in ``NOMINAL_PROBE`` seconds.  Averaging speeds
(nominal over probe time), not times, weighs each stretch between probes
by the work done in it.  The probes cost about 1 % of the run.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD = 0.03  # seconds between probes
MIN_PROBES = 3
# Seconds per probe the corrected times are stated at.  The fast state
# of the machine the baseline was measured on (Python 3.11.7) ran the
# probe in 0.28-0.29 ms, so corrected times are a few percent above the
# wall times of an uncontended run there.
NOMINAL_PROBE = 0.3e-3

# The probe mixes the library's two kinds of inner loop: complex
# arithmetic (Mobius maps, the optimizer, verify) and real trigonometry
# on radii looked up by vertex pair (circle packing).  About 0.3 ms on a
# fast core.
_PAIRS = [(f"v{i}", f"v{(7 * i + 3) % 16}") for i in range(16)]
_ANGLE = {pair: 0.25 + 0.01 * i for i, pair in enumerate(_PAIRS)}
_RADII = [1.0 + 0.1 * i for i in range(16)]


def _side(r1: float, r2: float, c: float) -> float:
    return math.sqrt(r1 * r1 + r2 * r2 + 2 * r1 * r2 * c)


def _probe() -> None:
    z, seen = 0.3 + 0.4j, {}
    for i in range(600):
        z = z * z * 0.5 + 0.1j
        seen[i & 15] = abs(z)
    total, rs = 0.0, _RADII
    for _ in range(15):
        for i in range(16):
            c = math.cos(_ANGLE[_PAIRS[i]])
            lu = _side(rs[i], rs[(i + 1) % 16], c)
            lw = _side(rs[i], rs[(i + 5) % 16], c)
            x = (lu * lu + lw * lw - 1.0) / (2 * lu * lw)
            total += math.acos(min(1.0, max(-1.0, x)))


class SpeedClock:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.probes: list[float] = []  # seconds of each probe
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.probes.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """How many times longer than ``NOMINAL_PROBE`` the probe took over
        [t0, t1), from the mean speed of the probes inside."""
        if not self.probes:
            return 1.0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            # widen towards the nearer neighbouring probe
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return 1.0 / statistics.fmean(NOMINAL_PROBE / p for p in self.probes[lo:hi])

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time the probes themselves took inside [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.probes[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """Corrected duration of the interval [t0, t1)."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) / self.slowdown(t0, t1)
