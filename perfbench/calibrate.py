"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes (other tenants on the sibling hyperthreads and
caches), and that drift reaches CPU time as well as the wall clock.  So
the benchmark samples the host's speed while it works: an interval timer
fires every ``INTERVAL_S`` of wall-clock time, and the signal handler,
which Python runs between two bytecodes of whatever is running, times one
*slice* of a fixed reference computation.  (A CPU-time timer would not
do: while one is armed, Linux reads the process CPU clock only to the
scheduler tick.)  The slices sample
the same stretches of time as the operations, long ones included, and
the timers around an operation leave the slices' time out.  A slice is
exact arithmetic of the kind plucker_lab does (fractions, and polynomials
as dicts of exponent tuples) but calls none of its code, so a change to
the program moves the operations and not the slices.

An operation time ``t`` is calibrated by the slices that ran during it,
or next after it: if they took ``s`` on average, it is reported as
``t * NOMINAL_SLICE_S / s``, seconds on a host where a slice takes
``NOMINAL_SLICE_S``, about what it takes on a quiet 2-vCPU x86-64 host
with Python 3.11.
"""

import gc
import signal
import time
from fractions import Fraction

NOMINAL_SLICE_S = 0.0005
INTERVAL_S = 0.01
_STEPS = (((0, 1), 3), ((1, 0), -2), ((1, 1), 5))


def reference_slice():
    """The fixed reference computation."""
    acc = {}
    x = Fraction(3, 7)
    for i in range(1, 30):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i * i + 1)
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + x
    p = {(0, 0): 1}
    for _ in range(12):
        q = {}
        for (a, b), c in p.items():
            for (da, db), d in _STEPS:
                key = (a + da, b + db)
                q[key] = q.get(key, 0) + c * d
        p = q
    return acc, p


class Calibrator:
    """Slices on the interval timer while in a ``with`` block.

    ``inside`` and ``inside_wall`` total the CPU and wall-clock time of
    every slice so far, for the timers around them to subtract; the slice
    times not yet used are consumed by ``factor``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.samples = []
        self.inside = 0.0
        self.inside_wall = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        previous = self._previous
        signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)
        return False

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """One timed slice, with the cyclic collector off so that its time
        does not depend on the program's heap."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            start = self.clock()
            reference_slice()
            seconds = self.clock() - start
            self.inside_wall += time.perf_counter() - wall
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.inside += seconds
        self.samples.append(seconds)

    def factor(self, min_samples=0):
        """Nominal over the mean time of the slices since the last call,
        after running slices now if fewer than ``min_samples`` ran; None
        if there are none."""
        while len(self.samples) < min_samples:
            self.sample()
        samples = self.samples
        self.samples = []
        if not samples:
            return None
        return NOMINAL_SLICE_S * len(samples) / sum(samples)
