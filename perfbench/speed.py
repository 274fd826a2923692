"""CPU-speed probe: rescale wall times to a fixed reference speed.

On a shared host the speed one process sees changes while the program
does the same work: in and out of slow periods every second or so, and
by up to 2x over minutes, with no steal time reported. Wall times of
identical passes spread too widely to compare two versions of the
program. The probe measures that speed during the timed work itself.

While a ``SpeedProbe`` is active, an interval timer interrupts the
process every ``INTERVAL_S`` and a signal handler times a fixed
pure-Python loop that does not touch the program. Each sample gives
the CPU's speed at that moment as ``REFERENCE_S`` over the loop's time,
where ``REFERENCE_S`` is the loop's time in a fast period on the machine
the benchmark was defined on. The samples are spread evenly in time, so
their mean speed is the mean rate at which the work went on, and
``slowdown()`` is its inverse. A wall time divided by the slowdown is
the time the work would have taken at the reference speed. The handler
adds about 1.5% to the wall time, the same on every version of the
program.

Python runs the handler between bytecodes, so a long call into C defers
it and timer expirations coalesce: the samples fall where the program
runs Python, and a pass that stays in C throughout gets few. ``start``
and ``stop`` take one sample each, so there is always a sample.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
LOOPS = 2000
REFERENCE_S = 2.0e-4
TRIM = 0.1          # share of samples dropped at each end


def reference_loop():
    """Seconds taken by a fixed pure-Python loop.

    It works on a few local variables, so its time does not depend on
    what the program left in the data caches: a loop that reads scattered
    memory tracks the workloads' pass times a little more closely, but
    would also time the program's own cache traffic."""
    t0 = perf_counter()
    x = 0.0
    for i in range(LOOPS):
        x += (i * 0.5) % 7.0
    return perf_counter() - t0


def trimmed_mean(values, trim=TRIM):
    """Mean after dropping ``trim`` of the values at each end.

    A sample that was pre-empted reads many times too slow; the trim
    keeps it out."""
    xs = sorted(values)
    k = int(len(xs) * trim)
    return statistics.fmean(xs[k:len(xs) - k])


class SpeedProbe:
    """Samples ``reference_loop`` on a timer between ``start`` and ``stop``
    (or inside ``with``)."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def sample(self, *_):
        self.samples.append(reference_loop())

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def slowdown(self):
        """How many times slower than the reference speed the work ran."""
        return 1.0 / trimmed_mean([REFERENCE_S / t for t in self.samples])
