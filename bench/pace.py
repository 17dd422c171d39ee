"""The host's speed, read from a fixed reference loop.

The benchmark's host shares its cores with other tenants, and a core's speed
drifts by a third or more within seconds to minutes.  Raw timings taken
minutes apart then differ by more than any change worth detecting.  The
benchmark therefore reads the speed of the core it runs on with a fixed
reference loop, right before and right after each timed interval and at
times during it.  The interval's time
is scaled to a host on which one loop takes REFERENCE_S seconds: a time
measured while the loop took twice REFERENCE_S is halved.

The loop is plain Python that shares no code with the package and allocates
no objects the garbage collector tracks, so no change to the package
changes its speed.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter, thread_time

# the nominal duration of one reference loop; about its fastest on a 2 GHz
# x86-64 vCPU under Python 3.11
REFERENCE_S = 0.0025
# loops in a reading at either end of an interval; the reading is their median
LOOPS = 5
# seconds between the single-loop readings taken during a long interval
SAMPLE_PERIOD = 0.25


def _loop() -> float:
    """The CPU time of one reference loop, in seconds.  CPU time leaves out
    the time other processes of the benchmark, such as pool workers, hold
    the core, but not a slowdown of the core itself."""
    t0 = thread_time()
    acc, big = 0, 3**600
    for i in range(14000):
        acc = (acc * 31 + i) % 1_000_003
        if i % 20 == 0:
            big = (big * 7 + acc) % (5**650)
    return thread_time() - t0


def _reading() -> float:
    """The median CPU time of LOOPS reference loops, in seconds."""
    return statistics.median(_loop() for _ in range(LOOPS))


class Interval:
    """One timed interval, the body of a `with` block, and the host's speed
    over it.

    A reading of LOOPS loops is taken before and after the body, and the
    body may take single-loop readings with `sample`.  With sampled=True a
    SIGALRM handler, which runs in the main thread between bytecodes, calls
    `sample` every SAMPLE_PERIOD seconds; use it only where the body's own
    timings need not leave those readings out.  With spread=True the
    readings cycle over the CPUs the process may use, for a body whose work
    runs in worker processes on all of them.  `seconds` is the body's time
    less the time its samples took.
    """

    def __init__(self, sampled: bool = False, spread: bool = False):
        self.sampled = sampled
        self.cpus = sorted(os.sched_getaffinity(0)) if spread else []
        self.readings: list[float] = []
        self._spent = 0.0
        self.seconds = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        if self.cpus:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpus[len(self.readings) % len(self.cpus)]})
            self.readings.append(_loop())
            os.sched_setaffinity(0, allowed)
        else:
            self.readings.append(_loop())
        self._spent += perf_counter() - t0

    def __enter__(self) -> "Interval":
        self.readings.append(_reading())
        if self.sampled:
            self._saved = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self._start - self._spent
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
        self.readings.append(_reading())

    @property
    def scale(self) -> float:
        """The factor that takes a time measured in the interval to the
        reference host: the mean of REFERENCE_S over each reading."""
        return statistics.fmean(REFERENCE_S / r for r in self.readings)
