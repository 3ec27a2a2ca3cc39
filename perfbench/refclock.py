"""A clock that reads seconds at a fixed reference speed.

On a shared machine the processor's speed for this process changes from one
second to the next: on the 2-vCPU Xeon VM where the benchmark was defined, a
fixed pure-Python loop ran at 1.0x, 1.4x or 1.6x its fastest time in phases
lasting from one to tens of seconds, and the split job list took from 4.7 to
6.9 wall seconds (fastest repeat of each job) between runs a minute apart.
No choice of repeats removes that from a job of a few seconds.

``ReferenceClock`` measures the speed while the program runs: a timer signal
interrupts the process every ``PERIOD_S`` seconds, and the handler times a
fixed stdlib loop that shares no code with cutforge.  Each interval between
two samples is credited at the speed sampled at its start, scaled so that
the loop takes ``REFERENCE_SAMPLE_S``; the time the samples themselves take
is not credited.  The clock therefore advances by the seconds the work would
take on a processor of the reference speed, roughly this VM uncontended.
A change that makes the program do less work reads faster on it exactly as
on a wall clock; a neighbour that slows the processor slows the loop too
and is divided out.

The handler runs in the main thread between bytecodes (Python signal
semantics), so the process stays single-threaded.  Interrupted system calls
are retried by the interpreter (PEP 475).
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
SAMPLE_LOOP = 600
REFERENCE_SAMPLE_S = 0.00028


def _loop():
    """Integer arithmetic, dict updates, small strings, tuples and a sort:
    the kinds of work cutforge's jobs are made of, in one fixed mix.
    Normalised by this mix, round-to-round job times of the check and split
    job lists spread about half as much as normalised by integer arithmetic
    alone, and those of the measure job list no more."""
    total = 0
    table = {}
    pairs = []
    for i in range(SAMPLE_LOOP):
        total += i * i % 7
        key = i * 7919 % 2003
        table[key] = table.get(key, 0) + i
        pairs.append((key, str(i)))
    pairs.sort()
    return total + len(table)


def sample_seconds():
    """Fastest of two timings of the calibration loop."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class ReferenceClock:
    """Use as a context manager; ``now()`` reads reference seconds."""

    def __init__(self):
        self._credited = 0.0
        self._mark = 0.0
        self._rate = 1.0
        self._generation = 0
        self._sampling = False
        self._previous_handler = None

    def _resample(self, *_signal_args):
        if self._sampling:  # a signal that lands during a sample is dropped
            return
        self._sampling = True
        start = time.perf_counter()
        self._credited += (start - self._mark) * self._rate
        self._rate = REFERENCE_SAMPLE_S / sample_seconds()
        self._mark = time.perf_counter()
        self._generation += 1
        self._sampling = False

    def now(self):
        while True:
            generation = self._generation
            value = self._credited + (time.perf_counter() - self._mark) * self._rate
            if generation == self._generation:  # no sample landed in between
                return value

    def __enter__(self):
        self._rate = REFERENCE_SAMPLE_S / sample_seconds()
        self._mark = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._resample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False
