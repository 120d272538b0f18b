"""The host's speed, sampled all through a run, and the clock of every time.

On a shared host the speed of this process's core changes from moment to
moment, between regimes a factor of about 1.6 apart that last from a
fraction of a second to minutes, as other tenants load the same physical
core.  CPU time moves with it, because the process is not waiting: it runs
slower.  :class:`HostSpeed` interrupts the process every ``INTERVAL_S`` of
its CPU time (``SIGPROF``) and times a fixed reference block there.  The
reference never calls the program, so no change to the program changes its
cost; it only tracks how fast the host runs, at the moments the timed code
runs.  A CPU time multiplied by :meth:`HostSpeed.factor` of the samples
taken during it is the time the same work takes on the quiet host.

A loaded core does not slow every kind of work alike.  Over the iterations
of a run, the log of a workload's CPU time follows the log of the reference
time with a slope that depends on the workload's mix of work, its
*sensitivity*: about 1.3 for the interpreted event loops and 0.75 for the
numpy-bound limit ensemble.  The factor raises each sample's slowdown to
that power.  ``calibrate.py`` measures the slope from run records.

Times are CPU time of the calling thread, which runs all the work: BLAS is
pinned to one thread.  While the ``SIGPROF`` timer is armed, Linux advances
the process-wide CPU clock only at scheduler ticks, too coarsely to time a
sample; the thread clock stays exact.  :meth:`HostSpeed.clock` leaves out
the time spent in samples.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: CPU time between two samples.  One sample costs about 4% of it.
INTERVAL_S = 0.1
#: About the duration of one ``reference_work()`` on the quiet 2-vCPU
#: development host.  It only converts reference units back to seconds.
REFERENCE_S = 3.5e-3

_REF_RNG = np.random.default_rng(0)
#: The shape of a limit ensemble's volume grid: 2000 paths by 113 nodes.
_REF_GRID = _REF_RNG.random((2000, 113))
_REF_INDEX = _REF_RNG.integers(0, 113, (2000, 113))
_REF_SMALL = np.arange(4.0)


def reference_work(rng: np.random.Generator) -> float:
    """A fixed block of the three kinds of work the program does.

    Interpreted float arithmetic and dict stores, and many numpy calls on
    arrays of a few elements, as in the event loops; gathers and arithmetic
    over a volume-node grid, as in the limit stepper.  A loaded core slows
    the three by different amounts, and each workload mixes them
    differently.
    """
    acc = 0.0
    slots = {}
    for i in range(800):
        acc += math.exp(-1e-4 * i) * ((i * 7) % 13)
        slots[i & 255] = acc
    for i in range(120):
        small = _REF_SMALL * (1.0 + 1e-3 * i)
        acc += float(small.sum()) + rng.exponential(1.0) + rng.random()
        acc += float(np.exp(-small).max())
    grid = np.take_along_axis(_REF_GRID, _REF_INDEX, axis=1) * 0.5 + _REF_GRID * 0.5
    return acc + float(grid[0, 0])


class HostSpeed:
    """Reference samples taken every ``INTERVAL_S`` of CPU time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._rng = np.random.default_rng(0)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        c0 = time.thread_time()
        reference_work(self._rng)
        self.samples.append(time.thread_time() - c0)
        self.spent += time.thread_time() - c0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """CPU time of this thread without the time spent in samples."""
        while True:
            spent = self.spent
            now = time.thread_time()
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        """Position in the samples; pass it to :meth:`factor` later."""
        return len(self.samples)

    def factor(self, start: int, sensitivity: float = 1.0) -> float:
        """Mean of ``(REFERENCE_S / sample) ** sensitivity`` over the samples
        since ``start``.

        Samples fall evenly in CPU time, so this mean weights each regime by
        the share of the time it lasted.  With no sample since ``start`` the
        mean of all samples stands in, and with none at all 1.
        """
        samples = self.samples[start:] or self.samples
        if not samples:
            return 1.0
        return statistics.fmean((REFERENCE_S / s) ** sensitivity for s in samples)
