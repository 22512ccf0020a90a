"""Host-speed calibration: report times at a fixed reference speed.

On a shared host the speed a process gets swings by up to 2x, over
fractions of a second as well as over minutes, as other tenants load the
same physical core.  The benchmark therefore samples the host's speed
while it measures: a short fixed kernel -- Python-level loops of small
numpy row and column updates, the kind of work the engine's step loop
and Jacobi sweeps do -- is timed between rounds and, from a periodic
timer signal, every ``PERIOD_S`` during a round.  A round's wall time,
less the time spent in the kernel, is scaled by ``REFERENCE_S`` over the
mean kernel time, so a reported second is a second on a host where the
kernel takes ``REFERENCE_S``.  The program's own work is untouched: a
faster program reads faster, a busier host does not read slower.

The process is pinned to one CPU so that the kernel and the rounds run on
the same core; set-up probes inherit the pinning.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np

#: Kernel time that defines the reference host speed, s.
REFERENCE_S = 5e-4
#: Interval between kernel samples during a round, s.
PERIOD_S = 0.05
#: Kernel passes per calibration between rounds.
BOUNDARY_PASSES = 10

_A = np.ones((100, 100))
_V = np.empty(100)


def kernel() -> float:
    """One pass of the fixed calibration kernel; returns its duration."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200):
        j = i % 97
        np.multiply(_A[j], 1e-9, out=_V)
        _A[j + 1] += _V
        _A[:, j + 2] -= _V
        s += float(_V[j]) * 0.5
    return time.perf_counter() - t0


def calibrate() -> list[float]:
    """Kernel durations of ``BOUNDARY_PASSES`` passes in a row."""
    return [kernel() for _ in range(BOUNDARY_PASSES)]


def scale(samples: list[float]) -> float:
    """Factor taking a wall time to the reference host speed."""
    return REFERENCE_S / (sum(samples) / len(samples))


class Sampler:
    """Kernel samples taken from a timer signal while a round runs.

    ``overhead`` is the time spent in the handler, to be taken off the
    round's wall time.  Python runs the handler between bytecodes of the
    main thread, so it never interrupts a numpy call half-way.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Timer:
    """Times calls and gives each its factor to the reference speed.

    The factor comes from the kernel samples taken just before, during and
    just after the call; the samples after one call serve as those before
    the next.
    """

    def __init__(self):
        self._before = calibrate()

    def __call__(self, fn, *args, **kwargs):
        """(result, wall time less kernel samples, factor) of one call."""
        with Sampler() as sampler:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - t0 - sampler.overhead
        after = calibrate()
        factor = scale(self._before + sampler.samples + after)
        self._before = after
        return result, wall, factor


def current_cpu() -> int:
    """The CPU this process last ran on (from /proc/self/stat)."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        cpu = int(fields[36])  # field 39 of the full line: processor
    except (OSError, IndexError, ValueError):
        return allowed[0]
    return cpu if cpu in allowed else allowed[0]


def pin() -> int:
    """Pin this process (and children it starts later) to its current CPU."""
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu})
    return cpu
