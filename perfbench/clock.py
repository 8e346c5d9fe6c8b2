"""Verdict times rescaled to a reference host speed.

Every duration is the CPU time of the process doing the work
(``time.process_time``).  The kernel accounts stolen time on this
virtual machine apart from task time, so a vCPU the hypervisor preempts
adds nothing to it, and neither does a pause while another process runs.

The shared host this benchmark was written on still changes speed by up
to 1.8x for seconds to minutes at a time, and CPU time changes with it,
so no amount of repetition inside a 25 s run averages that out.  A fixed
calibration kernel runs every ``INTERVAL_S`` between verdicts; a time
measured at ``t`` is multiplied by ``REFERENCE_S`` over the median kernel
time within ``WINDOW_S`` of ``t``.  The result reads as milliseconds on a
host where the kernel takes ``REFERENCE_S``; a slower program reads
slower, a slower host does not.  Sample positions ``t`` are wall-clock.

The kernel uses only the standard library and numpy, never zwcalc, so
no change to the program moves it.  It mixes the kinds of work the
workloads do, in about equal time: Gaussian-rational arithmetic on
``Fraction`` parts summed into a dict, dict and string work, and small
dense complex matrix products."""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

import numpy

INTERVAL_S = 0.1
WINDOW_S = 1.0
# about the kernel's fastest time on a 2-vCPU x86-64 host, Python 3.11
REFERENCE_S = 0.003


class _Gaussian:
    """A Gaussian rational, as an exact ring represents one."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re, self.im = re, im

    def __add__(self, o):
        return _Gaussian(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return _Gaussian(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)


_VALUES = [_Gaussian(Fraction(i % 7 - 3, i % 5 + 1), Fraction(i % 3, 2))
           for i in range(40)]


def kernel() -> None:
    sums: dict[tuple[str, str], _Gaussian] = {}
    for i in range(20):
        for j in range(0, 40, 8):
            key = (str(i % 6), str(j % 5))
            p = _VALUES[i] * _VALUES[j]
            sums[key] = sums[key] + p if key in sums else p
    table: dict[str, int] = {}
    for i in range(3000):
        key = str((i * 7919) % 1009)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: kv[1])
    m = numpy.arange(64, dtype=complex).reshape(8, 8)
    for _ in range(200):
        m = m @ m / (numpy.abs(m).max() + 1)


def time_kernel() -> float:
    """The kernel's CPU time, in seconds."""
    t0 = process_time()
    kernel()
    return process_time() - t0


class Calibration:
    """Kernel times taken along a timed run, and the rescaling they give."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        self.took.append(time_kernel())
        self.at.append(t0)
        self._next = perf_counter() + INTERVAL_S

    def maybe_sample(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def factor(self, t: float) -> float:
        """Reference speed over the host's speed around ``t``."""
        lo = bisect_left(self.at, t - WINDOW_S)
        hi = bisect_right(self.at, t + WINDOW_S)
        if lo == hi:  # nothing in the window: the nearest sample
            i = bisect_left(self.at, t)
            if i == len(self.at) or (i > 0 and t - self.at[i - 1] < self.at[i] - t):
                i -= 1
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])
