"""Calibrated timings: wall time rescaled by the machine's speed at the time.

On a shared 2-vCPU virtual machine, compute-bound code runs up to 1.5x
slower for spells of a fraction of a second to a few minutes, and steal
time does not account for it: CPU time slows as much as wall time.
Spells are often longer than a run, so no statistic over one run's
samples removes them.  Fixed reference kernels slow with the same
spells, so readings of them, taken between the measured pieces of work,
track them.  Code slows by different amounts in a spell, so each timing
is calibrated by the kernel that resembles it: a pure-Python loop for
setups, a weighted draw made of small numpy calls for sampler calls,
and both for training epochs, which mix the two kinds of code.  The
numpy kernel also follows how fast a process's address-space layout
makes such calls, which the Python loop does not.

A calibrated duration is a wall duration times NOMINAL_NS over the
kernel's time read around it: the seconds the work would take on a
machine where the kernel takes NOMINAL_NS.  The constant is fixed, so
calibrated times of two commits compare directly.  Code that streams
arrays larger than the caches does not follow the kernels, so only
workloads whose data fits in the caches are calibrated (see README.md).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median

import numpy as np

from hooks import now

KERNEL_REPS = 5                 # kernel calls per reading; their median is kept
NOMINAL_NS = 250_000            # a kernel's time at nominal speed
EVERY_NS = 100_000_000          # fewest nanoseconds between two readings
WINDOW_NS = 250_000_000         # readings this close to an interval calibrate it
MIN_READINGS = 3

_WEIGHTS = np.random.default_rng(0).random(10_000)


def python_kernel() -> int:
    """A pure-Python loop: tracks interpreter-bound code."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def numpy_kernel() -> np.ndarray:
    """A weighted draw from a uniform pool of 1000 of 10k items.

    It tracks the sampler calls: it makes the same kinds of small numpy
    calls as the samplers, on arrays of the same sizes, but it is fixed
    code of the benchmark.
    """
    rng = np.random.default_rng(5)
    pool = np.unique(rng.integers(0, 10_000, 1100))[:1000]
    cumulative = np.cumsum(_WEIGHTS[pool])
    idx = np.searchsorted(cumulative, rng.random(280) * cumulative[-1], side="right")
    chosen = np.zeros(1000, dtype=bool)
    fresh = idx[~chosen[idx]]
    _, first = np.unique(fresh, return_index=True)
    return np.sort(pool[fresh[np.sort(first)]])


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class Metronome:
    """Readings of the reference kernels' times, taken between measured work.

    ``tick()`` reads every kernel when EVERY_NS have passed since the last
    reading.  Call it only where no measured interval is open.
    """

    def __init__(self):
        self.at: list[int] = []
        self.kernel_ns: dict[str, list[int]] = {name: [] for name in KERNELS}
        self._last = None

    def tick(self, force: bool = False) -> None:
        t0 = now()
        if not force and self._last is not None and t0 - self._last < EVERY_NS:
            return
        for name, kernel in KERNELS.items():
            times = []
            for _ in range(KERNEL_REPS):
                t = now()
                kernel()
                times.append(now() - t)
            self.kernel_ns[name].append(median(times))
        t1 = now()
        self.at.append((t0 + t1) // 2)
        self._last = t1

    def factor(self, t0: int, t1: int, kernels: tuple[str, ...]) -> float:
        """NOMINAL_NS over the kernels' time read around [t0, t1].

        Uses the readings within WINDOW_NS of the interval, or the
        MIN_READINGS nearest to its middle if fewer lie there.  With
        several kernels, the time is the geometric mean of their medians.
        """
        lo = bisect_left(self.at, t0 - WINDOW_NS)
        hi = bisect_right(self.at, t1 + WINDOW_NS)
        if hi - lo < MIN_READINGS:
            if len(self.at) < MIN_READINGS:
                raise ValueError("too few reference readings to calibrate a timing")
            mid = (t0 + t1) // 2
            picked = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            picked = picked[:MIN_READINGS]
        else:
            picked = range(lo, hi)
        ratio = 1.0
        for name in kernels:
            readings = self.kernel_ns[name]
            ratio *= NOMINAL_NS / median(readings[i] for i in picked)
        return ratio ** (1 / len(kernels))

    def seconds(self, intervals, kernels: tuple[str, ...]) -> list[float]:
        """Calibrated seconds of each (start_ns, end_ns) interval."""
        return [(t1 - t0) / 1e9 * self.factor(t0, t1, kernels) for t0, t1 in intervals]
