"""Correct wall times for the speed the CPU had while they were taken.

On a shared host a vCPU's speed drifts: the same pure-Python loop takes
up to 1.6 times as long for stretches of seconds to minutes, and each
vCPU drifts on its own.  A wall time taken at a slow moment then reads as
a slower program.  To take that out, the benchmark pins itself and its
children to one CPU (``pin``) and times a fixed pure-Python loop on that
CPU right before and right after each timed block (``ScaledTimer``).  The
block's wall time is multiplied by ``REFERENCE_PROBE_S`` over the mean of
the two probe times: the scaled time is the block's wall time at the
speed at which the probe loop takes ``REFERENCE_PROBE_S``.

The probe runs only in the benchmark's own process, between children, so
it never competes with the program it times.  ``REFERENCE_PROBE_S`` is a
fixed unit, close to the probe's time on a fast moment of the baseline
machine; only ratios of scaled times are compared.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_LOOPS = 40_000
PROBE_REPEATS = 5
REFERENCE_PROBE_S = 0.003


def pin() -> int:
    """Restrict this process, and so every child it starts, to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def probe_s() -> float:
    """Median time of the fixed loop over a few repeats: the CPU's speed now."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _loop(PROBE_LOOPS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledTimer:
    """Times a ``with`` block.

    Sets ``wall_s``, the factor ``scale`` (``REFERENCE_PROBE_S`` over the
    mean probe time) and the speed-corrected ``scaled_s = wall_s * scale``.
    """

    wall_s: float
    scale: float
    scaled_s: float

    def __enter__(self):
        self.before = probe_s()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        after = probe_s()
        self.scale = REFERENCE_PROBE_S / ((self.before + after) / 2)
        self.scaled_s = self.wall_s * self.scale
        return False
