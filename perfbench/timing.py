"""Timing that holds steady on a shared host.

On the 2-vCPU host this benchmark was tuned on, the CPU speed switches
between states up to 1.6x apart, several times a second: one operation run
back to back varied by a third (IQR/median), and whole 20 s runs by up to a
quarter.  A run of an operation is therefore scaled by CALIBRATION_REF_S over
the mean of `calibration_s()` measured just before and just after it.  The
loop tracks the host's state (correlation 0.89 with an operation's time) and
cut the back-to-back variation to an eighth.  The reference is the loop's
fast-state time on that host, so calibrated latencies read as seconds in the
fast state.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

CALIBRATION_REF_S = 0.0005


def calibration_s() -> float:
    """Fastest of three runs of a fixed stdlib `Fraction` loop (about 0.5 ms)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - start)
    return best


def calibrate(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to the reference speed, given the loop's times around it."""
    return elapsed * CALIBRATION_REF_S * 2 / (before + after)


def fastest_calibrated(fn, *args, runs: int = 3) -> float:
    """Fastest calibrated time of `runs` calls of `fn(*args)`."""
    best = math.inf
    for _ in range(runs):
        before = calibration_s()
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        best = min(best, calibrate(elapsed, before, calibration_s()))
    return best


def percentile(values: list[float], q: float, steps: int = 20000) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics: on
    this benchmark it spread a third as much from seed to seed as the single
    nearest-rank order statistic (p90: 0.05 against 0.13 IQR/median).
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[int(t * n)] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)
