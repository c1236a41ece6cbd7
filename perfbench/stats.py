"""Percentiles by the benchmark's rule (a tail percentile is reported only
when at least ten samples lie beyond it), and the machine-speed scaling."""

from bisect import bisect_right
from fractions import Fraction
from math import ceil
from statistics import median
from time import perf_counter

MIN_BEYOND = 10


def p50(values):
    return median(values)


def tail(values, q=0.9):
    """Nearest-rank q-quantile, or None with fewer than MIN_BEYOND samples
    strictly above it."""
    if not values:
        return None
    ordered = sorted(values)
    value = ordered[max(ceil(q * len(ordered)), 1) - 1]
    beyond = len(ordered) - bisect_right(ordered, value)
    return value if beyond >= MIN_BEYOND else None


# Machine speed.  On a shared machine the same job runs up to 1.8x slower
# while other tenants load the cores, in phases lasting from seconds to
# minutes.  A fixed pure-Python loop (dict, tuple and Fraction work, like
# the library's hot paths) is timed after every job; each latency is scaled
# by REFERENCE_S over the median of the loop times around it, giving the
# latency at the machine speed where the loop takes REFERENCE_S.
REFERENCE_S = 0.0005
WINDOW = 4


def calibration_loop():
    counts = {}
    total = Fraction(0)
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        if i % 50 == 0:
            total += Fraction(i, 7)
    return len(counts), total


def time_calibration():
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start


def speed_factors(calibrations):
    """REFERENCE_S over the local median loop time, one factor per position."""
    n = len(calibrations)
    return [
        REFERENCE_S / median(calibrations[max(0, i - WINDOW): min(n, i + WINDOW + 1)])
        for i in range(n)
    ]
