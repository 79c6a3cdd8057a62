"""How fast the host runs right now, from a fixed pure-Python loop.

On the shared 2-vCPU host this benchmark was built on, a fixed loop runs
at one of two speeds about 1.4x apart, switching within a second, and the
share of time at the slow speed drifts over minutes with no steal time
visible to the guest. In one such stretch, ten 36 s runs each of adv-p3
and vacuum-p1 had raw medians whose quartiles spread 0.14-0.29 of their
median; scaled by this loop's slowdown, timed before each sample on the
same CPU, the runs' trimmed means spread 0.03-0.12.

The loop runs no solver code, so a change to the program cannot move it:
a program that gets X% slower reports X% more time after the scaling too.
"""

import time

from metrics import trimmed_mean

REF_S = 0.008    # seconds one chunk takes at the reference host speed
CHUNKS = 24      # chunks timed before each sample, ~0.2 s


def _chunk():
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def measure(chunks=CHUNKS):
    """Seconds each of `chunks` runs of the loop took."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return times


def slowdown(times):
    """Mean chunk time over REF_S, without the fastest and slowest tenth.

    A mean, not a median: the program's time grows with the share of time
    the host spends slow, and so does the mean, while a median jumps from
    one speed to the other when that share crosses one half.
    """
    return trimmed_mean(times) / REF_S
