"""Machine-speed calibration for timed values.

The shared host this benchmark was built on runs a CPU-bound Python loop
at its best speed or about 1.5x slower, in phases lasting from seconds to
minutes (see BASELINE.json, "machine").  Raw wall times therefore differ
by a third between runs of the same code.  To measure the program rather
than the host, a short fixed kernel of pure-Python integer work is timed
right before and right after each operation, on the same CPU, and the
operation's wall time is scaled by ``REFERENCE_S / kernel time``: the
result is the time the operation would take with the host at the speed
at which the kernel takes ``REFERENCE_S``.  The kernel does not touch
skewseries, so a change to the program moves the scaled times exactly as
it moves the raw ones; run.py prints the raw figures beside them.
"""

from __future__ import annotations

import statistics
import time

# Kernel time, in seconds, that defines the reference speed (about the
# host's fast phase).
REFERENCE_S = 0.0005
# Kernel runs per sample; the median of a sample is its time.
RUNS = 3


def kernel():
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
    return acc


def sample(runs: int = RUNS) -> list[float]:
    """Wall times of `runs` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return times


def factor(times) -> float:
    """Scale from measured seconds to reference-speed seconds."""
    return REFERENCE_S / statistics.median(times)
