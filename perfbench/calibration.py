"""Machine-speed calibration for the time metrics.

The benchmark runs on shared machines whose speed drifts by a third or
more over tens of seconds, for the same work and in CPU time as well as
wall time: the co-tenants of a physical core slow it, not this process.
Such drift swamps the changes the benchmark has to resolve, and a run of
30 s cannot average it away.

So every run also times a fixed stdlib-only kernel, at regular moments
between commands, and scales each time metric by
``REFERENCE_S / (trimmed mean of the run's kernel times)``: a reported
millisecond is a millisecond on a machine where the kernel takes
``REFERENCE_S``. The kernel never touches ``continuum``, so a change to
the library cannot move it; it mixes the operations the library spends
its time in (argparse parser construction, ``Fraction`` arithmetic,
tuple slicing, sets and dicts of many small tuples).
"""

from __future__ import annotations

import argparse
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.015  # kernel time on the reference machine
KERNEL_REPEATS = 3


def kernel() -> int:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    for i in range(3):
        command = sub.add_parser(f"c{i}", help="calibration subcommand")
        command.add_argument("--value", type=int, default=0)
        command.add_argument("word", choices=("a", "b"))
    parser.parse_args(["c2", "--value", "5", "a"])
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, 3 << (i % 17))
    bits = tuple(i & 1 for i in range(400))
    while bits:
        bits = bits[:-1]
    # A working set of a few MB, like the trace universe or a law witness:
    # a small kernel alone misses the cache contention that slows those.
    items = [(i & 1, (i >> 1) & 1, i % 7, i) for i in range(20000)]
    seen = set(items)
    index = {item: i for i, item in enumerate(items)}
    return total.denominator + sum(1 for item in items[::3] if item in seen and index[item] >= 0)


def sample() -> list[float]:
    """``KERNEL_REPEATS`` timings of the kernel, in seconds."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def speed_factor(times: list[float]) -> float:
    """Multiply a measured duration by this to express it on the reference machine.

    The kernel time is the mean of the middle 80% of the samples: the
    machine flips between a fast and a slow state, and a median jumps
    between the two when they are about equally common.
    """
    ordered = sorted(times)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.mean(ordered[cut : len(ordered) - cut])
