"""Host-speed probe: scales wall times to one reference speed of the host.

The benchmark runs on a few cores of a shared host.  On a 2-core virtual
machine its speed for interpreted Python switched between a fast and a slow
state, 1.5 to 1.6 times apart, in phases of 10 to 25 seconds.  A 25-second run
catches anything from a tenth to all of its time in the slow state, so the
median latency of a cheap request class flipped between two values from one
run to the next.

A fixed pure-Python loop, timed right before and right after each request
(outside its timed interval), tracks that state: its time correlates with the
latency of the fixed-cost requests at 0.9.  Each wall time is multiplied by

    speed_factor = REFERENCE_S / median(probe times)

which gives the time the request would have taken had the loop run in
``REFERENCE_S``.  Nothing here imports rdcss, so a change to rdcss cannot
move the probe.
"""

from __future__ import annotations

import statistics
import time

# The loop's time in the fast state of the 2-core virtual machine the
# baseline was measured on.  Scaled times read as wall times at that speed.
REFERENCE_S = 100e-6
# Loop timings taken on each side of a timed interval.
REPEATS = 5


def _loop() -> int:
    """Integer, dict and call work, as in rdcss's bit-mask layers."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(400):
        acc ^= (i * 2654435761) & 0xFFFFFF
        table[acc & 1023] = i
    return len(table) + sum(k.bit_count() for k in table)


def probe() -> list[float]:
    """Time the loop ``REPEATS`` times, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return times


def speed_factor(samples: list[float]) -> float:
    """Reference time over the median probe time; below 1 on a slower host."""
    return REFERENCE_S / statistics.median(samples)
