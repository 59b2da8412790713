"""Per-call timing shared by the tools in this directory.

A call that takes well under a millisecond is timed in a loop: each sample
runs the call `number` times, with `number` grown until a sample covers at
least SAMPLE_S, and the figure is the sample's time over `number`. A single
call of a few milliseconds swings with the scheduler and the cache; a
20 ms loop of it does not.
"""

from __future__ import annotations

import time

SAMPLE_S = 0.02
LONG_S = 2.0


def _sample(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def best(fn, repeat: int) -> float:
    """Milliseconds per call of fn: the best of repeat samples of at least
    SAMPLE_S each (fewer samples when one takes over LONG_S)."""
    number = 1
    dt = _sample(fn, number)
    while dt < SAMPLE_S:
        # aim a little past SAMPLE_S from the time per call seen so far
        number = max(2 * number, int(1.2 * SAMPLE_S * number / max(dt, 1e-9)))
        dt = _sample(fn, number)
    times = [dt / number]
    while len(times) < repeat and dt <= LONG_S:
        dt = _sample(fn, number)
        times.append(dt / number)
    return round(min(times) * 1e3, 4)
