"""Per-call timing shared by the tools in this directory.

A call that takes well under a millisecond is timed in a loop: each sample
runs the call `number` times, with `number` grown until a sample covers at
least SAMPLE_S, and the figure is the sample's time over `number`. A single
call of a few milliseconds swings with the scheduler and the cache; a
20 ms loop of it does not.
"""

from __future__ import annotations

import statistics
import time

SAMPLE_S = 0.02
LONG_S = 2.0


def _sample(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def _calibrate(fn) -> tuple[int, float]:
    """The number of calls of fn that a sample makes, and the time of the
    first sample of that many."""
    number = 1
    dt = _sample(fn, number)
    while dt < SAMPLE_S:
        # aim a little past SAMPLE_S from the time per call seen so far
        number = max(2 * number, int(1.2 * SAMPLE_S * number / max(dt, 1e-9)))
        dt = _sample(fn, number)
    return number, dt


def best(fn, repeat: int) -> float:
    """Milliseconds per call of fn: the best of repeat samples of at least
    SAMPLE_S each (fewer samples when one takes over LONG_S)."""
    number, dt = _calibrate(fn)
    times = [dt / number]
    while len(times) < repeat and dt <= LONG_S:
        dt = _sample(fn, number)
        times.append(dt / number)
    return round(min(times) * 1e3, 4)


def alternated(fns: dict, rounds: int) -> dict:
    """Milliseconds per call of each of fns, by name: the median of rounds
    samples of at least SAMPLE_S each, one sample of every function per
    round, so that a drift in the machine's speed reaches all of them."""
    numbers = {name: _calibrate(fn)[0] for name, fn in fns.items()}
    times = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            times[name].append(_sample(fn, numbers[name]) / numbers[name])
    return {name: round(statistics.median(t) * 1e3, 4) for name, t in times.items()}
