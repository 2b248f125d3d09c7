#!/usr/bin/env python3
"""A fixed pure-Python workload that measures how fast the host runs right now.

The benchmark's host shares its cores, caches and memory bandwidth with
other machines' work, so the same repetition can take 4 s one minute and
5.5 s the next.  ``run.py`` times this yardstick between repetitions, in
a fresh interpreter each time, and scales its host-time metrics by
``NOMINAL_S / median(yardstick seconds)``: a host-wide slowdown lengthens
both and cancels, while a change to the ``repro`` program moves only the
program.  The yardstick imports nothing from ``repro`` and its work never
changes, so no change to the program can move it.

The work resembles the simulator's: generator processes resumed from a
heap-ordered agenda, a dict of a few hundred thousand string keys
updated at random, small tuples and byte strings built and hashed.

Usage: ``python3 perfbench/yardstick.py`` prints the seconds one pass took.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import statistics
import time

#: Yardstick seconds of the reference host the scaled metrics refer to
#: (about what one pass took on a 2-core shared Xeon at 2.1 GHz, Python 3.11).
NOMINAL_S = 1.5

#: Generator processes, events and distinct keys of one pass.
PROCESSES = 8
EVENTS = 800_000
KEYS = 300_000


def _process(index: int, keys, store: dict):
    payload = bytes(range(index, index + 64))
    for step in range(EVENTS // PROCESSES):
        key = keys[step % len(keys)]
        previous = store.get(key)
        frame = payload[step & 31 :] + key.encode()
        store[key] = (step, len(frame), previous[0] if previous else -1)
        yield (step * 7 + index) % 5


def one_pass() -> tuple:
    """Run the fixed work once; return (host seconds, result digest)."""
    rng = random.Random(20181120)
    keys = [f"user{rng.randrange(10 ** 9)}" for _ in range(KEYS)]
    t0 = time.perf_counter()
    store: dict = {}
    agenda = []
    for index in range(PROCESSES):
        process = _process(index, keys[index::PROCESSES], store)
        heapq.heappush(agenda, (0, index, process))
    digest = hashlib.sha256()
    resumed = 0
    while agenda:
        when, order, process = heapq.heappop(agenda)
        try:
            delay = next(process)
        except StopIteration:
            continue
        resumed += 1
        if resumed % 16 == 0:
            digest.update(repr((when, order, delay)).encode())
        heapq.heappush(agenda, (when + delay + 1, order + PROCESSES * resumed, process))
    seconds = time.perf_counter() - t0
    digest.update(repr((len(store), sum(entry[1] for entry in store.values()))).encode())
    return seconds, digest.hexdigest()[:16]


def reference_scale(passes) -> float:
    """Factor turning this run's host seconds into reference-host seconds.

    Multiply a host time by it; divide a per-host-second rate by it.
    """
    return NOMINAL_S / statistics.median(passes)


if __name__ == "__main__":
    print(repr(one_pass()[0]))
