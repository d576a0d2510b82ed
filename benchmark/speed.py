"""Timings scaled to a steady machine speed.

The shared host this benchmark was tuned on changes speed by up to 1.8x
within seconds, for every process alike, so wall time alone measures the
host more than the program.  A ``Clock`` therefore runs a fixed calibration
chunk right before and right after every measured call and, from a SIGALRM
handler, every ``TICK_S`` seconds during it.  The chunk is pure-Python graph
code owned by the benchmark (strong components from ``checkers``); it calls
nothing in the library, so a change to the library cannot change it.  Each
chunk runs once untimed and then once timed, so its time measures the host
on warm caches rather than the library's leftovers in them; in four trials
that tracked the library better than timing a cold chunk of the same total
work.

A measured call reports two times:

- ``wall``: its wall time minus both runs of the chunks inside it;
- ``scaled``: ``wall * REFERENCE_CHUNK_S * mean(1 / timed chunk)`` over the
  chunks before, inside and after it.  That is the call's time on a machine
  where one timed chunk takes ``REFERENCE_CHUNK_S``.

On a 2-core Xeon VM the scaled time of a fixed batch varied by 0.6-1.7%
(coefficient of variation over passes), against 8-10% for wall time.  The
correction is partial, so slow stretches still read slightly higher.  See
benchmark/README.md.
"""

from __future__ import annotations

import gc
import random
import signal
import time

from checkers import Graph, _components

REFERENCE_CHUNK_S = 0.00019  # one timed chunk on the tuning box at its faster speed
TICK_S = 0.01


class Clock:
    def __init__(self, ticks: bool = True):
        rng = random.Random(7)
        n = 40
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < .3]
        self._graph = Graph(range(n), arcs, [a for a in arcs if rng.random() < .5], [])
        self._parts = [set(rng.sample(range(n), 30)) for _ in range(2)]
        self._ticks = ticks
        self._inside: list[tuple[float, float, float]] = []

    def chunk(self) -> tuple[float, float, float]:
        """Runs the calibration chunk untimed, then timed.  Returns (start,
        seconds of both runs, seconds of the timed run)."""
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for part in self._parts:
            _components(self._graph, part)
        t0 = time.perf_counter()
        for part in self._parts:
            _components(self._graph, part)
        end = time.perf_counter()
        if was_enabled:
            gc.enable()
        return start, end - start, end - t0

    def _on_tick(self, signum, frame):
        self._inside.append(self.chunk())

    def measure(self) -> "Measurement":
        return Measurement(self)


class Measurement:
    """``with clock.measure() as m:`` times the block; ``m.wall`` and
    ``m.scaled`` are set on exit, also when the block raises."""

    wall: float
    scaled: float

    def __init__(self, clock: Clock):
        self._clock = clock

    def __enter__(self) -> "Measurement":
        clock = self._clock
        self._before = clock.chunk()[2]
        clock._inside = []
        if clock._ticks:
            self._previous = signal.signal(signal.SIGALRM, clock._on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        clock = self._clock
        if clock._ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        inside = [c for c in clock._inside if c[0] < t1]
        after = clock.chunk()[2]
        chunks = [self._before, *(timed for _, _, timed in inside), after]
        self.wall = t1 - self._t0 - sum(total for _, total, _ in inside)
        self.scaled = self.wall * REFERENCE_CHUNK_S * sum(1 / c for c in chunks) / len(chunks)
        return False
