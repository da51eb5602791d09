"""Machine-speed calibration for the end-to-end times.

The shared machines this benchmark runs on drift in speed by up to 1.7x
over seconds to minutes, which no amount of averaging inside a 25-second
run removes.  So between chunks of about ``CHUNK_S`` seconds of measured
work the benchmark times a fixed reference workload — pure Python, touching
no code of the program — and scales the chunk's times by
``NOMINAL_S / reference seconds`` (the mean of the samples just before
and just after the chunk).  Times then read as they would on a machine
where the reference takes ``NOMINAL_S``; a change to the program moves
them, a change in how busy the machine is mostly does not.

Measured on a shared 2-vCPU Xeon at 2.0 GHz: unscaled, ten runs of one
``easy_burst`` seed spread 0.13 in jobs_per_s (interquartile range over
median); scaled, ten 25-second runs on ten different seeds spread at most
0.05 on every workload.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: reference seconds the scaled times are expressed against
NOMINAL_S = 0.008
#: measured seconds between reference samples
CHUNK_S = 0.25


class _Node:
    __slots__ = ("key", "kids", "val")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list = []
        self.val = 0


def reference_seconds() -> float:
    """Time one run of the reference workload: build a random tree of
    slotted objects, walk it with a stack into a dict, and sort it — the
    interpreter work a scheduler does, without the scheduler."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(5)
        nodes = [_Node(i) for i in range(3000)]
        for i in range(1, len(nodes)):
            nodes[rng.randrange(i)].kids.append(nodes[i])
        totals: dict = {}
        for _ in range(6):
            stack = [nodes[0]]
            while stack:
                node = stack.pop()
                node.val += len(node.kids)
                totals[node.key % 257] = totals.get(node.key % 257, 0) + node.val
                stack.extend(node.kids)
            nodes.sort(key=lambda n: (n.val, n.key))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Reference samples taken between chunks of measured work."""

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.samples = [self.last]

    def factor(self) -> float:
        """Sample again; the scale for work measured since the last sample."""
        now = reference_seconds()
        scale = 2 * NOMINAL_S / (self.last + now)
        self.last = now
        self.samples.append(now)
        return scale


class Chunks:
    """Decision times of one measured phase, scaled chunk by chunk.

    Call :meth:`record` after every step of the phase (with the decision's
    seconds, or None for a step that decided nothing) and :meth:`finish`
    at its end.  Every ``CHUNK_S`` seconds the chunk closes: the
    calibration is sampled, outside any decision's timing, and the chunk's
    times and wall time are scaled by its factor.  Without a calibration
    the scale is 1.
    """

    def __init__(self, calibration: "Calibration | None") -> None:
        self.calibration = calibration
        self.times: list = []
        self.raw_wall = 0.0
        self.wall = 0.0
        self._chunk: list = []
        self._start = perf_counter()

    def record(self, seconds: "float | None") -> None:
        if seconds is not None:
            self._chunk.append(seconds)
        if perf_counter() - self._start >= CHUNK_S:
            self.finish()

    def finish(self) -> None:
        elapsed = perf_counter() - self._start
        calibration = self.calibration
        scale = calibration.factor() if calibration is not None else 1.0
        self.times.extend(t * scale for t in self._chunk)
        self.raw_wall += elapsed
        self.wall += elapsed * scale
        self._chunk = []
        self._start = perf_counter()
