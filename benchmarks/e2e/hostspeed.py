"""How fast the host runs right now, from a fixed probe timed between ops.

The benchmark was defined on a shared 2-vCPU VM whose per-core speed
moves by 2x and more: two back-to-back timings of a fixed 2-ms task
differ by about 15 % (standard deviation of their log ratio), the speed
changes in spells lasting seconds and drifts by 1.5x between minutes,
and the two vCPUs move largely independently of each other (their
speeds correlate at about 0.3).  Raw wall times of the same work then
spread by 15-35 % between runs, more than any change under test.

So the benchmark pins itself to one CPU (:func:`pin_to_one_cpu`), times
this probe, a Dijkstra search over a fixed 40 x 40 grid in pure Python
like the program's own network expansions, right before and right after
every op, and scales the op's time by :data:`REFERENCE_S` over the
geometric mean of the two probe times, raised to :data:`ELASTICITY`.
The scaled time reads as the op would have taken on a host where the
probe takes :data:`REFERENCE_S`.
The probe shares no code with the program, so a change to the program
moves only the op times; the probes run between ops, outside their
timed windows.  Wider windows (the median of the probes of up to 17
neighbouring ops) and probes run once untimed first, to warm the
caches, scaled no better on that host.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import time

#: Probe time the scaled figures refer to: about the probe's median on
#: the host the benchmark was defined on.
REFERENCE_S = 0.002

#: How far the program's times follow the probe's: on that host a run's
#: raw throughput moved with its median probe time to the power -0.5 to
#: -0.6, so scaling by the whole ratio over-corrects (scaled throughput
#: then rose with the probe time, correlation +0.5 to +0.65 over eight
#: runs).  At 0.8 the correlation was -0.2 to -0.5 and the spread of
#: every end-to-end metric smallest; per-op probe noise is why this
#: sits above the run-level figure.
ELASTICITY = 0.8

GRID = 40


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later, on one CPU.

    The probe then measures the core the ops run on.  Under the GIL a
    Python process computes on one core at a time anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _grid() -> dict[int, list[tuple[int, float]]]:
    rng = random.Random(5)
    adjacency: dict[int, list[tuple[int, float]]] = {
        node: [] for node in range(GRID * GRID)
    }
    for row in range(GRID):
        for col in range(GRID):
            node = row * GRID + col
            for other in (node + 1 if col + 1 < GRID else None,
                          node + GRID if row + 1 < GRID else None):
                if other is not None:
                    weight = rng.uniform(1.0, 2.0)
                    adjacency[node].append((other, weight))
                    adjacency[other].append((node, weight))
    return adjacency


class HostSpeed:
    """Times the probe; :attr:`last` is the latest probe time in seconds."""

    def __init__(self) -> None:
        self._adjacency = _grid()
        self.samples: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        adjacency = self._adjacency
        started = time.perf_counter()
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for other, weight in adjacency[node]:
                candidate = d + weight
                if candidate < dist.get(other, math.inf):
                    dist[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        self.last = time.perf_counter() - started
        self.samples.append(self.last)
        return self.last

    @staticmethod
    def scale(before_s: float, after_s: float) -> float:
        """Factor from a time measured between two probes to REFERENCE_S."""
        return (REFERENCE_S / math.sqrt(before_s * after_s)) ** ELASTICITY
