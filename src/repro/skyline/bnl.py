"""Block-Nested-Loops skyline (Börzsönyi, Kossmann, Stocker; ICDE 2001).

The paper's related work opens with BNL: the simplest correct skyline
algorithm, streaming the dataset against a window of incomparable
tuples.  :class:`~repro.core.naive.NaiveSkyline`, the exhaustive
reference every algorithm is checked against, runs it over the full
distance vectors.

This in-memory variant uses an unbounded window (the window never
overflows, so no temp-file passes are needed).
"""

from __future__ import annotations

from typing import Sequence

from repro.skyline.dominance import Vector, dominates


def bnl_skyline(vectors: Sequence[Vector]) -> list[int]:
    """Indices of skyline members of ``vectors`` using one BNL pass."""
    window: list[int] = []
    for i, candidate in enumerate(vectors):
        dominated = False
        survivors: list[int] = []
        for j in window:
            if dominates(vectors[j], candidate):
                dominated = True
                survivors = window  # window unchanged
                break
            if not dominates(candidate, vectors[j]):
                survivors.append(j)
        if not dominated:
            survivors.append(i)
            window = survivors
        else:
            window = survivors
    return sorted(window)
