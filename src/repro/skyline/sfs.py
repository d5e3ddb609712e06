"""Sort-Filter-Skyline (Chomicki, Godfrey, Gryz, Liang; ICDE 2003).

SFS improves BNL by pre-sorting tuples with a monotone preference
function (here: the sum of the vector's components, any monotone score
works).  After sorting, a tuple can only be dominated by tuples *before*
it, so one pass comparing against the confirmed skyline suffices and
results stream progressively in score order.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.columnar import kernels
from repro.columnar.store import VectorTable
from repro.obs import tracing
from repro.skyline.dominance import Vector, dominates


def sfs_skyline_block(table: VectorTable) -> list[int]:
    """Block SFS: skyline row indices of a column block, in preference
    (component-sum) order — the order the scalar SFS confirms them in."""
    with tracing.span("columnar.skyline"):
        return kernels.block_skyline(table.data, len(table), table.width)


def sfs_skyline_progressive(
    vectors: Sequence[Vector],
    score: Callable[[Vector], float] | None = None,
) -> Iterator[int]:
    """SFS as a generator, yielding indices in preference order."""
    if score is None:
        score = _component_sum
    order = sorted(range(len(vectors)), key=lambda i: (score(vectors[i]), i))
    skyline: list[int] = []
    for i in order:
        candidate = vectors[i]
        if not any(dominates(vectors[j], candidate) for j in skyline):
            skyline.append(i)
            yield i


def _component_sum(vector: Vector) -> float:
    return sum(vector)
