"""Hilbert space-filling curve cell index.

Build-time consumers order by it so that spatially close items land
together: the network and oracle stores cluster their pages along the
curve, and the dataset generators number edges in curve order.
"""

from __future__ import annotations


def hilbert_index(x: int, y: int, order: int) -> int:
    """Index of cell ``(x, y)`` on a Hilbert curve of ``2^order`` cells/side.

    The classic bit-twiddling d2xy inverse; used only at build time to
    pick a locality-preserving ordering, so clarity beats speed.
    """
    rx = ry = 0
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d

