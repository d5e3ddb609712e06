"""Hub labels extracted from a contraction hierarchy.

A node's label is its pruned upward search space: sorted
``(hub, distance)`` pairs such that for any pair of nodes the true
network distance is the minimum of ``d1 + d2`` over the hubs the two
labels share (the 2-hop cover property).  The CH guarantees the cover:
every shortest path has a peak node that lies in both endpoints' upward
cones.

Labels are built highest rank first, so when node ``v`` is processed
every hub in its search space (all ranked above ``v``) already carries
a *final* label.  An entry ``(h, d)`` is pruned when the label query
``v -> h`` over the entries kept so far answers with a distance no
larger than ``d`` — the entry can then never be the unique witness for
any pair, so dropping it keeps queries exact while shrinking labels
substantially (the pruned-labeling argument of the hub-label
literature).

Queries need no graph search at all: the target's label is scanned
once, probing a ``hub -> distance`` map of the source's label (the
runtime keeps one map per seed in a query point's label column), so a
lookup costs O(|label|) dict probes.  The engine still charges
``oracle_label_entries`` with what a sorted merge-intersection of the
two labels would visit, a figure fixed by the labels alone, so the
counter does not depend on how the lookup is carried out.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter

from repro.oracle.ch import ContractionHierarchy, upward_search_space

INFINITY = math.inf

Label = list[tuple[int, float]]
"""``(hub id, distance)`` entries sorted by hub id."""

_hub = itemgetter(0)


def hub_label_distance(
    a: Label, b: Label, a_hubs: dict[int, float]
) -> tuple[float, int]:
    """Distance between two labelled nodes: ``(distance, merge entries)``.

    Probes every entry of ``b`` against ``a_hubs``, which must equal
    ``dict(a)`` (callers keep it per source node), so the distance
    is ``min(d(a, hub) + d(hub, b))`` over the shared hubs, and ``inf``
    when the labels share no hub (nodes in different connected
    components).  The count is the number of steps a sorted merge of
    the two labels takes: it stops when the label with the smaller last
    hub runs out, having visited every entry of that label and each
    entry of the other up to that hub, shared hubs once.
    """
    if not a or not b:
        return INFINITY, 0
    best = INFINITY
    shared = 0
    get = a_hubs.get
    for hub, dist in b:
        via = get(hub)
        if via is not None:
            shared += 1
            total = via + dist
            if total < best:
                best = total
    last_a = a[-1][0]
    last_b = b[-1][0]
    if last_a < last_b:
        scanned = len(a) + bisect_right(b, last_a, key=_hub)
    elif last_a > last_b:
        scanned = len(b) + bisect_right(a, last_b, key=_hub)
    else:
        scanned = len(a) + len(b)
    return best, scanned - shared


def build_hub_labels(ch: ContractionHierarchy) -> dict[int, Label]:
    """Pruned labels for every node, keyed by node id."""
    labels: dict[int, Label] = {}
    # Hub -> distance maps of already-final labels, for the pruning
    # queries below (dict probes instead of merge scans during build).
    final: dict[int, dict[int, float]] = {}
    for v in reversed(ch.order):
        space = upward_search_space(ch.upward, v)
        kept: Label = []
        # Nearer hubs first (ties on id) so each pruning query runs
        # against the entries most likely to witness redundancy.
        for hub, dist in sorted(space.items(), key=lambda e: (e[1], e[0])):
            if hub == v:
                kept.append((hub, dist))
                continue
            hub_map = final[hub]
            best = INFINITY
            for prior_hub, prior_dist in kept:
                via = hub_map.get(prior_hub)
                if via is not None and prior_dist + via < best:
                    best = prior_dist + via
            if best <= dist:
                continue
            kept.append((hub, dist))
        kept.sort()
        labels[v] = kept
        final[v] = dict(kept)
    return labels
