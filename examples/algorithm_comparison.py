"""Compare CE, EDC and LBC on the paper's workload, side by side.

Reproduces in miniature what Section 6 measures: the same multi-source
skyline query answered by all three algorithms (plus the exhaustive
baseline), with candidate counts, network node expansions, simulated
disk pages and response times.  LBC should win on network access —
Theorem 1 says it cannot lose.

Run with::

    python examples/algorithm_comparison.py [network]  (CA, AU or NA)
"""

import sys

from repro import CE, EDC, LBC, NaiveSkyline, Workspace, build_preset, extract_objects
from repro.datasets import select_query_points


def main() -> None:
    preset = sys.argv[1].upper() if len(sys.argv) > 1 else "AU"
    network = build_preset(preset)
    print(
        f"network {preset}: {network.node_count} junctions, "
        f"{network.edge_count} edges"
    )

    objects = extract_objects(network, omega=0.50, seed=1)
    workspace = Workspace.build(network, objects, buffer_bytes=256 * 1024)
    queries = select_query_points(network, 4, region_fraction=0.10, seed=5)
    print(f"objects: {len(objects)}, query points: {len(queries)}\n")

    rows = []
    reference = None
    for algorithm in (NaiveSkyline(), CE(), EDC(), LBC()):
        workspace.reset_io(cold=True)
        result = algorithm.run(workspace, queries)
        if reference is None:
            reference = result
        else:
            assert result.same_answer(reference), (
                f"{algorithm.name} disagrees with the baseline"
            )
        rows.append(result.stats)

    print(
        f"{'algorithm':>10s} {'skyline':>8s} {'|C|':>6s} {'nodes':>8s} "
        f"{'net pages':>10s} {'total s':>9s} {'first s':>9s}"
    )
    for s in rows:
        print(
            f"{s.algorithm:>10s} {s.skyline_count:8d} {s.candidate_count:6d} "
            f"{s.nodes_settled:8d} {s.network_pages:10d} "
            f"{s.total_response_s:9.3f} {s.initial_response_s:9.3f}"
        )

    lbc = rows[-1]
    ce = rows[1]
    if ce.network_pages > 0 and lbc.network_pages > 0:
        print(
            f"\nLBC touches {ce.network_pages / lbc.network_pages:.1f}x fewer "
            "network pages than CE on this instance"
        )


if __name__ == "__main__":
    main()
