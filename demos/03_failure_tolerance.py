"""How many disk failures each catalog system survives.

Builds the systems derived from the four bundled girth-extremal 4-regular
graphs, prints their profile table, and verifies the guarantee: every set
of girth-1 disks is recoverable, and some set of girth disks is not.
`verify_recovery_bound` decides this without a search: the star-layout
check proves each disk the path of the arcs at its owner, so a disk set
loses data iff its owners span a cycle of the source graph, and the disks
of a girth cycle are the witness.

Run: python3 demos/03_failure_tolerance.py
"""

from graphdss.analysis import profile, verify_recovery_bound
from graphdss.catalog import cage
from graphdss.cubic import PairingMode, build_cubic
from graphdss.orientation import eulerian_tour, orient_from_tour


def main():
    header = ("disks", "blocks", "disks rec.", "blocks rec.", "n", "k", "d_src", "d_blk")
    row = "{:>12}" * len(header)  # wider than the longest label
    print(row.format(*header))
    systems = []
    for g_target in (3, 4, 5, 6):
        graph = cage(g_target).graph
        sysm = build_cubic(
            orient_from_tour(graph, eulerian_tour(graph)), PairingMode.PARALLEL
        )
        p = profile(sysm, graph)
        print(row.format(
            p.disk_count, p.block_count, p.max_guaranteed_disk_erasures,
            p.blocks_recoverable, p.code_length, p.code_dimension,
            p.girth_source, p.girth_cubic,
        ))
        systems.append((g_target, sysm, graph))
    print()

    for g_target, sysm, graph in systems:
        ok, witness = verify_recovery_bound(sysm, graph)
        print(f"girth-{g_target} system: every set of {g_target - 1} failed disks "
              f"recovers: {ok}; an unrecoverable set of {len(witness)} disks "
              f"exists: {sorted(witness)}")


if __name__ == "__main__":
    main()
