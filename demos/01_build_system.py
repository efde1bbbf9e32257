"""From a 4-regular graph to a disk layout.

Walks through the whole construction on a small random graph: find a closed
tour through every edge, orient the edges along it, split each vertex into a
disk of three blocks, and check the invariants that make the layout usable
for storage.

Run: python3 demos/01_build_system.py
"""

from graphdss.catalog import random_4_regular
from graphdss.cubic import PairingMode, build_cubic, check_star_layout
from graphdss.graphs import degree_sequence, girth, is_connected
from graphdss.orientation import eulerian_tour, orient_from_tour


def main():
    n = 8
    g = random_4_regular(n, seed=7)
    print(f"source graph: {n} vertices, {g.edge_count} edges, all degrees 4")
    print(f"girth {girth(g)}, connected: {is_connected(g)}")
    print()

    tour = eulerian_tour(g)
    print(f"closed tour through all {len(tour)} edges (edge indices):")
    print(" ", tour)
    og = orient_from_tour(g, tour)
    print("orienting each edge along the tour gives 2 arcs in and 2 arcs out")
    print(f"at every vertex: {og.is_two_in_two_out()}")
    print()

    sysm = build_cubic(og, PairingMode.PARALLEL)
    print("each vertex becomes one disk: a 3-edge path in the block graph,")
    print("holding the 3 blocks on its edges:")
    for d, path in enumerate(sysm.disks[:4]):
        edges = sysm.disk_edges(d)
        print(f"  disk {d} (vertex {sysm.disk_owner[d]}): "
              f"path {path}, blocks {edges}")
    print(f"  ... {len(sysm.disks)} disks total")
    print()

    cubic = sysm.cubic
    print(f"block graph: {cubic.vertex_count} parity nodes, "
          f"{cubic.edge_count} block-carrying edges,")
    print(f"all degrees 3: {all(d == 3 for d in degree_sequence(cubic))}")
    check_star_layout(sysm, g)  # raises InvalidSystemError if the layout is wrong
    print("star layout checked: disk d is the path of the 4 arcs at its owner,")
    print("the arcs are the source graph's edges, each once, and the block graph's")
    print("edges are the disks' path edges, so")
    print("every edge appears in exactly one disk: True")
    print(f"block-graph girth {girth(cubic)} bounds how many erased edges can hide")
    print("from the peeling repairer (any set smaller than the girth recovers).")


if __name__ == "__main__":
    main()
