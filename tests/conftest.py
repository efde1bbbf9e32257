
import pytest

from graphdss.catalog import cage
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import Graph
from graphdss.orientation import eulerian_tour, orient_from_tour


def system_from_cage(g_girth: int):
    g = cage(g_girth).graph
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL), g


@pytest.fixture(scope="session")
def cage_systems():
    """(system, source graph) for the four built-in cages, keyed by girth."""
    return {gg: system_from_cage(gg) for gg in (3, 4, 5, 6)}


def all_simple_cycles(g: Graph):
    """Every simple cycle as a frozenset of edge indices, by DFS from each
    start vertex; only for small graphs.  Independent oracle for girth and
    cycle-containment checks."""
    cycles = set()
    for start in range(g.vertex_count):
        stack = [(start, [start], [])]
        while stack:
            u, path, edges = stack.pop()
            for ei, v in g.incident(u):
                if edges and ei == edges[-1]:
                    continue
                if v == start and len(edges) >= 2:
                    cycles.add(frozenset(edges + [ei]))
                elif v not in path and v > start:
                    stack.append((v, path + [v], edges + [ei]))
                elif v == start:
                    continue
    return cycles


def has_cycle(g: Graph, edges) -> bool:
    """True iff the distinct edges contain a cycle, by union-find with a
    fresh forest: some edge joins two vertices that the edges before it
    already connect.  Per-subset oracle for the recovery-bound walk."""
    parent = {}  # non-root vertex -> its parent; roots are absent

    def find(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    for ei in edges:
        u, v = g.edges[ei]
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False
