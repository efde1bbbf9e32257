"""Eulerian tours and the 2-in-2-out orientation they induce.

A connected graph with all even degrees has a closed tour using every edge
once (Hierholzer).  Directing each edge in its traversal direction turns a
4-regular graph into a digraph with in-degree = out-degree = 2 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .graphs import Graph, bfs_tree, degree_sequence


class NotEulerianError(ValueError):
    """Graph has an odd-degree vertex or is disconnected."""


class InvalidTourError(ValueError):
    """Walk is not a closed edge-covering trail of the graph."""


class OrientationError(ValueError):
    """Arc list does not orient the graph, or violates 2-in-2-out."""


@dataclass(frozen=True)
class OrientedGraph:
    """Digraph over the same vertex set as an undirected source graph;
    arcs[i] = (tail, head)."""

    vertex_count: int
    arcs: Tuple[Tuple[int, int], ...]

    def is_two_in_two_out(self) -> bool:
        indeg = [0] * self.vertex_count
        outdeg = [0] * self.vertex_count
        for t, h in self.arcs:
            outdeg[t] += 1
            indeg[h] += 1
        return all(i == 2 and o == 2 for i, o in zip(indeg, outdeg))


def eulerian_tour(g: Graph) -> List[int]:
    """Closed walk covering every edge exactly once, as edge indices.

    Hierholzer's algorithm with ties broken by lowest unused edge index, so
    the tour is deterministic for a given graph.
    """
    degs = degree_sequence(g)
    odd = [v for v, d in enumerate(degs) if d % 2]
    if odd:
        raise NotEulerianError(f"odd-degree vertices: {odd}")
    if g.edge_count == 0:
        return []
    active = [v for v, d in enumerate(degs) if d > 0]
    # a BFS from a vertex with edges reaches only vertices with edges
    if len(bfs_tree(g, active[0])) != len(active) - 1:
        raise NotEulerianError("graph is disconnected")

    used = [False] * g.edge_count
    # next unused incidence pointer per vertex; incidences are already in
    # edge-index order, which implements the tie-break
    ptr = [0] * g.vertex_count
    start = active[0]
    stack: List[Tuple[int, int]] = [(start, -1)]  # (vertex, edge taken to get here)
    tour_edges: List[int] = []
    while stack:
        v, _ = stack[-1]
        inc = g.incident(v)
        while ptr[v] < len(inc) and used[inc[ptr[v]][0]]:
            ptr[v] += 1
        if ptr[v] == len(inc):
            _, ein = stack.pop()
            if ein >= 0:
                tour_edges.append(ein)
        else:
            ei, w = inc[ptr[v]]
            used[ei] = True
            stack.append((w, ei))
    tour_edges.reverse()
    return tour_edges


def _walk_vertices(g: Graph, tour: Sequence[int]) -> List[int]:
    """Vertex sequence of the walk, length len(tour)+1; raises if the edge
    sequence is not a chained walk."""
    if not tour:
        return []
    if len(tour) == 1:
        raise InvalidTourError("a single edge cannot form a closed tour")
    a0, b0 = g.edges[tour[0]]
    a1, b1 = g.edges[tour[1]]
    shared = {a0, b0} & {a1, b1}
    if not shared:
        raise InvalidTourError("first two edges do not share a vertex")
    second = min(shared)  # simple graph: at most one shared vertex
    first = a0 if b0 == second else b0
    verts = [first, second]
    for ei in tour[1:]:
        u, v = g.edges[ei]
        if verts[-1] == u:
            verts.append(v)
        elif verts[-1] == v:
            verts.append(u)
        else:
            raise InvalidTourError(f"edge {ei} does not continue the walk")
    return verts


def orient_from_tour(g: Graph, tour: Sequence[int]) -> OrientedGraph:
    """Direct every edge in its traversal direction along the tour."""
    if sorted(tour) != list(range(g.edge_count)):
        raise InvalidTourError("tour must use every edge exactly once")
    verts = _walk_vertices(g, tour)
    if verts and verts[0] != verts[-1]:
        raise InvalidTourError("tour is not closed")
    directed: Dict[int, Tuple[int, int]] = {}
    for k, ei in enumerate(tour):
        directed[ei] = (verts[k], verts[k + 1])
    arcs = tuple(directed[i] for i in range(g.edge_count))
    return OrientedGraph(g.vertex_count, arcs)


def load_orientation(g: Graph, arcs: Sequence[Tuple[int, int]]) -> OrientedGraph:
    """Build an OrientedGraph from an explicit arc list.

    The arcs must be a direction assignment of g's edges (any order) with
    in-degree = out-degree = 2 at every vertex, which pins down the
    orientations used by the worked examples.
    """
    remaining = {(min(u, v), max(u, v)) for u, v in g.edges}
    for t, h in arcs:
        key = (min(t, h), max(t, h))
        if key not in remaining:
            raise OrientationError(f"arc ({t},{h}) is not an edge of the graph")
        remaining.remove(key)
    if remaining:
        raise OrientationError(f"{len(remaining)} edges left unoriented")
    og = OrientedGraph(g.vertex_count, tuple((t, h) for t, h in arcs))
    if not og.is_two_in_two_out():
        raise OrientationError("orientation is not 2-in-2-out")
    return og
