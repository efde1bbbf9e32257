"""Eulerian tours and the 2-in-2-out orientation they induce.

A connected graph with all even degrees has a closed tour using every edge
once (Hierholzer).  Directing each edge in its traversal direction turns a
4-regular graph into a digraph with in-degree = out-degree = 2 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, degree_sequence, int_tuples


class NotEulerianError(ValueError):
    """Graph has an odd-degree vertex or is disconnected."""


class InvalidTourError(ValueError):
    """Walk is not a closed edge-covering trail of the graph."""


class OrientationError(ValueError):
    """Arc list is not a direction assignment of the graph's edges."""


@dataclass(frozen=True)
class OrientedGraph:
    """Digraph over the same vertex set as an undirected source graph;
    arcs[i] = (tail, head)."""

    vertex_count: int
    arcs: Tuple[Tuple[int, int], ...]

    def is_two_in_two_out(self) -> bool:
        """2 in-arcs and 2 out-arcs at every vertex, and no arc outside 0..n-1."""
        n = self.vertex_count
        indeg = [0] * n
        outdeg = [0] * n
        for t, h in self.arcs:
            if not (0 <= t < n and 0 <= h < n):
                return False
            outdeg[t] += 1
            indeg[h] += 1
        return indeg == outdeg == [2] * n


def eulerian_tour(g: Graph) -> List[int]:
    """Closed walk covering every edge exactly once, as edge indices.

    Hierholzer's algorithm from the smallest vertex with an edge, ties
    broken by lowest unused edge index, so the tour is deterministic.  A
    vertex leaves the stack only once its edges are used, so the tour holds
    every edge of the start's component and is short iff another has an edge.
    """
    degs = degree_sequence(g)
    odd = [v for v, d in enumerate(degs) if d % 2]
    if odd:
        raise NotEulerianError(f"odd-degree vertices: {odd}")
    if g.edge_count == 0:
        return []
    used = [False] * g.edge_count
    # one iterator per vertex over its incidences, which are in edge-index
    # order: the tie-break.  An incidence it passes is used for good, so
    # the walk never looks at it again
    pending = [iter(g.incident(v)) for v in range(g.vertex_count)]
    start = next(v for v, d in enumerate(degs) if d)
    stack = [start]  # vertices of the walk not yet finished
    taken = [-1]  # taken[k]: the edge the walk took to reach stack[k]
    tour_edges: List[int] = []
    while stack:
        for ei, w in pending[stack[-1]]:
            if not used[ei]:
                used[ei] = True
                stack.append(w)
                taken.append(ei)
                break
        else:
            stack.pop()
            tour_edges.append(taken.pop())
    tour_edges.pop()  # the -1 of the start
    if len(tour_edges) != g.edge_count:
        raise NotEulerianError("graph is disconnected")
    tour_edges.reverse()
    return tour_edges


def orient_from_tour(g: Graph, tour: Sequence[int]) -> OrientedGraph:
    """Direct every edge in its traversal direction along the tour.

    One pass checks the walk and files each arc in its edge's slot: every
    entry must be an edge index not seen before whose edge is at the vertex
    the walk has reached, and the walk must end where it began.  It begins
    at the end of the first edge that the second edge does not touch.
    """
    m, edges = g.edge_count, g.edges
    if len(tour) != m or not all(0 <= ei < m for ei in tour[:2]):
        raise InvalidTourError("tour must use every edge exactly once")
    at = start = None
    if m:
        u, v = edges[tour[0]]
        at = start = v if u in edges[tour[1 % m]] else u
    arcs: List[Optional[Tuple[int, int]]] = [None] * m
    for ei in tour:
        if not 0 <= ei < m or arcs[ei] is not None:
            raise InvalidTourError(f"edge {ei} is out of range or used twice")
        u, v = edges[ei]
        if at == u:
            arcs[ei], at = (u, v), v
        elif at == v:
            arcs[ei], at = (v, u), u
        else:
            raise InvalidTourError(f"edge {ei} does not continue the walk")
    if at != start:
        raise InvalidTourError("tour is not closed")
    return OrientedGraph(g.vertex_count, tuple(arcs))


def load_orientation(g: Graph, arcs: Sequence[Tuple[int, int]]) -> OrientedGraph:
    """Build an OrientedGraph from an explicit arc list, which pins down
    the orientations used by the worked examples.

    Each arc must be a list or tuple of two ints (a bool is not an int
    here), and the arcs a direction assignment of g's edges, in any order;
    OrientationError names the first arc that is not.  Their degrees are
    not checked here: `build_cubic`, which every use of an orientation goes
    through, raises NotTwoInTwoOutError unless each vertex has 2 in-arcs
    and 2 out-arcs.
    """
    try:
        arcs = int_tuples(arcs, 2, "arc")
    except TypeError as exc:
        raise OrientationError(str(exc)) from None
    remaining = {(min(u, v), max(u, v)) for u, v in g.edges}
    for t, h in arcs:
        key = (min(t, h), max(t, h))
        if key not in remaining:
            raise OrientationError(f"arc ({t},{h}) is not an edge of the graph")
        remaining.remove(key)
    if remaining:
        raise OrientationError(f"{len(remaining)} edges left unoriented")
    return OrientedGraph(g.vertex_count, tuple(arcs))
