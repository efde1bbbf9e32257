"""Immutable undirected simple graphs with positional edge identity.

Edge index i always refers to the i-th entry of the edge list, so bitset
edge subsets, codeword coordinates, and disk membership share one
coordinate system.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class GraphError(ValueError):
    """Invalid graph construction or query input."""


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of a graph's edges as a bitset over edge indices."""

    size: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.size:
            raise GraphError("bitset has bits outside the edge range")

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "EdgeSubset":
        bits = 0
        for i in indices:
            if not 0 <= i < size:
                raise GraphError(f"edge index {i} out of range for {size} edges")
            bits |= 1 << i
        return cls(size, bits)

    def indices(self) -> List[int]:
        """Indices of the set bits, ascending; one step per set bit."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")


class Graph:
    """Undirected simple graph with a fixed vertex count and an ordered
    edge list.  Immutable after construction; all queries are pure."""

    def __init__(
        self,
        vertex_count: int,
        edges: Sequence[Tuple[int, int]],
        vertex_labels: Optional[Sequence[str]] = None,
        edge_labels: Optional[Sequence[str]] = None,
    ):
        if vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        n = self.vertex_count = vertex_count
        # one pass checks each edge and files it at both endpoints;
        # incidence[v] = list of (edge index, other endpoint)
        seen = set()  # u * n + v with u < v, per edge
        edge_list = []
        inc: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has endpoint out of range")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
            i = len(edge_list)
            edge_list.append((u, v))
            inc[u].append((i, v))
            inc[v].append((i, u))
        self.edges: Tuple[Tuple[int, int], ...] = tuple(edge_list)
        self.vertex_labels = tuple(vertex_labels) if vertex_labels is not None else None
        self.edge_labels = tuple(edge_labels) if edge_labels is not None else None
        if self.vertex_labels is not None and len(self.vertex_labels) != vertex_count:
            raise GraphError("vertex_labels length mismatch")
        if self.edge_labels is not None and len(self.edge_labels) != len(self.edges):
            raise GraphError("edge_labels length mismatch")
        self._incidence = tuple(tuple(x) for x in inc)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(edge index, neighbor) pairs at vertex v, in edge-index order."""
        return self._incidence[v]

    def edge_index(self, u: int, v: int) -> int:
        for i, w in self._incidence[u]:
            if w == v:
                return i
        raise GraphError(f"no edge ({u},{v})")

    def has_edge(self, u: int, v: int) -> bool:
        return any(w == v for _, w in self._incidence[u])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"

    # --- serialization ---

    def to_json(self) -> str:
        obj = {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}
        if self.vertex_labels is not None:
            obj["vertex_labels"] = list(self.vertex_labels)
        if self.edge_labels is not None:
            obj["edge_labels"] = list(self.edge_labels)
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        obj = json.loads(text)
        try:
            return cls(
                obj["vertices"],
                [tuple(e) for e in obj["edges"]],
                obj.get("vertex_labels"),
                obj.get("edge_labels"),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph JSON: {exc!r}") from exc

    def to_dot(self) -> str:
        lines = ["graph {"]
        for v in range(self.vertex_count):
            label = self.vertex_labels[v] if self.vertex_labels else str(v)
            lines.append(f'  {v} [label="{label}"];')
        for i, (u, v) in enumerate(self.edges):
            lines.append(f'  {u} -- {v} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def degree_sequence(g: Graph) -> List[int]:
    """Number of incident edges per vertex, indexed by vertex."""
    return [len(g.incident(v)) for v in range(g.vertex_count)]


def shortest_cycle(g: Graph) -> Optional[List[int]]:
    """Edge indices of one shortest cycle; None for forests.

    BFS from every root: a non-tree edge met at depths d(u), d(v) closes
    a walk through the root of length d(u)+d(v)+1, and minimizing over all
    roots is exact.  The walk kept at the final minimum is a simple cycle:
    had its two root paths shared an edge, it would contain a shorter one.
    The walk kept is the first one of length girth found from the smallest
    root r* that lies on a shortest cycle, since a root on none closes
    only longer walks and later roots must be strictly shorter to count.

    Three prunings leave that walk unchanged:
    - A root's BFS enters only vertices greater than the root.  All
      vertices of a shortest cycle through r* are >= r*, by the choice of
      r*.  A vertex at depth below girth/2 has a unique shortest path from
      the root (two would close a shorter cycle), so the vertices of those
      cycles keep their depths, tree paths and BFS order in G[>= r*]; a
      vertex at depth girth/2 keeps its tree parent, the first of its
      shallower neighbours in BFS order, which lies on such a cycle.  No
      walk through a vertex < r* is kept, and roots before r* still find
      only walks longer than the girth.
    - A root's BFS ends at the first vertex of depth d with 2d >= best, the
      shortest walk so far: BFS depths never fall, so no later vertex
      closes a shorter walk.
    - A vertex at depth d+1 is not recorded once 2d+2 >= best, since every
      walk it closes has length >= 2d+2; the test is redone when best falls
      within a level.
    No simple graph has a cycle shorter than 3, so the roots stop there.
    Per-root BFS state lives in shared lists stamped with the root.
    """
    n = g.vertex_count
    stamp = [-1] * n  # the root whose BFS last recorded the vertex
    dist = [0] * n
    parent_edge = [-1] * n
    best = math.inf
    cycle = None

    def tree_cycle(closing: int, u: int, v: int) -> List[int]:
        out = [closing]
        for x in (u, v):
            while parent_edge[x] >= 0:
                ei = parent_edge[x]
                out.append(ei)
                a, b = g.edges[ei]
                x = a if b == x else b
        return out

    for root in range(n):
        if best == 3:
            break
        stamp[root] = root
        parent_edge[root] = -1
        level = [root]
        d = 0
        while level and 2 * d < best:
            grow = 2 * d + 2 < best
            below = []
            for u in level:
                if 2 * d >= best:
                    break
                pe = parent_edge[u]
                for ei, v in g.incident(u):
                    if v <= root or ei == pe:
                        continue
                    if stamp[v] == root:
                        if d + dist[v] + 1 < best:
                            best = d + dist[v] + 1
                            cycle = tree_cycle(ei, u, v)
                            grow = 2 * d + 2 < best
                    elif grow:
                        stamp[v] = root
                        dist[v] = d + 1
                        parent_edge[v] = ei
                        below.append(v)
            level = below
            d += 1
    return cycle


def girth(g: Graph) -> float:
    """Length of the shortest cycle; math.inf for forests."""
    cycle = shortest_cycle(g)
    return math.inf if cycle is None else len(cycle)


def is_connected(g: Graph) -> bool:
    """True iff one BFS covers all vertices; vacuously true when empty."""
    if g.vertex_count == 0:
        return True
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for _, v in g.incident(u):
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == g.vertex_count


def two_core(g: Graph, erased: EdgeSubset) -> EdgeSubset:
    """Maximal subset of `erased` in which every touched vertex has
    erased-degree >= 2; equivalently the union of cycles of erased edges.

    Computed by iterated leaf stripping over the erased edges and their
    endpoints only.  Empty iff the erased subgraph is a forest, so this is
    the ground truth for what peeling cannot repair.
    """
    if erased.size != g.edge_count:
        raise GraphError("erased subset sized for a different graph")
    alive = set(erased.indices())
    deg: Dict[int, int] = {}  # touched vertex -> its erased degree
    for i in alive:
        for x in g.edges[i]:
            deg[x] = deg.get(x, 0) + 1
    stack = [v for v, k in deg.items() if k == 1]
    while stack:
        u = stack.pop()
        if deg[u] != 1:
            continue
        for ei, v in g.incident(u):
            if ei in alive:
                alive.discard(ei)
                deg[u] -= 1
                deg[v] -= 1
                if deg[v] == 1:
                    stack.append(v)
                break
    return EdgeSubset.from_indices(erased.size, alive)
