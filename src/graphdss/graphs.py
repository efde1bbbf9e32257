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
    """A subset of a graph's edges as a bitset over edge indices;
    GraphError for a negative size, then for a bit outside 0..size-1."""

    size: int
    bits: int

    def __post_init__(self):
        if self.size < 0:
            raise GraphError(f"negative edge subset size {self.size}")
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
        """Indices of the set bits, ascending; one step per set bit.

        The walk clears the top bit each step, so the int it works on
        shrinks to the next set bit, and reverses the list at the end."""
        out = []
        bits = self.bits
        while bits:
            i = bits.bit_length() - 1
            out.append(i)
            bits ^= 1 << i
        out.reverse()
        return out

    def __len__(self) -> int:
        return self.bits.bit_count()


def int_tuples(items, length: int, what: str) -> List[Tuple[int, ...]]:
    """The entries of a list as tuples; TypeError if `items` is not a list
    or tuple (an empty object or string would read as no entries), then
    naming the first entry, by index and value, that is not a list or tuple
    of exactly `length` ints.  A bool is not an int here."""
    if not isinstance(items, (list, tuple)):
        raise TypeError(f"{what} list is not a list: {items!r}")
    out = []
    for i, x in enumerate(items):
        if not (isinstance(x, (list, tuple)) and len(x) == length
                and all(type(v) is int for v in x)):
            raise TypeError(f"{what} {i} is not a list of {length} ints: {x!r}")
        out.append(tuple(x))
    return out


def read_json_file(path: str, role: str):
    """The parsed JSON document of the file at `path`, the one parse of a
    JSON file from outside the program.  The bytes are decoded as UTF-8
    (RFC 8259), so the locale decides nothing.  OSError from opening or
    reading the file passes through unchanged; a file that is not UTF-8
    JSON, or is nested too deeply for the parser, raises ValueError naming
    the file's `role` and its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        reason = "JSON nested too deeply to parse"
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        reason = str(exc)
    raise ValueError(f"{role} {path} is not valid JSON: {reason}")


def read_graph_file(path: str, role: str) -> Graph:
    """The graph of a JSON graph file from outside the program, the one
    reader of `--input` and cage-7 files.  After `read_json_file`, a file
    that declares an int count of vertices above the ends of its edge list
    has a vertex with no edge, so GraphError refuses it from the counts
    alone, before a Graph of the declared size is built; anything else is
    left to `Graph.from_obj`."""
    obj = read_json_file(path, role)
    n, edges = (obj.get("vertices"), obj.get("edges")) if isinstance(obj, dict) else (0, [])
    if type(n) is int and isinstance(edges, list) and n > 2 * len(edges):
        raise GraphError(f"{role} declares {n} vertices, but its {len(edges)} edges have "
                         f"{2 * len(edges)} ends, so some vertex has no edge")
    return Graph.from_obj(obj)


class Graph:
    """Undirected simple graph with a fixed vertex count and an ordered
    edge list.  Immutable after construction; all queries are pure."""

    def __init__(
        self,
        vertex_count: int,
        edges: Sequence[Tuple[int, int]],
        vertex_labels: Optional[Sequence[str]] = None,
    ):
        if vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        n = self.vertex_count = vertex_count
        # one pass checks each edge and files it at both endpoints;
        # incidence[v] = list of (edge index, other endpoint).  The u < v
        # and v < u branches order the ends for the range test and the key;
        # neither holds for a self-loop.  A duplicate's key leaves `seen`
        # no larger than the i edges before it.  An edge given as an exact
        # tuple is immutable and is kept as it came; any other pair is
        # stored as the tuple (u, v)
        seen = set()  # u * n + v with u < v, per edge
        edge_list = []
        inc: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for i, e in enumerate(edges):
            u, v = e
            if u < v:
                if u < 0 or v >= n:
                    raise GraphError(f"edge ({u},{v}) has endpoint out of range")
                seen.add(u * n + v)
            elif v < u:
                if v < 0 or u >= n:
                    raise GraphError(f"edge ({u},{v}) has endpoint out of range")
                seen.add(v * n + u)
            else:
                raise GraphError(f"self-loop at vertex {u}")
            if len(seen) == i:
                raise GraphError(f"duplicate edge ({u},{v})")
            edge_list.append(e if type(e) is tuple else (u, v))
            inc[u].append((i, v))
            inc[v].append((i, u))
        self.edges: Tuple[Tuple[int, int], ...] = tuple(edge_list)
        self.vertex_labels = tuple(vertex_labels) if vertex_labels is not None else None
        if self.vertex_labels is not None and len(self.vertex_labels) != vertex_count:
            raise GraphError("vertex_labels length mismatch")
        self._incidence = tuple(map(tuple, inc))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(edge index, neighbor) pairs at vertex v, in edge-index order."""
        return self._incidence[v]

    def edge_index(self, u: int, v: int) -> int:
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has endpoint out of range")
        for i, w in self._incidence[u]:
            if w == v:
                return i
        raise GraphError(f"no edge ({u},{v})")

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
        return json.dumps(obj, indent=2)

    @classmethod
    def from_obj(cls, obj) -> "Graph":
        """The graph of a parsed graph file; GraphError unless "vertices" is
        an int, every edge a list of exactly 2 ints and "vertex_labels",
        when present, a list of strings."""
        try:
            n = obj["vertices"]
            if type(n) is not int:
                raise TypeError(f"vertices is not an int: {n!r}")
            edges = int_tuples(obj["edges"], 2, "edge")
            labels = obj.get("vertex_labels")
            if "vertex_labels" in obj and not isinstance(labels, list):
                raise TypeError(f"vertex_labels is not a list: {labels!r}")
            for v, label in enumerate(labels or ()):
                if type(label) is not str:
                    raise TypeError(f"vertex label {v} is not a string: {label!r}")
            return cls(n, edges, labels)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph JSON: {exc!r}") from exc

    def to_dot(self) -> str:
        lines = ["graph {"]
        for v in range(self.vertex_count):
            label = self.vertex_labels[v] if self.vertex_labels else str(v)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
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
    - A root's BFS ends before the first level d with 2d+1 >= best, the
      shortest walk so far: scanning level d closes only walks of length
      2d+1 or 2d+2, since an edge from depth d back to depth d-1 was met
      when level d-1 was scanned, and BFS depths never fall.
    - A vertex at depth d+1 is not recorded once 2d+2 >= best, since every
      walk it closes has length >= 2d+2; the test is redone when best falls
      within a level.
    No simple graph has a cycle shorter than 3, so the roots stop there.
    Per-root BFS state lives in shared lists stamped with the root, and
    the incidence lists are read from the graph once, not per vertex.
    """
    n, incidence = g.vertex_count, g._incidence
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
        while level and 2 * d + 1 < best:
            grow = 2 * d + 2 < best
            below = []
            for u in level:
                pe = parent_edge[u]
                for ei, v in incidence[u]:
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


def bfs_tree(g: Graph, root: int) -> List[Tuple[int, int]]:
    """(tree edge, child) pairs of a BFS tree of root's component, in BFS
    order, each vertex's edges taken in edge-index order.  The component
    has one more vertex than the tree has pairs."""
    incidence = g._incidence
    seen = [False] * g.vertex_count
    seen[root] = True
    pairs = []
    q = deque([root])
    while q:
        for ei, v in incidence[q.popleft()]:
            if not seen[v]:
                seen[v] = True
                pairs.append((ei, v))
                q.append(v)
    return pairs


def is_connected(g: Graph) -> bool:
    """True iff one BFS tree spans all vertices; vacuously true when empty."""
    return g.vertex_count == 0 or len(bfs_tree(g, 0)) == g.vertex_count - 1


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
