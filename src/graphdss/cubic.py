"""Build the 3-regular block graph from a 2-in-2-out digraph, with its
canonical decomposition into P4 disks, plus a generic P4 decomposer.

Vertices of the cubic graph are the arcs of the digraph.  At each original
vertex v the two in-arcs are joined (the middle edge of v's disk) and each
in-arc is paired with one out-arc; the pairing is a free choice per vertex
and is exposed as a policy because different choices give different (all
valid) systems.  A policy is one PairingMode for every vertex, or a tuple
of one mode per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .graphs import EdgeSubset, Graph, GraphError, degree_sequence, int_tuples
from .orientation import OrientedGraph


class PairingMode(Enum):
    # Parallel: min-In with min-Out, max-In with max-Out.
    # Crossed:  min-In with max-Out, max-In with min-Out.
    PARALLEL = "parallel"
    CROSSED = "crossed"


class NotTwoInTwoOutError(ValueError):
    pass


class NotCubicError(ValueError):
    pass


class InvalidSystemError(ValueError):
    """A system file that is malformed, whose disks do not decompose its
    graph, or whose disks are not the ones its policy pairs."""


class DecompositionFailure(Exception):
    """The cubic graph has no perfect matching, hence no P4 decomposition."""


@dataclass(frozen=True)
class CubicSystem:
    """A 3-regular graph together with its disk decomposition.

    cubic: the 3-regular graph; vertex i of it is arc i of the source digraph.
    disks[d]: ordered 4 vertices of the d-th P4 path.
    disk_owner[d]: the source-graph vertex whose arcs make up disk d.
    arc_names[i]: (tail, head) of arc i, for display and golden comparisons.
    """

    cubic: Graph
    disks: Tuple[Tuple[int, int, int, int], ...]
    disk_owner: Tuple[int, ...]
    arc_names: Tuple[Tuple[int, int], ...]
    policy: Optional[Tuple[PairingMode, ...]] = None

    @cached_property
    def _disk_edge_table(self) -> List[Optional[Tuple[int, int, int]]]:
        """Disk d's 3 edge indices, in path order, or None until known.

        `build_cubic` fills every entry as it builds the system: it appends
        disk v's path pairs as edges 3v, 3v+1 and 3v+2, so the triples are
        known without a lookup.  A system from `from_obj` or the bare
        constructor starts empty, and `disk_edges(d)` looks disk d up on
        its first call.  Only lookups that succeed are kept, so a system
        whose disks are not paths of its graph still constructs, and its
        bad disks raise on every call."""
        return [None] * len(self.disks)

    @cached_property
    def _empty_edges(self) -> EdgeSubset:
        """The empty subset of the block graph's edges: one object, shared
        as the residual of every `repair_disk` report of this system."""
        return EdgeSubset(self.cubic.edge_count, 0)

    @cached_property
    def source_graph(self) -> Graph:
        """The source graph as the arc names give it: edge i is arc i."""
        return Graph(len(self.disks), self.arc_names)

    def disk_edges(self, d: int) -> List[int]:
        """The 3 cubic-graph edge indices of disk d, in path order;
        IndexError naming d unless 0 <= d < the disk count."""
        if not 0 <= d < len(self.disks):
            raise IndexError(f"no disk {d}; disks are 0..{len(self.disks) - 1}")
        p = self.disks[d]
        edges = self._disk_edge_table[d]
        if edges is None:
            index = self.cubic.edge_index
            edges = self._disk_edge_table[d] = (index(p[0], p[1]), index(p[1], p[2]),
                                                index(p[2], p[3]))
        return list(edges)

    def edge_owner(self) -> List[int]:
        """Map cubic edge index -> owning disk index."""
        owner = [-1] * self.cubic.edge_count
        for d in range(len(self.disks)):
            for ei in self.disk_edges(d):
                owner[ei] = d
        return owner

    def to_json(self) -> str:
        """The system file: the block graph's vertex count and edges, then
        the disks, owners, arc names and the policy, if any.  No vertex
        labels: `from_obj` reads none, and no block graph it or
        `build_cubic` makes has any."""
        obj = {"vertices": self.cubic.vertex_count, "edges": self.cubic.edges,
               "disks": self.disks, "disk_owner": self.disk_owner, "arc_names": self.arc_names}
        if self.policy is not None:
            obj["policy"] = [m.value for m in self.policy]
        return json.dumps(obj, indent=2)

    @classmethod
    def from_obj(cls, obj) -> "CubicSystem":
        """The system of a parsed system file (`graphs.read_json_file` reads
        the file); InvalidSystemError unless its keys hold entries of the
        right shape, its arc names form a simple graph, `check_star_layout`
        proves it a star layout of that graph, and, if it names a policy,
        each disk is, in either direction, the disk that `_pair_arcs`,
        `build_cubic`'s own pairing, gives its owner under that policy.  The
        star check has shown every vertex 2 in-arcs and 2 out-arcs, so the
        pairing applies.  The pairing builds no graph: the load builds only
        the block graph and the source graph."""
        try:
            vertex_count = obj["vertices"]
            edges = int_tuples(obj["edges"], 2, "edge")
            disks = tuple(int_tuples(obj["disks"], 4, "disk"))
            disk_owner = tuple(obj["disk_owner"])
            for d, v in enumerate(disk_owner):
                if type(v) is not int:
                    raise TypeError(f"disk owner {d} is not an int: {v!r}")
            arc_names = tuple(int_tuples(obj["arc_names"], 2, "arc name"))
            policy = None
            if "policy" in obj:
                # PairingMode raises the ValueError for a value that is no mode
                policy = tuple(PairingMode(m) for m in obj["policy"])
            # the count is checked before the graph is built, whose size it
            # declares: no graph (None) for a count that is not 2n
            n = len(disks)
            g = Graph(vertex_count, edges) if vertex_count == 2 * n else None
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidSystemError(f"malformed system file: {exc!r}") from exc
        if g is None:
            raise InvalidSystemError(f"{n} disks need {2 * n} graph vertices, not {vertex_count}")
        system = cls(g, disks, disk_owner, arc_names, policy)
        try:
            system.source_graph  # built once here, and kept for the caller
        except (ValueError, TypeError) as exc:
            raise InvalidSystemError(f"arc names are not a simple graph: {exc}") from exc
        check_star_layout(system, system.source_graph)
        if policy is not None:
            if len(policy) != n:
                raise InvalidSystemError(f"policy has {len(policy)} modes for {n} disks")
            paired = _pair_arcs(arc_names, policy)
            for d, (path, v) in enumerate(zip(disks, disk_owner)):
                if path != paired[v] and path[::-1] != paired[v]:
                    raise InvalidSystemError(
                        f"disk {d} is not the {policy[v].value} pairing of vertex {v}'s arcs")
        return system


def _pair_arcs(arcs: Tuple[Tuple[int, int], ...],
               policy: Tuple[PairingMode, ...]) -> List[Tuple[int, int, int, int]]:
    """Disk v of each vertex v, in vertex order, the path of its 4 arcs under
    policy[v]; `arcs` is a list of (tail, head) in which every vertex below
    len(policy) has 2 in-arcs and 2 out-arcs.

    With in-arcs a = min In(v), b = max In(v) (min/max over tail indices)
    and out-arcs c = min Out(v), d = max Out(v) (over head indices): the
    middle pair {a,b} always exists; Parallel adds {a,c} and {b,d} (disk
    path c-a-b-d), Crossed adds {a,d} and {b,c}.  The path runs from its
    end arc with the smaller (tail, head).  The one pairing rule:
    `build_cubic` builds from it and `CubicSystem.from_obj` checks a
    file's policy with it.
    """
    ins: List[List[int]] = [[] for _ in policy]
    outs: List[List[int]] = [[] for _ in policy]
    for i, (t, h) in enumerate(arcs):
        outs[t].append(i)
        ins[h].append(i)
    parallel = PairingMode.PARALLEL  # a member lookup costs about 0.1 us on CPython 3.11
    disks = []
    for (a, b), (c, d), mode in zip(ins, outs, policy):
        if arcs[b][0] < arcs[a][0]:
            a, b = b, a
        if arcs[d][1] < arcs[c][1]:
            c, d = d, c
        if mode is not parallel:
            c, d = d, c
        disks.append((d, b, a, c) if arcs[d] < arcs[c] else (c, a, b, d))
    return disks


def build_cubic(
        gd: OrientedGraph, policy: Union[PairingMode, Tuple[PairingMode, ...]]) -> CubicSystem:
    """Construct the cubic graph and its disks from a 2-in-2-out digraph:
    vertex i of the cubic graph is arc i, disk v pairs vertex v's arcs
    under its mode (see `_pair_arcs`), and the block graph's edges are the
    disks' path pairs, disk by disk.
    """
    if not gd.is_two_in_two_out():
        raise NotTwoInTwoOutError("digraph must have in-degree = out-degree = 2")
    n = gd.vertex_count
    policy = (policy,) * n if isinstance(policy, PairingMode) else tuple(policy)
    if len(policy) != n:
        raise ValueError("policy must assign one mode per vertex")
    disks = _pair_arcs(gd.arcs, policy)
    pairs = []
    for c, a, b, d in disks:
        pairs += (c, a), (a, b), (b, d)
    system = CubicSystem(
        cubic=Graph(2 * n, pairs),
        disks=tuple(disks),
        disk_owner=tuple(range(n)),
        arc_names=gd.arcs,
        policy=policy,
    )
    # disk v's path pairs are edges 3v, 3v+1 and 3v+2, in path order
    vars(system)["_disk_edge_table"] = [(e, e + 1, e + 2) for e in range(0, 3 * n, 3)]
    return system


def check_star_layout(sys: CubicSystem, g4: Graph) -> None:
    """Raise InvalidSystemError unless `sys` is a star layout of `g4`: disk
    d is the path of the 4 arcs at its owner, in the block graph.

    After the counts (the block graph's 3n edges among them), one pass asks
    of each disk in turn that its end arcs leave its owner and its middle
    arcs enter it, that no earlier disk has the same owner, that the other
    ends of its 4 arcs be the 4 neighbours of its owner in `g4`, and that
    `disk_edges` find its 3 path pairs in the block graph.  An arc then
    fills only end slots of its tail's disk and middle slots of its head's,
    and the 2 arcs of a slot pair differ, so the 2n arcs fill each of the
    2n end and 2n middle slots once, and the arc names are g4's edges, each
    one once.  So a disk's 4 vertices differ and no 2 arcs lie on the same
    2 disks: the 3n path pairs are distinct, hence the block graph's 3n
    edges, each on one disk.  The pass looks up only the disks whose triple
    the system's disk-edge table does not hold yet.  A triple that
    `build_cubic` filed is sound without a lookup: it appended exactly
    those pairs as those edges, and `Graph` kept them in order; a triple
    that `disk_edges` filed is one it found.  The message names the first
    disk that fails.  O(n); the state is one bytearray and the system's
    disk-edge table.
    """
    n, names, m = len(sys.disks), sys.arc_names, len(sys.arc_names)
    if len(sys.disk_owner) != n:
        raise InvalidSystemError(f"{len(sys.disk_owner)} disk owners for {n} disks")
    if (g4.vertex_count, m) != (n, 2 * n):
        raise InvalidSystemError(
            f"{n} disks and {m} arcs cannot lay out a graph on {g4.vertex_count} vertices")
    if sys.cubic.edge_count != 3 * n:
        raise InvalidSystemError(
            f"{n} disks of 3 edges cannot cover a block graph of {sys.cubic.edge_count} edges")
    owned, filed = bytearray(n), sys._disk_edge_table
    for d, (path, v) in enumerate(zip(sys.disks, sys.disk_owner)):
        if len(path) != 4:
            raise InvalidSystemError(f"disk {d} has {len(path)} vertices, not 4: {list(path)}")
        c, a, b, e = path
        if not (0 <= c < m and 0 <= a < m and 0 <= b < m and 0 <= e < m):
            raise InvalidSystemError(f"disk {d} names a vertex outside the graph: {list(path)}")
        if names[c][0] != v or names[e][0] != v or names[a][1] != v or names[b][1] != v:
            raise InvalidSystemError(
                f"disk {d}: its end arcs must leave vertex {v} and its middle arcs enter it")
        if not 0 <= v < n or owned[v]:
            raise InvalidSystemError(
                f"disk {d}: vertex {v} is not a source vertex or owns another disk")
        owned[v] = 1
        around = g4.incident(v)
        if len(around) != 4 or {around[0][1], around[1][1], around[2][1], around[3][1]} != {
                names[c][1], names[e][1], names[a][0], names[b][0]}:
            raise InvalidSystemError(
                f"disk {d}: its arcs are not the 4 edges at vertex {v} of the source graph")
        if filed[d] is None:
            try:
                sys.disk_edges(d)
            except GraphError as exc:
                raise InvalidSystemError(
                    f"disk {d} is not a path of the block graph: {exc}") from exc


def verify_disk_decomposition(sys: CubicSystem) -> bool:
    """True iff the disks are vertex-paths on 3 edges, pairwise edge-disjoint,
    and together cover every edge of the cubic graph: the 3 edges that
    `disk_edges` gives for each disk are 3 per disk and all of them."""
    seen = set()
    for d, path in enumerate(sys.disks):
        if len(path) != 4 or len(set(path)) != 4:
            return False
        try:
            seen.update(sys.disk_edges(d))
        except GraphError:
            return False
    return len(seen) == 3 * len(sys.disks) == sys.cubic.edge_count


def _perfect_matching(g: Graph) -> Optional[List[int]]:
    """Perfect matching as a list of edge indices, by backtracking over the
    lowest-index unmatched vertex, its incidences in edge-index order; None
    if no perfect matching exists.  The search keeps its own stack, one
    entry per matched edge, so no recursion limit bounds the graph's size,
    and `low` moves back only when the search backtracks."""
    n, incident = g.vertex_count, g.incident
    matched = [False] * n
    # (u, v, ei, rest): u matched to v along edge ei, and u's incidences
    # that the search has not tried yet
    stack: List[Tuple[int, int, int, Iterator[Tuple[int, int]]]] = []
    low = 0  # every vertex below it is matched
    rest = None  # None: the next vertex to match is the lowest unmatched one
    while True:
        if rest is None:
            while low < n and matched[low]:
                low += 1
            if low == n:
                return [ei for _, _, ei, _ in stack]
            u, rest = low, iter(incident(low))
        for ei, v in rest:
            if not matched[v]:
                matched[u] = matched[v] = True
                stack.append((u, v, ei, rest))
                rest = None
                break
        else:
            if not stack:
                return None
            u, v, _, rest = stack.pop()
            matched[u] = matched[v] = False
            low = u


def decompose_p4(g: Graph) -> List[Tuple[int, int, int, int]]:
    """Decompose a 3-regular graph into edge-disjoint paths on 3 edges.

    Kotzig (1957): a cubic graph has a decomposition into paths on 3 edges
    iff it has a perfect matching.  So find a perfect matching; the
    complement is a 2-factor; orient each of its cycles and, for each
    matching edge {u,v}, take the path succ(u)-u-v-succ(v).  The matching
    search is exhaustive, so when it finds none, no decomposition exists
    either and DecompositionFailure is raised.
    """
    if any(d != 3 for d in degree_sequence(g)):
        raise NotCubicError("graph is not 3-regular")

    matching = _perfect_matching(g)
    if matching is None:
        raise DecompositionFailure("no perfect matching, so no P4 decomposition (Kotzig)")
    in_matching = set(matching)
    cycle_adj = [
        [w for ei, w in g.incident(u) if ei not in in_matching]
        for u in range(g.vertex_count)
    ]
    # orient every cycle of the 2-factor; cycles have length >= 3
    succ: Dict[int, int] = {}
    visited = [False] * g.vertex_count
    for start in range(g.vertex_count):
        if visited[start]:
            continue
        prev, u = -1, start
        while True:
            visited[u] = True
            w = cycle_adj[u][0] if cycle_adj[u][0] != prev else cycle_adj[u][1]
            succ[u] = w
            prev, u = u, w
            if u == start:
                break
    paths = []
    for ei in matching:
        u, v = g.edges[ei]
        paths.append((succ[u], u, v, succ[v]))
    # canonical direction: smaller end vertex first
    return [tuple(reversed(p)) if p[-1] < p[0] else tuple(p) for p in paths]
