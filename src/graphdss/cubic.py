"""Build the 3-regular block graph from a 2-in-2-out digraph, with its
canonical decomposition into P4 disks, plus a generic P4 decomposer.

Vertices of the cubic graph are the arcs of the digraph.  At each original
vertex v the two in-arcs are joined (the middle edge of v's disk) and each
in-arc is paired with one out-arc; the pairing is a free choice per vertex
and is exposed as a policy because different choices give different (all
valid) systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from .graphs import Graph, degree_sequence
from .orientation import OrientedGraph


class PairingMode(Enum):
    # Parallel: min-In with min-Out, max-In with max-Out.
    # Crossed:  min-In with max-Out, max-In with min-Out.
    PARALLEL = "parallel"
    CROSSED = "crossed"


@dataclass(frozen=True)
class PairingPolicy:
    """One PairingMode per vertex of the 4-regular graph."""

    modes: Tuple[PairingMode, ...]

    @classmethod
    def uniform(cls, mode: PairingMode, vertex_count: int) -> "PairingPolicy":
        return cls(tuple([mode] * vertex_count))

    @classmethod
    def from_overrides(
        cls, base: PairingMode, vertex_count: int, overrides: Dict[int, PairingMode]
    ) -> "PairingPolicy":
        modes = [base] * vertex_count
        for v, m in overrides.items():
            if not 0 <= v < vertex_count:
                raise ValueError(f"no vertex {v}; vertices are 0..{vertex_count - 1}")
            modes[v] = m
        return cls(tuple(modes))


class NotTwoInTwoOutError(ValueError):
    pass


class NotCubicError(ValueError):
    pass


class InvalidSystemError(ValueError):
    """A system file that does not parse or whose disks do not decompose
    its graph."""


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
    policy: Optional[PairingPolicy] = None

    @cached_property
    def _disk_edge_table(self) -> List[Optional[Tuple[int, int, int]]]:
        """Disk d's 3 edge indices once `disk_edges(d)` has looked them up.
        Only lookups that succeed are kept, so a system that
        `verify_disk_decomposition` rejects still constructs, and its bad
        disks raise on every call."""
        return [None] * len(self.disks)

    def disk_edges(self, d: int) -> List[int]:
        """The 3 cubic-graph edge indices of disk d, in path order."""
        p = self.disks[d]
        edges = self._disk_edge_table[d]
        if edges is None:
            edges = tuple(self.cubic.edge_index(p[i], p[i + 1]) for i in range(3))
            self._disk_edge_table[d] = edges
        return list(edges)

    def edge_owner(self) -> List[int]:
        """Map cubic edge index -> owning disk index."""
        owner = [-1] * self.cubic.edge_count
        for d in range(len(self.disks)):
            for ei in self.disk_edges(d):
                owner[ei] = d
        return owner

    def to_json(self) -> str:
        obj = json.loads(self.cubic.to_json())
        obj["disks"] = [list(d) for d in self.disks]
        obj["disk_owner"] = list(self.disk_owner)
        obj["arc_names"] = [list(a) for a in self.arc_names]
        if self.policy is not None:
            obj["policy"] = [m.value for m in self.policy.modes]
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CubicSystem":
        """Load a system file; InvalidSystemError unless it parses, its
        disks are an edge-disjoint P4 decomposition of its graph, and each
        disk is the path of its owner's arcs: end arcs leave the owner,
        middle arcs enter it, and the arcs form a simple graph."""
        try:
            obj = json.loads(text)
            g = Graph(obj["vertices"], [tuple(e) for e in obj["edges"]])
            disks = tuple(tuple(d) for d in obj["disks"])
            disk_owner = tuple(obj["disk_owner"])
            arc_names = tuple(tuple(a) for a in obj["arc_names"])
            policy = None
            if "policy" in obj:
                policy = PairingPolicy(tuple(PairingMode(m) for m in obj["policy"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidSystemError(f"malformed system file: {exc!r}") from exc
        for d, path in enumerate(disks):
            if any(not isinstance(v, int) or not 0 <= v < g.vertex_count for v in path):
                raise InvalidSystemError(
                    f"disk {d} names a vertex outside the graph: {list(path)}")
        if len(disk_owner) != len(disks):
            raise InvalidSystemError(f"{len(disk_owner)} disk owners for {len(disks)} disks")
        if len(arc_names) != g.vertex_count:
            raise InvalidSystemError(f"{len(arc_names)} arc names for {g.vertex_count} vertices")
        n = len(disks)
        if g.vertex_count != 2 * n:
            raise InvalidSystemError(f"{n} disks need {2 * n} graph vertices, not {g.vertex_count}")
        if any(not isinstance(v, int) for v in disk_owner) or sorted(disk_owner) != list(range(n)):
            raise InvalidSystemError(f"disk owners are not a permutation of 0..{n - 1}")
        try:
            Graph(n, arc_names)
        except (ValueError, TypeError) as exc:
            raise InvalidSystemError(f"arc names are not a simple graph: {exc}") from exc
        system = cls(g, disks, disk_owner, arc_names, policy)
        if not verify_disk_decomposition(system):
            raise InvalidSystemError(
                "disks are not edge-disjoint 3-edge paths covering every edge")
        for d, (path, v) in enumerate(zip(disks, disk_owner)):
            tails = [arc_names[a][0] for a in (path[0], path[3])]
            heads = [arc_names[a][1] for a in path[1:3]]
            if tails != [v, v] or heads != [v, v]:
                raise InvalidSystemError(
                    f"disk {d}: its end arcs must leave vertex {v} and its middle arcs enter it")
        return system


def build_cubic(gd: OrientedGraph, policy: Union[PairingPolicy, PairingMode]) -> CubicSystem:
    """Construct the cubic graph and its disks from a 2-in-2-out digraph.

    For each source vertex v with in-arcs a = min In(v), b = max In(v)
    (min/max over tail indices) and out-arcs c = min Out(v), d = max Out(v)
    (over head indices): the middle edge {a,b} always exists; Parallel adds
    {a,c} and {b,d} (disk path c-a-b-d), Crossed adds {a,d} and {b,c}.
    """
    if not gd.is_two_in_two_out():
        raise NotTwoInTwoOutError("digraph must have in-degree = out-degree = 2")
    n = gd.vertex_count
    if isinstance(policy, PairingMode):
        policy = PairingPolicy.uniform(policy, n)
    if len(policy.modes) != n:
        raise ValueError("policy must assign one mode per vertex")

    ins: List[List[int]] = [[] for _ in range(n)]
    outs: List[List[int]] = [[] for _ in range(n)]
    for i, (t, h) in enumerate(gd.arcs):
        outs[t].append(i)
        ins[h].append(i)

    arcs = gd.arcs
    edges: List[Tuple[int, int]] = []
    disks: List[Tuple[int, int, int, int]] = []
    for v, mode in enumerate(policy.modes):
        a, b = ins[v]
        if arcs[b][0] < arcs[a][0]:
            a, b = b, a
        c, d = outs[v]
        if arcs[d][1] < arcs[c][1]:
            c, d = d, c
        if mode is not PairingMode.PARALLEL:
            c, d = d, c
        # the path c-a-b-d runs from the lexicographically smaller end arc
        if arcs[d] < arcs[c]:
            c, a, b, d = d, b, a, c
        disks.append((c, a, b, d))
        edges += ((c, a), (a, b), (b, d))

    cubic = Graph(2 * n, edges)
    return CubicSystem(
        cubic=cubic,
        disks=tuple(disks),
        disk_owner=tuple(range(n)),
        arc_names=gd.arcs,
        policy=policy,
    )


def verify_disk_decomposition(sys: CubicSystem) -> bool:
    """True iff the disks are vertex-paths on 3 edges, pairwise edge-disjoint,
    and together cover every edge of the cubic graph."""
    g = sys.cubic
    seen = set()
    for path in sys.disks:
        if len(path) != 4 or len(set(path)) != 4:
            return False
        for i in range(3):
            u, v = path[i], path[i + 1]
            if not g.has_edge(u, v):
                return False
            ei = g.edge_index(u, v)
            if ei in seen:
                return False
            seen.add(ei)
    return len(seen) == g.edge_count


def _perfect_matching(g: Graph) -> Optional[List[int]]:
    """Perfect matching as a list of edge indices, by backtracking over the
    lowest-index unmatched vertex; None if no perfect matching exists."""
    matched = [False] * g.vertex_count

    def extend(chosen: List[int]) -> Optional[List[int]]:
        try:
            u = matched.index(False)
        except ValueError:
            return chosen
        for ei, v in g.incident(u):
            if not matched[v]:
                matched[u] = matched[v] = True
                chosen.append(ei)
                result = extend(chosen)
                if result is not None:
                    return result
                chosen.pop()
                matched[u] = matched[v] = False
        return None

    return extend([])


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
