"""Property verification of a constructed storage system.

Covers the correspondence between disk cycles of the block graph and
cycles of the source 4-regular graph, the girth-minus-one disk-erasure
guarantee with an explicit unrecoverable witness, and rate / parameter
profiling against the cage catalog table.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .code import derive_code, minimum_distance
from .cubic import CubicSystem
from .graphs import EdgeSubset, Graph, girth, shortest_cycle
from .repair import peel


class NotACycleError(ValueError):
    pass


@dataclass(frozen=True)
class SystemProfile:
    """Summary row for one system built from a 4-regular graph."""

    disk_count: int
    block_count: int
    girth_source: int
    girth_cubic: int
    max_guaranteed_disk_erasures: int
    blocks_recoverable: int
    code_length: int
    code_dimension: int
    code_distance_source_girth: int  # the disk-recovery-driving girth of G
    code_distance_cubic_girth: int  # true cycle-space distance of the block graph
    rate: float

    def csv_row(self) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow(
            [
                self.disk_count,
                self.block_count,
                self.max_guaranteed_disk_erasures,
                self.blocks_recoverable,
                self.code_length,
                self.code_dimension,
                self.code_distance_source_girth,
                self.code_distance_cubic_girth,
                f"{self.rate:.6f}",
            ]
        )
        return buf.getvalue().strip()

    def text_report(self) -> str:
        return "\n".join(
            [
                f"disks:                  {self.disk_count}",
                f"blocks:                 {self.block_count}",
                f"disks recoverable:      {self.max_guaranteed_disk_erasures}",
                f"blocks recoverable:     {self.blocks_recoverable}",
                f"code:                   [{self.code_length}, {self.code_dimension}]",
                f"girth of source graph:  {self.girth_source}",
                f"girth of block graph:   {self.girth_cubic}",
                f"rate:                   {self.rate:.6f}",
            ]
        )


def rate_function(n: int) -> float:
    """Cycle-space rate of any connected cubic graph on n vertices."""
    return 1 - (n - 1) / (3 * n / 2)


def _cycle_vertices(g: Graph, edge_indices: Sequence[int]) -> List[int]:
    """Vertex sequence of the cycle formed by the given edges; raises
    NotACycleError if they do not form one simple cycle."""
    if len(edge_indices) < 3:
        raise NotACycleError("a cycle needs at least 3 edges")
    adj = {}
    for ei in edge_indices:
        u, v = g.edges[ei]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise NotACycleError("edges do not form a single simple cycle")
    start = next(iter(adj))
    order = [start]
    prev = None
    while True:
        cur = order[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        order.append(nxt)
        prev = cur
    if len(order) != len(edge_indices):
        raise NotACycleError("edges form more than one cycle")
    return order


def disk_cycle_of(sys: CubicSystem, cycle_edges: Sequence[int]) -> Set[int]:
    """Set of disks owning the edges of a cycle; its size is the cycle's
    disk count t."""
    _cycle_vertices(sys.cubic, cycle_edges)
    owner = sys.edge_owner()
    return {owner[ei] for ei in cycle_edges}


def disk_cycle_from_source_cycle(
    sys: CubicSystem, source_cycle: Sequence[int]
) -> List[int]:
    """Map a cycle of the source 4-regular graph (as a vertex sequence) to a
    cycle in the block graph touching exactly those disks.

    Consecutive source edges are arcs at a shared source vertex, hence both
    lie on that vertex's disk path; the subpaths between them concatenate
    into a simple cycle.
    """
    t = len(source_cycle)
    arc_of = {}
    for i, (a, b) in enumerate(sys.arc_names):
        arc_of[(a, b)] = i
        arc_of[(b, a)] = i
    cubic_vertices = []
    for i in range(t):
        u, v = source_cycle[i], source_cycle[(i + 1) % t]
        cubic_vertices.append(arc_of[(u, v)])
    edges: List[int] = []
    for i in range(t):
        shared = source_cycle[(i + 1) % t]
        a = cubic_vertices[i]
        b = cubic_vertices[(i + 1) % t]
        path = sys.disks[shared]
        ia, ib = path.index(a), path.index(b)
        walk = path[ia : ib + 1] if ia < ib else path[ib : ia + 1][::-1]
        for j in range(len(walk) - 1):
            edges.append(sys.cubic.edge_index(walk[j], walk[j + 1]))
    return edges


def girth_cycle_vertices(g: Graph) -> List[int]:
    """Vertex sequence of one shortest cycle of g."""
    cycle = shortest_cycle(g)
    if cycle is None:
        raise NotACycleError("acyclic graph has no cycle")
    return _cycle_vertices(g, cycle)


def _has_cycle(g: Graph, edges: Sequence[int]) -> bool:
    """True iff the distinct edges contain a cycle, by union-find: some edge
    joins two vertices that the edges before it already connect.

    Peeling recovers an erasure pattern iff its edges form a forest, so this
    answers "is the pattern unrecoverable" without running the decoder.
    """
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


def _girth_witness(sys: CubicSystem, g4: Graph) -> Tuple[int, Set[int]]:
    """(girth(G), the disks of a block-graph cycle built from a girth cycle
    of G); the cycle touches at most girth(G) disks."""
    source_cycle = girth_cycle_vertices(g4)
    witness = disk_cycle_of(sys, disk_cycle_from_source_cycle(sys, source_cycle))
    if len(witness) > len(source_cycle):
        raise AssertionError("constructed disk cycle touches extra disks")
    return len(source_cycle), witness


def min_disk_cycle(
    sys: CubicSystem, g4: Graph, exhaustive_limit: int = 300_000
) -> int:
    """Smallest t for which the block graph has a t-disk cycle.

    A cycle inside the union of t disks touches at most t disks, so the
    minimum equals the smallest subset of disks whose combined edges
    contain a cycle.  Verified exhaustively below the subset-count limit;
    the construction from a girth cycle of the source graph supplies the
    matching upper bound either way.
    """
    t_upper = len(_girth_witness(sys, g4)[1])
    n = len(sys.disks)
    disk_edges = [sys.disk_edges(d) for d in range(n)]
    for size in range(2, t_upper):
        if math.comb(n, size) > exhaustive_limit:
            break  # trust the construction bound at scale
        for combo in itertools.combinations(range(n), size):
            if _has_cycle(sys.cubic, [e for d in combo for e in disk_edges[d]]):
                return size
    return t_upper


def verify_recovery_bound(
    sys: CubicSystem,
    g4: Graph,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: Optional[int] = None,
) -> Tuple[bool, Set[int]]:
    """Check the girth-minus-one disk-erasure guarantee.

    Returns (all (g-1)-subsets of disks recover fully, witness g-subset
    that does not).  Exhaustive mode enumerates every subset; sampled mode
    draws `trials` subsets with per-trial randomness from (seed, index).
    A subset recovers iff the union of its disk edges is a forest, which
    `_has_cycle` tests; the witness comes from a girth cycle of the source
    graph, and the peeling decoder confirms that it does not recover.
    """
    g, witness = _girth_witness(sys, g4)
    n = len(sys.disks)
    if mode == "exhaustive":
        subsets = itertools.combinations(range(n), g - 1)
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")

        def _sampled():
            for i in range(trials):
                rng = random.Random(f"{seed}:{i}")
                yield tuple(rng.sample(range(n), g - 1))

        subsets = _sampled()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    disk_edges = [sys.disk_edges(d) for d in range(n)]
    all_ok = not any(
        _has_cycle(sys.cubic, [e for d in combo for e in disk_edges[d]])
        for combo in subsets
    )
    erased = EdgeSubset.from_indices(
        sys.cubic.edge_count, [e for d in witness for e in disk_edges[d]]
    )
    if not len(peel(sys, erased).residual):
        raise AssertionError("witness erasure pattern unexpectedly recovered")
    return all_ok, witness


def profile(sys: CubicSystem, g4: Graph) -> SystemProfile:
    """Fill the summary row for a system and its source graph."""
    n = len(sys.disks)
    g_src = int(girth(g4))
    g_cubic = int(girth(sys.cubic))
    code = derive_code(sys.cubic)
    d_cubic = minimum_distance(code, sys.cubic)
    return SystemProfile(
        disk_count=n,
        block_count=3 * n,
        girth_source=g_src,
        girth_cubic=g_cubic,
        max_guaranteed_disk_erasures=g_src - 1,
        blocks_recoverable=3 * (g_src - 1),
        code_length=code.length,
        code_dimension=code.dimension,
        code_distance_source_girth=g_src,
        code_distance_cubic_girth=d_cubic,
        rate=code.dimension / code.length,
    )


def verdict_json(all_ok: bool, witness: Set[int]) -> str:
    return json.dumps({"all_g_minus_1_ok": all_ok, "witness": sorted(witness)}, indent=2)
