"""Peeling repair with exact bandwidth and round accounting.

A parity vertex with exactly one erased incident edge rebuilds it as the XOR
of the other two (locality 2).  Peeling to exhaustion recovers everything
but the 2-core of the erased subgraph, the union of its cycles, so a pattern
is recoverable iff its erased edges form a forest.  The block-graph edges of
a cycle span at least girth(G) disks of the source graph G, so any
girth(G) - 1 failed disks are recoverable.

One private engine, `_peel`, computes the peeling schedule of either
`RepairStrategy` from a list of lost edges and prices it as it goes: each
distinct intact edge is read once per repair session; edges recovered
earlier in the session are internal and free.  `peel` seeds it from
`erased.indices()`, and `repair_disks` from the edge list of its failed
disks, with no walk over bits.  `repair_disk` writes out its two fixed
schedules and prices either from the disk's path with one rule, as the
edges at its 3 parity vertices less the 3 of the disk, counted by
inclusion-exclusion over their degrees.  A priced disk builds one
`EdgeSubset`, its erased edges, and one `RepairReport`, a named tuple.
The empty residual of a priced disk, and of every peel that recovers all
its lost edges, is the one its system keeps.  The test oracle
`session_report` (tests/conftest.py) counts every report again from its
schedule alone.
"""

from __future__ import annotations

import heapq
import json
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from .code import ParityCode, StorageState, fill_edges
from .cubic import CubicSystem
from .graphs import EdgeSubset


class UnrecoverableError(Exception):
    """Erasure pattern contains a cycle; exact repair is impossible."""

    def __init__(self, residual: EdgeSubset):
        super().__init__(f"unrecoverable edges: {residual.indices()}")
        self.residual = residual


class RepairStrategy(Enum):
    MIN_BANDWIDTH = "min-bandwidth"  # 4 symbols, 3 rounds
    MIN_ROUNDS = "min-rounds"  # 5 symbols, 2 rounds


class RepairReport(NamedTuple):
    """Transcript of one repair session.

    A named tuple: immutable, equal and hashed by value, built by position
    or keyword.  Being a tuple, it is also iterable, indexable in field
    order, and equal to a plain tuple of the same five values.
    """

    recovered: Tuple[Tuple[int, int, int], ...]  # (edge, parity vertex, round)
    transferred_symbols: int
    rounds: int
    residual: EdgeSubset
    erased: EdgeSubset

    def to_json(self) -> str:
        return json.dumps(
            {
                "recovered": [list(r) for r in self.recovered],
                "transferred": self.transferred_symbols,
                "rounds": self.rounds,
                "residual": self.residual.indices(),
            },
            indent=2,
        )


def peel(sys: CubicSystem, erased: EdgeSubset,
         strategy: RepairStrategy = RepairStrategy.MIN_ROUNDS) -> RepairReport:
    """Run the peeling decoder to exhaustion under one of two rules.

    MIN_ROUNDS is round-synchronous: each round recovers every edge that
    has, at the start of the round, a parity vertex with exactly one
    erased incident edge; the round number is therefore the dependency
    depth.  Ties (an edge repairable at both endpoints) go to the lowest
    vertex index.  MIN_BANDWIDTH is sequential and greedily minimizes new
    symbol transfers: at each step the recoverable edge whose parity check
    needs the fewest not-yet-read intact symbols is repaired (ties to the
    lowest vertex).  This walks along erased disk paths, so repairing
    disks pairwise non-adjacent in the block graph B costs 4 transfers
    each; rounds count the dependency depth of the chosen schedule.  Both
    rules leave the same residual, the 2-core of the erased edges.
    ValueError for a strategy that is not a `RepairStrategy`, then for a
    subset sized for another graph.

    The work is done by the module's one peel engine, seeded from
    `erased.indices()`; `repair_disks` seeds the same engine from its own
    edge list.  See `_peel` for how it keeps its queue.
    """
    if not isinstance(strategy, RepairStrategy):
        raise ValueError(f"not a repair strategy: {strategy!r}")
    if erased.size != sys.cubic.edge_count:
        raise ValueError("erased subset sized for a different graph")
    return _peel(sys, erased.indices(), erased, strategy)


def _peel(sys: CubicSystem, lost_edges: Iterable[int], erased: EdgeSubset,
          strategy: RepairStrategy) -> RepairReport:
    """The peel engine: `lost_edges` lists the edges of `erased`, in any
    order and possibly with repeats, and `erased`, sized for the block
    graph, is the report's.

    The engine is a work queue of parity vertices with exactly one
    unrecovered erased edge.  Only erased edges and their endpoints are
    touched, so the work is O(|erased| log |erased|), whatever the size of
    the graph.  Under either rule a recovery's round is 1 + the highest
    round among the other erased edges at its parity vertex.  The heap key
    is the choice rule: (round, edge, vertex) replays the round-synchronous
    schedule, and (new reads, vertex) the bandwidth-greedy one.  Each
    vertex keeps its pending edges, the highest round recovered at it and,
    for the greedy rule, its intact edges not yet read, so no key needs an
    incidence scan.  A round key is fixed once its vertex has one pending
    edge, so it is pushed once, then.  A greedy key only falls, and each
    fall pushes a fresh entry, which pops before the older ones of its
    vertex; so under either rule the first entry of a vertex to pop while
    it has one pending edge carries its current key, and every later one
    finds the vertex done and is skipped.  The report's transfers are the
    reads, its rounds the deepest schedule entry, and its residual the
    erased edges the schedule does not recover: the system's shared empty
    subset when it recovers them all.
    """
    min_bandwidth = strategy is RepairStrategy.MIN_BANDWIDTH
    g = sys.cubic
    edges, incident = g.edges, g.incident
    heappop, heappush = heapq.heappop, heapq.heappush
    lost = set(lost_edges)
    pending: Dict[int, List[int]] = {}  # vertex -> erased edges not yet recovered
    for e in lost:
        for x in edges[e]:
            left = pending.get(x)
            if left is None:
                pending[x] = [e]
            else:
                left.append(e)
    depth: Dict[int, int] = {}  # vertex -> highest round recovered at it
    if min_bandwidth:
        # vertex -> intact edges not yet read, the greedy rule's key
        cost = {x: len(incident(x)) - len(p) for x, p in pending.items()}
        heap = [(cost[x], x) for x, p in pending.items() if len(p) == 1]
    else:
        cost = {}
        heap = [(1, p[0], x) for x, p in pending.items() if len(p) == 1]
    heapq.heapify(heap)
    reads: Set[int] = set()
    schedule: List[Tuple[int, int, int]] = []
    rounds = 0
    while heap:
        v = heappop(heap)[-1]
        left = pending[v]
        if len(left) != 1:
            continue  # recovered here or at its other end since this entry
        e, rnd = left[0], depth.get(v, 0) + 1
        schedule.append((e, v, rnd))
        if rnd > rounds:
            rounds = rnd
        for x in edges[e]:
            left = pending[x]
            left.remove(e)
            if left:
                d = depth[x] = max(depth.get(x, 0), rnd)
                if len(left) == 1:
                    heappush(heap, (cost[x], x) if min_bandwidth else (d + 1, left[0], x))
        for ei, x in incident(v):
            if ei not in lost and ei not in reads:
                reads.add(ei)
                if x in cost:
                    c = cost[x] = cost[x] - 1
                    if len(pending[x]) == 1:
                        heappush(heap, (c, x))
    if len(schedule) == len(lost):
        residual = sys.empty_edges
    else:
        residual = EdgeSubset.from_indices(erased.size, lost - {e for e, _, _ in schedule})
    return RepairReport(tuple(schedule), len(reads), rounds, residual, erased)


def repair_disk(sys: CubicSystem, disk: int, strategy: RepairStrategy) -> RepairReport:
    """Repair one whole disk, all other edges intact.

    MIN_BANDWIDTH walks the path using the first three parity checks (4
    symbols, 3 rounds); MIN_ROUNDS repairs both end edges first (5 symbols,
    2 rounds).  The report is priced from the path alone: its 3 edges form
    a forest, so nothing is left over, and the residual is the system's
    shared empty subset.  The transfers are the distinct edges at the
    schedule's 3 parity vertices p0, p1 and x other than the disk's own,
    where x is p2 under MIN_BANDWIDTH and p3 under MIN_ROUNDS.  On the
    path p0-p1-p2-p3 the edge p0-p1 lies at p0, p1-p2 at p1, and p2-p3 at
    x, so the union of the incidences at those vertices holds all 3 disk
    edges, which differ because the path's 4 vertices do, and its size
    minus 3 is the count.  The disk's 3 edges are `sys.disk_edges(disk)`,
    which raises InvalidDiskError for a disk outside the system; then
    ValueError for a strategy that is not a `RepairStrategy`.

    One rule counts the union under both strategies, by inclusion-exclusion
    with no set: the degree sum of the 3 vertices counts an edge twice iff
    it joins two of them, and once otherwise, since a simple graph has at
    most one edge between two vertices and no edge has 3 ends.  So the
    count is deg(p0) + deg(p1) + deg(x) - 4, less one for each edge at x
    whose other end is p0 or p1: the -4 is the disk edge p0-p1, counted
    twice, and the disk's 3 edges.  Under MIN_BANDWIDTH those edges at x
    are the disk edge p1-p2 and the chord p0-p2 if present; under
    MIN_ROUNDS the chords p0-p3 and p1-p3 if present.

    On a system of a simple G built by `build_cubic`, the rule gives 4
    under MIN_BANDWIDTH and 5 under MIN_ROUNDS for every disk: each block
    vertex has degree 3, so the count is 9 - 4 = 5 less the edges at x to
    p0 or p1, and p2 touches p1 while p3 touches neither, because the path
    has no chord.  A disk is the path c-a-b-d of the arcs at its owner v:
    end arc c leaves v for w, middle arcs a and b enter v from y and u, and
    end arc d leaves v for z.  The other block edges at c lie on w's disk,
    at a on y's, at b on u's and at d on z's, and two of them coincide, as
    a chord would, only if two of w, y, u and z are one vertex joined to v
    by two arcs, a parallel edge of G.
    """
    g = sys.cubic
    e1, e2, e3 = sys.disk_edges(disk)
    p0, p1, p2, p3 = sys.disks[disk]
    if strategy is RepairStrategy.MIN_BANDWIDTH:
        schedule, rounds, x = ((e1, p0, 1), (e2, p1, 2), (e3, p2, 3)), 3, p2
    elif strategy is RepairStrategy.MIN_ROUNDS:
        schedule, rounds, x = ((e1, p0, 1), (e3, p3, 1), (e2, p1, 2)), 2, p3
    else:
        raise ValueError(f"not a repair strategy: {strategy!r}")
    at_x = g.incident(x)
    reads = len(g.incident(p0)) + len(g.incident(p1)) + len(at_x) - 4
    for _, y in at_x:  # p1-p2 and the chords p0-p2, p0-p3 and p1-p3
        if y == p0 or y == p1:
            reads -= 1
    return RepairReport(schedule, reads, rounds, sys.empty_edges,
                        EdgeSubset(g.edge_count, 1 << e1 | 1 << e2 | 1 << e3))


def repair_disks(sys: CubicSystem, disks: Iterable[int]) -> RepairReport:
    """Erase every block of the given disks and peel them under
    MIN_BANDWIDTH, the bandwidth-greedy sequential rule.

    The report equals `peel` of the same blocks under MIN_BANDWIDTH; the
    engine is seeded from the disks' edge list, not from the bits of the
    report's `erased` subset.  For disks pairwise non-adjacent in the block
    graph B the transfer count is 4 per disk.
    """
    edges = [e for d in disks for e in sys.disk_edges(d)]
    erased = EdgeSubset.from_indices(sys.cubic.edge_count, edges)
    return _peel(sys, edges, erased, RepairStrategy.MIN_BANDWIDTH)


def repair_state(code: ParityCode, state: StorageState, report: RepairReport) -> StorageState:
    """Apply a repair schedule to real payloads, in place; exact repair.

    The input state must be missing exactly the erased edges of the report.
    The rebuilt blocks are written into `state`, which is returned; only the
    recovered edges and the blocks their parity checks read are touched.
    If a step fails, the blocks rebuilt before it stay in `state`.
    """
    if len(report.residual):
        raise UnrecoverableError(report.residual)
    fill_edges(code, state, ((e, v) for e, v, _ in report.recovered))
    return state
