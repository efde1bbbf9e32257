"""Peeling repair with exact bandwidth and round accounting.

A parity vertex with exactly one erased incident edge rebuilds it as the XOR
of the other two (locality 2).  Peeling to exhaustion recovers everything
but the 2-core of the erased subgraph, the union of its cycles, so a pattern
is recoverable iff its erased edges form a forest.  The block-graph edges of
a cycle span at least girth(G) disks of the source graph G, so any
girth(G) - 1 failed disks are recoverable.

One engine, `_peel`, computes both peeling schedules and prices them as it
goes: each distinct intact edge is read once per repair session; edges
recovered earlier in the session are internal and free.  `repair_disk`
writes out its two fixed schedules and prices one disk from its path with
the same rule.  The test oracle `session_report` (tests/conftest.py)
counts every report again from its schedule alone.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Set, Tuple

from .code import ParityCode, StorageState, fill_edges
from .cubic import CubicSystem
from .graphs import EdgeSubset


class InvalidDiskError(ValueError):
    pass


class UnrecoverableError(Exception):
    """Erasure pattern contains a cycle; exact repair is impossible."""

    def __init__(self, residual: EdgeSubset):
        super().__init__(f"unrecoverable edges: {residual.indices()}")
        self.residual = residual


class RepairStrategy(Enum):
    MIN_BANDWIDTH = "min-bandwidth"  # 4 symbols, 3 rounds
    MIN_ROUNDS = "min-rounds"  # 5 symbols, 2 rounds


@dataclass(frozen=True)
class RepairReport:
    """Transcript of one repair session."""

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


def _peel(sys: CubicSystem, erased: EdgeSubset, min_bandwidth: bool) -> RepairReport:
    """The peeling engine: a work queue of parity vertices with exactly one
    unrecovered erased edge, seeded from `erased.indices()`.

    Only erased edges and their endpoints are touched, so the work is
    O(|erased| log |erased|), whatever the size of the graph.  Under either
    rule a recovery's round is 1 + the highest round among the other erased
    edges at its parity vertex.  The heap key is the choice rule:
    (round, edge, vertex) replays the round-synchronous schedule, and
    (new reads, vertex) the bandwidth-greedy one.  Keys are recomputed on
    pop and stale entries skipped; a greedy key only falls, and every fall
    pushes a fresh entry.  The report's transfers are the reads, its rounds
    the deepest recovery, and its residual the erased edges never recovered.
    """
    g = sys.cubic
    if erased.size != g.edge_count:
        raise ValueError("erased subset sized for a different graph")
    lost = set(erased.indices())
    pending: Dict[int, int] = {}  # vertex -> erased edges not yet recovered
    for e in lost:
        for x in g.edges[e]:
            pending[x] = pending.get(x, 0) + 1
    rounds: Dict[int, int] = {}  # recovered edge -> round
    reads: Set[int] = set()
    schedule: List[Tuple[int, int, int]] = []

    def entry(v: int) -> Tuple[tuple, int, int]:
        """(heap key, edge, round) for a vertex with one pending edge."""
        edge, rnd, cost = -1, 1, 0
        for ei, _ in g.incident(v):
            if ei not in lost:
                cost += ei not in reads
            elif ei in rounds:
                rnd = max(rnd, rounds[ei] + 1)
            else:
                edge = ei
        return ((cost, v) if min_bandwidth else (rnd, edge, v)), edge, rnd

    heap = [entry(v)[0] for v, k in pending.items() if k == 1]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        v = key[-1]
        if pending[v] != 1:
            continue
        fresh, e, rnd = entry(v)
        if fresh != key:
            continue
        rounds[e] = rnd
        schedule.append((e, v, rnd))
        touched = list(g.edges[e])
        for x in touched:
            pending[x] -= 1
        for ei, x in g.incident(v):
            if ei not in lost and ei not in reads:
                reads.add(ei)
                touched.append(x)
        for x in touched:
            if pending.get(x) == 1:
                heapq.heappush(heap, entry(x)[0])
    return RepairReport(
        recovered=tuple(schedule),
        transferred_symbols=len(reads),
        rounds=max(rounds.values(), default=0),
        residual=EdgeSubset.from_indices(erased.size, lost.difference(rounds)),
        erased=erased,
    )


def peel(sys: CubicSystem, erased: EdgeSubset) -> RepairReport:
    """Run the peeling decoder to exhaustion.

    Each round recovers every edge that has, at the start of the round, a
    parity vertex with exactly one erased incident edge; the round number is
    therefore the dependency depth.  Ties (an edge repairable at both
    endpoints) go to the lowest vertex index.
    """
    return _peel(sys, erased, min_bandwidth=False)


def repair_disk(sys: CubicSystem, disk: int, strategy: RepairStrategy) -> RepairReport:
    """Repair one whole disk, all other edges intact.

    MIN_BANDWIDTH walks the path using the first three parity checks (4
    symbols, 3 rounds); MIN_ROUNDS repairs both end edges first (5 symbols,
    2 rounds).  The report is priced from the path alone: its 3 edges form
    a forest, so nothing is left over, and the transfers are the distinct
    edges at the schedule's parity vertices other than the disk's own.
    """
    if not 0 <= disk < len(sys.disks):
        raise InvalidDiskError(f"no disk {disk}")
    g = sys.cubic
    p = sys.disks[disk]
    e1, e2, e3 = sys.disk_edges(disk)
    if strategy is RepairStrategy.MIN_BANDWIDTH:
        schedule, rounds = ((e1, p[0], 1), (e2, p[1], 2), (e3, p[2], 3)), 3
    else:
        schedule, rounds = ((e1, p[0], 1), (e3, p[3], 1), (e2, p[1], 2)), 2
    reads = {ei for _, v, _ in schedule for ei, _ in g.incident(v)} - {e1, e2, e3}
    m = g.edge_count
    return RepairReport(schedule, len(reads), rounds, EdgeSubset(m, 0),
                        EdgeSubset(m, 1 << e1 | 1 << e2 | 1 << e3))


def peel_min_bandwidth(sys: CubicSystem, erased: EdgeSubset) -> RepairReport:
    """Sequential peeling that greedily minimizes new symbol transfers.

    At each step the recoverable edge whose parity check needs the fewest
    not-yet-read intact symbols is repaired (ties to the lowest vertex).
    This walks along erased disk paths, so repairing pairwise non-adjacent
    disks costs 4 transfers each; the residual is the same 2-core as for
    plain peeling.  Rounds count dependency depth of the chosen schedule.
    """
    return _peel(sys, erased, min_bandwidth=True)


def repair_disks(sys: CubicSystem, disks: Iterable[int]) -> RepairReport:
    """Erase every block of the given disks and run bandwidth-greedy
    sequential peeling.

    For pairwise non-adjacent disks the transfer count is 4 per disk.
    """
    edges: List[int] = []
    for d in disks:
        if not 0 <= d < len(sys.disks):
            raise InvalidDiskError(f"no disk {d}")
        edges.extend(sys.disk_edges(d))
    erased = EdgeSubset.from_indices(sys.cubic.edge_count, edges)
    return peel_min_bandwidth(sys, erased)


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
