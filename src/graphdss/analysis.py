"""Property verification of a constructed storage system.

Covers the correspondence between disk cycles of the block graph and
cycles of the source 4-regular graph, the girth-minus-one disk-erasure
guarantee with an explicit unrecoverable witness, and rate / parameter
profiling against the cage catalog table.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .code import DisconnectedError
from .cubic import CubicSystem
from .graphs import EdgeSubset, Graph, girth, is_connected, shortest_cycle
from .repair import peel


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


class _DiskForest:
    """Components of the union of a stack of disks whose block edges form a
    forest; disks are pushed with `add` and popped with `undo`.

    A disk's edges are the 3-edge path through its 4 distinct vertices, and
    disks are edge-disjoint, so a disk closes a cycle with the forest iff
    two of its vertices share a component.  Components are labels, merged
    smaller-into-larger.  Each component c also keeps `touch[c]`, the bitmask
    of the disks with a vertex in c, and `bad` is the bitmask of the disks
    with two vertices in one component: exactly the disks that close a
    cycle.  Adding disk d merges its 4 components, so a disk closes a cycle
    with the grown forest iff it was in `bad` or it touches two of those 4
    components.  Each add logs the merge and the old masks, so that `undo`
    restores them exactly.
    """

    def __init__(self, sys: CubicSystem):
        self.paths = sys.disks
        self.label = list(range(sys.cubic.vertex_count))
        self.members = [[v] for v in self.label]
        self.touch = [0] * sys.cubic.vertex_count
        for d, path in enumerate(self.paths):
            for v in path:
                self.touch[v] |= 1 << d
        self.bad = 0
        # (big, its old size, merged labels, old bad, old touch[big])
        self.log: List[Tuple[int, int, List[int], int, int]] = []

    def closes_cycle(self, d: int) -> bool:
        """True iff disk d's edges close a cycle with the forest."""
        return self.bad >> d & 1 == 1

    def closing(self, d: int) -> int:
        """The `bad` mask of the forest plus disk d, without adding d; -1,
        every disk, if d closes a cycle, since a superset of a cyclic set is
        cyclic."""
        if self.closes_cycle(d):
            return -1
        label, touch = self.label, self.touch
        u, v, w, x = self.paths[d]
        a, b, c, e = touch[label[u]], touch[label[v]], touch[label[w]], touch[label[x]]
        a_b = a | b
        return self.bad | a & b | a_b & c | (a_b | c) & e

    def add(self, d: int) -> None:
        """Push disk d, which must not close a cycle."""
        label, members, touch = self.label, self.members, self.touch
        bad = self.closing(d)
        merged = sorted((label[v] for v in self.paths[d]), key=lambda c: len(members[c]))
        big = merged.pop()
        into = members[big]
        self.log.append((big, len(into), merged, self.bad, touch[big]))
        self.bad = bad
        for c in merged:
            touch[big] |= touch[c]
            for v in members[c]:
                label[v] = big
            into.extend(members[c])

    def undo(self) -> None:
        """Pop the most recently added disk."""
        big, size, merged, self.bad, self.touch[big] = self.log.pop()
        label, members = self.label, self.members
        del members[big][size:]
        for c in merged:
            for v in members[c]:
                label[v] = c

    def with_cycle(self, disks: Sequence[int]) -> bool:
        """True iff the forest plus the given distinct disks, one or more,
        contains a cycle; the forest is left as it was.  Only the disks
        before the last two are added: the one before last is tested by
        `closing` and the last by its bit, so a 2-disk set merges nothing."""
        *head, last = disks
        added = 0
        for d in head[:-1]:
            if self.closes_cycle(d):
                cyclic = True
                break
            self.add(d)
            added += 1
        else:
            mask = self.closing(head[-1]) if head else self.bad
            cyclic = mask >> last & 1 == 1
        for _ in range(added):
            self.undo()
        return cyclic


def _first_disk(mask: int, start: int) -> Optional[int]:
    """The lowest disk >= start whose bit is set in mask, if any."""
    above = mask >> start
    return start + (above & -above).bit_length() - 1 if above else None


def _first_cyclic_subset(sys: CubicSystem, k: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first k-subset of disks whose block edges
    contain a cycle, or None if every k-subset is a forest.

    A depth-first walk over the subsets in lexicographic order: each tree
    node above the last two levels adds one disk to the forest of its
    prefix and undoes it on the way back.  A node at depth k - 2 merges
    nothing: `closing` gives the disks that close a cycle with its prefix
    plus d, and the first of them above d is its first cyclic leaf.  A
    prefix that closes a cycle is completed with the next disks in order,
    since every superset of a cyclic set is cyclic.
    """
    n = len(sys.disks)
    if not 1 < k <= n:  # one disk is a 3-edge path, never a cycle
        return None
    forest = _DiskForest(sys)
    prefix: List[int] = []

    def walk(start: int) -> Optional[Tuple[int, ...]]:
        depth = len(prefix)
        if depth == k - 2:
            for d in range(start, n - 1):
                last = _first_disk(forest.closing(d), d + 1)
                if last is not None:
                    return (*prefix, d, last)
            return None
        for d in range(start, n - k + depth + 1):
            if forest.closes_cycle(d):
                return (*prefix, *range(d, d + k - depth))
            forest.add(d)
            prefix.append(d)
            found = walk(d + 1)
            prefix.pop()
            forest.undo()
            if found is not None:
                return found
        return None

    return walk(0)


def _girth_witness(sys: CubicSystem, g4: Graph) -> Tuple[int, Set[int]]:
    """(girth(G), the disks owned by the vertices of a girth cycle of G).

    Consecutive edges of a cycle of G are arcs at a shared vertex, so both
    lie on that vertex's disk path; the disks of the cycle's vertices
    therefore contain a block-graph cycle and do not recover.
    """
    cycle = shortest_cycle(g4)
    if cycle is None:
        raise ValueError("acyclic source graph has no girth witness")
    vertices = {v for ei in cycle for v in g4.edges[ei]}
    return len(cycle), {d for d, v in enumerate(sys.disk_owner) if v in vertices}


def verify_recovery_bound(
    sys: CubicSystem,
    g4: Graph,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: Optional[int] = None,
) -> Tuple[bool, Set[int]]:
    """Check the girth-minus-one disk-erasure guarantee.

    Returns (all (g-1)-subsets of disks recover fully, witness g-subset
    that does not).  Exhaustive mode walks every subset through
    `_first_cyclic_subset`; sampled mode draws `trials` subsets with
    per-trial randomness from (seed, index) and tests each on one
    `_DiskForest`.  A subset recovers iff the union of its disk edges is a
    forest; the witness comes from a girth cycle of the source graph, and
    the peeling decoder confirms that it does not recover.  Every subset of
    a forest is a forest, so an exhaustive all-ok plus the witness shows
    that girth(G) disks is the smallest unrecoverable loss.
    """
    g, witness = _girth_witness(sys, g4)
    n = len(sys.disks)
    if mode == "exhaustive":
        all_ok = _first_cyclic_subset(sys, g - 1) is None
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if trials < 1:
            raise ValueError(f"sampled mode needs at least one trial, got {trials}")
        forest = _DiskForest(sys)
        all_ok = not any(
            forest.with_cycle(random.Random(f"{seed}:{i}").sample(range(n), g - 1))
            for i in range(trials)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    erased = EdgeSubset.from_indices(
        sys.cubic.edge_count, [e for d in witness for e in sys.disk_edges(d)]
    )
    if not len(peel(sys, erased).residual):
        raise AssertionError("witness erasure pattern unexpectedly recovered")
    return all_ok, witness


def profile(sys: CubicSystem, g4: Graph) -> SystemProfile:
    """Fill the summary row for a system and its source graph.

    The code parameters follow by theorem, without deriving the code.  A
    cycle of the block graph B is a codeword of its cycle code, and every
    nonzero codeword is an edge-disjoint union of cycles, so the distance
    is girth(B).  For a connected B the incidence matrix has rank
    n_B - 1, so the dimension is m - n_B + 1 (as in `derive_code`).
    """
    block = sys.cubic
    if block.vertex_count == 0:
        raise DisconnectedError("empty graph")
    if not is_connected(block):
        raise DisconnectedError("graph is disconnected")
    n = len(sys.disks)
    g_src = int(girth(g4))
    d_cubic = int(girth(block))
    m = block.edge_count
    k = m - block.vertex_count + 1
    return SystemProfile(
        disk_count=n,
        block_count=3 * n,
        girth_source=g_src,
        girth_cubic=d_cubic,
        max_guaranteed_disk_erasures=g_src - 1,
        blocks_recoverable=3 * (g_src - 1),
        code_length=m,
        code_dimension=k,
        code_distance_source_girth=g_src,
        code_distance_cubic_girth=d_cubic,
        rate=k / m,
    )


def verdict_json(all_ok: bool, witness: Set[int]) -> str:
    return json.dumps({"all_g_minus_1_ok": all_ok, "witness": sorted(witness)}, indent=2)
