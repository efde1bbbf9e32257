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
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from .code import derive_code, minimum_distance
from .cubic import CubicSystem
from .graphs import EdgeSubset, Graph, girth, shortest_cycle
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


def rate_function(n: int) -> float:
    """Cycle-space rate of any connected cubic graph on n vertices."""
    return 1 - (n - 1) / (3 * n / 2)


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
    that does not).  Exhaustive mode enumerates every subset; sampled mode
    draws `trials` subsets with per-trial randomness from (seed, index).
    A subset recovers iff the union of its disk edges is a forest, which
    `_has_cycle` tests; the witness comes from a girth cycle of the source
    graph, and the peeling decoder confirms that it does not recover.  Every
    subset of a forest is a forest, so an exhaustive all-ok plus the witness
    shows that girth(G) disks is the smallest unrecoverable loss.
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
    code = derive_code(sys.cubic)
    d_cubic = minimum_distance(code, sys.cubic)  # the girth of the block graph
    return SystemProfile(
        disk_count=n,
        block_count=3 * n,
        girth_source=g_src,
        girth_cubic=d_cubic,
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
