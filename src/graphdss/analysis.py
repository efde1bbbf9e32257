"""Property verification of a constructed storage system.

Covers the correspondence between disk cycles of the block graph and
cycles of the source 4-regular graph, the girth-minus-one disk-erasure
guarantee with an explicit unrecoverable witness, and the rate /
parameter profile of one system (`cli.cmd_profile --table1` compares the
profiles of the cages with the catalog table).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from .code import derive_code
from .cubic import CubicSystem, check_star_layout
from .graphs import Graph, girth, shortest_cycle


@dataclass(frozen=True)
class SystemProfile:
    """Summary row for one system built from a 4-regular graph.

    The record holds what cannot be derived: the disk count, the girths of
    G and of the block graph B, and the block code's [m, k].  The other
    Table-1 columns follow from them: 3 blocks per disk, girth(G) - 1
    disks (3 blocks each) recoverable, rate k / m.  The code's distance is
    girth(B), and girth(G) drives disk recovery, so the d columns print
    the two girths.
    """

    CSV_HEADER = ("disks,blocks,disks_recoverable,blocks_recoverable,length,dimension,"
                  "d_source_girth,d_block_girth,rate")

    disk_count: int
    girth_source: int
    girth_cubic: int
    code_length: int
    code_dimension: int

    @property
    def block_count(self) -> int:
        return 3 * self.disk_count

    @property
    def max_guaranteed_disk_erasures(self) -> int:
        return self.girth_source - 1

    @property
    def blocks_recoverable(self) -> int:
        return 3 * self.max_guaranteed_disk_erasures

    @property
    def rate(self) -> float:
        return self.code_dimension / self.code_length

    def csv_row(self) -> str:
        return ",".join(map(str, (
            self.disk_count, self.block_count, self.max_guaranteed_disk_erasures,
            self.blocks_recoverable, self.code_length, self.code_dimension,
            self.girth_source, self.girth_cubic,
        ))) + f",{self.rate:.6f}"

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


def verify_recovery_bound(
    sys: CubicSystem,
    g4: Graph,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: Optional[int] = None,
) -> Tuple[bool, Set[int]]:
    """Check the girth-minus-one disk-erasure guarantee.

    Returns (all (g-1)-subsets of disks recover fully, witness g-subset
    that does not).  A subset recovers iff the union of its disk edges is
    a forest.  Both modes decide this by theorem: `check_star_layout`
    proves that disk d is the path of the arcs at its owner (or raises
    InvalidSystemError), so each block vertex, an arc u->v, lies on the
    paths of exactly two disks, those of u and v.  The graph joining each
    disk to the block vertices of its path is then the subdivision of G,
    and a disk set's block edges contain a cycle iff its owners span a
    cycle of G, which takes girth(G) disks.  Sampled mode still requires a
    seed and at least one trial, but draws nothing.

    The witness is the set of disks owned by the vertices of a girth cycle
    of G.  Consecutive edges of that cycle are arcs at a shared vertex, so
    both lie on that vertex's disk path; the witness disks therefore
    contain a block-graph cycle and do not recover, and no peel confirms
    it: girth(G) disks is the smallest unrecoverable loss.  A star layout's
    G is 4-regular, so only an empty one has no girth cycle.
    """
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if trials < 1:
            raise ValueError(f"sampled mode needs at least one trial, got {trials}")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    check_star_layout(sys, g4)
    cycle = shortest_cycle(g4)
    if cycle is None:
        raise ValueError("acyclic source graph has no girth witness")
    vertices = {v for ei in cycle for v in g4.edges[ei]}
    return True, {d for d, v in enumerate(sys.disk_owner) if v in vertices}


def profile(sys: CubicSystem, g4: Graph) -> SystemProfile:
    """Fill the summary row for a system and its source graph.

    The code's length and dimension are those of `derive_code` on the
    block graph B, which owns the code's rules: an empty or disconnected
    B raises its `DisconnectedError`.  A cycle of B is a codeword of its
    cycle code, and every nonzero codeword is an edge-disjoint union of
    cycles, so the distance is girth(B).

    The guarantee is read off girth(g4) alone, so `g4` must be the graph
    that `sys` lays out, as for a system built from `g4` or one paired with
    its `source_graph`.  `check_star_layout`, the rule that
    `verify_recovery_bound` runs too, proves that layout at O(n) or raises
    InvalidSystemError with the bound's own text: for a graph of another
    size (the 5-disk K5 system with the (4,5)-cage, or the k44 system with
    K8) and for one of the right size with other edges (the k44 system
    with the circulant C8(1,2)).
    """
    check_star_layout(sys, g4)
    code = derive_code(sys.cubic)
    return SystemProfile(
        disk_count=len(sys.disks),
        girth_source=int(girth(g4)),
        girth_cubic=int(girth(sys.cubic)),
        code_length=code.length,
        code_dimension=code.dimension,
    )


def verdict_json(witness: Set[int]) -> str:
    """`simulate`'s verdict: every (g-1)-subset of disks recovers, which
    `verify_recovery_bound` proves or raises for, and the girth witness."""
    return json.dumps({"all_g_minus_1_ok": True, "witness": sorted(witness)}, indent=2)
