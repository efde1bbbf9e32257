"""Property verification of a constructed storage system.

Covers the correspondence between disk cycles of the block graph and
cycles of the source 4-regular graph, the girth-minus-one disk-erasure
guarantee with an explicit unrecoverable witness, and rate / parameter
profiling against the cage catalog table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from .code import DisconnectedError
from .cubic import CubicSystem, check_star_layout
from .graphs import Graph, girth, is_connected, shortest_cycle


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
        return ",".join(map(str, (
            self.disk_count, self.block_count, self.max_guaranteed_disk_erasures,
            self.blocks_recoverable, self.code_length, self.code_dimension,
            self.code_distance_source_girth, self.code_distance_cubic_girth,
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

    The code parameters follow by theorem, without deriving the code.  A
    cycle of the block graph B is a codeword of its cycle code, and every
    nonzero codeword is an edge-disjoint union of cycles, so the distance
    is girth(B).  For a connected B the incidence matrix has rank
    n_B - 1, so the dimension is m - n_B + 1 (as in `derive_code`).

    Precondition, not checked: `sys` is a star layout of `g4` (what
    `check_star_layout` proves), as for a system built from `g4` or one
    paired with its `source_graph`.  The guarantee is read off girth(g4)
    alone, so another graph gives a wrong row: the 5-disk K5 system with
    the (4,5)-cage claims 4 disk erasures, where `verify_recovery_bound`
    refuses the pair.
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
