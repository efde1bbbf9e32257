"""The binary cycle-space code of a graph and a systematic block encoder.

Coordinates are edges; each vertex contributes the parity check "incident
edges XOR to zero".  The kernel is spanned by the fundamental cycles of a
spanning tree, so a connected graph with n vertices and m edges gives an
[m, m-n+1] code whose minimum weight is the girth.  The code is its
graph: the check at vertex v is the incidence pairs `graph.incident(v)`,
(edge, neighbour), and no second copy of them is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .graphs import Graph, bfs_tree


class DisconnectedError(ValueError):
    pass


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class ParityCode:
    """The cycle-space code of `graph`, the graph it was derived from: the
    blocks on the edges at each vertex XOR to zero, and the non-tree edges
    are a systematic information set.  Unhashable, as `Graph` is."""

    graph: Graph
    information_set: Tuple[int, ...]
    tree_order: Tuple[Tuple[int, int], ...]  # (tree edge, child vertex), leaf-up

    @property
    def length(self) -> int:
        return self.graph.edge_count

    @property
    def dimension(self) -> int:
        return len(self.information_set)


@dataclass
class StorageState:
    """Payload per edge; each byte position is an independent GF(2) word,
    so vertex parities are plain XORs of the incident blocks."""

    block_size: int
    symbols: Dict[int, bytes]


def derive_code(g: Graph) -> ParityCode:
    """Build the cycle-space code of a connected graph.

    Each non-tree edge of a BFS spanning tree closes one fundamental cycle,
    so the non-tree edges are an information set.  The incidence matrix H
    of a connected graph has rank n - 1 over GF(2) (its rows sum to zero,
    and any n - 1 of them are independent); the BFS tree proves
    connectivity, so rank(H) = n - 1 and k = m - n + 1, the size of the
    information set, with no elimination.
    The tests keep a row reduction and the fundamental-cycle basis as
    independent oracles.
    """
    if g.vertex_count == 0:
        raise DisconnectedError("empty graph")
    parent_pairs = bfs_tree(g, 0)
    if len(parent_pairs) != g.vertex_count - 1:
        raise DisconnectedError("graph is disconnected")
    in_tree = [False] * g.edge_count
    for ei, _ in parent_pairs:
        in_tree[ei] = True
    return ParityCode(g, tuple([ei for ei, t in enumerate(in_tree) if not t]),
                      tuple(parent_pairs[::-1]))


def _xor_blocks(state: StorageState, later: Sequence[int], ints: Dict[int, int],
                pairs: Sequence[Tuple[int, int]], skip: Optional[int]) -> int:
    """The one block reader: the XOR of the blocks on the edges of the
    incidence pairs `pairs`, (edge, neighbour) as `Graph.incident` gives
    them, other than edge `skip`, as an int; 0 if there are none.  The XOR
    starts from the first block read, not from 0, so no block is copied.

    An edge is read only at its two ends, and every schedule the library
    makes names each vertex at most once, so a block read at one end is
    read again only by a step still to come at the other.  `later[w]` is 1
    while vertex w has a step to come, and `ints` holds the int of an edge
    whose block is kept for such a step: a read takes the edge's int out of
    `ints` (or converts its block with `int.from_bytes`) and puts it back
    only if the neighbour across the edge has a step to come.  A block read
    must be in `ints` or `state` and hold `block_size` bytes; otherwise
    `EncodingError` names its edge."""
    symbols, size, acc = state.symbols, state.block_size, None
    for e, w in pairs:
        if e == skip:
            continue
        x = ints.pop(e, None)
        if x is None:
            blk = symbols.get(e)
            if blk is None:
                raise EncodingError(f"no block on edge {e}")
            if len(blk) != size:
                raise EncodingError(f"block on edge {e} has {len(blk)} bytes, expected {size}")
            x = int.from_bytes(blk, "little")
        if later[w]:
            ints[e] = x
        acc = x if acc is None else acc ^ x
    return 0 if acc is None else acc


def fill_edges(code: ParityCode, state: StorageState, steps: Iterable[Tuple[int, int]]) -> None:
    """For each (edge, vertex) step in order, set the edge's block to the XOR
    of the other blocks at the vertex (locality 2).

    Every step is checked before any block is written: a vertex outside
    the code, or an edge not at its vertex (an index outside 0..m-1 is at
    none), raises `EncodingError` naming the step.  A block read must be
    present, or set by an earlier step, and hold `block_size` bytes;
    otherwise `EncodingError` names its edge.

    The same pass marks each step's vertex as a step to come for the block
    reader `_xor_blocks`, and a step clears its vertex before it reads.  A
    written block is kept as its int only if its other end has a step to
    come, the one step that can read it next, and any older int of the edge
    is dropped.  So `ints` only ever holds a block's current value, and a
    hand-made schedule that names a vertex twice or rewrites a block it
    read is exact too, at the cost of converting again what a vertex's
    second step reads.
    """
    steps = tuple(steps)
    g = code.graph
    n, m, ends, incident = g.vertex_count, g.edge_count, g.edges, g.incident
    later = bytearray(n)
    for e, v in steps:
        if not 0 <= v < n:
            raise EncodingError(f"step ({e}, {v}): no vertex {v}")
        if not (0 <= e < m and v in ends[e]):
            raise EncodingError(f"step ({e}, {v}): edge {e} is not at vertex {v}")
        later[v] = 1
    symbols, size = state.symbols, state.block_size
    ints: Dict[int, int] = {}
    for e, v in steps:
        later[v] = 0
        acc = _xor_blocks(state, later, ints, incident(v), e)
        ints.pop(e, None)
        if later[sum(ends[e]) - v]:  # the edge's other end
            ints[e] = acc
        symbols[e] = acc.to_bytes(size, "little")
        del acc  # not held through the next step's reads


def encode(code: ParityCode, data: Sequence[bytes]) -> StorageState:
    """Systematic encode: data blocks land verbatim on the information-set
    edges; tree edges are filled leaf-upward so every vertex parity holds.
    A data block whose length differs from block 0's is named, with its
    edge, beside block 0."""
    info = code.information_set
    if len(data) != len(info):
        raise EncodingError(f"expected {len(info)} data blocks, got {len(data)}")
    size = len(data[0]) if data else 0
    for j, block in enumerate(data):
        if len(block) != size:
            raise EncodingError(
                f"data block {j} on edge {info[j]} has {len(block)} bytes, "
                f"but data block 0 on edge {info[0]} has {size} bytes")
    state = StorageState(size, {})
    for ei, block in zip(info, data):
        state.symbols[ei] = bytes(block)
    # leaf-up: when a tree edge is processed, all other edges at its child
    # endpoint are already set
    fill_edges(code, state, code.tree_order)
    return state


def verify_state(code: ParityCode, state: StorageState) -> bool:
    """True iff the state holds one `block_size` block per edge and the XOR
    of incident blocks is zero at every vertex, checked as: the XOR of all
    but a vertex's last block equals its last block.  Blocks go through
    `_xor_blocks`, the reader of `fill_edges`, with every vertex checked
    once in order: each vertex is a step to come until its check, so a
    block is kept as its int from the check at its first end to the check
    at its second.  A missing or mis-sized block is the reader's
    `EncodingError`."""
    g = code.graph
    if len(state.symbols) != g.edge_count:
        return False
    later, ints = bytearray(b"\1") * g.vertex_count, {}
    try:
        for v in range(g.vertex_count):
            later[v], pairs = 0, g.incident(v)
            if pairs and (_xor_blocks(state, later, ints, pairs, pairs[-1][0])
                          != _xor_blocks(state, later, ints, pairs[-1:], None)):
                return False
    except EncodingError:
        return False
    return True
