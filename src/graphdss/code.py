"""The binary cycle-space code of a graph and a systematic block encoder.

Coordinates are edges; each vertex contributes the parity check "incident
edges XOR to zero".  The kernel is spanned by the fundamental cycles of a
spanning tree, so a connected graph with n vertices and m edges gives an
[m, m-n+1] code whose minimum weight is the girth.  The code is kept as
its edge lists: the check at vertex v is `vertex_edges[v]`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .graphs import Graph


class DisconnectedError(ValueError):
    pass


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class ParityCode:
    """Cycle-space code data: the edges at each vertex, whose blocks XOR to
    zero, and a systematic information set (the non-tree edges)."""

    length: int
    vertex_edges: Tuple[Tuple[int, ...], ...]  # edge indices at each vertex
    rank: int
    dimension: int
    information_set: Tuple[int, ...]
    tree_order: Tuple[Tuple[int, int], ...]  # (tree edge, child vertex), leaf-up


@dataclass
class StorageState:
    """Payload per edge; each byte position is an independent GF(2) word,
    so vertex parities are plain XORs of the incident blocks."""

    block_size: int
    symbols: Dict[int, bytes]

    def header_json(self, code: ParityCode) -> str:
        return json.dumps(
            {
                "m": code.length,
                "s": self.block_size,
                "information_set": list(code.information_set),
            }
        )


def _bfs_tree(g: Graph) -> Tuple[List[int], List[Tuple[int, int]]]:
    """BFS spanning tree from vertex 0: (tree edge indices, (edge, child)
    pairs in BFS order)."""
    parent_edge: List[Tuple[int, int]] = []
    seen = [False] * g.vertex_count
    seen[0] = True
    q = deque([0])
    tree_edges = []
    while q:
        u = q.popleft()
        for ei, v in g.incident(u):
            if not seen[v]:
                seen[v] = True
                tree_edges.append(ei)
                parent_edge.append((ei, v))
                q.append(v)
    if not all(seen):
        raise DisconnectedError("graph is disconnected")
    return tree_edges, parent_edge


def derive_code(g: Graph) -> ParityCode:
    """Build the cycle-space code of a connected graph.

    Each non-tree edge of a BFS spanning tree closes one fundamental cycle,
    so the non-tree edges are an information set.  The incidence matrix H
    of a connected graph has rank n - 1 over GF(2) (its rows sum to zero,
    and any n - 1 of them are independent); the BFS tree proves
    connectivity, so rank(H) = n - 1 and k = m - n + 1 with no elimination.
    The tests keep a row reduction and the fundamental-cycle basis as
    independent oracles.
    """
    if g.vertex_count == 0:
        raise DisconnectedError("empty graph")
    m = g.edge_count
    vertex_edges = tuple(tuple(ei for ei, _ in g.incident(v)) for v in range(g.vertex_count))

    tree_edges, parent_pairs = _bfs_tree(g)
    tree_set = set(tree_edges)
    info_set = [ei for ei in range(m) if ei not in tree_set]

    rank = g.vertex_count - 1
    return ParityCode(
        length=m,
        vertex_edges=vertex_edges,
        rank=rank,
        dimension=m - rank,
        information_set=tuple(info_set),
        tree_order=tuple(reversed(parent_pairs)),
    )


class _BlockInts(dict):
    """Per-call int view of a state's blocks, each held from its first read
    to its last.

    `left[e]` counts the reads of edge e still to come in the call.  A block
    is length-checked and converted with `int.from_bytes` on its first
    read; each reader counts `left[e]` down and drops the int at the last
    read, so a parity is a few big-int XORs and the view holds only the
    blocks that a later read needs.
    """

    def __init__(self, state: StorageState, left: Dict[int, int]):
        super().__init__()
        self.state = state
        self.left = left

    def __missing__(self, e: int) -> int:
        blk = self.state.symbols.get(e)
        if blk is None:
            raise EncodingError(f"no block on edge {e}")
        if len(blk) != self.state.block_size:
            raise EncodingError(
                f"block on edge {e} has {len(blk)} bytes, expected {self.state.block_size}"
            )
        x = self[e] = int.from_bytes(blk, "little")
        return x


def _parity(code: ParityCode, ints: _BlockInts, v: int, skip: int) -> int:
    """XOR of the blocks on the edges at vertex v other than edge `skip`.

    That is the block `skip` must hold (locality 2), so v's parity check
    holds iff it equals that block.  The XOR starts from the first block
    read, not from 0, so no block is copied; a vertex with no other edge
    gives 0.  Each read counts down its edge's `left` and drops the int at
    its last read.
    """
    left = ints.left
    acc = None
    for ei in code.vertex_edges[v]:
        if ei != skip:
            x = ints[ei]
            left[ei] -= 1
            if not left[ei]:
                del ints[ei]
            acc = x if acc is None else acc ^ x
    return 0 if acc is None else acc


def fill_edges(code: ParityCode, state: StorageState, steps: Iterable[Tuple[int, int]]) -> None:
    """For each (edge, vertex) step in order, set the edge's block to the XOR
    of the other blocks at the vertex.

    Every step is checked before any block is written: a vertex outside
    the code, or an edge not at its vertex, raises `EncodingError` naming
    the step.  A block read must be present, or set by an earlier step, and
    hold `block_size` bytes; otherwise `EncodingError` names its edge.
    """
    steps = list(steps)
    left: Dict[int, int] = {}
    for e, v in steps:
        if not 0 <= v < len(code.vertex_edges):
            raise EncodingError(f"step ({e}, {v}): no vertex {v}")
        edges = code.vertex_edges[v]
        if e not in edges:
            raise EncodingError(f"step ({e}, {v}): edge {e} is not at vertex {v}")
        for ei in edges:
            if ei != e:
                left[ei] = left.get(ei, 0) + 1
    ints = _BlockInts(state, left)
    for e, v in steps:
        x = _parity(code, ints, v, skip=e)
        if left.get(e):
            ints[e] = x
        state.symbols[e] = x.to_bytes(state.block_size, "little")


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
    """True iff the XOR of incident blocks is zero at every vertex, checked
    as: the XOR of all but a vertex's last block equals its last block."""
    if set(state.symbols) != set(range(code.length)):
        return False
    if any(len(blk) != state.block_size for blk in state.symbols.values()):
        return False
    # each vertex's check reads every edge at it, and every edge has two ends
    left = dict.fromkeys(range(code.length), 2)
    ints = _BlockInts(state, left)
    for v, edges in enumerate(code.vertex_edges):
        if edges:
            e = edges[-1]
            p = _parity(code, ints, v, skip=e)
            x = ints[e]
            left[e] -= 1
            if not left[e]:
                del ints[e]
            if p != x:
                return False
    return True
