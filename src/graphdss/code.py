"""The binary cycle-space code of a graph and a systematic block encoder.

Coordinates are edges; each vertex contributes the parity check "incident
edges XOR to zero".  The kernel is spanned by the fundamental cycles of a
spanning tree, so a connected graph with n vertices and m edges gives an
[m, m-n+1] code whose minimum weight is the girth.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .graphs import Graph, shortest_cycle


class DisconnectedError(ValueError):
    pass


class AcyclicError(ValueError):
    """The graph is a tree: the code is trivial and distance is undefined."""


class EncodingError(ValueError):
    pass


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of bitset-packed rows over GF(2) by Gaussian elimination."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


@dataclass(frozen=True)
class ParityCode:
    """Cycle-space code data: parity rows, the edges at each vertex, a
    fundamental-cycle generator basis, and a systematic information set
    (the non-tree edges)."""

    length: int
    parity_rows: Tuple[int, ...]
    vertex_edges: Tuple[Tuple[int, ...], ...]  # edge indices at each vertex
    rank: int
    dimension: int
    generator_basis: Tuple[int, ...]
    information_set: Tuple[int, ...]
    tree_order: Tuple[Tuple[int, int], ...]  # (tree edge, child vertex), leaf-up

    def is_codeword(self, word: int) -> bool:
        return all(bin(row & word).count("1") % 2 == 0 for row in self.parity_rows)


@dataclass
class StorageState:
    """Payload per edge; each byte position is an independent GF(2) word,
    so vertex parities are plain XORs of the incident blocks."""

    block_size: int
    symbols: Dict[int, bytes]

    def copy(self) -> "StorageState":
        return StorageState(self.block_size, dict(self.symbols))

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

    The generator basis has one vector per non-tree edge: the edge plus the
    tree path between its endpoints.  The incidence matrix H of a connected
    graph has rank n - 1 over GF(2) (its rows sum to zero, and any n - 1 of
    them are independent); the BFS tree proves connectivity, so rank(H) =
    n - 1 and k = m - n + 1 with no elimination.  `gf2_rank` stays as the
    independent oracle for tests.
    """
    if g.vertex_count == 0:
        raise DisconnectedError("empty graph")
    m = g.edge_count
    vertex_edges = tuple(tuple(ei for ei, _ in g.incident(v)) for v in range(g.vertex_count))
    rows = [sum(1 << ei for ei in edges) for edges in vertex_edges]

    tree_edges, parent_pairs = _bfs_tree(g)
    tree_set = set(tree_edges)
    info_set = [ei for ei in range(m) if ei not in tree_set]

    # tree path supports via XOR of root paths
    path_to_root = [0] * g.vertex_count
    for ei, child in parent_pairs:
        u, v = g.edges[ei]
        parent = u if v == child else v
        path_to_root[child] = path_to_root[parent] ^ (1 << ei)

    basis = []
    for ei in info_set:
        u, v = g.edges[ei]
        basis.append((1 << ei) ^ path_to_root[u] ^ path_to_root[v])

    rank = g.vertex_count - 1
    return ParityCode(
        length=m,
        parity_rows=tuple(rows),
        vertex_edges=vertex_edges,
        rank=rank,
        dimension=m - rank,
        generator_basis=tuple(basis),
        information_set=tuple(info_set),
        tree_order=tuple(reversed(parent_pairs)),
    )


def brute_force_min_weight(code: ParityCode) -> int:
    """Minimum nonzero codeword weight by enumerating the whole code."""
    k = len(code.generator_basis)
    if k == 0:
        raise AcyclicError("trivial code has no nonzero codeword")
    # Gray-code walk: one basis XOR per codeword
    basis = code.generator_basis
    word = 0
    best = code.length + 1
    for step in range(1, 1 << k):
        word ^= basis[(step & -step).bit_length() - 1]
        w = bin(word).count("1")
        if w < best:
            best = w
    return best


def minimum_distance(code: ParityCode, g: Graph) -> int:
    """Minimum distance of the cycle-space code: the girth of the graph.

    Every nonzero codeword is an edge-disjoint union of cycles, so none is
    lighter than the girth, and a shortest cycle is a codeword of exactly
    that weight.  The cycle is checked against the parity rows, which
    catches a code derived from another graph; `brute_force_min_weight`
    stays as the independent oracle for tests.
    """
    cycle = shortest_cycle(g)
    if cycle is None:
        raise AcyclicError("acyclic graph: code distance undefined")
    if not code.is_codeword(sum(1 << ei for ei in cycle)):
        raise AssertionError("girth cycle is not a codeword")
    return len(cycle)


class _BlockInts(dict):
    """Per-call int view of a state's blocks, filled on first read: each
    block is length-checked and converted with `int.from_bytes` once, so
    a parity is a few big-int XORs instead of a loop over bytes."""

    def __init__(self, state: StorageState):
        super().__init__()
        self.state = state

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


def _parity(code: ParityCode, ints: _BlockInts, v: int, skip: int = -1) -> int:
    """XOR of the blocks on the edges at vertex v, leaving out edge `skip`.

    With no edge skipped this is v's parity check, zero in a valid state;
    skipping an edge gives the block that edge must hold (locality 2).
    """
    acc = 0
    for ei in code.vertex_edges[v]:
        if ei != skip:
            acc ^= ints[ei]
    return acc


def fill_edges(code: ParityCode, state: StorageState, steps: Iterable[Tuple[int, int]]) -> None:
    """For each (edge, vertex) step in order, set the edge's block to the XOR
    of the other blocks at the vertex.

    A block read must be present, or set by an earlier step, and hold
    `block_size` bytes; otherwise `EncodingError` names its edge.
    """
    ints = _BlockInts(state)
    for e, v in steps:
        x = ints[e] = _parity(code, ints, v, skip=e)
        state.symbols[e] = x.to_bytes(state.block_size, "little")


def encode(code: ParityCode, data: Sequence[bytes]) -> StorageState:
    """Systematic encode: data blocks land verbatim on the information-set
    edges; tree edges are filled leaf-upward so every vertex parity holds."""
    k = len(code.information_set)
    if len(data) != k:
        raise EncodingError(f"expected {k} data blocks, got {len(data)}")
    state = StorageState(len(data[0]) if data else 0, {})
    for ei, block in zip(code.information_set, data):
        state.symbols[ei] = bytes(block)
    # leaf-up: when a tree edge is processed, all other edges at its child
    # endpoint are already set.  Every non-tree edge ends at a tree edge's
    # child, so every data block is read, and length-checked, once.
    fill_edges(code, state, code.tree_order)
    return state


def verify_state(code: ParityCode, state: StorageState) -> bool:
    """True iff the XOR of incident blocks is zero at every vertex."""
    if set(state.symbols) != set(range(code.length)):
        return False
    if any(len(blk) != state.block_size for blk in state.symbols.values()):
        return False
    ints = _BlockInts(state)
    return not any(_parity(code, ints, v) for v in range(len(code.vertex_edges)))
