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
from typing import Dict, List, Sequence, Tuple

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
    """Cycle-space code data: parity rows, a fundamental-cycle generator
    basis, and a systematic information set (the non-tree edges)."""

    length: int
    parity_rows: Tuple[int, ...]
    rank: int
    dimension: int
    generator_basis: Tuple[int, ...]
    information_set: Tuple[int, ...]
    tree_order: Tuple[Tuple[int, int], ...]  # (tree edge, child vertex), leaf-up

    def is_codeword(self, word: int) -> bool:
        return all(bin(row & word).count("1") % 2 == 0 for row in self.parity_rows)

    def parity_matrix_text(self) -> str:
        return "\n".join(
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.length))
            for row in self.parity_rows
        )


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
    rows = []
    for v in range(g.vertex_count):
        row = 0
        for ei, _ in g.incident(v):
            row |= 1 << ei
        rows.append(row)

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


def minimum_distance(code: ParityCode, g: Graph, brute_force_limit: int = 1 << 20) -> int:
    """Minimum distance of the cycle-space code: the girth of the graph.

    Cross-checked by exhaustive minimum-weight search when the code is
    small enough, otherwise by exhibiting a shortest cycle as a codeword.
    """
    cycle = shortest_cycle(g)
    if cycle is None:
        raise AcyclicError("acyclic graph: code distance undefined")
    gv = len(cycle)
    if (1 << code.dimension) <= brute_force_limit:
        bf = brute_force_min_weight(code)
        if bf != gv:
            raise AssertionError(f"brute-force distance {bf} != girth {gv}")
    else:
        # too large to enumerate: exhibit a shortest cycle as a codeword of
        # weight girth (girth is the lower bound: codeword supports are
        # edge-disjoint unions of cycles)
        cyc = sum(1 << ei for ei in cycle)
        if not code.is_codeword(cyc) or bin(cyc).count("1") != gv:
            raise AssertionError("girth cycle is not a codeword")
    return gv


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def encode(code: ParityCode, data: Sequence[bytes]) -> StorageState:
    """Systematic encode: data blocks land verbatim on the information-set
    edges; tree edges are filled leaf-upward so every vertex parity holds."""
    k = len(code.information_set)
    if len(data) != k:
        raise EncodingError(f"expected {k} data blocks, got {len(data)}")
    sizes = {len(b) for b in data}
    if len(sizes) > 1:
        raise EncodingError("data blocks must all have the same size")
    s = sizes.pop() if sizes else 0

    symbols: Dict[int, bytes] = {}
    for ei, block in zip(code.information_set, data):
        symbols[ei] = bytes(block)
    zero = bytes(s)
    # leaf-up: when a tree edge is processed, all other edges at its child
    # endpoint are already set
    for ei, child in code.tree_order:
        acc = zero
        for ej, _ in _incident_cache(code, child):
            if ej != ei:
                acc = _xor_bytes(acc, symbols[ej])
        symbols[ei] = acc
    return StorageState(s, symbols)


def _incident_cache(code: ParityCode, v: int):
    row = code.parity_rows[v]
    out = []
    while row:
        ei = (row & -row).bit_length() - 1
        out.append((ei, v))
        row &= row - 1
    return out


def verify_state(code: ParityCode, state: StorageState) -> bool:
    """True iff the XOR of incident blocks is zero at every vertex."""
    if set(state.symbols) != set(range(code.length)):
        return False
    zero = bytes(state.block_size)
    for v in range(len(code.parity_rows)):
        acc = zero
        for ei, _ in _incident_cache(code, v):
            blk = state.symbols[ei]
            if len(blk) != state.block_size:
                return False
            acc = _xor_bytes(acc, blk)
        if acc != zero:
            return False
    return True
