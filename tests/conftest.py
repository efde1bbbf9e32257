
import itertools
import json
import random
from collections import deque

import pytest

from graphdss.catalog import RANDOM_REGULAR_TRIES, GenerationFailed, cage
from graphdss.code import DisconnectedError, ParityCode, StorageState
from graphdss.cubic import CubicSystem, InvalidSystemError, PairingMode, build_cubic
from graphdss.graphs import (EdgeSubset, Graph, GraphError, bfs_tree, degree_sequence, girth,
                             is_connected, shortest_cycle)
from graphdss.orientation import (InvalidTourError, NotEulerianError, OrientedGraph,
                                  eulerian_tour, orient_from_tour)
from graphdss.repair import RepairReport, RepairStrategy


def system_from_cage(g_girth: int):
    g = cage(g_girth).graph
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL), g


@pytest.fixture(scope="session")
def cage_systems():
    """(system, source graph) for the four built-in cages, keyed by girth."""
    return {gg: system_from_cage(gg) for gg in (3, 4, 5, 6)}


# each peeling rule by the name that its golden digests and test ids carry
PEEL_RULES = {"peel": RepairStrategy.MIN_ROUNDS,
              "peel_min_bandwidth": RepairStrategy.MIN_BANDWIDTH}


def load_by_rebuilding(text: str) -> CubicSystem:
    """`CubicSystem.from_obj` with its policy check as first written: the
    file loads without its "policy" key, then `build_cubic` builds a whole
    second system from an `OrientedGraph` of the arc names under the
    policy, and each disk must equal, in either direction, the built disk
    of its owner.  Oracle for the check that pairs the arcs directly; it
    reads each mode after the rest of the file, so it agrees on files whose
    modes all parse."""
    obj = json.loads(text)
    modes = obj.pop("policy", None)
    system = CubicSystem.from_obj(obj)
    if modes is None:
        return system
    policy = tuple(PairingMode(m) for m in modes)
    n = len(system.disks)
    if len(policy) != n:
        raise InvalidSystemError(f"policy has {len(policy)} modes for {n} disks")
    built = build_cubic(OrientedGraph(n, system.arc_names), policy).disks
    for d, (path, v) in enumerate(zip(system.disks, system.disk_owner)):
        if path != built[v] and path[::-1] != built[v]:
            raise InvalidSystemError(
                f"disk {d} is not the {policy[v].value} pairing of vertex {v}'s arcs")
    return CubicSystem(system.cubic, system.disks, system.disk_owner, system.arc_names, policy)


def outcome(call):
    """The value of `call()`, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def copy_state(state: StorageState) -> StorageState:
    """A state with its own `symbols` dict, for a damaged copy that
    `repair_state` may fill in place."""
    return StorageState(state.block_size, dict(state.symbols))


def session_report(g: Graph, erased: EdgeSubset, lost, schedule) -> RepairReport:
    """The report of a recovery schedule, counted from the schedule alone:
    each distinct intact edge at a step's parity vertex is one transfer
    (an erased edge is read only after an earlier step recovered it), the
    rounds are the highest step round, and the residual is `lost` less the
    recovered edges.  Oracle for the peel's own bookkeeping and for
    `repair_disk`'s pricing."""
    recovered = {e for e, _, _ in schedule}
    reads = {ei for e, v, _ in schedule for ei, _ in g.incident(v)
             if ei != e and ei not in lost}
    return RepairReport(
        recovered=tuple(schedule),
        transferred_symbols=len(reads),
        rounds=max((r for _, _, r in schedule), default=0),
        residual=EdgeSubset.from_indices(erased.size, set(lost) - recovered),
        erased=erased,
    )


def all_simple_cycles(g: Graph):
    """Every simple cycle as a frozenset of edge indices, by DFS from each
    start vertex; only for small graphs.  Independent oracle for girth and
    cycle-containment checks."""
    cycles = set()
    for start in range(g.vertex_count):
        stack = [(start, [start], [])]
        while stack:
            u, path, edges = stack.pop()
            for ei, v in g.incident(u):
                if edges and ei == edges[-1]:
                    continue
                if v == start and len(edges) >= 2:
                    cycles.add(frozenset(edges + [ei]))
                elif v not in path and v > start:
                    stack.append((v, path + [v], edges + [ei]))
                elif v == start:
                    continue
    return cycles


def has_cycle(g: Graph, edges) -> bool:
    """True iff the distinct edges contain a cycle, by union-find with a
    fresh forest: some edge joins two vertices that the edges before it
    already connect.  Per-subset oracle for the recovery-bound walk."""
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


def owners_induce_cycle(g: Graph, owners) -> bool:
    """True iff the vertices `owners` induce a subgraph of G with a cycle:
    `has_cycle` over the edges of G with both ends among them.  Oracle for
    the theorem in `verify_recovery_bound`'s docstring: a set of lost disks
    loses data iff its owners induce a cycle of G."""
    inside = set(owners)
    return has_cycle(g, sorted({ei for u in inside for ei, v in g.incident(u) if v in inside}))


def count_cycles(g: Graph, length: int) -> int:
    """The number of simple cycles of `length` >= 3 edges in a simple graph,
    by DFS from each vertex as the least of its cycle, no deeper than
    `length`; each cycle is walked in both directions, hence the halving."""
    count = 0
    for start in range(g.vertex_count):
        stack = [(start, (start,))]
        while stack:
            u, path = stack.pop()
            if len(path) == length:
                count += sum(v == start for _, v in g.incident(u))
                continue
            stack.extend((v, path + (v,)) for _, v in g.incident(u)
                         if v > start and v not in path)
    return count // 2


def _fewest_cyclic_disks(sys) -> float:
    """The fewest disks whose block edges contain a cycle; math.inf if none.

    Let I be the bipartite graph joining disk d (vertex d) to the 4 block
    vertices v of its path (vertex n + v).  For a disk set D touching the
    block vertices V in c components, D's paths have 3|D| edges and the part
    of I on D has 4|D| edges on |D| + |V| vertices in the same c
    components, so both have cycle rank 3|D| - |V| + c.  D's blocks thus
    contain a cycle iff I has a cycle through disks of D only, and a cycle
    of length 2L in I passes through L disks: the answer is girth(I) / 2.
    Oracle for the star-layout theorem behind `verify_recovery_bound`; it
    holds for any P4 decomposition, star layout or not.
    """
    n = len(sys.disks)
    incidence = Graph(
        n + sys.cubic.vertex_count,
        [(d, n + v) for d, path in enumerate(sys.disks) for v in path],
    )
    return girth(incidence) / 2


def _paths_contain_cycle(paths) -> bool:
    """True iff the block edges of the given disk paths contain a cycle.

    A union-find over the paths' vertices alone, fresh per call.  Disks are
    edge-disjoint 3-edge paths through 4 distinct vertices, so a path
    closes a cycle iff two of its vertices already share a component.
    """
    parent = {}  # non-root vertex -> its parent

    def find(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    for path in paths:
        roots = {find(v) for v in path}
        if len(roots) < len(path):
            return True
        root = roots.pop()
        for r in roots:
            parent[r] = root
    return False


def edges_span_one_component(g: Graph) -> bool:
    """True iff every edge lies in the component of the smallest vertex
    with an edge: a BFS from it reaches every vertex that has an edge.
    Oracle for the connectivity verdict of `eulerian_tour`, which reads it
    off the length of its walk instead."""
    active = [v for v in range(g.vertex_count) if g.incident(v)]
    return not active or len(bfs_tree(g, active[0])) == len(active) - 1


def _walk_vertices(g: Graph, tour):
    """Vertex sequence of the walk, length len(tour)+1; raises if the edge
    sequence is not a chained walk."""
    if not tour:
        return []
    if len(tour) == 1:
        raise InvalidTourError("a single edge cannot form a closed tour")
    a0, b0 = g.edges[tour[0]]
    a1, b1 = g.edges[tour[1]]
    shared = {a0, b0} & {a1, b1}
    if not shared:
        raise InvalidTourError("first two edges do not share a vertex")
    second = min(shared)  # simple graph: at most one shared vertex
    first = a0 if b0 == second else b0
    verts = [first, second]
    for ei in tour[1:]:
        u, v = g.edges[ei]
        if verts[-1] == u:
            verts.append(v)
        elif verts[-1] == v:
            verts.append(u)
        else:
            raise InvalidTourError(f"edge {ei} does not continue the walk")
    return verts


def two_pass_orient_from_tour(g: Graph, tour) -> OrientedGraph:
    """`orient_from_tour` as first written: a sorted check that the tour
    uses every edge once, a walk for the vertex sequence, then a second
    walk into a dict.  Oracle for the one-walk version."""
    if sorted(tour) != list(range(g.edge_count)):
        raise InvalidTourError("tour must use every edge exactly once")
    verts = _walk_vertices(g, tour)
    if verts and verts[0] != verts[-1]:
        raise InvalidTourError("tour is not closed")
    directed = {}
    for k, ei in enumerate(tour):
        directed[ei] = (verts[k], verts[k + 1])
    return OrientedGraph(g.vertex_count, tuple(directed[i] for i in range(g.edge_count)))


def random_regular_oracle(d: int, n: int, seed: int) -> Graph:
    """The configuration model as first written: each try shuffles a fresh
    stub list with `random.shuffle` and scans every pair.  Independent
    oracle for `catalog.random_regular`, which must return the same graph
    or raise `GenerationFailed` on the same inputs."""
    if n <= d or n * d % 2:
        raise GenerationFailed(
            f"a {d}-regular graph needs more than {d} vertices and an even n*d"
        )
    rng = random.Random(f"{d}reg:{n}:{seed}")
    for _ in range(RANDOM_REGULAR_TRIES):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph(n, sorted(edges))
        if is_connected(g):
            return g
    raise GenerationFailed(f"no simple connected {d}-regular graph after {RANDOM_REGULAR_TRIES} tries")


class AcyclicError(ValueError):
    """The graph is a tree: the code is trivial and distance is undefined."""


def parity_rows(code):
    """The parity-check matrix of a derived code, one edge bitset per
    vertex, built from the code's graph; the library keeps only the graph."""
    return [sum(1 << ei for ei, _ in code.graph.incident(v))
            for v in range(code.graph.vertex_count)]


def is_codeword(code, word: int) -> bool:
    """True iff the edge bitset passes every parity check of the code."""
    return all(bin(row & word).count("1") % 2 == 0 for row in parity_rows(code))


def minimum_distance(code, g: Graph) -> int:
    """Minimum distance of the cycle-space code: the girth of the graph.

    Every nonzero codeword is an edge-disjoint union of cycles, so none is
    lighter than the girth, and a shortest cycle is a codeword of exactly
    that weight.  The cycle is checked against the code's parity rows,
    which catches a code derived from another graph."""
    cycle = shortest_cycle(g)
    if cycle is None:
        raise AcyclicError("acyclic graph: code distance undefined")
    if not is_codeword(code, sum(1 << ei for ei in cycle)):
        raise AssertionError("girth cycle is not a codeword")
    return len(cycle)


def gf2_rank(rows) -> int:
    """Rank of bitset-packed rows over GF(2) by Gaussian elimination.
    Independent oracle for the rank = n - 1 theorem that `derive_code` uses."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def fundamental_cycle_basis(g: Graph):
    """One edge bitset per non-tree edge of a BFS spanning tree from vertex
    0: the edge plus the tree path between its endpoints.  The graph must be
    connected."""
    path = {0: 0}  # vertex -> bitset of the tree edges from the root to it
    tree = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for ei, v in g.incident(u):
            if v not in path:
                path[v] = path[u] | (1 << ei)
                tree.add(ei)
                queue.append(v)
    return [(1 << ei) ^ path[u] ^ path[v]
            for ei, (u, v) in enumerate(g.edges) if ei not in tree]


def brute_force_min_weight(basis) -> int:
    """Minimum nonzero codeword weight by enumerating every combination of
    the basis, one XOR per codeword (Gray-code walk)."""
    if not basis:
        raise AcyclicError("trivial code has no nonzero codeword")
    word = 0
    best = None
    for step in range(1, 1 << len(basis)):
        word ^= basis[(step & -step).bit_length() - 1]
        w = bin(word).count("1")
        if best is None or w < best:
            best = w
    return best


# The construction loops as first written, kept as oracles for the rewrites
# that take fewer Python steps per element; each must give the same output,
# and the same exception type and message, on every input.

def pg23_incidence_oracle() -> Graph:
    """The point-line incidence graph of PG(2,3) from homogeneous
    coordinates, the construction that `catalog.cage(6)`'s pinned edge and
    label lists were taken from: a generator finds each triple's first
    nonzero coordinate, and a generator inside `sum` takes each of the 169
    dot products."""
    triples = []
    for x in itertools.product(range(3), repeat=3):
        if x == (0, 0, 0):
            continue
        lead = next(v for v in x if v)
        if lead == 1:
            triples.append(x)
    edges = []
    for p, point in enumerate(triples):
        for l, line in enumerate(triples):
            if sum(a * b for a, b in zip(point, line)) % 3 == 0:
                edges.append((p, 13 + l))
    labels = [f"p{t}" for t in triples] + [f"l{t}" for t in triples]
    return Graph(26, edges, vertex_labels=labels)


def eulerian_tour_oracle(g: Graph):
    """`orientation.eulerian_tour` as first written: a stack of (vertex,
    edge taken) tuples and a pointer per vertex that is re-scanned past
    used incidences each time the vertex is on top."""
    degs = degree_sequence(g)
    odd = [v for v, d in enumerate(degs) if d % 2]
    if odd:
        raise NotEulerianError(f"odd-degree vertices: {odd}")
    if g.edge_count == 0:
        return []
    used = [False] * g.edge_count
    ptr = [0] * g.vertex_count
    start = next(v for v, d in enumerate(degs) if d)
    stack = [(start, -1)]
    tour_edges = []
    while stack:
        v, _ = stack[-1]
        inc = g.incident(v)
        while ptr[v] < len(inc) and used[inc[ptr[v]][0]]:
            ptr[v] += 1
        if ptr[v] == len(inc):
            _, ein = stack.pop()
            if ein >= 0:
                tour_edges.append(ein)
        else:
            ei, w = inc[ptr[v]]
            used[ei] = True
            stack.append((w, ei))
    if len(tour_edges) != g.edge_count:
        raise NotEulerianError("graph is disconnected")
    tour_edges.reverse()
    return tour_edges


def graph_tables_oracle(vertex_count: int, edges):
    """The edge tuple and incidence table that `Graph.__init__` as first
    written builds: per edge, a self-loop test, then a range test, then a
    set-membership test for a duplicate; GraphError naming the first bad
    edge."""
    if vertex_count < 0:
        raise GraphError("vertex_count must be non-negative")
    n = vertex_count
    seen = set()
    edge_list = []
    inc = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has endpoint out of range")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        i = len(edge_list)
        edge_list.append((u, v))
        inc[u].append((i, v))
        inc[v].append((i, u))
    return tuple(edge_list), tuple(tuple(x) for x in inc)


def derive_code_oracle(g: Graph) -> ParityCode:
    """`code.derive_code` as first written: generators inside `tuple()`
    and a set of tree edges scanned once per edge."""
    if g.vertex_count == 0:
        raise DisconnectedError("empty graph")
    parent_pairs = bfs_tree(g, 0)
    if len(parent_pairs) != g.vertex_count - 1:
        raise DisconnectedError("graph is disconnected")
    tree_set = {ei for ei, _ in parent_pairs}
    info_set = [ei for ei in range(g.edge_count) if ei not in tree_set]
    return ParityCode(
        graph=g,
        information_set=tuple(info_set),
        tree_order=tuple(reversed(parent_pairs)),
    )
