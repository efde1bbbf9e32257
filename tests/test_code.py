import collections
import dataclasses
import functools
import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import k5_reference_system, petersen, random_4_regular
from graphdss.code import (
    DisconnectedError,
    EncodingError,
    ParityCode,
    StorageState,
    derive_code,
    encode,
    fill_edges,
    verify_state,
)
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset, Graph, girth
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy, peel, repair_disks, repair_state

from conftest import (
    AcyclicError,
    brute_force_min_weight,
    fundamental_cycle_basis,
    gf2_rank,
    is_codeword,
    minimum_distance,
    parity_rows,
    system_from_cage,
)
from test_cubic import k44_reference_system
from test_payloads import _without
from test_scale import _peak_mib

TRIANGLE = Graph(3, [(0, 1), (1, 2), (2, 0)])


def test_rank_of_triangle_incidence():
    code = derive_code(TRIANGLE)
    assert gf2_rank(parity_rows(code)) == 2
    assert code.dimension == code.length - 2 == 1
    assert fundamental_cycle_basis(TRIANGLE) == [0b111]


def test_petersen_system_code_parameters():
    code = derive_code(k5_reference_system("girth5").cubic)
    assert (code.length, code.dimension) == (15, 6)


def test_k44_system_code_parameters():
    code = derive_code(k44_reference_system().cubic)
    assert (code.length, code.dimension) == (24, 9)


def test_parity_rows_have_three_ones_on_cubic_graph():
    code = derive_code(petersen().graph)
    assert all(bin(r).count("1") == 3 for r in parity_rows(code))


def test_the_code_is_its_graph(monkeypatch):
    # the code keeps the graph it was derived from, not a copy of its
    # incidence: derive_code reads no vertex's incidence pairs
    g = k44_reference_system().cubic
    calls = []
    incident = Graph.incident
    monkeypatch.setattr(Graph, "incident", lambda self, v: calls.append(v) or incident(self, v))
    code = derive_code(g)
    assert calls == []
    assert [f.name for f in dataclasses.fields(ParityCode)] == [
        "graph", "information_set", "tree_order"]
    assert code.graph is g
    assert (code.length, code.dimension) == (g.edge_count, g.edge_count - g.vertex_count + 1)
    with pytest.raises(TypeError, match="unhashable"):
        hash(code)
    # the parity rows, built from the graph's incidence, have as supports
    # the edges whose ends hold the vertex
    rows = parity_rows(code)
    assert len(rows) == g.vertex_count
    for v, row in enumerate(rows):
        assert [j for j in range(code.length) if (row >> j) & 1] == [
            j for j, e in enumerate(g.edges) if v in e]


def test_generators_satisfy_all_parity_rows():
    g = k44_reference_system().cubic
    code = derive_code(g)
    basis = fundamental_cycle_basis(g)
    assert len(basis) == code.dimension
    for vec in basis:
        assert is_codeword(code, vec)


def test_rank_is_vertices_minus_one(cage_systems):
    g200 = random_4_regular(200, seed=1)
    system200 = build_cubic(orient_from_tour(g200, eulerian_tour(g200)), PairingMode.PARALLEL)
    graphs = [TRIANGLE, petersen().graph, k44_reference_system().cubic, system200.cubic]
    graphs += [sysm.cubic for sysm, _ in cage_systems.values()]
    for g in graphs:
        code = derive_code(g)
        # the rank by a fresh row reduction, and the dimension it leaves
        assert gf2_rank(parity_rows(code)) == g.vertex_count - 1
        assert code.dimension == code.length - (g.vertex_count - 1)


# sha256 of json.dumps([information_set, tree_order]) of derive_code on the
# block graph of "<source>" under the tour orientation and PARALLEL pairing:
# the state header records the information set, so a construction change
# that moves it must show here
DERIVE_CODE_DIGESTS = {
    "cage3": "0bcc55199e3d24d8bd78f0bb0848cd90384f39ecbea4340f22890df6dc6c8352",
    "cage4": "23cb9361624a2694ec3d13a7ac31c4eec0b7098687a2366a3503308dba765b27",
    "cage5": "df67f77fb55f378762b8dfd69da26b074e598656a19e6f2afb424eae9a39eec0",
    "cage6": "c52f2f816d8bb7ab4a53a40be89ac6ea108d02076c9005972f7e05068b32cc6f",
    "rr4-1000-1": "eb559f86ce18dd49b8f953be8562a8d54dad656bafe93aaa64d2869a40ee3755",
}


@pytest.mark.parametrize("source", sorted(DERIVE_CODE_DIGESTS))
def test_derive_code_keeps_its_output(source):
    if source.startswith("cage"):
        block = system_from_cage(int(source[4:]))[0].cubic
    else:
        g = random_4_regular(1000, 1)
        block = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).cubic
    code = derive_code(block)
    text = json.dumps([code.information_set, code.tree_order])
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVE_CODE_DIGESTS[source]


def test_derive_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        derive_code(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_derive_rejects_the_empty_graph():
    with pytest.raises(DisconnectedError, match="^empty graph$"):
        derive_code(Graph(0, []))


def test_minimum_distance_petersen_system():
    sys = k5_reference_system("girth5")
    code = derive_code(sys.cubic)
    assert minimum_distance(code, sys.cubic) == 5
    assert brute_force_min_weight(fundamental_cycle_basis(sys.cubic)) == 5


def test_minimum_distance_girth3_variant():
    sys = k5_reference_system("girth3")
    assert minimum_distance(derive_code(sys.cubic), sys.cubic) == 3


@pytest.mark.parametrize("name", ["k5-girth5", "k5-girth3", "k44", "petersen", "robertson"])
def test_distance_is_girth_on_every_enumerable_catalog_code(name):
    # every catalog code of dimension <= 20, the codes small enough to enumerate
    if name.startswith("k5-"):
        g = k5_reference_system(name[3:]).cubic
    elif name == "petersen":
        g = petersen().graph
    else:
        g = system_from_cage({"k44": 4, "robertson": 5}[name])[0].cubic
    code = derive_code(g)
    assert code.dimension <= 20
    assert brute_force_min_weight(fundamental_cycle_basis(g)) == minimum_distance(code, g) == girth(g)


def test_minimum_distance_rejects_code_of_another_graph():
    # a triangle of the girth-3 block graph is no codeword of the Petersen code
    code = derive_code(k5_reference_system("girth5").cubic)
    with pytest.raises(AssertionError):
        minimum_distance(code, k5_reference_system("girth3").cubic)


def test_minimum_distance_triangle():
    assert minimum_distance(derive_code(TRIANGLE), TRIANGLE) == 3


def test_minimum_distance_rejects_tree():
    tree = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(AcyclicError):
        minimum_distance(derive_code(tree), tree)


def test_encode_all_zero():
    code = derive_code(TRIANGLE)
    state = encode(code, [bytes(4)])
    assert all(blk == bytes(4) for blk in state.symbols.values())


def test_encode_triangle_replicates_block():
    code = derive_code(TRIANGLE)
    data = bytes([1, 2, 3, 4])
    state = encode(code, [data])
    # the single cycle forces all three edges to carry the same block
    assert set(state.symbols.values()) == {data}
    assert verify_state(code, state)


def test_encode_is_systematic():
    code = derive_code(k44_reference_system().cubic)
    rng = random.Random(11)
    data = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(code.dimension)]
    state = encode(code, data)
    assert verify_state(code, state)
    for ei, blk in zip(code.information_set, data):
        assert state.symbols[ei] == blk


def test_encode_rejects_wrong_block_count():
    code = derive_code(TRIANGLE)
    with pytest.raises(EncodingError):
        encode(code, [b"ab", b"cd"])


def test_encode_rejects_unequal_blocks():
    code = derive_code(k44_reference_system().cubic)
    data = [b"xx"] * (code.dimension - 1) + [b"xxx"]
    with pytest.raises(EncodingError):
        encode(code, data)


def test_verify_rejects_a_short_block():
    code = derive_code(petersen().graph)
    state = encode(code, [bytes(4)] * code.dimension)
    assert verify_state(code, state)
    state.symbols[7] = bytes(3)
    assert not verify_state(code, state)


def test_verify_detects_single_flip():
    code = derive_code(petersen().graph)
    rng = random.Random(5)
    data = [bytes(rng.randrange(256) for _ in range(4)) for _ in range(code.dimension)]
    state = encode(code, data)
    blk = bytearray(state.symbols[7])
    blk[0] ^= 1
    state.symbols[7] = bytes(blk)
    assert not verify_state(code, state)


def test_locality_two_single_erasure():
    # any one erased edge is recoverable from the 2 other symbols at either endpoint
    g = petersen().graph
    code = derive_code(g)
    rng = random.Random(9)
    data = [bytes(rng.randrange(256) for _ in range(4)) for _ in range(code.dimension)]
    state = encode(code, data)
    for ei, (u, v) in enumerate(g.edges):
        for vertex in (u, v):
            others = [ej for ej, _ in g.incident(vertex) if ej != ei]
            assert len(others) == 2
            rebuilt = bytes(
                a ^ b for a, b in zip(state.symbols[others[0]], state.symbols[others[1]])
            )
            assert rebuilt == state.symbols[ei]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_random_encode_round_trip(seed):
    code = derive_code(petersen().graph)
    rng = random.Random(seed)
    data = [bytes(rng.randrange(256) for _ in range(3)) for _ in range(code.dimension)]
    state = encode(code, data)
    assert verify_state(code, state)


@functools.lru_cache(maxsize=None)
def _cage_code(name):
    """The code of the k44 (girth 4) or pg23 (girth 6) cage's system."""
    return derive_code(system_from_cage({"k44": 4, "pg23": 6}[name])[0].cubic)


def _parities_hold(code, state) -> bool:
    """verify_state's contract, byte by byte: a block on each edge
    0..length-1 and on no other key, each block_size bytes long, and at
    every vertex the blocks XOR to zero in every byte position.  Each
    edge's block is XORed into the columns of its two ends, read from the
    graph's edge list, not its incidence pairs."""
    blocks, size = state.symbols, state.block_size
    if set(blocks) != set(range(code.length)):
        return False
    if any(len(blk) != size for blk in blocks.values()):
        return False
    columns = [[0] * size for _ in range(code.graph.vertex_count)]
    for e, ends in enumerate(code.graph.edges):
        for v in ends:
            for i, byte in enumerate(blocks[e]):
                columns[v][i] ^= byte
    return not any(any(column) for column in columns)


@given(
    name=st.sampled_from(["k44", "pg23"]),
    size=st.integers(min_value=1, max_value=6),
    fault=st.sampled_from(["none", "flipped byte", "missing block", "extra key", "short block"]),
    data=st.data(),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_verify_state_and_fill_edges_match_a_byte_xor_oracle(name, size, fault, data):
    code = _cage_code(name)
    blocks = [data.draw(st.binary(min_size=size, max_size=size)) for _ in range(code.dimension)]
    state = encode(code, blocks)
    e = data.draw(st.integers(0, code.length - 1))
    if fault == "flipped byte":
        blk = bytearray(state.symbols[e])
        blk[data.draw(st.integers(0, size - 1))] ^= data.draw(st.integers(1, 255))
        state.symbols[e] = bytes(blk)
    elif fault == "missing block":
        del state.symbols[e]
    elif fault == "extra key":
        state.symbols[data.draw(st.sampled_from([-1, code.length, code.length + 7]))] = bytes(size)
    elif fault == "short block":
        state.symbols[e] = state.symbols[e][:-1]
    assert verify_state(code, state) == _parities_hold(code, state) == (fault == "none")

    # refilling the tree edges from the information set gives encode's
    # state, or names the missing or short data block
    info = [state.symbols.get(ei) for ei in code.information_set]
    refilled = StorageState(size, dict(state.symbols))
    if all(blk is not None and len(blk) == size for blk in info):
        fill_edges(code, refilled, code.tree_order)
        encoded = encode(code, info)
        assert _parities_hold(code, encoded)
        assert {ei: refilled.symbols[ei] for ei in range(code.length)} == encoded.symbols
    else:
        with pytest.raises(EncodingError, match=f"edge {e}"):
            fill_edges(code, refilled, code.tree_order)


def test_kernel_at_degree_one_and_zero():
    # a degree-1 vertex checks that its one block is zero, and filling that
    # block from the vertex writes zeros
    g = Graph(2, [(0, 1)])
    code = derive_code(g)
    state = StorageState(4, {0: b"\x01\x02\x03\x04"})
    assert not verify_state(code, state)
    fill_edges(code, state, [(0, 1)])
    assert state.symbols == {0: bytes(4)}
    assert verify_state(code, state)
    # a vertex with no edge has no check
    assert verify_state(derive_code(Graph(1, [])), StorageState(4, {}))


@pytest.mark.parametrize(
    "bad, message",
    [
        # edge 1 is not at vertex 0: the step would overwrite a good block
        # with the XOR of vertex 0's blocks
        ((1, 0), r"step \(1, 0\): edge 1 is not at vertex 0"),
        ((0, 10), r"step \(0, 10\): no vertex 10"),
        # a negative vertex would index the edge lists from the end
        ((0, -1), r"step \(0, -1\): no vertex -1"),
        # the block graph has 15 edges, and edge -1 would index the edge
        # list from the end, to (3, 9), the last edge, which is at vertex 3
        ((-1, 3), r"step \(-1, 3\): edge -1 is not at vertex 3"),
        ((15, 3), r"step \(15, 3\): edge 15 is not at vertex 3"),
    ],
    ids=["edge-not-at-vertex", "vertex-past-the-end", "negative-vertex",
         "negative-edge", "edge-past-the-end"],
)
def test_fill_edges_rejects_a_malformed_step_before_writing(bad, message):
    code = derive_code(k5_reference_system("girth5").cubic)
    assert (code.length, code.graph.edges[-1]) == (15, (3, 9))
    rng = random.Random(3)
    state = encode(code, [rng.randbytes(4) for _ in range(code.dimension)])
    e, v = code.tree_order[0]
    damaged = StorageState(4, {ei: b for ei, b in state.symbols.items() if ei != e})
    before = dict(damaged.symbols)
    with pytest.raises(EncodingError, match=message):
        fill_edges(code, damaged, [(e, v), bad])
    assert damaged.symbols == before  # not even the good first step ran
    fill_edges(code, damaged, [(e, v)])
    assert damaged.symbols == state.symbols


def _fill_by_bytes(code, blocks, steps):
    """fill_edges's contract, byte by byte: each step in order sets its
    edge's block to the XOR, in every byte position, of the blocks on the
    other edges whose ends hold its vertex, read from the graph's edge
    list, not its incidence pairs."""
    blocks = dict(blocks)
    for e, v in steps:
        column = [0] * len(blocks[e])
        for f, ends in enumerate(code.graph.edges):
            if f != e and v in ends:
                for i, byte in enumerate(blocks[f]):
                    column[i] ^= byte
        blocks[e] = bytes(column)
    return blocks


@pytest.mark.parametrize("schedule", ["vertex twice", "rewrite a read block", "vertex 300 times"])
def test_fill_edges_is_exact_on_a_hand_made_schedule(schedule):
    """Schedules that no library caller makes, on k44's block graph with a
    random block on every edge, against a per-byte XOR oracle.  Vertex 0
    has edges a, b and c, and b's other end is r:
    - "vertex twice": (a, 0), (b, r), (c, 0).  The first step reads b for
      r's step, which rewrites b before the second step at 0 reads it.
    - "rewrite a read block": (x, r), (b, 0), (a, 0).  r's step reads b
      while vertex 0 has steps to come, then 0 rewrites b and reads the new
      block, not the one r read.
    - "vertex 300 times": (a, 0), (b, 0), 150 times over.  Every step
      after the first at 0 reads blocks that the first steps there wrote."""
    code = _cage_code("k44")
    (a, _), (b, r), (c, _) = code.graph.incident(0)
    x = next(f for f, _ in code.graph.incident(r) if f != b)
    steps = {"vertex twice": [(a, 0), (b, r), (c, 0)],
             "rewrite a read block": [(x, r), (b, 0), (a, 0)],
             "vertex 300 times": [(a, 0), (b, 0)] * 150}[schedule]
    rng = random.Random(schedule)
    blocks = {e: rng.randbytes(8) for e in range(code.length)}
    state = StorageState(8, dict(blocks))
    fill_edges(code, state, steps)
    assert state.symbols == _fill_by_bytes(code, blocks, steps)


@functools.lru_cache(maxsize=None)
def _pg23_repairs():
    """The pg23 system's code and eight seeded repair reports: sets of 1,
    2, 3 and 5 disks through `repair_disks`, fewer than girth(G) = 6, and
    sets of 1 to 4 blocks through `peel`, fewer than girth(B) = 6, two
    under each strategy."""
    system = system_from_cage(6)[0]
    m, rng = system.cubic.edge_count, random.Random("pg23 repairs")
    reports = [repair_disks(system, rng.sample(range(len(system.disks)), count))
               for count in (1, 2, 3, 5)]
    for strategy in (RepairStrategy.MIN_ROUNDS, RepairStrategy.MIN_BANDWIDTH) * 2:
        blocks = rng.sample(range(m), rng.randint(1, 4))
        reports.append(peel(system, EdgeSubset.from_indices(m, blocks), strategy))
    return derive_code(system.cubic), reports


def _conversions(fn):
    """fn's result, then the C calls of `int.from_bytes` and of
    `int.to_bytes` while it runs, counted by a `sys.setprofile` hook."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "c_call":
            calls[getattr(arg, "__qualname__", None)] += 1

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(before)
    return result, calls["int.from_bytes"], calls["int.to_bytes"]


def test_each_phase_converts_each_block_it_reads_or_writes_once():
    """ROADMAP item 31's conversion formula on eight pg23 repairs of 4 KiB
    blocks: `encode` converts the k data blocks it reads and the m - k tree
    blocks it writes, `repair_state` the transferred helper blocks and the
    recovered ones, and `verify_state` the m blocks; summed, k + m +
    transferred `int.from_bytes` calls and (m - k) + recovered
    `int.to_bytes` calls.  A kernel that drops an int a later step reads
    converts that block again."""
    code, reports = _pg23_repairs()
    m, k, size = code.length, code.dimension, 4096
    rng = random.Random("conversions")
    for report in reports:
        data = [rng.randbytes(size) for _ in range(k)]
        state, *encoding = _conversions(lambda: encode(code, data))
        damaged = _without(state, set(report.erased.indices()))
        rebuilt, *repairing = _conversions(lambda: repair_state(code, damaged, report))
        ok, *verifying = _conversions(lambda: verify_state(code, rebuilt))
        assert ok and rebuilt.symbols == state.symbols
        assert (encoding, repairing, verifying) == (
            [k, m - k], [report.transferred_symbols, len(report.recovered)], [m, 0]), report


def test_each_phase_holds_a_block_int_only_until_the_step_at_its_other_end():
    """The tracemalloc peak of each phase on a pg23 stripe of 64 KiB
    blocks, in blocks, bounded by the kernel's measured peak plus 3:
    `encode` 56 (its 51 written tree blocks and the ints kept for steps to
    come), `repair_state` 2 beside the blocks it writes, and `verify_state`
    22.  Keeping every int read or written to the end of the call took
    134, 10 to 50, and 84."""
    code, reports = _pg23_repairs()
    size = 64 * 1024
    rng = random.Random("live set")
    data = [rng.randbytes(size) for _ in range(code.dimension)]
    state = encode(code, data)

    def peak_blocks(fn):
        return _peak_mib(fn) * 2**20 / size

    assert peak_blocks(lambda: encode(code, data)) < 56 + 3
    assert peak_blocks(lambda: verify_state(code, state)) < 22 + 3
    for report in reports:
        damaged = _without(state, set(report.erased.indices()))
        assert peak_blocks(lambda: repair_state(code, damaged, report)) < len(report.recovered) + 2 + 3
