import functools
import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import cage, complete_graph, petersen, random_4_regular, random_cubic
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import (
    EdgeSubset, Graph, GraphError, degree_sequence, girth, is_connected, read_graph_file,
    shortest_cycle, two_core,
)

from graphdss.orientation import eulerian_tour, orient_from_tour

from conftest import all_simple_cycles


PETERSEN = petersen().graph


@pytest.mark.parametrize("obj,edgeless", [
    ({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, False),
    ({"vertices": 4, "edges": [[0, 1], [1, 2]]}, False),  # as many ends as vertices
    ({"vertices": 5, "edges": [[0, 1], [1, 2]]}, True),
    ({"vertices": 10 ** 30, "edges": []}, True),
    ({"vertices": True, "edges": []}, False),  # malformed: left to Graph.from_obj
    ({"vertices": 5.0, "edges": []}, False),
    ({"vertices": 5, "edges": {}}, False),
    ({"edges": []}, False),
    ([5, []], False),
])
def test_declares_an_edgeless_vertex(tmp_path, monkeypatch, obj, edgeless):
    # the reader refuses a file whose declared vertices outnumber its edge
    # ends from the counts alone; any other file goes to Graph.from_obj
    passed = []
    monkeypatch.setattr(Graph, "from_obj", classmethod(lambda cls, o: passed.append(o)))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    if edgeless:
        with pytest.raises(GraphError, match=f"^input graph declares {obj['vertices']} vertices, "
                                             f"but its {len(obj['edges'])} edges"):
            read_graph_file(str(path), "input graph")
    else:
        read_graph_file(str(path), "input graph")
    assert passed == ([] if edgeless else [obj])


def test_degree_sequence_k5():
    assert degree_sequence(complete_graph(5)) == [4, 4, 4, 4, 4]


def test_degree_sequence_petersen():
    assert degree_sequence(PETERSEN) == [3] * 10


def test_degree_sequence_single_edge():
    assert degree_sequence(Graph(2, [(0, 1)])) == [1, 1]


def test_degree_sum_is_twice_edge_count():
    g = random_4_regular(10, seed=7)
    assert sum(degree_sequence(g)) == 2 * g.edge_count


def test_girth_petersen():
    assert girth(PETERSEN) == 5


def test_girth_k44():
    g = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    assert girth(g) == 4


def test_girth_tree_is_infinite():
    tree = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert girth(tree) == math.inf
    assert shortest_cycle(tree) is None


def test_girth_matches_exhaustive_cycle_enumeration():
    # every graph here has <= 12 edges
    graphs = [
        complete_graph(4),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
        Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
    ]
    for g in graphs:
        cycles = all_simple_cycles(g)
        expected = min(len(c) for c in cycles) if cycles else math.inf
        assert girth(g) == expected
        cycle = shortest_cycle(g)
        assert frozenset(cycle) in cycles and len(cycle) == expected


def test_girth_three_stops_the_root_loop(monkeypatch):
    g = random_4_regular(3000, 1)
    calls = 0
    incident = Graph.incident

    def counting(self, v):
        nonlocal calls
        calls += 1
        return incident(self, v)

    monkeypatch.setattr(Graph, "incident", counting)
    cycle = shortest_cycle(g)
    assert calls <= 4000, calls  # every root's BFS ran 16 584 calls
    assert set(cycle) == {358, 360, 2330}


@functools.lru_cache(maxsize=None)
def _source(name: str):
    """A 4-regular source graph: "cage<g>" or "rr4-<n>-<seed>"."""
    if name.startswith("cage"):
        return cage(int(name[4:])).graph
    _, n, seed = name.split("-")
    return random_4_regular(int(n), int(seed))


def _digest_case(case: str):
    if case == "petersen":
        return PETERSEN
    if case.startswith("cubic-"):
        _, n, seed = case.split("-")
        return random_cubic(int(n), int(seed))
    source, _, mode = case.partition(":")
    g = _source(source)
    if not mode:
        return g
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode(mode)).cubic


# sha256 of json.dumps(shortest_cycle(g)): "<source>" is a 4-regular graph
# and "<source>:<pairing>" its block graph under that pairing
SHORTEST_CYCLE_DIGESTS = {
    "cage3": "8199db4dd994d13093a00c633282828de02b15f3d0a592226dcef852795c201d",
    "cage3:parallel": "2cb0033a4a92a81bfbcb518f22824491ceb80249b3c6dd9e85b6407cd484ec8a",
    "cage3:crossed": "c3ebf964925feba1ce072b1cee6bd55c57ff46c911c01cac7e4d04970b6935da",
    "cage4": "ae32032efb88ee2f66878670dd5ac4bb066022b5d2d903a9d961d0e3e7369924",
    "cage4:parallel": "bdadb56213a48d66273cec94107373778792e09bd3df7a5217c9c7af8c8e02dd",
    "cage4:crossed": "39a5b52a3273149884ab08b9e8574ce07e8a4767f10c0c5250440c569672d9bb",
    "cage5": "b7edb6ece987df0eb6d8c353c9f1864179c491726a8673b0c660a4fd5a59ee4b",
    "cage5:parallel": "51275fcecfd47448b625f58f8cb11de3a899cff4be83211cbf50b3c1a8eef79e",
    "cage5:crossed": "84bed9209a59c38ad170e10eddea2359b8e7e2003b0fe2f96ce410f8b7982867",
    "cage6": "a38ca82dfea8b890932edbb0168e504ba3ae4a18f10c646450e6c485ae62e013",
    "cage6:parallel": "df074f7a9a5d9e821d03f1b53915b01a63d18ac3e7ea4840368ca466e09af91c",
    "cage6:crossed": "8ac01f21d16b701eddfe4eb8d4ac62bf7785a67d7a2d423aa5d39a78467d1355",
    "rr4-30-6": "e0cc408ec932b44464ef5b2beee8d23382980e9fae5bb43eccf55b417597b86c",
    "rr4-30-6:parallel": "d65e2da5c7bac841a142500312b7d249d8dad60314bd8832c294637f65f45043",
    "rr4-30-6:crossed": "c56edfd209e73afa7eb623ab4d6ee4aaeee623f4e2503e60aa0284390092185d",
    "rr4-200-1": "4cb9af13f050bbf606bce0738d4e6db5aebcd82d6125d70a14f403de010f373d",
    "rr4-200-1:parallel": "7699ea8178e52cc90357eb10adfb7b2a79d4c3fbfcab073a277469c93e90debc",
    "rr4-200-1:crossed": "a2882ac7bf67089d7877db1496e320a3eca31df7f1f0f37d0decbff031b52f55",
    "rr4-1000-1": "00643e6236a453529e62cb1ad685af49e25fd7c1a5e2cb0c3af09cb6355c4ae9",
    "rr4-1000-1:parallel": "54852f582781059bf4da6ad85dc75edd885c07d327a49b035b5c79e1f2db6224",
    "rr4-1000-1:crossed": "726b1526b30c8cec173c04375eaba5e1e2184c3ba1a7c9d7ec0831462d4c45fd",
    "rr4-3000-1": "e5b7490e84b1198f2de93bdb7589f9c8eb82e068639165d8c8ee7ff28ab3f5e6",
    "rr4-3000-1:parallel": "fd19001b17f5c0ab98cc0e1ba454e1bda27884e5e3260004a411a4e1f3b9a845",
    "rr4-3000-1:crossed": "6e769bcb69578639cb637a680ea264e39235ada2977b629a782ea82c667565ec",
    "petersen": "59835adc055c3ad458dd03ff7b7cff3b4bfee1b51aea83165119390c15afa685",
    "cubic-100-1000": "5c8ff9d17a30e57ce402c6186bd1ede9fc60bf92e9025675ff7b029e8f900098",
    "cubic-1000-1": "8be57a232ef500652e5e3f22b89d193a4d3e09977ad1a3348b24b8c317a8930c",
}


@pytest.mark.parametrize("case", sorted(SHORTEST_CYCLE_DIGESTS))
def test_shortest_cycle_keeps_its_output(case):
    cycle = shortest_cycle(_digest_case(case))
    assert hashlib.sha256(json.dumps(cycle).encode()).hexdigest() == SHORTEST_CYCLE_DIGESTS[case]


class _CountingIncidence(tuple):
    """A graph's incidence tuple that counts its reads: one per vertex
    whose incidences `shortest_cycle` scans."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def _incidence_reads(g: Graph):
    """(length of the shortest cycle, incidence reads the search made), on
    a copy of `g`, which may be a cached graph that other tests share."""
    g = Graph(g.vertex_count, g.edges)
    counting = g._incidence = _CountingIncidence(g._incidence)
    return len(shortest_cycle(g)), counting.reads


def test_block_graph_girth_explores_only_what_can_shorten_the_cycle():
    block = _digest_case("rr4-1000-1:parallel")
    length, reads = _incidence_reads(block)
    assert length == 4
    # a BFS over every vertex of every root made 18 722 reads; stopping
    # a root's BFS at the first level d with 2d >= best made 9 823
    assert reads <= 6_500, reads


@pytest.mark.parametrize("case,girth_,most", [("cage5", 5, 69), ("rr4-200-1:parallel", 4, 1_082)])
def test_shortest_cycle_scans_no_level_that_closes_only_longer_walks(case, girth_, most):
    # scanning level d closes walks of length 2d+1 or more, so a root's BFS
    # stops once 2d+1 >= best; stopping only at 2d >= best read 140
    # incidences on Robertson and 1 755 on the block graph
    length, reads = _incidence_reads(_digest_case(case))
    assert length == girth_
    assert reads <= most, reads


@st.composite
def small_graphs(draw):
    """Simple graphs on up to 8 vertices with at most 12 edges; sparse
    draws are forests."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return Graph(n, chosen)


@given(small_graphs())
@settings(max_examples=300)
def test_shortest_cycle_is_a_minimum_enumerated_cycle(g):
    cycles = all_simple_cycles(g)
    cycle = shortest_cycle(g)
    if not cycles:
        assert cycle is None
        return
    assert len(cycle) == min(len(c) for c in cycles)
    assert frozenset(cycle) in cycles


@st.composite
def sized_bitsets(draw):
    """(size, bits) up to 9000 edges: sparse index sets or arbitrary ints."""
    size = draw(st.integers(min_value=0, max_value=9000))
    if size and draw(st.booleans()):
        chosen = draw(st.sets(st.integers(min_value=0, max_value=size - 1), max_size=40))
        return size, sum(1 << i for i in chosen)
    return size, draw(st.integers(min_value=0, max_value=(1 << size) - 1))


@given(sized_bitsets())
@settings(max_examples=200)
def test_indices_are_the_set_bits_ascending(size_bits):
    size, bits = size_bits
    s = EdgeSubset(size, bits)
    assert s.indices() == [i for i in range(size) if bits >> i & 1]
    assert len(s) == len(s.indices())


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (-4, 1), (4, 0), (0, 4)])
def test_edge_index_rejects_an_endpoint_out_of_range(u, v):
    """A negative endpoint is no alias of a vertex counted from the end."""
    k4 = complete_graph(4)
    assert k4.edge_index(3, 0) == k4.edge_index(0, 3)
    with pytest.raises(GraphError, match=rf"^edge \({u},{v}\) has endpoint out of range$"):
        k4.edge_index(u, v)


def test_simple_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, []), "vertex_count must be non-negative"),
        ((3, [(0, 0)]), "self-loop at vertex 0"),
        ((2, [(5, 5)]), "self-loop at vertex 5"),  # self-loop before range
        ((2, [(0, 2)]), "edge (0,2) has endpoint out of range"),
        ((2, [(-1, 0)]), "edge (-1,0) has endpoint out of range"),
        ((3, [(0, 1), (1, 0)]), "duplicate edge (1,0)"),
        ((3, [(1, 2), (1, 2)]), "duplicate edge (1,2)"),
        ((4, [(0, 1), (2, 3), (0, 3), (3, 2)]), "duplicate edge (3,2)"),
        ((3, [(0, 1), (1, 0), (2, 2)]), "duplicate edge (1,0)"),  # first bad edge wins
        ((3, [(0, 5), (1, 1)]), "edge (0,5) has endpoint out of range"),
        ((3, [(1, 1), (0, 5)]), "self-loop at vertex 1"),
        ((2, [(0, 0)], ["a"]), "self-loop at vertex 0"),  # edges before labels
        ((3, [(0, 1)], ["a"]), "vertex_labels length mismatch"),
    ],
)
def test_graph_error_messages_are_pinned(args, message):
    with pytest.raises(GraphError) as exc:
        Graph(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: EdgeSubset(3, 8), "bitset has bits outside the edge range"),
    (lambda: EdgeSubset(3, -1), "bitset has bits outside the edge range"),
    (lambda: EdgeSubset.from_indices(3, [0, 3]), "edge index 3 out of range for 3 edges"),
    (lambda: EdgeSubset.from_indices(3, [-1]), "edge index -1 out of range for 3 edges"),
    (lambda: EdgeSubset(-1, 1), "negative edge subset size -1"),  # size before bits
    (lambda: two_core(PETERSEN, EdgeSubset(14, 1)), "erased subset sized for a different graph"),
])
def test_edge_subset_error_messages_are_pinned(make, message):
    with pytest.raises(GraphError) as exc:
        make()
    assert str(exc.value) == message


NON_INT_GRAPH_FILES = [
    ('{"vertices": 3, "edges": [["a", 1]]}', "edge 0"),
    ('{"vertices": 3, "edges": [[null, 1]]}', "edge 0"),
    ('{"vertices": 3, "edges": [[0.5, 1]]}', "edge 0"),
    ('{"vertices": 3, "edges": [0]}', "edge 0"),
    ('{"edges": []}', "vertices"),
    ('{"vertices": 5, "edges": [[0, 1], [0, 1, 2]]}', "edge 1 is not a list of 2 ints: [0, 1, 2]"),
    ('{"vertices": 5, "edges": [[0]]}', "edge 0 is not a list of 2 ints: [0]"),
    ('{"vertices": 5, "edges": [[0, 1.0]]}', "edge 0 is not a list of 2 ints: [0, 1.0]"),
    ('{"vertices": 3, "edges": [[true, 2]]}', "edge 0 is not a list of 2 ints: [True, 2]"),
    ('{"vertices": true, "edges": []}', "vertices is not an int: True"),
    ('{"vertices": 3, "edges": {}}', "edge list is not a list: {}"),
    ('{"vertices": 3, "edges": ""}', "edge list is not a list: ''"),
    ('{"vertices": 2, "edges": [], "vertex_labels": [null, {"x": 1}]}',
     "vertex label 0 is not a string: None"),
    ('{"vertices": 2, "edges": [], "vertex_labels": ["a", {"x": 1}]}',
     "vertex label 1 is not a string: {'x': 1}"),
    ('{"vertices": 2, "edges": [], "vertex_labels": "ab"}', "vertex_labels is not a list: 'ab'"),
    ('{"vertices": 2, "edges": [], "vertex_labels": null}', "vertex_labels is not a list: None"),
]


@pytest.mark.parametrize("text,named", NON_INT_GRAPH_FILES,
                         ids=[text for text, _ in NON_INT_GRAPH_FILES])
def test_graph_from_json_rejects_a_non_int_endpoint(text, named):
    with pytest.raises(GraphError, match="^malformed graph JSON") as exc:
        Graph.from_obj(json.loads(text))
    assert named in str(exc.value)


def test_is_connected():
    assert is_connected(PETERSEN)
    assert is_connected(complete_graph(5))
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)
    assert is_connected(Graph(0, []))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))


def test_two_core_of_cycle_is_itself():
    # outer 5-cycle of the Petersen graph: edges 0..4
    s = EdgeSubset.from_indices(15, range(5))
    assert two_core(PETERSEN, s).bits == s.bits


def test_two_core_four_edges_of_petersen_is_empty():
    # girth 5: no cycle fits in 4 edges
    import itertools

    for combo in itertools.combinations(range(15), 4):
        assert len(two_core(PETERSEN, EdgeSubset.from_indices(15, combo))) == 0


def test_two_core_strips_pendant_edge():
    # 5-cycle plus the spoke at vertex 0 (edge 5)
    s = EdgeSubset.from_indices(15, [0, 1, 2, 3, 4, 5])
    assert two_core(PETERSEN, s).indices() == [0, 1, 2, 3, 4]


@st.composite
def petersen_subsets(draw):
    bits = draw(st.integers(min_value=0, max_value=(1 << 15) - 1))
    return EdgeSubset(15, bits)


@given(petersen_subsets())
@settings(max_examples=200)
def test_two_core_idempotent_and_contained(s):
    core = two_core(PETERSEN, s)
    assert core.bits & ~s.bits == 0
    assert two_core(PETERSEN, core).bits == core.bits


@given(petersen_subsets())
@settings(max_examples=100)
def test_two_core_nonempty_iff_contains_cycle(s):
    cycles = all_simple_cycles(PETERSEN)
    member = set(s.indices())
    has_cycle = any(c <= member for c in cycles)
    assert (len(two_core(PETERSEN, s)) > 0) == has_cycle


def test_json_round_trip():
    g = Graph(3, [(0, 1), (1, 2)], vertex_labels=["a", "b", "c"])
    back = Graph.from_obj(json.loads(g.to_json()))
    assert back == g
    assert back.vertex_labels == ("a", "b", "c")


def test_dot_export_includes_edge_indices():
    dot = Graph(3, [(0, 1), (1, 2)]).to_dot()
    assert '0 -- 1 [label="0"]' in dot
    assert '1 -- 2 [label="1"]' in dot


def test_graph_repr_gives_its_counts():
    assert repr(complete_graph(5)) == "Graph(n=5, m=10)"
