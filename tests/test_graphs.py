import math

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import complete_graph, petersen, random_4_regular
from graphdss.graphs import (
    EdgeSubset, Graph, GraphError, degree_sequence, girth, is_connected, shortest_cycle, two_core,
)

from conftest import all_simple_cycles


PETERSEN = petersen().graph


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
    assert EdgeSubset(size, bits).indices() == [i for i in range(size) if bits >> i & 1]


def test_simple_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


def test_is_connected():
    assert is_connected(PETERSEN)
    assert is_connected(complete_graph(5))
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)
    assert is_connected(Graph(0, []))


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
    assert core <= s
    assert two_core(PETERSEN, core).bits == core.bits


@given(petersen_subsets())
@settings(max_examples=100)
def test_two_core_nonempty_iff_contains_cycle(s):
    cycles = all_simple_cycles(PETERSEN)
    member = set(s.indices())
    has_cycle = any(c <= member for c in cycles)
    assert (len(two_core(PETERSEN, s)) > 0) == has_cycle


def test_json_round_trip():
    g = Graph(3, [(0, 1), (1, 2)], vertex_labels=["a", "b", "c"], edge_labels=["x", "y"])
    back = Graph.from_json(g.to_json())
    assert back == g
    assert back.vertex_labels == ("a", "b", "c")


def test_dot_export_includes_edge_indices():
    dot = Graph(3, [(0, 1), (1, 2)]).to_dot()
    assert '0 -- 1 [label="0"]' in dot
    assert '1 -- 2 [label="1"]' in dot
