"""The construction routines against the loops they replaced.

`orientation.eulerian_tour`, the edge loop of `Graph.__init__` and
`code.derive_code` were rewritten to take fewer Python steps per element,
and `catalog.cage(6)` builds PG(2,3) from a pinned edge and label list.
The first versions live on in conftest as oracles; each property here
asks for the same output, or the same exception type and message, on the
same input.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import cage, random_4_regular, random_cubic
from graphdss.code import derive_code
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import Graph
from graphdss.orientation import eulerian_tour, orient_from_tour

from conftest import (derive_code_oracle, eulerian_tour_oracle, graph_tables_oracle, outcome,
                      pg23_incidence_oracle, system_from_cage)


def _named_graphs():
    """The cages and their block graphs, `random_4_regular` at several sizes
    with the block graphs of the smaller ones, and `random_cubic`."""
    graphs = {}
    for gg in (3, 4, 5, 6):
        system, g = system_from_cage(gg)
        graphs[f"cage{gg}"], graphs[f"cage{gg}-blocks"] = g, system.cubic
    for n, seed in [(5, 0), (12, 3), (40, 1), (200, 1), (1000, 1)]:
        g = graphs[f"rr4-{n}-{seed}"] = random_4_regular(n, seed)
        if n <= 200:
            graphs[f"rr4-{n}-{seed}-blocks"] = build_cubic(
                orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).cubic
    for n, seed in [(4, 0), (10, 5), (60, 2), (1000, 7)]:
        graphs[f"cubic-{n}-{seed}"] = random_cubic(n, seed)
    return graphs


NAMED_GRAPHS = _named_graphs()


@st.composite
def even_degree_graphs(draw):
    """Up to 3 parts on disjoint vertices, each the symmetric difference of
    a few random cycles, so every degree is even; parts may be edgeless
    and hold isolated vertices.  The vertices are relabelled at random and
    the edges come in random order and direction."""
    edges, n = set(), 0
    for size in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(0, 3)) if size >= 3 else 0):
            cycle = draw(st.lists(st.integers(n, n + size - 1), min_size=3, max_size=size,
                                  unique=True))
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                edges ^= {(min(u, v), max(u, v))}
        n += size
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations(sorted(edges)))
    return Graph(n, [(label[v], label[u]) if draw(st.booleans()) else (label[u], label[v])
                     for u, v in edges])


@st.composite
def any_graphs(draw):
    """A random simple graph on up to 10 vertices: odd degrees likely."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else [])


GRAPHS = st.one_of(st.sampled_from(sorted(NAMED_GRAPHS)).map(NAMED_GRAPHS.get),
                   even_degree_graphs(), any_graphs())


def test_pg23_incidence_matches_the_oracle():
    g, want = cage(6).graph, pg23_incidence_oracle()
    assert (g.vertex_count, g.edges, g.vertex_labels) == (
        want.vertex_count, want.edges, want.vertex_labels)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(GRAPHS)
def test_tour_matches_the_oracle(g):
    assert outcome(lambda: eulerian_tour(g)) == outcome(lambda: eulerian_tour_oracle(g))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(GRAPHS)
def test_derive_code_matches_the_oracle(g):
    assert outcome(lambda: derive_code(g)) == outcome(lambda: derive_code_oracle(g))


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_graph_tables_match_the_oracle_on_named_graphs(name):
    g = NAMED_GRAPHS[name]
    built = Graph(g.vertex_count, g.edges)
    assert (built.edges, built._incidence) == graph_tables_oracle(g.vertex_count, g.edges)
    # the edge tuples are kept as given, not rebuilt
    assert all(kept is given for kept, given in zip(built.edges, g.edges))


@st.composite
def edge_lists(draw):
    """(vertex count, edges) with some bad edges: self-loops, ends below 0
    or at n and beyond, and repeats of earlier edges in either order.  Most
    lists hold several bad edges, so the first one must be the one named.
    Each edge comes as a tuple or as a list."""
    n = draw(st.integers(-1, 9))
    inside = st.integers(0, n - 1) if n > 0 else st.nothing()
    outside = st.one_of(st.integers(-3, -1), st.integers(max(n, 0), max(n, 0) + 3))
    edges = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["repeat"] * 3 + ["loop", "outside"]))
        if kind == "repeat" and edges:
            u, v = draw(st.sampled_from(edges))
            edges.append((v, u) if draw(st.booleans()) else (u, v))
        elif kind == "loop":
            u = draw(st.one_of(inside, outside))
            edges.append((u, u))
        elif kind == "outside" or n < 2:
            ends = [draw(outside), draw(st.one_of(inside, outside))]
            edges.append(tuple(draw(st.permutations(ends))))
        else:
            edges.append(tuple(draw(st.lists(inside, min_size=2, max_size=2, unique=True))))
    return n, [list(e) if draw(st.booleans()) else e for e in edges]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(edge_lists())
def test_graph_tables_match_the_oracle_on_malformed_edge_lists(case):
    n, edges = case

    def tables():
        g = Graph(n, edges)
        return g.edges, g._incidence

    got = outcome(tables)
    assert got == outcome(lambda: graph_tables_oracle(n, edges))
    if type(got) is tuple and type(got[0]) is tuple:
        # a tuple edge is kept as the same object, a list edge becomes a tuple
        assert all(kept is given if type(given) is tuple else type(kept) is tuple
                   for kept, given in zip(got[0], edges))
