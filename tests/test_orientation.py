import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import (
    MissingDataFileError, by_name, catalog_names, complete_graph, random_4_regular
)
from graphdss.cubic import NotTwoInTwoOutError, PairingMode, build_cubic
from graphdss.graphs import Graph
from graphdss.orientation import (
    InvalidTourError,
    NotEulerianError,
    OrientationError,
    eulerian_tour,
    load_orientation,
    orient_from_tour,
)

from conftest import edges_span_one_component, two_pass_orient_from_tour

K44_REFERENCE_EDGES = [
    (0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 0), (3, 4),
    (4, 1), (4, 5), (5, 2), (5, 6), (6, 3), (6, 7), (7, 0), (7, 4),
]

K5_REFERENCE_ARCS = [
    (0, 1), (0, 3), (1, 2), (1, 4), (2, 0),
    (2, 3), (3, 1), (3, 4), (4, 0), (4, 2),
]


def test_tour_k5_covers_all_edges_once():
    g = complete_graph(5)
    tour = eulerian_tour(g)
    assert sorted(tour) == list(range(10))
    assert tour == K5_TOUR


def test_tour_path_not_eulerian():
    with pytest.raises(NotEulerianError):
        eulerian_tour(Graph(3, [(0, 1), (1, 2)]))


def test_tour_disconnected_not_eulerian():
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(NotEulerianError):
        eulerian_tour(two_triangles)


def test_tour_ignores_isolated_vertices():
    triangle_and_two_isolated = Graph(5, [(1, 2), (2, 3), (3, 1)])
    assert eulerian_tour(triangle_and_two_isolated) == [0, 1, 2]


def test_tour_two_triangles_and_an_isolated_vertex_is_disconnected():
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)])
    with pytest.raises(NotEulerianError, match="^graph is disconnected$"):
        eulerian_tour(g)


def test_tour_k44_length_16():
    g = Graph(8, K44_REFERENCE_EDGES)
    assert len(eulerian_tour(g)) == 16


def test_tour_deterministic():
    g = random_4_regular(12, seed=3)
    assert eulerian_tour(g) == eulerian_tour(g)


def test_orientation_two_in_two_out_on_4_regular():
    for seed in range(5):
        g = random_4_regular(8, seed=seed)
        og = orient_from_tour(g, eulerian_tour(g))
        assert og.is_two_in_two_out()


def test_orientation_forgets_to_original_edges():
    g = random_4_regular(10, seed=1)
    og = orient_from_tour(g, eulerian_tour(g))
    undirected = sorted((min(t, h), max(t, h)) for t, h in og.arcs)
    assert undirected == sorted((min(u, v), max(u, v)) for u, v in g.edges)


def test_orient_rejects_incomplete_tour():
    g = complete_graph(5)
    with pytest.raises(InvalidTourError):
        orient_from_tour(g, list(range(9)))


def test_orient_rejects_broken_walk():
    g = complete_graph(5)
    tour = eulerian_tour(g)
    # repeating an edge index is never a valid tour
    broken = tour[:-1] + [tour[0]]
    with pytest.raises(InvalidTourError):
        orient_from_tour(g, broken)


K5_TOUR = [0, 4, 1, 2, 5, 6, 8, 7, 9, 3]  # vertices 0 1 2 0 3 1 4 2 3 4 0


# sha256 of json.dumps(eulerian_tour(g)): the tours themselves, which
# BUILD_DIGESTS pins only through the arc order of each system
TOUR_DIGESTS = {
    "k5": "5943d86c8a94ca7b228fa752f41a57db2bca07648d04d5a2de911266072f4143",
    "k44": "691c78683393d5374ea017774eeda980b3852a963db3da442871e73215de6161",
    "robertson": "8046eeecaaefda5f227473008f06eb987c415380156ee5b1fc9ccc6f7d40c7f8",
    "pg23": "ea27cf3f00faa55c7143e830cdfac4d3eb1872caeec4c97f5b2ec94e760c78fd",
    "rr4-200-1": "371df620f7d947aece81a913f918b8e0913a99b07f749e5e87cdadb39e8e57df",
    "rr4-1000-1": "d9edb2ce7ae10488bdf5713f72b2f2bbedd5fda7404029c72c651ccdb6184a64",
    "rr4-3000-1": "7788360041872c0b8dacf20ceb0ea5e12fde905089230a0289b59007e32ee7a3",
}


@pytest.mark.parametrize("name", sorted(TOUR_DIGESTS))
def test_tour_keeps_its_output(name):
    if name.startswith("rr4-"):
        _, n, seed = name.split("-")
        g = random_4_regular(int(n), int(seed))
    else:
        g = by_name(name).graph
    tour = json.dumps(eulerian_tour(g))
    assert hashlib.sha256(tour.encode()).hexdigest() == TOUR_DIGESTS[name]


@pytest.mark.parametrize("graph, tour, message", [
    (complete_graph(5), [10] + K5_TOUR[1:], "tour must use every edge exactly once"),
    (complete_graph(5), [0, -1] + K5_TOUR[2:], "tour must use every edge exactly once"),
    (complete_graph(5), [0, 0] + K5_TOUR[2:], "edge 0 is out of range or used twice"),
    (complete_graph(5), K5_TOUR[:9] + [0], "edge 0 is out of range or used twice"),
    (complete_graph(5), K5_TOUR[:5] + [10] + K5_TOUR[6:], "edge 10 is out of range or used twice"),
    (complete_graph(5), K5_TOUR[:5] + [-2] + K5_TOUR[6:], "edge -2 is out of range or used twice"),
    (complete_graph(5), [0, 4, 2, 1] + K5_TOUR[4:], "edge 2 does not continue the walk"),
    (complete_graph(5), [0, 5] + K5_TOUR[2:], "edge 1 does not continue the walk"),
    (Graph(3, [(0, 1), (1, 2)]), [0, 1], "tour is not closed"),
    (Graph(2, [(0, 1)]), [0], "tour is not closed"),
])
def test_orient_error_messages_are_pinned(graph, tour, message):
    with pytest.raises(InvalidTourError) as exc:
        orient_from_tour(graph, tour)
    assert str(exc.value) == message


def test_orient_the_empty_tour_of_a_graph_without_edges():
    assert orient_from_tour(Graph(3, []), []).arcs == ()


def _outcome(fn):
    try:
        return fn()
    except InvalidTourError:
        return InvalidTourError


def _even_degree_catalog():
    graphs = {}
    for name in catalog_names():
        try:
            g = by_name(name).graph
        except MissingDataFileError:  # cage7 is read from a data file
            continue
        if all(len(g.incident(v)) % 2 == 0 for v in range(g.vertex_count)):
            graphs[name] = g
    return graphs


TOUR_GRAPHS = _even_degree_catalog()
for _n, _s in [(5, 1), (8, 2), (12, 3), (30, 6), (200, 1)]:
    TOUR_GRAPHS[f"random-{_n}-{_s}"] = random_4_regular(_n, _s)


# built only by the test below; the mutation test takes the smaller graphs
_LARGE_TOUR_GRAPHS = {"random-1000-1": (1000, 1), "random-3000-1": (3000, 1)}


@pytest.mark.parametrize("name", sorted(TOUR_GRAPHS) + sorted(_LARGE_TOUR_GRAPHS))
def test_orient_matches_the_two_pass_oracle(name):
    g = TOUR_GRAPHS[name] if name in TOUR_GRAPHS else random_4_regular(*_LARGE_TOUR_GRAPHS[name])
    tour = eulerian_tour(g)
    assert orient_from_tour(g, tour) == two_pass_orient_from_tour(g, tour)


def _mutated(tour, kind, i, j, k):
    t = list(tour)
    i, j = i % len(t), j % len(t)
    if kind == "drop":
        del t[i]
    elif kind == "repeat":
        t[i] = t[j]
    elif kind == "swap":
        t[i], t[j] = t[j], t[i]
    elif kind == "out-of-range":
        t[i] = len(t) + k
    elif kind == "negative":
        t[i] = -1 - k
    elif kind == "rotate":
        t = t[i:] + t[:i]
    else:
        t.reverse()
    return t


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(TOUR_GRAPHS)),
       st.sampled_from(["drop", "repeat", "swap", "out-of-range", "negative", "rotate", "reverse"]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 3))
def test_orient_accepts_and_rejects_as_the_two_pass_oracle(name, kind, i, j, k):
    g = TOUR_GRAPHS[name]
    tour = _mutated(eulerian_tour(g), kind, i, j, k)
    assert _outcome(lambda: orient_from_tour(g, tour)) == _outcome(
        lambda: two_pass_orient_from_tour(g, tour))


_COMPONENTS = {  # (vertex count, edges), every degree even
    "isolated": (1, []),
    "triangle": (3, [(0, 1), (1, 2), (2, 0)]),
    "hexagon": (6, [(i, (i + 1) % 6) for i in range(6)]),
    "bowtie": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
    "k5": (5, list(itertools.combinations(range(5), 2))),
}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(sorted(_COMPONENTS)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_tour_disconnected_verdict_matches_the_bfs_oracle(parts, rnd):
    edges, n = [], 0
    for part in parts:
        size, part_edges = _COMPONENTS[part]
        edges += [(n + u, n + v) for u, v in part_edges]
        n += size
    label = list(range(n))
    rnd.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    rnd.shuffle(edges)
    g = Graph(n, edges)
    try:
        tour = eulerian_tour(g)
    except NotEulerianError as exc:
        assert str(exc) == "graph is disconnected"
        assert not edges_span_one_component(g)
    else:
        assert edges_span_one_component(g)
        assert orient_from_tour(g, tour) == two_pass_orient_from_tour(g, tour)


def test_load_reference_k5_arcs():
    og = load_orientation(complete_graph(5), K5_REFERENCE_ARCS)
    assert og.is_two_in_two_out()
    assert og.arcs == tuple(K5_REFERENCE_ARCS)


def test_load_reference_k44_arcs():
    g = Graph(8, K44_REFERENCE_EDGES)
    og = load_orientation(g, K44_REFERENCE_EDGES)
    assert og.is_two_in_two_out()


def k5_arcs_all_into_vertex_0():
    # every arc touching vertex 0 points at it -> in-degree 4
    return [(max(u, v), min(u, v)) if 0 in (u, v) else (u, v) for u, v in complete_graph(5).edges]


def test_load_rejects_all_arcs_into_one_vertex():
    # the arcs orient K5, so they load; `build_cubic`, the one 2-in-2-out
    # test, rejects them
    g = complete_graph(5)
    arcs = k5_arcs_all_into_vertex_0()
    og = load_orientation(g, arcs)
    assert og.arcs == tuple(arcs)
    with pytest.raises(NotTwoInTwoOutError, match="^digraph must have in-degree = out-degree = 2$"):
        build_cubic(og, PairingMode.PARALLEL)


def test_load_rejects_foreign_arc():
    g = complete_graph(5)
    with pytest.raises(OrientationError):
        load_orientation(g, [(0, 1)] * 10)


@pytest.mark.parametrize("end", [True, 1.0], ids=["bool", "float"])
def test_load_rejects_an_arc_end_that_is_not_an_int(end):
    # K5's reference arcs with vertex 1 written as `end`: True and 1.0 hash
    # and compare as 1, so these arcs orient K5 unless their types are checked
    arcs = [[end if v == 1 else v for v in arc] for arc in K5_REFERENCE_ARCS]
    with pytest.raises(OrientationError) as info:
        load_orientation(complete_graph(5), arcs)
    assert str(info.value) == f"arc 0 is not a list of 2 ints: [0, {end!r}]"


def test_load_takes_arcs_as_lists_or_tuples():
    g = complete_graph(5)
    lists = [list(arc) for arc in K5_REFERENCE_ARCS]
    assert load_orientation(g, lists) == load_orientation(g, K5_REFERENCE_ARCS)
