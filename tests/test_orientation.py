import pytest

from graphdss.catalog import complete_graph, random_4_regular
from graphdss.graphs import Graph
from graphdss.orientation import (
    InvalidTourError,
    NotEulerianError,
    OrientationError,
    eulerian_tour,
    load_orientation,
    orient_from_tour,
)

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


def test_load_reference_k5_arcs():
    og = load_orientation(complete_graph(5), K5_REFERENCE_ARCS)
    assert og.is_two_in_two_out()
    assert og.arcs == tuple(K5_REFERENCE_ARCS)


def test_load_reference_k44_arcs():
    g = Graph(8, K44_REFERENCE_EDGES)
    og = load_orientation(g, K44_REFERENCE_EDGES)
    assert og.is_two_in_two_out()


def test_load_rejects_all_arcs_into_one_vertex():
    g = complete_graph(5)
    arcs = [(max(u, v), min(u, v)) if 0 in (u, v) else (u, v) for u, v in g.edges]
    # every arc touching vertex 0 points at it -> in-degree 4
    with pytest.raises(OrientationError):
        load_orientation(g, arcs)


def test_load_rejects_foreign_arc():
    g = complete_graph(5)
    with pytest.raises(OrientationError):
        load_orientation(g, [(0, 1)] * 10)
