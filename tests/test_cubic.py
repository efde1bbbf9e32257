
import json

import pytest

from graphdss.catalog import (
    complete_graph,
    k5_reference_system,
    petersen,
    random_4_regular,
    random_cubic,
)
from graphdss.cubic import (
    CubicSystem,
    DecompositionFailure,
    InvalidSystemError,
    NotCubicError,
    PairingMode,
    PairingPolicy,
    build_cubic,
    decompose_p4,
    verify_disk_decomposition,
)
from graphdss.graphs import Graph, degree_sequence, girth, is_connected
from graphdss.orientation import eulerian_tour, load_orientation, orient_from_tour

from test_orientation import K44_REFERENCE_EDGES


def k44_reference_system(mode=PairingMode.PARALLEL):
    g = Graph(8, K44_REFERENCE_EDGES)
    return build_cubic(load_orientation(g, K44_REFERENCE_EDGES), mode)


def named_disks(sys):
    return [[sys.arc_names[p] for p in path] for path in sys.disks]


def test_k44_reference_disk_list():
    sys = k44_reference_system()
    assert named_disks(sys) == [
        [(0, 1), (3, 0), (7, 0), (0, 5)],
        [(1, 2), (0, 1), (4, 1), (1, 6)],
        [(2, 3), (1, 2), (5, 2), (2, 7)],
        [(3, 0), (2, 3), (6, 3), (3, 4)],
        [(4, 1), (3, 4), (7, 4), (4, 5)],
        [(5, 2), (0, 5), (4, 5), (5, 6)],
        [(6, 3), (1, 6), (5, 6), (6, 7)],
        [(7, 0), (2, 7), (6, 7), (7, 4)],
    ]


def test_k44_neighbors_of_first_arc():
    sys = k44_reference_system()
    v = sys.arc_names.index((0, 1))
    nbrs = sorted(sys.arc_names[w] for _, w in sys.cubic.incident(v))
    assert nbrs == [(1, 2), (3, 0), (4, 1)]


def test_k5_girth5_variant_matches_reference():
    sys = k5_reference_system("girth5")
    assert named_disks(sys) == [
        [(0, 1), (4, 0), (2, 0), (0, 3)],
        [(1, 2), (0, 1), (3, 1), (1, 4)],
        [(2, 0), (4, 2), (1, 2), (2, 3)],
        [(3, 1), (0, 3), (2, 3), (3, 4)],
        [(4, 0), (3, 4), (1, 4), (4, 2)],
    ]
    assert girth(sys.cubic) == 5


def test_k5_girth3_variant_matches_reference():
    sys = k5_reference_system("girth3")
    assert named_disks(sys) == [
        [(0, 1), (2, 0), (4, 0), (0, 3)],
        [(1, 2), (0, 1), (3, 1), (1, 4)],
        [(2, 0), (1, 2), (4, 2), (2, 3)],
        [(3, 1), (0, 3), (2, 3), (3, 4)],
        [(4, 0), (1, 4), (3, 4), (4, 2)],
    ]
    assert girth(sys.cubic) == 3


def test_middle_edge_joins_the_two_in_arcs():
    sys = k44_reference_system()
    for d, path in enumerate(sys.disks):
        v = sys.disk_owner[d]
        a, b = path[1], path[2]
        assert sys.arc_names[a][1] == v
        assert sys.arc_names[b][1] == v


def test_disk_vertices_are_the_arcs_at_the_owner():
    sys = k44_reference_system()
    for d, path in enumerate(sys.disks):
        v = sys.disk_owner[d]
        for p in path:
            assert v in sys.arc_names[p]


@pytest.mark.parametrize("mode", [PairingMode.PARALLEL, PairingMode.CROSSED])
@pytest.mark.parametrize("seed", range(6))
def test_build_invariants_random_graphs(mode, seed):
    n = 6 + 4 * seed
    g = random_4_regular(n, seed=seed)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)
    assert sys.cubic.vertex_count == 2 * n
    assert sys.cubic.edge_count == 3 * n
    assert all(d == 3 for d in degree_sequence(sys.cubic))
    assert is_connected(sys.cubic)
    assert verify_disk_decomposition(sys)


def test_verify_rejects_missing_edge():
    sys = k44_reference_system()
    g = sys.cubic
    pruned = Graph(g.vertex_count, g.edges[:-1])
    broken = CubicSystem(pruned, sys.disks, sys.disk_owner, sys.arc_names)
    assert not verify_disk_decomposition(broken)


def test_verify_rejects_non_path_disk():
    sys = k44_reference_system()
    bad_disk = (sys.disks[0][0],) * 4
    broken = CubicSystem(sys.cubic, (bad_disk,) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    assert not verify_disk_decomposition(broken)


def _assert_p4_cover(g, paths):
    used = []
    for p in paths:
        assert len(set(p)) == 4
        for i in range(3):
            used.append(g.edge_index(p[i], p[i + 1]))
    assert sorted(used) == list(range(g.edge_count))


def test_decompose_petersen():
    g = petersen().graph
    paths = decompose_p4(g)
    assert len(paths) == 5
    _assert_p4_cover(g, paths)


def test_decompose_k4():
    g = complete_graph(4)
    paths = decompose_p4(g)
    assert len(paths) == 2
    _assert_p4_cover(g, paths)


def test_decompose_k33():
    g = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    paths = decompose_p4(g)
    assert len(paths) == 3
    _assert_p4_cover(g, paths)


def test_decompose_rejects_non_cubic():
    with pytest.raises(NotCubicError):
        decompose_p4(complete_graph(5))


def _cubic_without_perfect_matching() -> Graph:
    """A centre joined to three 5-vertex blobs.  Each blob is K4 on
    {b, c, x, y} minus the edge {b, c}, plus a vertex a joined to b, c and
    the centre.  Deleting the centre leaves three odd components, so by
    Tutte's condition there is no perfect matching."""
    edges = []
    for k in range(3):
        a, b, c, x, y = (1 + 5 * k + i for i in range(5))
        edges += [(b, x), (b, y), (c, x), (c, y), (x, y), (a, b), (a, c), (0, a)]
    return Graph(16, edges)


def test_decompose_fails_without_perfect_matching():
    # Kotzig: a cubic graph without a perfect matching has no P4 decomposition
    g = _cubic_without_perfect_matching()
    assert all(d == 3 for d in degree_sequence(g))
    assert is_connected(g)
    with pytest.raises(DecompositionFailure):
        decompose_p4(g)


@pytest.mark.parametrize("seed", range(10))
def test_decompose_random_cubic(seed):
    g = random_cubic(8 + 2 * (seed % 5), seed=seed)
    _assert_p4_cover(g, decompose_p4(g))


def test_system_json_round_trip():
    sys = k44_reference_system()
    back = CubicSystem.from_json(sys.to_json())
    assert back.disks == sys.disks
    assert back.arc_names == sys.arc_names
    assert back.cubic == sys.cubic
    assert back.policy == sys.policy


def _without_disks(obj):
    del obj["disks"]


def _vertex_99(obj):
    obj["disks"][1] = [0, 1, 2, 99]


def _short_arc_names(obj):
    obj["arc_names"].pop()


def _short_disk_owner(obj):
    obj["disk_owner"].pop()


def _duplicate_disk(obj):
    obj["disks"][1] = list(obj["disks"][0])


def _random_system_with_k44_arcs(obj):
    # a girth-3 system whose arcs are those of another graph
    g = random_4_regular(8, 1)
    random_obj = json.loads(
        build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).to_json())
    random_obj["arc_names"] = obj["arc_names"]
    obj.clear()
    obj.update(random_obj)


def _arc_out_of_range(obj):
    obj["arc_names"][0] = [0, 42]


def _swapped_owners(obj):
    obj["disk_owner"][0], obj["disk_owner"][1] = obj["disk_owner"][1], obj["disk_owner"][0]


def _repeated_owner(obj):
    obj["disk_owner"][1] = obj["disk_owner"][0]


def _extra_arc_on_an_isolated_vertex(obj):
    obj["vertices"] += 1
    obj["arc_names"].append([0, 2])


@pytest.mark.parametrize(
    "corrupt",
    [_without_disks, _vertex_99, _short_arc_names, _short_disk_owner, _duplicate_disk,
     _random_system_with_k44_arcs, _arc_out_of_range, _swapped_owners, _repeated_owner,
     _extra_arc_on_an_isolated_vertex],
)
def test_system_json_rejects_inconsistent_system(corrupt):
    obj = json.loads(k44_reference_system().to_json())
    corrupt(obj)
    with pytest.raises(InvalidSystemError):
        CubicSystem.from_json(json.dumps(obj))


def test_system_json_rejects_malformed_json():
    with pytest.raises(InvalidSystemError):
        CubicSystem.from_json(k44_reference_system().to_json()[:-2])


def test_system_json_accepts_every_built_system():
    for seed in range(5):
        g = random_4_regular(12, seed)
        for mode in PairingMode:
            sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)
            assert CubicSystem.from_json(sys.to_json()).disks == sys.disks


@pytest.mark.parametrize("vertex", [-1, 5])
def test_policy_rejects_vertex_outside_the_graph(vertex):
    with pytest.raises(ValueError):
        PairingPolicy.from_overrides(PairingMode.PARALLEL, 5, {vertex: PairingMode.CROSSED})
