
import functools
import hashlib
import json

import pytest

from graphdss.catalog import (
    cage,
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
from graphdss.graphs import Graph, GraphError, degree_sequence, girth, is_connected
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


@functools.lru_cache(maxsize=None)
def _oriented(source: str):
    """The tour orientation of a 4-regular graph: "cage<g>" or "rr4-<n>-<seed>"."""
    if source.startswith("cage"):
        g = cage(int(source[4:])).graph
    else:
        _, n, seed = source.split("-")
        g = random_4_regular(int(n), int(seed))
    return orient_from_tour(g, eulerian_tour(g))


# sha256 of build_cubic(...).to_json() for "<source>:<pairing>"; "mixed" is
# PARALLEL with every third vertex overridden to CROSSED
BUILD_DIGESTS = {
    "cage3:parallel": "5631106d943c53b0b4d3d493003adbc4a22980c360b2983e001b2af4f8ba7cc2",
    "cage3:crossed": "d4ef7d1bde086ff4368f558145070166fb57c54cca641620f6cb0c31e0973a76",
    "cage4:parallel": "50cf0c8c9c926f8229cd134bea5953bdd4ae2dc82d7195815127181e6ace269f",
    "cage4:crossed": "1ba1d5393a00980664798901d1f2eed80428a5109f5577d46f815243359b9a28",
    "cage5:parallel": "97f53e1495cf29d444ff55a159c6b7b5ed0427fcb1a17b34bf4bb05d5a78e953",
    "cage5:crossed": "19963d1316a6af107a1eca3c060278129e80a64b3d2e4a05c76cd1a9015f4ed4",
    "cage5:mixed": "f91a370482358606c69a732e4519168e170866d305177781a6f12121fc050076",
    "cage6:parallel": "f7990f8e81f671d922c352f6670a067af001b06860c5370a2bc6b9705e073364",
    "cage6:crossed": "67d15c41e7a1ccd4c3ad10d250d5fadd27bd091ce9b680749428f93a48d13ed7",
    "rr4-1000-1:parallel": "ec69bc1cd3ad9a3eb0ebdf678268ab2945680f529d207416719cf443121668f6",
    "rr4-1000-1:crossed": "29555eb37d44cb0625f693ed8fcba6d642435a41f6dcf7a8efa4bffd35c17422",
    "rr4-3000-1:parallel": "b2290d598a0adc2373245f0810b98c8e144bd80207a2aea609911d32d469cd20",
    "rr4-3000-1:crossed": "50eca334efa7520e728765348aa5e5926fb8a60c96a4845389f1e3842a082712",
}


@pytest.mark.parametrize("case", sorted(BUILD_DIGESTS))
def test_build_cubic_keeps_its_output(case):
    source, mode = case.split(":")
    og = _oriented(source)
    if mode == "mixed":
        policy = PairingPolicy.from_overrides(
            PairingMode.PARALLEL, og.vertex_count,
            {v: PairingMode.CROSSED for v in range(0, og.vertex_count, 3)})
    else:
        policy = PairingMode(mode)
    text = build_cubic(og, policy).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGESTS[case]


def _outcome(call):
    """The value of `call()`, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def _path_edges(sys, d):
    """disk_edges as first written: one `Graph.edge_index` per path edge."""
    p = sys.disks[d]
    return [sys.cubic.edge_index(p[i], p[i + 1]) for i in range(3)]


def _edge_owner_oracle(sys):
    owner = [-1] * sys.cubic.edge_count
    for d in range(len(sys.disks)):
        for ei in _path_edges(sys, d):
            owner[ei] = d
    return owner


def _broken_systems():
    """Systems that `verify_disk_decomposition` rejects, built with the bare
    constructor: the two of the verify tests, then each corrupted k44 file
    of `test_system_json_rejects_inconsistent_system` that still has disks."""
    sys = k44_reference_system()
    g = sys.cubic
    yield "missing-edge", CubicSystem(
        Graph(g.vertex_count, g.edges[:-1]), sys.disks, sys.disk_owner, sys.arc_names)
    yield "non-path", CubicSystem(
        g, ((sys.disks[0][0],) * 4,) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    disks = list(sys.disks)
    disks[1] = (99,) + disks[1][1:]
    disks[2] = disks[2][:3]
    yield "outside-and-short", CubicSystem(g, tuple(disks), sys.disk_owner, sys.arc_names)
    for corrupt in (_vertex_99, _short_arc_names, _short_disk_owner, _duplicate_disk,
                    _random_system_with_k44_arcs, _arc_out_of_range, _swapped_owners,
                    _repeated_owner, _extra_arc_on_an_isolated_vertex):
        obj = json.loads(sys.to_json())
        corrupt(obj)
        yield corrupt.__name__, CubicSystem(
            Graph(obj["vertices"], [tuple(e) for e in obj["edges"]]),
            tuple(tuple(p) for p in obj["disks"]), tuple(obj["disk_owner"]),
            tuple(tuple(a) for a in obj["arc_names"]))


def test_disk_edges_of_broken_systems_match_the_edge_index_walk():
    """disk_edges and edge_owner return or raise what one `edge_index` per
    path edge gives, on every call."""
    raised = {}
    for name, sys in _broken_systems():
        for d in range(len(sys.disks)):
            want = _outcome(lambda: _path_edges(sys, d))
            for _ in range(2):  # a kept lookup and a bad disk's second raise
                assert _outcome(lambda: sys.disk_edges(d)) == want, (name, d)
            if isinstance(want, tuple):
                raised[name, d] = want
        want = _outcome(lambda: _edge_owner_oracle(sys))
        assert _outcome(sys.edge_owner) == want, name
    k44 = k44_reference_system()
    last = k44.disks[-1]
    assert raised == {
        ("missing-edge", 7): (GraphError, f"no edge ({last[2]},{last[3]})"),
        ("non-path", 0): (GraphError, f"no edge ({k44.disks[0][0]},{k44.disks[0][0]})"),
        ("outside-and-short", 1): (IndexError, "tuple index out of range"),
        ("outside-and-short", 2): (IndexError, "tuple index out of range"),
        ("_vertex_99", 1): (GraphError, "no edge (0,1)"),
    }
