
import functools
import hashlib
import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from graphdss import cubic
from graphdss.catalog import (
    cage,
    complete_graph,
    k5_reference_system,
    petersen,
    random_4_regular,
    random_cubic,
)
from graphdss.cli import _load_system, _parse_policy
from graphdss.cubic import (
    CubicSystem,
    DecompositionFailure,
    InvalidSystemError,
    NotCubicError,
    NotTwoInTwoOutError,
    PairingMode,
    build_cubic,
    check_star_layout,
    decompose_p4,
    verify_disk_decomposition,
)
from graphdss.graphs import Graph, degree_sequence, girth, is_connected
from graphdss.orientation import OrientedGraph, eulerian_tour, load_orientation, orient_from_tour
from graphdss.repair import RepairStrategy, repair_disk, repair_disks

from conftest import load_by_rebuilding, outcome
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


@pytest.mark.parametrize("digraph, policy, error, message", [
    # every K5 edge directed from its smaller end: vertex 0 has out-degree 4
    (lambda: OrientedGraph(5, complete_graph(5).edges), PairingMode.PARALLEL,
     NotTwoInTwoOutError, "digraph must have in-degree = out-degree = 2"),
    (lambda: load_orientation(Graph(8, K44_REFERENCE_EDGES), K44_REFERENCE_EDGES),
     (PairingMode.PARALLEL,) * 7, ValueError,
     "policy must assign one mode per vertex"),
])
def test_build_cubic_error_messages_are_pinned(digraph, policy, error, message):
    with pytest.raises(error) as exc:
        build_cubic(digraph(), policy)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("policy, message", [
    # a string is an iterable of letters, 8 of them for 8 vertices
    ("parallel", "policy of vertex 0 is not a pairing mode: 'p'"),
    ([None] * 8, "policy of vertex 0 is not a pairing mode: None"),
    ((PairingMode.CROSSED,) * 5 + ("parallel", None, None),
     "policy of vertex 5 is not a pairing mode: 'parallel'"),
], ids=["string", "nones", "name-at-vertex-5"])
def test_build_cubic_refuses_a_policy_entry_that_is_not_a_mode(monkeypatch, policy, message):
    # unchecked, every mode but PARALLEL pairs as crossed, so these would
    # build the all-crossed system, whose to_json raises AttributeError
    g = cage(4).graph
    og = orient_from_tour(g, eulerian_tour(g))
    monkeypatch.setattr(cubic, "_pair_arcs", None)  # refused before any pairing
    with pytest.raises(ValueError) as exc:
        build_cubic(og, policy)
    assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize("name", [-1, 5])
def test_build_cubic_rejects_an_arc_outside_the_vertex_range(name):
    """K5's reference arcs with vertex 4 renamed: -1 must not count as
    vertex 4 through a list index, and 5 must not raise IndexError."""
    arcs = tuple(tuple(name if x == 4 else x for x in a)
                 for a in k5_reference_system("girth3").arc_names)
    assert not OrientedGraph(5, arcs).is_two_in_two_out()
    with pytest.raises(NotTwoInTwoOutError,
                       match="^digraph must have in-degree = out-degree = 2$"):
        build_cubic(OrientedGraph(5, arcs), PairingMode.PARALLEL)


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
    # without its last edge the block graph has no path for the last disk,
    # so no system is made; with one edge more the disks no longer cover it
    sys = k44_reference_system()
    g = sys.cubic
    last = sys.disks[-1]
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem(Graph(g.vertex_count, g.edges[:-1]), sys.disks, sys.disk_owner, sys.arc_names)
    assert str(exc.value) == f"disk 7 is not a path of the block graph: no edge ({last[2]},{last[3]})"
    obj = json.loads(sys.to_json())
    _extra_block_edge(obj)
    extra = Graph(g.vertex_count, [tuple(e) for e in obj["edges"]])
    assert not verify_disk_decomposition(
        CubicSystem(extra, sys.disks, sys.disk_owner, sys.arc_names))


def test_verify_rejects_non_path_disk():
    # a disk whose pairs are no edges, one whose pairs are edges but that
    # walks back along one of them, and a triangle filed where `build_cubic`
    # files a disk's edges: none is a path on 4 distinct vertices
    sys = k44_reference_system()
    x = sys.disks[0][0]
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem(sys.cubic, ((x,) * 4,) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    assert str(exc.value) == f"disk 0 is not a path of the block graph: no edge ({x},{x})"
    c, a, _, _ = sys.disks[0]
    y = next(w for _, w in sys.cubic.incident(c) if w != a)
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem(sys.cubic, ((c, a, c, y),) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    assert str(exc.value) == (
        f"disk 0 is not a path of the block graph: {[c, a, c, y]} repeats a vertex")
    triangle = Graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem(triangle, ((0, 1, 2, 0),), (0,), ((0, 0),) * 3)
    assert str(exc.value) == "disk 0 is not a path of the block graph: [0, 1, 2, 0] repeats a vertex"


def test_verify_rejects_a_negative_vertex_alias():
    """Vertex -10 names vertex 0 of the 10-vertex block graph only as a
    list index; a disk path through it is no path of the graph."""
    sys = k5_reference_system("girth5")
    assert sys.disks[0] == (0, 8, 4, 1)
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem(sys.cubic, ((-10, 8, 4, 1),) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    assert str(exc.value) == "disk 0 names a vertex outside the graph: [-10, 8, 4, 1]"


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


def _p4_pinned_graph(name: str) -> Graph:
    if name == "petersen":
        return petersen().graph
    if name.startswith("cage"):
        g = cage(int(name[4])).graph
        return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).cubic
    return random_cubic(int(name.split("-")[1]), 1)


# SHA-256 of json.dumps(decompose_p4(g)), taken from the recursive matching
# search: the stack-based search must try matchings in the same order
DECOMPOSE_P4_DIGESTS = {
    "petersen": "b3e2109bd5ddeaef890ada7e5257ce4172a9d349296db2be88bee742484a951e",
    "cage3-block": "cfb976ab932821817698b885ac4b976dcb8b1a1076655c38c77d2fe5c1b03427",
    "cage4-block": "28bbb7f28f4195884d16f9ab79708d9d02eda34b868fff3ad3aae5c25c703925",
    "cage5-block": "67f1c65eabc631ef3925ca9490e69c0d44d65035fa5f5a9838e3b729421434eb",
    "cage6-block": "35c47cb32c1e5f3a0ef2dc4fd66a5ae25a92890707547dc27a6bd5b1654f2815",
    "random-20": "b36f1210de35a03b3fead0a7576d5b9dd6e805da8db6e85677f21b1bc285dc5b",
    "random-22": "98fc698d53643f6bfc83034b7e0ce686186e531160822add03fda12e160e68c4",
    "random-24": "441c81c919efe1ba0bb8d4f8f09a542208f3d9eafd4eee5b28feab31017c8ce3",
    "random-26": "aac0308d83d25ab86f07dcfb3366011f1eb293ecd08c1a93eed983acd5423522",
    "random-28": "5dc2ad7e6cfbcc9b9e15e4d83f9b37e1aeec2f06fd06e03f85d9737444e0f1f2",
    "random-30": "e0ab4404a4f27e9588fb553ff9db1ec14d7f7b6b871e03ad4676ef8d47d1c2dc",
    "random-32": "5e5f4520a82048cf6d52ecf5421cb6951a93763c253d8e2a6a6f5c428c47eabc",
    "random-34": "06c5e20f74bfa694b8fe95ee5e9e9508cc5251d38e6a925a5b9fc897c1c89bc5",
    "random-36": "322f905e0e6852a69d81df8bdea7cb7ce71c1515e313e8b8f624f9453c44a7bb",
    "random-38": "f7079baa51fe1589efcc89baf8bf6043af1a5262d1318f051b35eb560a1bb721",
    "random-40": "624eeaa5882321ee9770be69be0b55e92a04974ebc845cf78669ac7eb1db2d0e",
    "random-42": "c5a0cc595ea14f11a50cc777d93e7a17d955dadf644ca982a6ea50826322cc08",
    "random-44": "1735a374315b109209be9cae55a833ec1fa960144e44399d9077e7557dade4da",
    "random-46": "c62617c675801c664c25a3225b320a170aca62490d60aac4c81b2831db155eeb",
    "random-48": "2f0f172786492982ac5263f69a5d79edb9940e3a9d953067543a42c14f17f5d6",
    "random-50": "a11c6fc122f9bb01dd962ef4fb6f18ba15dca419df682cc4cd51d35737915c1b",
    "random-52": "c9870fd8fc6b9af96b8b315e6ccbe19a140a11cc6c701af06895e6e08512b58e",
    "random-54": "29831f3b6ce611ddba54b54cf60a50fdaa06429d7dcbdb1537ff87d538fa8b13",
    "random-56": "58bb3c1c859b2f14e02209b3be5872188da56892138b493b6b293ce7953cc3a7",
    "random-58": "4ad56bed2e76823a2511921cbe46bf8c04d3ce5c906e02ec5bca5a466373d3b1",
    "random-60": "d5552ab838c8623ff58dc470c1a0b0ff7d21943441a7e7bf89ae04fe56345763",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_P4_DIGESTS))
def test_decompose_p4_output_is_pinned(name):
    paths = decompose_p4(_p4_pinned_graph(name))
    assert hashlib.sha256(json.dumps(paths).encode()).hexdigest() == DECOMPOSE_P4_DIGESTS[name]


def prism(k: int) -> Graph:
    """The prism C_k x K2: two k-cycles, vertex i of one joined to vertex i
    of the other; cubic, with the perfect matching of its k rungs."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + u, k + v) for u, v in edges] + [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)



def test_system_json_round_trip():
    sys = k44_reference_system()
    back = CubicSystem.from_obj(json.loads(sys.to_json()))
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


def _extra_block_edge(obj):
    present = {frozenset(e) for e in obj["edges"]}
    n = obj["vertices"]
    obj["edges"].append(next([u, v] for u in range(n) for v in range(u + 1, n)
                             if frozenset((u, v)) not in present))


def _middle_edge_off_the_paths(obj, d=1):
    """Replace disk d's middle block edge (a, b) by (a, y) for the first
    vertex y not next to a: a pair on no disk path.  The arcs still lay
    out the source graph, but disk d is not a path of the block graph."""
    _, a, b, _ = obj["disks"][d]
    edges = obj["edges"]
    near = {v for e in edges if a in e for v in e}
    y = next(y for y in range(obj["vertices"]) if y not in near)
    edges[next(i for i, e in enumerate(edges) if set(e) == {a, b})] = [a, y]


@pytest.mark.parametrize(
    "corrupt",
    [_without_disks, _vertex_99, _short_arc_names, _short_disk_owner, _duplicate_disk,
     _random_system_with_k44_arcs, _arc_out_of_range, _swapped_owners, _repeated_owner,
     _extra_arc_on_an_isolated_vertex, _extra_block_edge, _middle_edge_off_the_paths],
)
def test_system_json_rejects_inconsistent_system(corrupt):
    obj = json.loads(k44_reference_system().to_json())
    corrupt(obj)
    with pytest.raises(InvalidSystemError):
        CubicSystem.from_obj(obj)


@pytest.mark.parametrize(
    "corrupt,message",
    [(_swapped_owners, "disk 0: its end arcs must leave vertex 1 and its middle arcs enter it"),
     (_random_system_with_k44_arcs,
      "disk 0: its end arcs must leave vertex 0 and its middle arcs enter it"),
     (_short_disk_owner, "7 disk owners for 8 disks"),
     (_extra_block_edge, "8 disks of 3 edges cannot cover a block graph of 25 edges"),
     (_middle_edge_off_the_paths, "disk 1 is not a path of the block graph: no edge (0,8)")],
)
def test_system_json_star_check_message(corrupt, message):
    # the check is shared with `verify_recovery_bound`; its messages, the
    # owner count's among them, are the file loader's
    obj = json.loads(k44_reference_system().to_json())
    corrupt(obj)
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem.from_obj(obj)
    assert str(exc.value) == message


def test_system_json_writes_no_vertex_labels():
    # no block graph that the library builds or loads has labels, and
    # `from_obj` reads none, so a bare system's labels are not written
    sys = k44_reference_system()
    labelled = Graph(sys.cubic.vertex_count, sys.cubic.edges,
                     vertex_labels=[f"arc{i}" for i in range(sys.cubic.vertex_count)])
    text = CubicSystem(labelled, sys.disks, sys.disk_owner, sys.arc_names).to_json()
    assert "vertex_labels" not in json.loads(text)
    assert CubicSystem.from_obj(json.loads(text)).disks == sys.disks


def test_system_json_fills_the_disk_edge_table():
    # the star check looks each disk up once; pricing reuses the lookups
    sys = CubicSystem.from_obj(json.loads(k44_reference_system().to_json()))
    assert None not in sys._disk_edge_table


def _true_for_vertex_1(obj):
    for key in ("edges", "disks"):
        obj[key] = [[True if v == 1 else v for v in item] for item in obj[key]]


def _edge_of_three(obj):
    obj["edges"][2] = obj["edges"][2] + [5]


def _float_disk_vertex(obj):
    obj["disks"][3][1] = float(obj["disks"][3][1])


def _bool_disk_owner(obj):
    obj["disk_owner"][1] = True


def _arc_name_of_one(obj):
    obj["arc_names"][4] = obj["arc_names"][4][:1]


@pytest.mark.parametrize(
    "corrupt,named",
    [(_true_for_vertex_1, "edge 2 is not a list of 2 ints: [14, True]"),
     (_edge_of_three, "edge 2 is not a list of 2 ints: [14, 1, 5]"),
     (_float_disk_vertex, "disk 3 is not a list of 4 ints"),
     (_bool_disk_owner, "disk owner 1 is not an int: True"),
     (_arc_name_of_one, "arc name 4 is not a list of 2 ints: [2]")],
)
def test_system_json_names_a_malformed_entry(corrupt, named):
    obj = json.loads(k44_reference_system().to_json())
    corrupt(obj)
    with pytest.raises(InvalidSystemError, match="^malformed system file") as exc:
        CubicSystem.from_obj(obj)
    assert named in str(exc.value)


def test_system_json_rejects_malformed_json(tmp_path):
    # a system file is parsed by the one file reader, which names it
    path = tmp_path / "sys.json"
    path.write_bytes(k44_reference_system().to_json()[:-2].encode())
    with pytest.raises(ValueError, match=f"^system file {re.escape(str(path))} is not valid JSON: "):
        _load_system(str(path))


@pytest.mark.parametrize(
    "modes,message",
    [(["crossed"], "policy has 1 modes for 5 disks"),
     # the disks stay the parallel ones
     (["crossed"] * 5, "disk 0 is not the crossed pairing of vertex 0's arcs")],
    ids=["one-mode-for-5-disks", "crossed-over-parallel-disks"],
)
def test_system_json_rejects_a_policy_its_disks_do_not_follow(modes, message):
    obj = json.loads(k5_reference_system("girth3").to_json())
    obj["policy"] = modes
    with pytest.raises(InvalidSystemError) as exc:
        CubicSystem.from_obj(obj)
    assert str(exc.value) == message


def test_system_json_accepts_its_policy_in_either_direction():
    sys = k5_reference_system("girth5")
    obj = json.loads(sys.to_json())
    obj["disks"] = [d[::-1] for d in obj["disks"]]
    back = CubicSystem.from_obj(obj)
    assert back.policy == sys.policy
    assert [d[::-1] for d in back.disks] == list(sys.disks)


def test_system_json_accepts_every_built_system():
    for seed in range(5):
        g = random_4_regular(12, seed)
        for mode in PairingMode:
            sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)
            assert CubicSystem.from_obj(json.loads(sys.to_json())).disks == sys.disks


def test_system_json_checks_its_policy_without_building_a_second_system(monkeypatch):
    """A policy-bearing file loads into its block graph and its source
    graph alone: no `build_cubic`, no `OrientedGraph`, 2 `Graph`s."""
    text = build_cubic(_oriented("cage5"), tuple(
        PairingMode.CROSSED if v % 3 == 0 else PairingMode.PARALLEL for v in range(19))).to_json()
    built = []
    graph_init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        graph_init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a second system was built")

    monkeypatch.setattr(Graph, "__init__", counting)
    monkeypatch.setattr(cubic, "build_cubic", refuse)
    monkeypatch.setattr(OrientedGraph, "__init__", refuse)
    back = CubicSystem.from_obj(json.loads(text))
    assert built == [back.cubic, back.source_graph]
    assert back.policy[:4] == (PairingMode.CROSSED, PairingMode.PARALLEL, PairingMode.PARALLEL,
                               PairingMode.CROSSED)


_POLICY_SOURCES = ["cage3", "cage4", "cage5", "cage6"] + [f"rr4-40-{s}" for s in range(4)]


@st.composite
def policy_files(draw):
    """The JSON text of a system built under random modes, then edited:
    some modes flipped, some disks reversed and, now and then, a mode
    dropped or added."""
    og = _oriented(draw(st.sampled_from(_POLICY_SOURCES)))
    n = og.vertex_count
    modes = draw(st.lists(st.sampled_from(list(PairingMode)), min_size=n, max_size=n))
    obj = json.loads(build_cubic(og, tuple(modes)).to_json())
    names = [m.value for m in PairingMode]
    for v in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        obj["policy"][v] = names[1 - names.index(obj["policy"][v])]
    for d in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        obj["disks"][d].reverse()
    length = draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))
    obj["policy"] = (obj["policy"] + names)[:length]
    return json.dumps(obj)


def _verdict(load, text):
    """The policy of the loaded system and its disks, or the message of the
    InvalidSystemError that rejects the file."""
    try:
        system = load(text)
    except InvalidSystemError as exc:
        return str(exc)
    return system.policy, system.disks


@given(policy_files())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_system_json_policy_check_matches_a_rebuilt_system(text):
    assert (_verdict(lambda t: CubicSystem.from_obj(json.loads(t)), text)
            == _verdict(load_by_rebuilding, text))


@pytest.mark.parametrize("vertex", [-1, 5])
def test_policy_rejects_vertex_outside_the_graph(vertex):
    with pytest.raises(ValueError):
        _parse_policy(f"parallel,crossed@{vertex}", 5)


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
        policy = tuple(PairingMode.CROSSED if v % 3 == 0 else PairingMode.PARALLEL
                       for v in range(og.vertex_count))
    else:
        policy = PairingMode(mode)
    text = build_cubic(og, policy).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGESTS[case]


def _path_edges(sys, d):
    """disk_edges as first written: one `Graph.edge_index` per path edge."""
    p = sys.disks[d]
    return tuple(sys.cubic.edge_index(p[i], p[i + 1]) for i in range(3))


def _edge_owner_oracle(sys):
    owner = [-1] * sys.cubic.edge_count
    for d in range(len(sys.disks)):
        for ei in _path_edges(sys, d):
            owner[ei] = d
    return owner


def _broken_systems():
    """(name, constructor arguments) of broken systems: the two of the
    verify tests, then each corrupted k44 file of
    `test_system_json_rejects_inconsistent_system` that still has disks."""
    sys = k44_reference_system()
    g = sys.cubic
    yield "missing-edge", (
        Graph(g.vertex_count, g.edges[:-1]), sys.disks, sys.disk_owner, sys.arc_names)
    yield "non-path", (
        g, ((sys.disks[0][0],) * 4,) + sys.disks[1:], sys.disk_owner, sys.arc_names)
    disks = list(sys.disks)
    disks[1] = (99,) + disks[1][1:]
    disks[2] = disks[2][:3]
    yield "outside-and-short", (g, tuple(disks), sys.disk_owner, sys.arc_names)
    for corrupt in (_vertex_99, _short_arc_names, _short_disk_owner, _duplicate_disk,
                    _random_system_with_k44_arcs, _arc_out_of_range, _swapped_owners,
                    _repeated_owner, _extra_arc_on_an_isolated_vertex):
        obj = json.loads(sys.to_json())
        corrupt(obj)
        yield corrupt.__name__, (
            Graph(obj["vertices"], [tuple(e) for e in obj["edges"]]),
            tuple(tuple(p) for p in obj["disks"]), tuple(obj["disk_owner"]),
            tuple(tuple(a) for a in obj["arc_names"]))


def test_verify_rejects_the_broken_systems_that_are_no_decomposition():
    # the constructor refuses the systems with a disk that is no path of
    # the block graph; of the rest, `_duplicate_disk` repeats 3 edges, and
    # the systems not listed decompose the block graph and fail only the
    # star-layout check
    k44 = k44_reference_system()
    last = k44.disks[-1]
    refused, rejected = {}, set()
    for name, args in _broken_systems():
        try:
            sys = CubicSystem(*args)
        except InvalidSystemError as exc:
            refused[name] = str(exc)
            continue
        if not verify_disk_decomposition(sys):
            rejected.add(name)
    assert refused == {
        "missing-edge": f"disk 7 is not a path of the block graph: no edge ({last[2]},{last[3]})",
        "non-path": f"disk 0 is not a path of the block graph: no edge "
                    f"({k44.disks[0][0]},{k44.disks[0][0]})",
        "outside-and-short": "disk 1 names a vertex outside the graph: "
                             f"{[99, *k44.disks[1][1:]]}",
        "_vertex_99": "disk 1 names a vertex outside the graph: [0, 1, 2, 99]",
    }
    assert rejected == {"_duplicate_disk"}


def test_disk_edges_of_broken_systems_match_the_edge_index_walk():
    """A broken system is made exactly when one `edge_index` per path edge
    finds every disk, and then disk_edges and edge_owner give what that
    walk gives; otherwise the constructor names the first disk whose walk
    fails."""
    made = 0
    for name, args in _broken_systems():
        shell = SimpleNamespace(cubic=args[0], disks=args[1])
        walks = [outcome(lambda: _path_edges(shell, d)) for d in range(len(shell.disks))]
        bad = next((d for d, w in enumerate(walks) if isinstance(w[0], type)), None)
        if bad is not None:
            with pytest.raises(InvalidSystemError, match=f"^disk {bad} "):
                CubicSystem(*args)
            continue
        sys = CubicSystem(*args)
        made += 1
        assert [sys.disk_edges(d) for d in range(len(sys.disks))] == walks, name
        assert sys.edge_owner() == _edge_owner_oracle(sys), name
    assert made == 8


@pytest.mark.parametrize("d", [-1, -5, 5, 99])
def test_disk_edges_names_a_disk_outside_the_system(d):
    # a negative index would otherwise read a disk from the end
    sys = k5_reference_system("girth5")
    with pytest.raises(IndexError) as exc:
        sys.disk_edges(d)
    assert str(exc.value) == f"no disk {d}; disks are 0..4"


def _seeded_system(name):
    """(system, source graph) built by `build_cubic`: "cage<g>:<pairing>",
    "k5:<variant>" or "rr4-200-1:mixed", the last under a random policy."""
    source, variant = name.split(":")
    if source == "k5":
        return k5_reference_system(variant), complete_graph(5)
    og = _oriented(source)
    if variant == "mixed":
        rng = random.Random("seeded-disk-edge-table")
        policy = tuple(rng.choice(list(PairingMode)) for _ in range(og.vertex_count))
        return build_cubic(og, policy), random_4_regular(200, 1)
    return build_cubic(og, PairingMode(variant)), cage(int(source[4:])).graph


SEEDED_SYSTEMS = ([f"cage{gg}:{mode.value}" for gg in (3, 4, 5, 6) for mode in PairingMode]
                  + ["k5:girth5", "k5:girth3", "rr4-200-1:mixed"])


def _walk(sys):
    return [_path_edges(sys, d) for d in range(len(sys.disks))]


def _counting_edge_index(monkeypatch):
    """Patch `Graph.edge_index` to record each call; the list of calls."""
    calls, lookup = [], Graph.edge_index
    monkeypatch.setattr(Graph, "edge_index",
                        lambda self, u, v: calls.append((u, v)) or lookup(self, u, v))
    return calls


@pytest.mark.parametrize("name", SEEDED_SYSTEMS)
def test_build_cubic_files_the_edge_index_walk(name, monkeypatch):
    # a built system and the load of its file, whose disk d has its path
    # pairs at edges 3d..3d+2, file the triples the walk finds without a lookup
    sys, _ = _seeded_system(name)
    calls = _counting_edge_index(monkeypatch)
    loaded = CubicSystem.from_obj(json.loads(sys.to_json()))
    assert calls == []
    assert sys._disk_edge_table == loaded._disk_edge_table == _walk(sys) == _walk(loaded)


@pytest.mark.parametrize("name", ["cage3:parallel", "cage6:crossed", "k5:girth3",
                                  "rr4-200-1:mixed"])
def test_a_system_file_out_of_disk_order_files_the_same_table(name, monkeypatch):
    """A file whose edges are shuffled, some of them reversed, has disks
    whose pairs are not at 3d..3d+2; each such disk is looked up with 3
    `edge_index` calls, and the table is the walk of the file: the same
    edges, by their ends, as the built system's table."""
    sys, _ = _seeded_system(name)
    obj = json.loads(sys.to_json())
    rng = random.Random(name)
    order = list(range(len(obj["edges"])))
    rng.shuffle(order)
    obj["edges"] = [obj["edges"][i][::rng.choice((1, -1))] for i in order]
    calls = _counting_edge_index(monkeypatch)
    loaded = CubicSystem.from_obj(obj)
    moved = [d for d, (c, a, b, e) in enumerate(sys.disks)
             if loaded.cubic.edges[3 * d: 3 * d + 3] != ((c, a), (a, b), (b, e))]
    assert moved and len(calls) == 3 * len(moved)
    assert loaded._disk_edge_table == _walk(loaded)

    def ends(system):
        return [[set(system.cubic.edges[e]) for e in t] for t in system._disk_edge_table]

    assert ends(loaded) == ends(sys)


@pytest.mark.parametrize("name", SEEDED_SYSTEMS)
def test_a_built_system_is_checked_and_priced_without_a_lookup(name, monkeypatch):
    """The star check, the edge owners and every price of a built system
    read the filed triples; no `Graph.edge_index` call is made."""
    sys, g4 = _seeded_system(name)
    owner = _edge_owner_oracle(sys)

    def refuse(self, u, v):
        raise AssertionError(f"edge_index({u}, {v}) on a built system")

    monkeypatch.setattr(Graph, "edge_index", refuse)
    check_star_layout(sys, g4)
    assert sys.edge_owner() == owner
    for d in range(len(sys.disks)):
        prices = [(r.transferred_symbols, r.rounds)
                  for r in (repair_disk(sys, d, strategy) for strategy in RepairStrategy)]
        assert prices == [(4, 3), (5, 2)], d
    assert len(repair_disks(sys, [0]).recovered) == 3
