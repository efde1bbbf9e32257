import hashlib
import itertools
import json
import time

import pytest

import graphdss.catalog
from graphdss.catalog import (
    K5_ORIENTATION,
    CatalogError,
    GenerationFailed,
    MissingDataFileError,
    by_name,
    cage,
    catalog_names,
    complete_graph,
    k5_reference_system,
    petersen,
    random_4_regular,
    random_cubic,
    random_regular,
)
from graphdss.cubic import decompose_p4
from graphdss.graphs import Graph, degree_sequence, girth, is_connected
from graphdss.orientation import load_orientation

from conftest import random_regular_oracle


@pytest.mark.parametrize(
    "g,vertices,edges",
    [(3, 5, 10), (4, 8, 16), (5, 19, 38), (6, 26, 52)],
)
def test_cage_shapes(g, vertices, edges):
    entry = cage(g)
    assert entry.graph.vertex_count == vertices
    assert entry.graph.edge_count == edges
    assert all(d == 4 for d in degree_sequence(entry.graph))
    assert girth(entry.graph) == g
    assert is_connected(entry.graph)


def test_cage7_missing_file(monkeypatch):
    monkeypatch.delenv("GRAPHDSS_CAGE7_FILE", raising=False)
    with pytest.raises(MissingDataFileError):
        cage(7)


def _k5_lift(n, voltages):
    """The cyclic n-lift of K5: vertex (v, x) is v * n + x, and the edge
    {u, v} of voltage a joins (u, x) to (v, x + a mod n).  4-regular."""
    k5 = itertools.combinations(range(5), 2)
    return Graph(5 * n, [(u * n + x, v * n + (x + a) % n)
                         for (u, v), a in zip(k5, voltages) for x in range(n)])


# a connected 4-regular lift of girth 7 on 130 vertices; doubling n and
# the voltages gives two copies of it
_GIRTH7_VOLTAGES = (0, 0, 0, 0, 8, 15, 5, 17, 24, 4)


@pytest.mark.parametrize("graph, message", [
    (lambda: petersen().graph, "cage47: not 4-regular"),
    (lambda: complete_graph(5), "cage47: girth 3 != claimed 7"),
    (lambda: _k5_lift(52, [2 * a for a in _GIRTH7_VOLTAGES]), "cage47: disconnected"),
    (lambda: _k5_lift(26, _GIRTH7_VOLTAGES), "cage47: 130 vertices, the (4,7)-cage has 67"),
])
def test_cage7_rejects_a_file_that_is_not_a_cage(tmp_path, monkeypatch, graph, message):
    lift = _k5_lift(26, _GIRTH7_VOLTAGES)
    assert (girth(lift), is_connected(lift)) == (7, True)
    path = tmp_path / "cage7.json"
    path.write_text(graph().to_json())
    monkeypatch.setenv("GRAPHDSS_CAGE7_FILE", str(path))
    with pytest.raises(CatalogError) as exc:
        cage(7)
    assert str(exc.value) == message


def test_cage7_rejects_a_file_with_more_vertices_than_edge_ends_before_building_it(
        tmp_path, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("a Graph of the declared size was built")

    path = tmp_path / "cage7.json"
    path.write_text(json.dumps({"vertices": 10**9, "edges": [[0, 1]]}))
    monkeypatch.setenv("GRAPHDSS_CAGE7_FILE", str(path))
    monkeypatch.setattr(Graph, "__init__", no_graph)
    with pytest.raises(CatalogError, match=r"^cage47: graph file declares 1000000000 vertices, "
                                           r"but its 1 edges have 2 ends, so some vertex has no "
                                           r"edge$"):
        cage(7)


def test_cage_out_of_range():
    with pytest.raises(CatalogError):
        cage(8)


def test_pg23_incidence_structure():
    g = cage(6).graph
    # bipartite points/lines split at index 13; every edge crosses it
    assert all((u < 13) != (v < 13) for u, v in g.edges)
    assert g.edge_count == 52


def test_petersen_entry():
    entry = petersen()
    assert girth(entry.graph) == 5
    assert all(d == 3 for d in degree_sequence(entry.graph))
    assert len(decompose_p4(entry.graph)) == 5


def test_k5_reference_system_variants():
    assert girth(k5_reference_system("girth5").cubic) == 5
    assert girth(k5_reference_system("girth3").cubic) == 3
    with pytest.raises(CatalogError):
        k5_reference_system("girth7")


def test_by_name():
    assert by_name("k5").graph.vertex_count == 5
    with pytest.raises(CatalogError):
        by_name("nope")
    assert "petersen" in catalog_names()


@pytest.mark.parametrize("name, regularity, girth_, vertices, edges", [
    ("k5", 4, 3, 5, 10),
    ("k44", 4, 4, 8, 16),
    ("robertson", 4, 5, 19, 38),
    ("pg23", 4, 6, 26, 52),
    ("petersen", 3, 5, 10, 15),
])
def test_hard_coded_graphs_are_what_the_catalog_claims(name, regularity, girth_, vertices,
                                                       edges):
    # the catalog builds these without checks; this is their proof
    g = by_name(name).graph
    assert (g.vertex_count, g.edge_count) == (vertices, edges)
    assert set(degree_sequence(g)) == {regularity}
    assert girth(g) == girth_
    assert is_connected(g)


def test_pinned_k5_orientation_orients_k5():
    assert load_orientation(complete_graph(5), K5_ORIENTATION.arcs) == K5_ORIENTATION
    assert K5_ORIENTATION.is_two_in_two_out()


def test_hard_coded_entries_are_built_without_checks(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a hard-coded catalog entry was re-checked")

    for name in ("girth", "is_connected", "degree_sequence", "load_orientation"):
        # the catalog need not import a check it no longer calls
        monkeypatch.setattr(graphdss.catalog, name, no_check, raising=False)
    for g in (3, 4, 5, 6):
        cage(g)
    petersen()
    for name in ("k5", "k44", "robertson", "pg23", "petersen"):
        by_name(name)
    k5_reference_system("girth5")
    k5_reference_system("girth3")


def test_random_4_regular_properties():
    for seed in range(8):
        g = random_4_regular(6 + seed, seed=seed)
        assert all(d == 4 for d in degree_sequence(g))
        assert is_connected(g)


def test_random_4_regular_deterministic():
    assert random_4_regular(10, seed=4).edges == random_4_regular(10, seed=4).edges


def test_random_4_regular_minimum_size():
    assert random_4_regular(5, seed=0).edge_count == 10  # forced to be K5
    with pytest.raises(GenerationFailed):
        random_4_regular(4, seed=0)


def test_random_regular_gives_up_after_its_tries(monkeypatch):
    # the configuration model almost never pairs 20 stubs into K5 at once
    monkeypatch.setattr(graphdss.catalog, "RANDOM_REGULAR_TRIES", 1)
    with pytest.raises(GenerationFailed) as info:
        random_regular(4, 5, 0)
    assert str(info.value) == "no simple connected 4-regular graph after 1 tries"


def test_random_cubic_properties():
    for seed in range(5):
        g = random_cubic(10, seed=seed)
        assert all(d == 3 for d in degree_sequence(g))
        assert is_connected(g)
    with pytest.raises(GenerationFailed):
        random_cubic(7, seed=0)


# sha256 of json.dumps(edges), taken from the separate 4-regular and cubic
# generators before they were merged: every existing seed keeps its graph
GENERATOR_DIGESTS = [
    (random_4_regular, 5, 0, "d21924ceefc6364cf80fe2733ceb1427b9b8ebd8863971cd38d48293588fce7d"),
    (random_4_regular, 12, 3, "cff06705d00820996afc4183c915972b34c0a70d5bfd06ddd9ce1df085450a8e"),
    (random_4_regular, 200, 1, "4170f76422806c72a8c900db3714d2e14d78239f01f66863b57a2ca06945372f"),
    (random_4_regular, 1000, 2, "25a3f0c300c54a5c714c6540a38baf9a84891fb3111d9f0285fafd81510c383e"),
    (random_4_regular, 3000, 1, "56929c7dc8088677b73dff2d5b4a42ded3a0f987aadd50f09d807651ba192504"),
    (random_4_regular, 3000, 13, "9ea51f1b4336f79e28635317d0c32a6fac1f0757de6fe31625d25a36a47b8051"),
    (random_cubic, 4, 0, "baba373788e52989efb6d5798941113c8d34c53c22aa4ca85fc8d0da9bc36101"),
    (random_cubic, 10, 5, "1abd25f2d905c07959535ba9688fa576b570cb0d31502dd7d87280cee2c4e876"),
    (random_cubic, 60, 2, "266d296e1961c07b2c10f75357a18fef1092e067e21b4fcbcef97ea86767bf77"),
    (random_cubic, 1000, 7, "aa80cfc3134ef098c597a95d742e21e03dfacc92c3795e0c033f786a71fd33ad"),
]


@pytest.mark.parametrize(
    "gen,n,seed,digest",
    GENERATOR_DIGESTS,
    ids=[f"{gen.__name__}-{n}-{seed}" for gen, n, seed, _ in GENERATOR_DIGESTS],
)
def test_random_generators_keep_their_outputs(gen, n, seed, digest):
    d = 4 if gen is random_4_regular else 3
    for edges in (gen(n, seed).edges, random_regular(d, n, seed).edges):
        assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == digest


def _outcome(gen, d, n, seed):
    try:
        return gen(d, n, seed).edges
    except GenerationFailed as exc:
        return ("GenerationFailed", str(exc))


GENERATOR_ORACLE_CASES = [
    (d, n, seed) for d in (3, 4) for n in range(d + 1, 41) for seed in range(5)
] + [
    # short stub lists walk every run boundary: runs of one step, the step-0
    # draw of width 0, and (d = 1, n >= 4) rejects in every try
    (d, n, seed) for d, sizes in ((1, range(2, 9)), (2, range(3, 17)))
    for n in sizes for seed in range(5)
] + [(4, 200, s) for s in (0, 1, 2)] + [(4, 1000, s) for s in (1, 6)] + [
    (4, 3000, s) for s in (1, 2)] + [(3, 1000, s) for s in (0, 7)]


def test_random_regular_matches_the_shuffle_oracle():
    # every small size of degrees 1 to 4, odd n*d included, plus large
    # graphs whose generation takes from a few to 80 tries
    for d, n, seed in GENERATOR_ORACLE_CASES:
        assert _outcome(random_regular, d, n, seed) == _outcome(
            random_regular_oracle, d, n, seed), (d, n, seed)


def test_random_regular_with_no_regular_graph_to_make():
    # an empty stub list pairs into no edges: one vertex is connected, three
    # are not, and no 1-regular graph on 4 vertices is connected
    g = random_regular(0, 1, 0)
    assert (g.vertex_count, g.edges) == (1, ())
    for d, n in ((0, 3), (1, 4)):
        with pytest.raises(GenerationFailed) as info:
            random_regular(d, n, 0)
        assert str(info.value) == (f"no simple connected {d}-regular graph after "
                                   f"{graphdss.catalog.RANDOM_REGULAR_TRIES} tries")


def test_rejected_tries_cost_only_their_draws():
    # random_4_regular(1000, 6) makes 80 tries; the oracle shuffles the whole
    # stub list and rebuilds it on each, the library only draws after a
    # reject.  Best of 3, the two timed in turn.
    runs = {
        "library": lambda: random_4_regular(1000, 6),
        "oracle": lambda: random_regular_oracle(4, 1000, 6),
    }
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(3):
        for name, gen in runs.items():
            start = time.perf_counter()
            gen()
            best[name] = min(best[name], time.perf_counter() - start)
    assert best["oracle"] >= 1.8 * best["library"], best
