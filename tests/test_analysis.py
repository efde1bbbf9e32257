import itertools
import json
import math
import random
import time

import pytest

from graphdss import analysis
from graphdss.analysis import profile, SystemProfile, verify_recovery_bound
from graphdss import cli, code, cubic, repair
from graphdss.catalog import cage, complete_graph, k5_reference_system, random_4_regular
from graphdss.code import derive_code
from graphdss.cubic import (
    CubicSystem, InvalidSystemError, PairingMode, build_cubic, check_star_layout, decompose_p4
)
from graphdss.graphs import EdgeSubset, Graph, girth, two_core
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import peel

from conftest import (
    _fewest_cyclic_disks, _paths_contain_cycle, all_simple_cycles, gf2_rank, has_cycle,
    minimum_distance, parity_rows, system_from_cage
)
from test_cli import _two_k5_systems
from test_cubic import _middle_edge_off_the_paths, k44_reference_system


K5 = complete_graph(5)


def test_disk_cycle_of_triangle_in_girth3_variant():
    sys = k5_reference_system("girth3")
    owner = sys.edge_owner()
    triangles = [c for c in all_simple_cycles(sys.cubic) if len(c) == 3]
    assert triangles
    assert len({owner[ei] for ei in triangles[0]}) == 3


def test_disk_cycle_of_petersen_five_cycles():
    sys = k5_reference_system("girth5")
    owner = sys.edge_owner()
    cycles = [c for c in all_simple_cycles(sys.cubic) if len(c) == 5]
    assert cycles
    for c in cycles:
        assert 3 <= len({owner[ei] for ei in c}) <= 5


def _cycle_oracle(sys):
    """Per-subset oracle: a test of whether a disk subset's edges contain a
    cycle, each subset on a fresh forest."""
    disk_edges = [sys.disk_edges(d) for d in range(len(sys.disks))]
    return lambda disks: has_cycle(sys.cubic, [e for d in disks for e in disk_edges[d]])


def _oracle_first_cyclic_subset(sys, k):
    """The lexicographically first k-subset of disks whose edges contain a
    cycle."""
    cyclic = _cycle_oracle(sys)
    return next((c for c in itertools.combinations(range(len(sys.disks)), k) if cyclic(c)), None)


def _tour_system(g, mode):
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)


def _random_system(n, seed, mode):
    g = random_4_regular(n, seed)
    return _tour_system(g, mode), g


_PG23 = cage(6).graph
_WALK_SYSTEMS = {
    "k5-girth5": lambda: (k5_reference_system("girth5"), K5),
    "k5-girth3": lambda: (k5_reference_system("girth3"), K5),
    "k44": lambda: (k44_reference_system(), Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)),
    "cage3": lambda: system_from_cage(3),
    "cage4": lambda: system_from_cage(4),
    "cage5": lambda: system_from_cage(5),
    "pg23-parallel": lambda: (_tour_system(_PG23, PairingMode.PARALLEL), _PG23),
    "pg23-crossed": lambda: (_tour_system(_PG23, PairingMode.CROSSED), _PG23),
}
for _n, _s in [(10, 1), (12, 2), (14, 3), (17, 4), (20, 5)]:
    for _mode in PairingMode:
        _WALK_SYSTEMS[f"random-{_n}-{_s}-{_mode.value}"] = (
            lambda n=_n, s=_s, mode=_mode: _random_system(n, s, mode))


@pytest.mark.parametrize("name", sorted(_WALK_SYSTEMS))
def test_first_cyclic_subset_matches_per_subset_oracle(name):
    sys, g4 = _WALK_SYSTEMS[name]()
    gg = int(girth(g4))
    fewest = _fewest_cyclic_disks(sys)
    found = []
    for k in range(1, gg + 1):
        expected = _oracle_first_cyclic_subset(sys, k)
        assert (expected is None) == (k < fewest), (k, expected, fewest)
        found.append(expected is not None)
    # the theorem, seen through the oracle: g - 1 disks always recover, g may not
    assert found == [False] * (gg - 1) + [True]


@pytest.mark.parametrize("name", ["k44", "cage3", "cage4", "cage5"])
def test_fewest_cyclic_disks_on_a_kotzig_decomposition(name):
    # Kotzig's disks are not the paths of a source vertex's arcs, so only
    # the cycle-rank lemma ties their count to girth(I) / 2
    sys = _WALK_SYSTEMS[name]()[0]
    paths = tuple(decompose_p4(sys.cubic))
    kotzig = CubicSystem(sys.cubic, paths, tuple(range(len(paths))), sys.arc_names)
    assert _fewest_cyclic_disks(kotzig) == _fewest_disks_with_a_cycle(kotzig)


def test_paths_contain_cycle_matches_per_subset_oracle(cage_systems):
    # sizes up to g + 2, so that cyclic draws are tested too
    rng = random.Random(11)
    for gg in (3, 4, 5, 6):
        sys, g4 = cage_systems[gg]
        cyclic = _cycle_oracle(sys)
        n = len(sys.disks)
        seen = set()
        for _ in range(300):
            disks = rng.sample(range(n), rng.randint(1, min(gg + 2, n)))
            expected = cyclic(disks)
            assert _paths_contain_cycle([sys.disks[d] for d in disks]) == expected, disks
            seen.add(expected)
        assert seen == {False, True}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sampled_verdict_matches_per_subset_oracle(seed):
    sys, g4 = _random_system(200, 1, PairingMode.PARALLEL)
    n, k = len(sys.disks), int(girth(g4)) - 1
    drawn = [random.Random(f"{seed}:{i}").sample(range(n), k) for i in range(300)]
    expected = not any(map(_cycle_oracle(sys), drawn))
    assert verify_recovery_bound(sys, g4, mode="sampled", trials=300, seed=seed)[0] == expected


def test_exhaustive_bound_beats_the_per_subset_oracle(cage_systems):
    sys, g4 = cage_systems[6]  # pg23: all C(26, 5) = 65 780 subsets recover
    subsets = list(itertools.combinations(range(len(sys.disks)), int(girth(g4)) - 1))
    assert len(subsets) == math.comb(26, 5) == 65_780

    cyclic = _cycle_oracle(sys)

    def oracle():
        return not any(map(cyclic, subsets))

    def best_of_3(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return result, min(times)

    (ok, _), bound_s = best_of_3(lambda: verify_recovery_bound(sys, g4))
    oracle_ok, oracle_s = best_of_3(oracle)
    assert ok and oracle_ok
    assert 100 * bound_s <= oracle_s, (bound_s, oracle_s)


def _torus(k):
    """C_k x C_k: 4-regular on k * k vertices, girth 4 for k >= 5."""
    return Graph(k * k, [(i * k + j, (i + di) % k * k + (j + dj) % k)
                         for i in range(k) for j in range(k) for di, dj in ((1, 0), (0, 1))])


def test_exhaustive_bound_is_polynomial_on_a_large_input(tmp_path, capsys):
    # C(2025, 3) = 1.4e9 disk sets of size girth - 1 = 3
    g = _torus(45)
    sys = _tour_system(g, PairingMode.PARALLEL)
    assert (len(sys.disks), girth(g)) == (2025, 4)
    start = time.perf_counter()
    ok, witness = verify_recovery_bound(sys, g)
    assert time.perf_counter() - start < 0.5
    assert ok and len(witness) == 4
    # the minimum is exactly girth(G): g - 1 disks recover, the witness does not
    assert _fewest_cyclic_disks(sys) == 4
    path = tmp_path / "torus.json"
    path.write_text(g.to_json())
    assert cli.main(["simulate", "--input", str(path), "--exhaustive"]) == 0
    assert '"all_g_minus_1_ok": true' in capsys.readouterr().out


def _fewest_disks_with_a_cycle(sys):
    """Oracle: size of the smallest disk subset whose edges contain a cycle,
    by enumerating the subsets in order of size."""
    n = len(sys.disks)
    disk_edges = [sys.disk_edges(d) for d in range(n)]
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if has_cycle(sys.cubic, [e for d in combo for e in disk_edges[d]]):
                return size


def test_min_disk_cycle_k5_variants():
    for variant in ("girth5", "girth3"):
        sys = k5_reference_system(variant)
        assert _fewest_disks_with_a_cycle(sys) == len(verify_recovery_bound(sys, K5)[1]) == 3


def test_min_disk_cycle_k44():
    g = Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)
    sys = k44_reference_system()
    assert _fewest_disks_with_a_cycle(sys) == len(verify_recovery_bound(sys, g)[1]) == 4


@pytest.mark.parametrize("gg", [3, 4, 5, 6])
def test_min_disk_cycle_cages(cage_systems, gg):
    sys, g = cage_systems[gg]
    assert _fewest_disks_with_a_cycle(sys) == len(verify_recovery_bound(sys, g)[1]) == girth(g)


def test_has_cycle_agrees_with_two_core_and_peeling(cage_systems):
    # oracles: the leaf-stripping 2-core and the peeling decoder's residual
    rng = random.Random(5)
    systems = [cage_systems[gg] for gg in (3, 4, 5, 6)]
    systems += [(k5_reference_system(v), K5) for v in ("girth5", "girth3")]
    for sys, g4 in systems:
        n, m = len(sys.disks), sys.cubic.edge_count
        for size in range(1, int(girth(g4)) + 3):
            for _ in range(40):
                disks = rng.sample(range(n), min(size, n))
                edges = [e for d in disks for e in sys.disk_edges(d)]
                erased = EdgeSubset.from_indices(m, edges)
                cyclic = has_cycle(sys.cubic, edges)
                assert cyclic == (len(two_core(sys.cubic, erased)) > 0)
                assert cyclic == (len(peel(sys, erased).residual) > 0)


def test_source_cycle_maps_to_disk_cycle_and_back(cage_systems):
    # the paper's correspondence between cycles of G and block-graph cycles
    systems = [(k5_reference_system(v), K5) for v in ("girth5", "girth3")]
    systems += [cage_systems[3], cage_systems[4]]
    for sys, g4 in systems:
        disk_of = {v: d for d, v in enumerate(sys.disk_owner)}
        # forward: the disks owned by the vertices of a cycle of G contain
        # a block-graph cycle
        for cyc in all_simple_cycles(g4):
            vertices = {v for ei in cyc for v in g4.edges[ei]}
            edges = [e for v in vertices for e in sys.disk_edges(disk_of[v])]
            assert has_cycle(sys.cubic, edges)
        # converse: the owners of a block-graph cycle's edges span a cycle
        # of G on at most that many vertices
        owner = sys.edge_owner()
        for cyc in all_simple_cycles(sys.cubic):
            owners = {sys.disk_owner[owner[ei]] for ei in cyc}
            induced = Graph(
                g4.vertex_count,
                [(u, v) for u, v in g4.edges if u in owners and v in owners],
            )
            assert girth(induced) <= len(owners)


def test_recovery_bound_k5_exhaustive():
    for variant in ("girth5", "girth3"):
        ok, witness = verify_recovery_bound(k5_reference_system(variant), K5)
        assert ok
        assert len(witness) == 3


def test_recovery_bound_k44_exhaustive():
    g = Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)
    ok, witness = verify_recovery_bound(k44_reference_system(), g)
    assert ok
    assert len(witness) == 4


def test_recovery_bound_sampled_needs_seed():
    with pytest.raises(ValueError):
        verify_recovery_bound(k5_reference_system("girth5"), K5, mode="sampled")


@pytest.mark.parametrize("trials", [0, -3])
def test_recovery_bound_sampled_needs_a_trial(trials):
    # no samples must not read as "every subset recovers"
    with pytest.raises(ValueError):
        verify_recovery_bound(k5_reference_system("girth5"), K5, mode="sampled",
                              trials=trials, seed=1)


def test_recovery_bound_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        verify_recovery_bound(k5_reference_system("girth5"), K5, mode="bogus")


def test_recovery_bound_of_the_empty_system_has_no_witness():
    # the one star layout without a girth cycle: no disks, no vertices
    empty = Graph(0, [])
    with pytest.raises(ValueError, match="^acyclic source graph has no girth witness$"):
        verify_recovery_bound(CubicSystem(empty, (), (), ()), empty)


def test_recovery_bound_sampled_reproducible():
    sys = k5_reference_system("girth5")
    a = verify_recovery_bound(sys, K5, mode="sampled", trials=50, seed=3)
    b = verify_recovery_bound(sys, K5, mode="sampled", trials=50, seed=3)
    assert a == b


_THEOREM_SYSTEMS = {
    name: _WALK_SYSTEMS[name] for name in ("k5-girth5", "k5-girth3", "k44")}
for _gg, _cage in ((5, "robertson"), (6, "pg23")):
    for _mode in PairingMode:
        _THEOREM_SYSTEMS[f"{_cage}-{_mode.value}"] = (
            lambda gg=_gg, mode=_mode: (_tour_system(cage(gg).graph, mode), cage(gg).graph))
for _n, _s in [(30, 6), (200, 1), (1000, 1), (3000, 5)]:
    _THEOREM_SYSTEMS[f"random-{_n}-{_s}"] = (
        lambda n=_n, s=_s: _random_system(n, s, PairingMode.PARALLEL))


@pytest.mark.parametrize("name", sorted(_THEOREM_SYSTEMS))
def test_fewest_cyclic_disks_is_the_source_girth(name):
    # the star-layout theorem that `verify_recovery_bound` stands on: each
    # block vertex lies on two disk paths, so I is the subdivision of G
    sys, g4 = _THEOREM_SYSTEMS[name]()
    assert _fewest_cyclic_disks(sys) == girth(g4)


def _first_non_star_disk(sys, g4):
    """Oracle: the first disk that is not the path of the arcs at its owner,
    ends leaving the owner and middle entering it, or whose arcs do not
    name the owner's edges in g4; None if every disk is such a path."""
    names = sys.arc_names
    for d, (path, v) in enumerate(zip(sys.disks, sys.disk_owner)):
        out = {x for x, (t, _) in enumerate(names) if t == v}
        into = {x for x, (_, h) in enumerate(names) if h == v}
        edges_at_v = {frozenset(g4.edges[ei]) for ei, _ in g4.incident(v)}
        if ({path[0], path[3]}, {path[1], path[2]}) != (out, into) or (
                {frozenset(names[x]) for x in path} != edges_at_v):
            return d
    return None


def _two_switch(g):
    """g with its first swappable pair of edges {a, b}, {c, d} replaced by
    {a, d}, {c, b}: every vertex keeps its degree."""
    edges = list(g.edges)
    present = {frozenset(e) for e in edges}
    for i, (a, b) in enumerate(edges):
        for j, (c, d) in enumerate(edges[i + 1:], i + 1):
            if len({a, b, c, d}) == 4 and not {frozenset((a, d)), frozenset((c, b))} & present:
                edges[i], edges[j] = (a, d), (c, b)
                return Graph(g.vertex_count, edges)


_BOUND_MODES = [{}, {"mode": "sampled", "trials": 100, "seed": 1}]


@pytest.mark.parametrize("kwargs", _BOUND_MODES)
def test_recovery_bound_runs_no_peel(cage_systems, monkeypatch, kwargs):
    # the star-layout theorem proves the witness unrecoverable
    def no_peel(*args, **kw):
        raise AssertionError("the recovery bound peeled")

    monkeypatch.setattr(repair, "peel", no_peel)
    for gg in (3, 4, 5, 6):
        assert verify_recovery_bound(*cage_systems[gg], **kwargs)[0]


_WITNESS_SYSTEMS = {
    "k5-girth5": lambda: (k5_reference_system("girth5"), K5),
    "k5-girth3": lambda: (k5_reference_system("girth3"), K5),
}
for _gg in (3, 4, 5, 6):
    for _mode in PairingMode:
        _WITNESS_SYSTEMS[f"cage{_gg}-{_mode.value}"] = (
            lambda gg=_gg, mode=_mode: (_tour_system(cage(gg).graph, mode), cage(gg).graph))
for _n, _s in [(200, 1), (1000, 3)]:
    _WITNESS_SYSTEMS[f"random-{_n}-{_s}"] = (
        lambda n=_n, s=_s: _random_system(n, s, PairingMode.PARALLEL))


@pytest.mark.parametrize("name", sorted(_WITNESS_SYSTEMS))
def test_the_witness_peels_to_its_two_core(name):
    # the peel that the bound no longer runs, kept as an oracle: the
    # witness disks' edges leave a residual, their 2-core
    sys, g4 = _WITNESS_SYSTEMS[name]()
    ok, witness = verify_recovery_bound(sys, g4)
    erased = EdgeSubset.from_indices(
        sys.cubic.edge_count, [e for d in witness for e in sys.disk_edges(d)])
    residual = peel(sys, erased).residual
    assert ok and len(residual) and residual == two_core(sys.cubic, erased)
    assert len(witness) == girth(g4)


@pytest.mark.parametrize("kwargs", _BOUND_MODES)
@pytest.mark.parametrize("length", [3, 5])
def test_recovery_bound_rejects_a_disk_of_the_wrong_length(length, kwargs):
    # a disk of 3 or 5 vertices used to end in a plain unpacking ValueError;
    # the constructor refuses it, so no such system reaches the bound
    sys = k5_reference_system("girth5")
    path = (sys.disks[0] + sys.disks[1])[:length]
    with pytest.raises(InvalidSystemError, match=f"^disk 0 has {length} vertices, not 4"):
        broken = CubicSystem(sys.cubic, (path,) + sys.disks[1:], sys.disk_owner, sys.arc_names)
        verify_recovery_bound(broken, K5, **kwargs)


@pytest.mark.parametrize("kwargs", _BOUND_MODES)
@pytest.mark.parametrize("gg", [5, 6])
def test_recovery_bound_rejects_kotzig_paths(gg, kwargs):
    # a P4 decomposition that is not a star layout used to end in
    # "witness erasure pattern unexpectedly recovered"
    g4 = cage(gg).graph
    sys = _tour_system(g4, PairingMode.PARALLEL)
    paths = tuple(decompose_p4(sys.cubic))
    kotzig = CubicSystem(sys.cubic, paths, tuple(range(len(paths))), sys.arc_names)
    bad = _first_non_star_disk(kotzig, g4)
    assert bad is not None
    with pytest.raises(InvalidSystemError, match=f"^disk {bad}: "):
        verify_recovery_bound(kotzig, g4, **kwargs)


@pytest.mark.parametrize("kwargs", _BOUND_MODES)
def test_recovery_bound_rejects_a_graph_that_is_not_the_arc_graph(cage_systems, kwargs):
    sys, g4 = cage_systems[6]
    assert _first_non_star_disk(sys, g4) is None
    other = _two_switch(g4)
    bad = _first_non_star_disk(sys, other)
    assert bad is not None
    with pytest.raises(InvalidSystemError, match=f"^disk {bad}: its arcs are not the 4 edges"):
        verify_recovery_bound(sys, other, **kwargs)
    with pytest.raises(InvalidSystemError, match="^26 disks and 52 arcs cannot lay out"):
        verify_recovery_bound(sys, cage(5).graph, **kwargs)


def test_star_check_names_the_first_disk_that_fails(cage_systems):
    # a neighbour fault at disk 0 (the two-switched graph breaks disks 0,
    # 1, 13 and 14) and a slot fault at disk 25, which is shifted one step
    # along the block graph, so it is still a path of it: one pass over
    # the disks names disk 0, as the oracle does
    sys, g4 = cage_systems[6]
    c, a, b, _ = sys.disks[25]
    x = next(w for _, w in sys.cubic.incident(c) if w not in (a, b))
    swapped = CubicSystem(sys.cubic, sys.disks[:25] + ((x, c, a, b),),
                          sys.disk_owner, sys.arc_names)
    with pytest.raises(InvalidSystemError, match="^disk 25: its end arcs must leave"):
        check_star_layout(swapped, g4)
    other = _two_switch(g4)
    assert _first_non_star_disk(swapped, other) == 0
    with pytest.raises(InvalidSystemError, match="^disk 0: its arcs are not the 4 edges"):
        check_star_layout(swapped, other)


@pytest.mark.parametrize("kwargs", _BOUND_MODES)
def test_recovery_bound_rejects_a_disk_that_is_not_a_block_graph_path(kwargs):
    # the arc names still lay out pg23, and the witness disks still form a
    # cycle, so the bound used to pass this system; the constructor now
    # refuses it, so it never reaches the bound
    sys = _tour_system(_PG23, PairingMode.PARALLEL)
    witness = verify_recovery_bound(sys, _PG23)[1]
    d = min(set(range(len(sys.disks))) - witness)
    obj = json.loads(sys.to_json())
    _middle_edge_off_the_paths(obj, d)
    with pytest.raises(InvalidSystemError, match=f"^disk {d} is not a path of the block graph"):
        broken = CubicSystem(Graph(obj["vertices"], [tuple(e) for e in obj["edges"]]),
                             sys.disks, sys.disk_owner, sys.arc_names)
        verify_recovery_bound(broken, _PG23, **kwargs)


def test_recovery_bound_rejects_a_vertex_owning_two_disks():
    # disk 1 repeats disk 0 and its owner: both disks have their ends
    # leaving that vertex and their middles entering it, and name its 4
    # edges of K5, while the vertex that owned disk 1 owns none
    sys = k5_reference_system("girth5")
    v = sys.disk_owner[0]
    twice = CubicSystem(sys.cubic, sys.disks[:1] * 2 + sys.disks[2:],
                        (v, v) + sys.disk_owner[2:], sys.arc_names)
    with pytest.raises(InvalidSystemError, match=f"^disk 1: vertex {v} is not a source vertex "
                                                 "or owns another disk$"):
        verify_recovery_bound(twice, K5)


def test_sampled_bound_draws_nothing(cage_systems):
    # at a million trials, a bound that drew subsets took seconds
    sys, g4 = cage_systems[6]
    start = time.perf_counter()
    sampled = verify_recovery_bound(sys, g4, mode="sampled", trials=1_000_000, seed=1)
    assert time.perf_counter() - start < 0.5
    assert sampled == (True, verify_recovery_bound(sys, g4)[1])


def test_profile_k5():
    prof = profile(k5_reference_system("girth5"), K5)
    assert prof.disk_count == 5
    assert prof.block_count == 15
    assert prof.max_guaranteed_disk_erasures == 2
    assert prof.blocks_recoverable == 6
    assert (prof.code_length, prof.code_dimension) == (15, 6)
    assert prof.rate == pytest.approx(0.4)
    assert prof.girth_source == 3
    assert prof.girth_cubic == 5


def test_profile_refuses_a_graph_of_another_size():
    # the 5-disk K5 system with the 19-vertex (4,5)-cage: the row used to
    # claim 4 disk erasures, read off the cage's girth; profile now refuses
    # the pair with the count rule and message of the star check
    sys, g = k5_reference_system("girth5"), cage(5).graph
    message = "^5 disks and 10 arcs cannot lay out a graph on 19 vertices$"
    with pytest.raises(InvalidSystemError, match=message):
        profile(sys, g)
    with pytest.raises(InvalidSystemError, match=message):
        check_star_layout(sys, g)


def test_profile_refuses_a_graph_with_another_edge_count():
    # the 8-disk k44 system with K8: 8 vertices, but 28 edges for 16 arcs;
    # the row used to claim 2 disk erasures, read off K8's girth 3
    sys = system_from_cage(4)[0]
    message = "^16 arcs cannot lay out a graph of 28 edges$"
    with pytest.raises(InvalidSystemError, match=message):
        profile(sys, complete_graph(8))
    with pytest.raises(InvalidSystemError, match=message):
        check_star_layout(sys, complete_graph(8))


def _circulant(n, *steps):
    """C_n(steps): vertex i joined to i + s and i - s, mod n, for each step."""
    return Graph(n, [(i, (i + s) % n) for s in steps for i in range(n)])


def test_profile_refuses_a_graph_of_the_right_size_with_other_edges():
    # the k44 system with the 4-regular C8(1,2): 8 vertices and 16 edges,
    # but girth 3; the row used to claim 2 disk erasures where k44's says 3
    sys = system_from_cage(4)[0]
    message = "disk 0: its arcs are not the 4 edges at vertex 0 of the source graph"
    with pytest.raises(InvalidSystemError) as exc:
        profile(sys, _circulant(8, 1, 2))
    assert str(exc.value) == message


# each tour system with its own graph: its row and the bound's witness
_OWN_GRAPH = {
    "k44": ("8,24,3,9,24,9,4,4,0.375000", {0, 1, 4, 5}),
    "robertson": ("19,57,4,12,57,20,5,5,0.350877", {0, 1, 2, 5, 8}),
    "pg23": ("26,78,5,15,78,27,6,6,0.346154", {0, 1, 4, 13, 14, 17}),
    "rr4-50-1": ("50,150,2,6,150,51,3,3,0.340000", {3, 19, 45}),
    "rr4-50-2": ("50,150,2,6,150,51,3,3,0.340000", {4, 36, 41}),
    "rr4-200-1": ("200,600,2,6,600,201,3,4,0.335000", {21, 40, 160}),
    "rr4-200-2": ("200,600,2,6,600,201,3,4,0.335000", {13, 65, 161}),
}


def _one_rule_cases():
    """(system name, its own graph, other 4-regular graphs on as many
    vertices).  K5 is left out: it is the only 4-regular graph on 5
    vertices.  C8(1,3) is K4,4 with other labels, so the rule is about the
    labelled graph."""
    cases = [("k44", cage(4).graph, [_circulant(8, 1, 2), _circulant(8, 1, 3)]),
             ("robertson", cage(5).graph, [_circulant(19, 1, 2)]),
             ("pg23", _PG23, [_circulant(26, 1, 2)])]
    for n in (50, 200):
        for s in (1, 2):
            cases.append((f"rr4-{n}-{s}", random_4_regular(n, s),
                          [_circulant(n, 1, 2), random_4_regular(n, s + 1)]))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,g4,others", _one_rule_cases())
def test_profile_and_the_bound_share_one_layout_rule(name, g4, others):
    sys = _tour_system(g4, PairingMode.PARALLEL)
    row, witness = _OWN_GRAPH[name]
    assert profile(sys, g4).csv_row() == row
    assert verify_recovery_bound(sys, g4) == (True, witness)
    for other in others:
        assert other.vertex_count == g4.vertex_count and other.edge_count == g4.edge_count
        texts = []
        for check in (profile, verify_recovery_bound):
            with pytest.raises(InvalidSystemError) as exc:
                check(sys, other)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]


def test_profile_runs_the_star_check_once(monkeypatch):
    calls = []
    star = analysis.check_star_layout
    monkeypatch.setattr(analysis, "check_star_layout",
                        lambda s, g: calls.append((s, g)) or star(s, g))
    sys, g = system_from_cage(6)
    profile(sys, g)
    assert len(calls) == 1 and calls[0][0] is sys and calls[0][1] is g
    assert not hasattr(cubic, "check_layout_counts")


def rate_function(n: int) -> float:
    """Cycle-space rate of any connected cubic graph on n vertices."""
    return 1 - (n - 1) / (3 * n / 2)


def test_rate_function_decreasing_to_one_third():
    values = [rate_function(n) for n in range(10, 2000, 100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1 / 3 for v in values)
    assert rate_function(10**9) == pytest.approx(1 / 3, abs=1e-8)


def test_rate_formula_matches_rank():
    for sys, g in [
        (k5_reference_system("girth5"), K5),
        (k44_reference_system(), Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)),
    ]:
        prof = profile(sys, g)
        assert prof.rate == pytest.approx(rate_function(sys.cubic.vertex_count))


def test_csv_row_format():
    row = profile(k5_reference_system("girth5"), K5).csv_row()
    assert row.split(",")[:6] == ["5", "15", "2", "6", "15", "6"]


def _profile_oracle(sys, g):
    """The profile row from the derived code: rank by elimination, the
    distance from `minimum_distance`."""
    c = derive_code(sys.cubic)
    k = c.length - gf2_rank(parity_rows(c))
    assert k == c.dimension
    g_src = int(girth(g))
    d = minimum_distance(c, sys.cubic)
    return SystemProfile(len(sys.disks), g_src, d, c.length, k)


def _profile_cases():
    cases = {f"cage{gg}": system_from_cage(gg) for gg in (3, 4, 5, 6)}
    for variant in ("girth5", "girth3"):
        cases[f"k5-{variant}"] = (k5_reference_system(variant), K5)
    g = random_4_regular(200, 1)
    for mode in PairingMode:
        cases[f"rr4-200-1-{mode.value}"] = (
            build_cubic(orient_from_tour(g, eulerian_tour(g)), mode), g)
    return cases


# every column of each case's Table-1 row, as `csv_row` prints it
_PROFILE_ROWS = {
    "cage3": "5,15,2,6,15,6,3,3,0.400000",
    "cage4": "8,24,3,9,24,9,4,4,0.375000",
    "cage5": "19,57,4,12,57,20,5,5,0.350877",
    "cage6": "26,78,5,15,78,27,6,6,0.346154",
    "k5-girth3": "5,15,2,6,15,6,3,3,0.400000",
    "k5-girth5": "5,15,2,6,15,6,3,5,0.400000",
    "rr4-200-1-crossed": "200,600,2,6,600,201,3,4,0.335000",
    "rr4-200-1-parallel": "200,600,2,6,600,201,3,4,0.335000",
}

# `text_report` with the row's columns in csv order
_TEXT_REPORT = """\
disks:                  {0}
blocks:                 {1}
disks recoverable:      {2}
blocks recoverable:     {3}
code:                   [{4}, {5}]
girth of source graph:  {6}
girth of block graph:   {7}
rate:                   {8}"""


@pytest.mark.parametrize("name,case", sorted(_profile_cases().items()))
def test_profile_matches_the_derived_code(name, case):
    sys, g = case
    prof = profile(sys, g)
    assert prof == _profile_oracle(sys, g)
    assert prof.csv_row() == _PROFILE_ROWS[name]
    assert prof.text_report() == _TEXT_REPORT.format(*_PROFILE_ROWS[name].split(","))


def test_profile_derives_the_code_once(monkeypatch):
    # `code` owns the code's rules: profile reads length and dimension off
    # one derive_code of the block graph, and restates none of its checks
    calls = []
    derive = analysis.derive_code
    monkeypatch.setattr(analysis, "derive_code", lambda g: calls.append(g) or derive(g))
    sys, g = system_from_cage(6)
    prof = profile(sys, g)
    assert (prof.code_length, prof.code_dimension) == (78, 27)
    assert len(calls) == 1 and calls[0] is sys.cubic
    assert not hasattr(analysis, "is_connected") and not hasattr(analysis, "DisconnectedError")


def test_profile_refuses_a_block_graph_without_one_component():
    # the two rules and texts of derive_code, for two disjoint K5 systems
    # and for the system of no disks
    two = CubicSystem.from_obj(json.loads(_two_k5_systems()))
    empty = CubicSystem(Graph(0, []), (), (), ())
    for sys, message in ((two, "graph is disconnected"), (empty, "empty graph")):
        with pytest.raises(code.DisconnectedError) as exc:
            profile(sys, sys.source_graph)
        assert str(exc.value) == message
