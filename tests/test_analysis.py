import itertools
import math
import random
import time

import pytest

from graphdss import analysis
from graphdss.analysis import (
    _DiskForest,
    _first_cyclic_subset,
    _girth_witness,
    profile,
    SystemProfile,
    verify_recovery_bound,
)
from graphdss import code
from graphdss.catalog import cage, complete_graph, k5_reference_system, random_4_regular
from graphdss.code import derive_code, minimum_distance
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset, Graph, girth, two_core
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import peel

from conftest import all_simple_cycles, gf2_rank, has_cycle, system_from_cage
from test_cubic import k44_reference_system


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
    found = []
    for k in range(1, gg + 1):
        expected = _oracle_first_cyclic_subset(sys, k)
        assert _first_cyclic_subset(sys, k) == expected, (k, expected)
        found.append(expected is not None)
    # the theorem, seen through the walk: g - 1 disks always recover, g may not
    assert found == [False] * (gg - 1) + [True]


def _forest_state(forest):
    return (list(forest.label), [list(m) for m in forest.members], list(forest.touch),
            forest.bad, list(forest.log))


def test_disk_forest_undo_leaves_no_trace(cage_systems):
    # one forest answers many subsets, so every test must undo all it added
    rng = random.Random(11)
    for gg in (4, 5, 6):
        sys, g4 = cage_systems[gg]
        forest, cyclic = _DiskForest(sys), _cycle_oracle(sys)
        fresh = _forest_state(forest)
        n = len(sys.disks)
        for _ in range(300):
            disks = rng.sample(range(n), rng.randint(1, gg + 2))
            assert forest.with_cycle(disks) == cyclic(disks)
        assert _forest_state(forest) == fresh


def test_disk_forest_masks_match_per_subset_oracle(cage_systems):
    # `bad` is exactly the disks that close a cycle with the stack, and
    # `closing` predicts `bad` after an add, through random adds and undos
    rng = random.Random(13)
    for gg in (3, 4, 5, 6):
        sys, g4 = cage_systems[gg]
        forest, cyclic = _DiskForest(sys), _cycle_oracle(sys)
        n = len(sys.disks)
        stack, states = [], []
        for _ in range(200):
            assert forest.bad == sum(1 << d for d in range(n) if cyclic(stack + [d]))
            free = [d for d in range(n) if not forest.closes_cycle(d)]
            if free and (not stack or rng.random() < 0.6):
                d = rng.choice(free)
                closing = forest.closing(d)
                states.append(_forest_state(forest))
                forest.add(d)
                stack.append(d)
                assert forest.bad == closing
            else:
                forest.undo()
                stack.pop()
                assert _forest_state(forest) == states.pop()


@pytest.mark.parametrize("gg, k, most_adds", [(6, 5, 2_600), (5, 4, 200)])
def test_walk_adds_only_above_the_last_two_levels(cage_systems, monkeypatch, gg, k, most_adds):
    # pg23 at k = 5 and Robertson at k = 4 took 14 949 and 968 adds when
    # every node above the leaves merged its disk
    adds = []
    add = _DiskForest.add
    monkeypatch.setattr(_DiskForest, "add", lambda forest, d: adds.append(d) or add(forest, d))
    sys, g4 = cage_systems[gg]
    assert _first_cyclic_subset(sys, k) is None
    assert 0 < len(adds) <= most_adds


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

    (ok, _), walk_s = best_of_3(lambda: verify_recovery_bound(sys, g4))
    oracle_ok, oracle_s = best_of_3(oracle)
    assert ok and oracle_ok
    assert 3 * walk_s <= oracle_s, (walk_s, oracle_s)


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
        assert _fewest_disks_with_a_cycle(sys) == len(_girth_witness(sys, K5)[1]) == 3


def test_min_disk_cycle_k44():
    g = Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)
    sys = k44_reference_system()
    assert _fewest_disks_with_a_cycle(sys) == len(_girth_witness(sys, g)[1]) == 4


@pytest.mark.parametrize("gg", [3, 4, 5, 6])
def test_min_disk_cycle_cages(cage_systems, gg):
    sys, g = cage_systems[gg]
    assert _fewest_disks_with_a_cycle(sys) == len(_girth_witness(sys, g)[1]) == girth(g)


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


def test_recovery_bound_peels_only_the_witness(cage_systems, monkeypatch):
    calls = []

    def counting_peel(sys, erased):
        calls.append(erased)
        return peel(sys, erased)

    monkeypatch.setattr(analysis, "peel", counting_peel)
    sys, g = cage_systems[4]
    for kwargs in ({}, {"mode": "sampled", "trials": 200, "seed": 1}):
        calls.clear()
        ok, witness = verify_recovery_bound(sys, g, **kwargs)
        assert ok and len(calls) == 1
        assert calls[0] == EdgeSubset.from_indices(
            sys.cubic.edge_count, [e for d in witness for e in sys.disk_edges(d)])


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


def test_recovery_bound_sampled_reproducible():
    sys = k5_reference_system("girth5")
    a = verify_recovery_bound(sys, K5, mode="sampled", trials=50, seed=3)
    b = verify_recovery_bound(sys, K5, mode="sampled", trials=50, seed=3)
    assert a == b


def test_profile_k5():
    prof = profile(k5_reference_system("girth5"), K5)
    assert prof.disk_count == 5
    assert prof.block_count == 15
    assert prof.max_guaranteed_disk_erasures == 2
    assert prof.blocks_recoverable == 6
    assert (prof.code_length, prof.code_dimension) == (15, 6)
    assert prof.rate == pytest.approx(0.4)
    assert prof.code_distance_source_girth == 3
    assert prof.code_distance_cubic_girth == 5


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
    k = c.length - gf2_rank(c.parity_rows)
    assert k == c.dimension
    g_src = int(girth(g))
    d = minimum_distance(c, sys.cubic)
    n = len(sys.disks)
    return SystemProfile(n, 3 * n, g_src, d, g_src - 1, 3 * (g_src - 1), c.length, k,
                         g_src, d, k / c.length)


def _profile_cases():
    cases = {f"cage{gg}": system_from_cage(gg) for gg in (3, 4, 5, 6)}
    for variant in ("girth5", "girth3"):
        cases[f"k5-{variant}"] = (k5_reference_system(variant), K5)
    g = random_4_regular(200, 1)
    for mode in PairingMode:
        cases[f"rr4-200-1-{mode.value}"] = (
            build_cubic(orient_from_tour(g, eulerian_tour(g)), mode), g)
    return cases


@pytest.mark.parametrize("name,case", sorted(_profile_cases().items()))
def test_profile_matches_the_derived_code(name, case):
    sys, g = case
    assert profile(sys, g) == _profile_oracle(sys, g)


def test_profile_derives_no_code(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (code, analysis):
        for name in ("derive_code", "minimum_distance"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sys, g = system_from_cage(6)
    assert profile(sys, g).code_dimension == 27
    assert calls == []
