import itertools
import random

import pytest

from graphdss import analysis
from graphdss.analysis import (
    _girth_witness,
    _has_cycle,
    profile,
    rate_function,
    verify_recovery_bound,
)
from graphdss.catalog import complete_graph, k5_reference_system
from graphdss.graphs import EdgeSubset, Graph, girth, two_core
from graphdss.repair import peel

from conftest import all_simple_cycles
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


def _fewest_disks_with_a_cycle(sys):
    """Oracle: size of the smallest disk subset whose edges contain a cycle,
    by enumerating the subsets in order of size."""
    n = len(sys.disks)
    disk_edges = [sys.disk_edges(d) for d in range(n)]
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if _has_cycle(sys.cubic, [e for d in combo for e in disk_edges[d]]):
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
                cyclic = _has_cycle(sys.cubic, edges)
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
            assert _has_cycle(sys.cubic, edges)
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
