import itertools
import random

import pytest

from graphdss import analysis
from graphdss.analysis import (
    NotACycleError,
    _has_cycle,
    disk_cycle_from_source_cycle,
    disk_cycle_of,
    girth_cycle_vertices,
    min_disk_cycle,
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
    cycles = all_simple_cycles(sys.cubic)
    triangles = [c for c in cycles if len(c) == 3]
    assert triangles
    owners = disk_cycle_of(sys, sorted(triangles[0]))
    assert len(owners) == 3


def test_disk_cycle_of_petersen_five_cycles():
    sys = k5_reference_system("girth5")
    cycles = [c for c in all_simple_cycles(sys.cubic) if len(c) == 5]
    assert cycles
    for c in cycles:
        assert 3 <= len(disk_cycle_of(sys, sorted(c))) <= 5


def test_disk_path_is_not_a_cycle():
    sys = k5_reference_system("girth5")
    with pytest.raises(NotACycleError):
        disk_cycle_of(sys, sys.disk_edges(0))


def test_min_disk_cycle_k5_variants():
    assert min_disk_cycle(k5_reference_system("girth5"), K5) == 3
    assert min_disk_cycle(k5_reference_system("girth3"), K5) == 3


def test_min_disk_cycle_k44():
    g = Graph(8, __import__("test_orientation").K44_REFERENCE_EDGES)
    assert min_disk_cycle(k44_reference_system(), g) == 4


@pytest.mark.parametrize("gg", [3, 4, 5, 6])
def test_min_disk_cycle_cages(cage_systems, gg):
    sys, g = cage_systems[gg]
    assert min_disk_cycle(sys, g) == girth(g)


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


def test_source_cycle_maps_to_disk_cycle_and_back():
    # both directions of the correspondence, on every short cycle of K5
    sys = k5_reference_system("girth5")
    from conftest import all_simple_cycles as cycles_of

    for cyc in cycles_of(K5):
        verts = _vertex_order(K5, sorted(cyc))
        mapped = disk_cycle_from_source_cycle(sys, verts)
        owners = disk_cycle_of(sys, mapped)
        assert owners == set(verts)
    # converse: every disk cycle of the block graph is a cycle of K5
    for cyc in cycles_of(sys.cubic):
        owners = disk_cycle_of(sys, sorted(cyc))
        induced = Graph(
            5,
            [
                (u, v)
                for u, v in itertools.combinations(sorted(owners), 2)
                if K5.has_edge(u, v)
            ],
        )
        assert girth(induced) <= len(owners)


def _vertex_order(g, cycle_edges):
    adj = {}
    for ei in cycle_edges:
        u, v = g.edges[ei]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(adj))
    order = [start]
    prev = None
    while True:
        cur = order[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            return order
        order.append(nxt)
        prev = cur


def test_girth_cycle_vertices():
    verts = girth_cycle_vertices(K5)
    assert len(verts) == 3
    for i in range(3):
        assert K5.has_edge(verts[i], verts[(i + 1) % 3])


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
