import itertools
import random

import pytest

from graphdss.catalog import k5_reference_system, random_4_regular
from graphdss.code import derive_code, encode
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset, Graph, two_core
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import (
    InvalidDiskError,
    RepairStrategy,
    UnrecoverableError,
    peel,
    peel_min_bandwidth,
    repair_disk,
    repair_disks,
    repair_state,
)

from test_cubic import k44_reference_system


def test_single_edge_erasure():
    sys = k5_reference_system("girth5")
    report = peel(sys, EdgeSubset.from_indices(15, [4]))
    assert report.rounds == 1
    assert report.transferred_symbols == 2
    assert len(report.residual) == 0


def test_erased_girth_cycle_is_stuck():
    sys = k5_reference_system("girth3")
    g = sys.cubic
    # find one triangle
    tri = None
    for combo in itertools.combinations(range(g.edge_count), 3):
        s = EdgeSubset.from_indices(g.edge_count, combo)
        if len(two_core(g, s)) == 3:
            tri = s
            break
    assert tri is not None
    report = peel(sys, tri)
    assert report.recovered == ()
    assert report.residual.bits == tri.bits


def test_any_four_edges_of_petersen_system_recover():
    sys = k5_reference_system("girth5")
    for combo in itertools.combinations(range(15), 4):
        report = peel(sys, EdgeSubset.from_indices(15, combo))
        assert len(report.residual) == 0


@pytest.mark.parametrize("variant", ["girth5", "girth3"])
def test_peel_residual_equals_two_core(variant):
    sys = k5_reference_system(variant)
    g = sys.cubic
    rng = random.Random(f"resid:{variant}")
    for _ in range(300):
        size = rng.randrange(0, g.edge_count + 1)
        s = EdgeSubset.from_indices(g.edge_count, rng.sample(range(g.edge_count), size))
        assert peel(sys, s).residual.bits == two_core(g, s).bits
        assert peel_min_bandwidth(sys, s).residual.bits == two_core(g, s).bits


def test_repair_disk_min_bandwidth():
    for sys in (k5_reference_system("girth5"), k44_reference_system()):
        for d in range(len(sys.disks)):
            r = repair_disk(sys, d, RepairStrategy.MIN_BANDWIDTH)
            assert r.transferred_symbols == 4
            assert r.rounds == 3
            assert len(r.residual) == 0


def test_repair_disk_min_rounds():
    for sys in (k5_reference_system("girth5"), k44_reference_system()):
        for d in range(len(sys.disks)):
            r = repair_disk(sys, d, RepairStrategy.MIN_ROUNDS)
            assert r.transferred_symbols == 5
            assert r.rounds == 2
            assert len(r.residual) == 0


def test_repair_disk_invalid_index():
    with pytest.raises(InvalidDiskError):
        repair_disk(k5_reference_system("girth5"), 99, RepairStrategy.MIN_BANDWIDTH)


def test_repair_two_disjoint_disks_costs_eight():
    sys = k44_reference_system()
    found = 0
    for d1, d2 in itertools.combinations(range(8), 2):
        v1, v2 = set(sys.disks[d1]), set(sys.disks[d2])
        if v1 & v2:
            continue
        if any(w in v2 for p in v1 for _, w in sys.cubic.incident(p)):
            continue
        r = repair_disks(sys, [d1, d2])
        assert r.transferred_symbols == 8
        assert len(r.residual) == 0
        found += 1
    assert found > 0


def test_repair_single_disk_via_disks():
    sys = k44_reference_system()
    r = repair_disks(sys, [3])
    assert r.transferred_symbols == 4


def test_three_disk_cycle_leaves_residual():
    sys = k5_reference_system("girth3")
    # K5 has girth 3, so some triple of disks is unrecoverable
    stuck = [
        combo
        for combo in itertools.combinations(range(5), 3)
        if len(repair_disks(sys, combo).residual)
    ]
    assert stuck


def test_bandwidth_never_exceeds_twice_recovered():
    sys = k5_reference_system("girth5")
    rng = random.Random("bw")
    for _ in range(200):
        size = rng.randrange(0, 16)
        s = EdgeSubset.from_indices(15, rng.sample(range(15), size))
        r = peel(sys, s)
        assert r.transferred_symbols <= 2 * len(r.recovered)


def test_repair_state_round_trip():
    sys = k5_reference_system("girth5")
    code = derive_code(sys.cubic)
    rng = random.Random(21)
    data = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(code.dimension)]
    state = encode(code, data)
    report = repair_disk(sys, 2, RepairStrategy.MIN_BANDWIDTH)
    broken = state.copy()
    for e in sys.disk_edges(2):
        del broken.symbols[e]
    fixed = repair_state(code, broken, report)
    assert fixed.symbols == state.symbols


def test_repair_state_identity_when_nothing_erased():
    sys = k5_reference_system("girth5")
    code = derive_code(sys.cubic)
    state = encode(code, [bytes(2)] * code.dimension)
    report = peel(sys, EdgeSubset.empty(15))
    assert repair_state(code, state, report).symbols == state.symbols


def test_repair_state_raises_on_residual():
    sys = k5_reference_system("girth3")
    code = derive_code(sys.cubic)
    state = encode(code, [bytes(2)] * code.dimension)
    report = repair_disks(sys, [0, 1, 2, 3, 4])
    assert len(report.residual)
    with pytest.raises(UnrecoverableError):
        repair_state(code, state, report)


def test_report_json_fields():
    sys = k5_reference_system("girth5")
    import json

    obj = json.loads(peel(sys, EdgeSubset.from_indices(15, [0, 1])).to_json())
    assert set(obj) == {"recovered", "transferred", "rounds", "residual"}


def test_peeling_cost_follows_the_erased_edges(monkeypatch):
    """Peeling looks only at erased edges and their endpoints: 16 lost
    blocks of a 9000-block system cost a few incidence lookups per block,
    not a scan of all 6000 parity vertices."""
    g = random_4_regular(3000, seed=1)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    m = sys.cubic.edge_count
    erased = EdgeSubset.from_indices(m, random.Random(16).sample(range(m), 16))
    calls = 0
    incident = Graph.incident

    def counting(self, v):
        nonlocal calls
        calls += 1
        return incident(self, v)

    monkeypatch.setattr(Graph, "incident", counting)
    for fn in (peel, peel_min_bandwidth):
        calls = 0
        report = fn(sys, erased)
        assert len(report.recovered) == 16
        assert calls <= 8 * len(erased), (fn.__name__, calls)
