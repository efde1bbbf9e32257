import itertools
import random

import pytest

from graphdss.catalog import k5_reference_system, random_4_regular
from graphdss.code import StorageState, derive_code, encode
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

from conftest import copy_state
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
    broken = copy_state(state)
    for e in sys.disk_edges(2):
        del broken.symbols[e]
    fixed = repair_state(code, broken, report)
    assert fixed.symbols == state.symbols


def test_repair_state_identity_when_nothing_erased():
    sys = k5_reference_system("girth5")
    code = derive_code(sys.cubic)
    state = encode(code, [bytes(2)] * code.dimension)
    report = peel(sys, EdgeSubset(15, 0))
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


class _CountingBlocks(dict):
    """A block dict that counts the blocks read from it."""

    reads = 0

    def __getitem__(self, e):
        self.reads += 1
        return super().__getitem__(e)

    def get(self, e, default=None):
        self.reads += 1
        return super().get(e, default)


def test_repair_state_cost_follows_the_erased_edges():
    """Rebuilding 2 disks of a 9000-block system fills the given state in
    place and reads at most the 2 other blocks at each parity check: no
    block outside the schedule is read or copied."""
    g = random_4_regular(3000, seed=1)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    code = derive_code(sys.cubic)
    rng = random.Random(3000)
    state = encode(code, [rng.randbytes(4096) for _ in range(code.dimension)])
    report = repair_disks(sys, [0, 1500])
    lost = set(report.erased.indices())
    blocks = _CountingBlocks((e, b) for e, b in state.symbols.items() if e not in lost)
    survivors = dict(blocks)
    damaged = StorageState(state.block_size, blocks)

    rebuilt = repair_state(code, damaged, report)
    reads = blocks.reads

    assert rebuilt is damaged and rebuilt.symbols is blocks
    assert all(dict.__getitem__(blocks, e) is b for e, b in survivors.items())
    assert len(report.recovered) == len(lost) == 6
    assert reads <= 2 * len(report.recovered), reads
    assert dict(blocks) == state.symbols


def _random_cycle(g, rng, longest):
    """The edges of the first cycle closed by a non-backtracking random
    walk, walking again until the cycle has at most `longest` edges."""
    while True:
        walk, edges = [rng.randrange(g.vertex_count)], []
        while walk[-1] not in walk[:-1]:
            ei, w = rng.choice([(ei, w) for ei, w in g.incident(walk[-1])
                                if not edges or ei != edges[-1]])
            walk.append(w)
            edges.append(ei)
        cycle = edges[walk.index(walk[-1]):]
        if len(cycle) <= longest:
            return cycle


@pytest.mark.parametrize("fn", [peel, peel_min_bandwidth])
def test_peel_residual_equals_two_core_on_600_edges(fn):
    """The residual is the 2-core of the erased edges on a system far
    larger than the cages.  Every other pattern holds a planted cycle, so
    both empty and non-empty residuals are checked."""
    g4 = random_4_regular(200, seed=1)
    sys = build_cubic(orient_from_tour(g4, eulerian_tour(g4)), PairingMode.PARALLEL)
    g = sys.cubic
    assert g.edge_count == 600
    rng = random.Random(f"resid600:{fn.__name__}")
    stuck = 0
    for i in range(300):
        edges = set(_random_cycle(g, rng, 40)) if i % 2 else set()
        size = rng.randint(max(1, len(edges)), 40)
        edges.update(rng.sample(range(g.edge_count), size - len(edges)))
        s = EdgeSubset.from_indices(g.edge_count, edges)
        residual = fn(sys, s).residual
        assert residual.bits == two_core(g, s).bits
        stuck += bool(len(residual))
    assert stuck >= 150
