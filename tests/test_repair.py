import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import (by_name, complete_graph, k5_reference_system, random_4_regular,
                              random_cubic)
from graphdss.code import StorageState, derive_code, encode
from graphdss.cubic import CubicSystem, InvalidDiskError, PairingMode, build_cubic, decompose_p4
from graphdss.graphs import EdgeSubset, Graph, girth, two_core
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import (
    RepairReport,
    RepairStrategy,
    UnrecoverableError,
    peel,
    repair_disk,
    repair_disks,
    repair_state,
)

from conftest import (PEEL_RULES, copy_state, count_cycles, owners_induce_cycle, session_report,
                      system_from_cage)
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
        assert peel(sys, s, RepairStrategy.MIN_BANDWIDTH).residual.bits == two_core(g, s).bits


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


def _shuffled_file_system():
    """The cage-5 system read back from a file whose edge list is shuffled
    and partly reversed, so disk d's edges are not 3d..3d+2."""
    obj = json.loads(system_from_cage(5)[0].to_json())
    rng = random.Random("shuffled-edges")
    rng.shuffle(obj["edges"])
    obj["edges"] = [e[::-1] if rng.random() < 0.5 else e for e in obj["edges"]]
    return CubicSystem.from_obj(obj)


def _p4_system(g):
    """A bare system on the `decompose_p4` paths of a cubic graph, owner d
    for disk d.  Unlike a star layout, its paths may have chords."""
    paths = tuple(decompose_p4(g))
    return CubicSystem(g, paths, tuple(range(len(paths))), ())


def _chord_pattern(g, p):
    """Which of the pairs p0-p2, p0-p3 and p1-p3 of a path are edges, 1 or 0
    each."""
    ends = {frozenset(e) for e in g.edges}
    return tuple(int(frozenset((p[i], p[j])) in ends) for i, j in ((0, 2), (0, 3), (1, 3)))


def _chords(g, p):
    """How many of the pairs p0-p2, p0-p3 and p1-p3 of a path are edges."""
    return sum(_chord_pattern(g, p))


def _oracle_system(name):
    """"cage<g>:<pairing>", "rr4-200-1", "shuffled-file", or the P4
    decomposition of K4 ("k4-p4"), of random_cubic(20, 1) ("rc20-1-p4") or
    of random_cubic(10, 3) ("rc10-3-p4")."""
    if name == "shuffled-file":
        return _shuffled_file_system()
    if name == "k4-p4":
        return _p4_system(complete_graph(4))
    if name == "rc20-1-p4":
        return _p4_system(random_cubic(20, 1))
    if name == "rc10-3-p4":
        return _p4_system(random_cubic(10, 3))
    if name == "rr4-200-1":
        g, mode = random_4_regular(200, seed=1), PairingMode.PARALLEL
    else:
        g, mode = system_from_cage(int(name[4]))[1], PairingMode(name[6:])
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)


@pytest.mark.parametrize(
    "name", [f"cage{gg}:{mode.value}" for gg in (3, 4, 5, 6) for mode in PairingMode]
    + ["rr4-200-1", "shuffled-file", "k4-p4", "rc20-1-p4", "rc10-3-p4"])
def test_repair_disk_equals_the_session_counter(name):
    """repair_disk prices a disk from its path; `session_report` on the
    same schedule is the oracle for every field.  The P4 systems reach
    each term of its count's loop: every path of K4 has all three chords,
    and rc10-3 has a path with the chord p0-p2 alone, one with p0-p3 alone
    and one with p1-p3 alone."""
    sys = _oracle_system(name)
    g = sys.cubic
    if name == "shuffled-file":
        assert any(sys.disk_edges(d) != (3 * d, 3 * d + 1, 3 * d + 2)
                   for d in range(len(sys.disks)))
    if name == "k4-p4":
        assert [_chords(g, p) for p in sys.disks] == [3, 3]
    if name == "rc20-1-p4":
        assert any(_chords(g, p) for p in sys.disks)
    if name == "rc10-3-p4":
        assert [_chord_pattern(g, p) for p in sys.disks] == [
            (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0), (0, 1, 0)]
    for d, p in enumerate(sys.disks):
        e1, e2, e3 = (g.edge_index(p[i], p[i + 1]) for i in range(3))
        lost = {e1, e2, e3}
        erased = EdgeSubset.from_indices(g.edge_count, lost)
        schedules = {
            RepairStrategy.MIN_BANDWIDTH: [(e1, p[0], 1), (e2, p[1], 2), (e3, p[2], 3)],
            RepairStrategy.MIN_ROUNDS: [(e1, p[0], 1), (e3, p[3], 1), (e2, p[1], 2)],
        }
        for strategy, schedule in schedules.items():
            report = repair_disk(sys, d, strategy)
            want = session_report(g, erased, lost, schedule)
            assert report == want, (d, strategy)
            assert report.to_json() == want.to_json()


def test_pricing_every_disk_looks_each_edge_up_once(monkeypatch):
    """Pricing all disks twice under both strategies looks up each disk
    edge once per system, not once per call (12n lookups)."""
    g = random_4_regular(1000, seed=1)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    n = len(sys.disks)
    c = sys.cubic
    want = [sorted(c.edge_index(p[i], p[i + 1]) for i in range(3)) for p in sys.disks]
    calls = 0
    edge_index = Graph.edge_index

    def counting(self, u, v):
        nonlocal calls
        calls += 1
        return edge_index(self, u, v)

    monkeypatch.setattr(Graph, "edge_index", counting)
    for _ in range(2):
        for d in range(n):
            for strategy in RepairStrategy:
                assert repair_disk(sys, d, strategy).erased.indices() == want[d]
    assert calls <= 3 * n, calls


def test_pricing_builds_one_edge_subset_per_report(monkeypatch):
    """A priced disk builds its erased subset only; the empty residual is
    built once per system and shared by every report."""
    g = random_4_regular(200, seed=1)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    built = 0
    post_init = EdgeSubset.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(EdgeSubset, "__post_init__", counting)
    reports = [repair_disk(sys, d, strategy)
               for d in range(len(sys.disks)) for strategy in RepairStrategy]
    assert built <= len(reports) + 1, (built, len(reports))


@given(st.integers(5, 40), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_every_disk_of_a_simple_graph_prices_4_in_3_and_5_in_2(n, seed, data):
    """The star-layout price theorem: on a simple G every disk reads
    9 - 4 - 1 = 4 blocks in 3 rounds under MIN_BANDWIDTH (p2 touches p1)
    and 9 - 4 = 5 in 2 under MIN_ROUNDS (p3 touches neither p0 nor p1),
    whatever each vertex's pairing."""
    g = random_4_regular(n, seed)
    modes = data.draw(st.lists(st.sampled_from(PairingMode), min_size=n, max_size=n))
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), tuple(modes))
    for d in range(n):
        for strategy, price in ((RepairStrategy.MIN_BANDWIDTH, (4, 3)),
                                (RepairStrategy.MIN_ROUNDS, (5, 2))):
            report = repair_disk(sys, d, strategy)
            assert (report.transferred_symbols, report.rounds) == price, (d, strategy)


def test_repair_disk_invalid_index():
    for disk in (99, 5, -1):
        with pytest.raises(InvalidDiskError, match=f"^no disk {disk}; disks are 0..4$"):
            repair_disk(k5_reference_system("girth5"), disk, RepairStrategy.MIN_BANDWIDTH)


@pytest.mark.parametrize("disks, bad", [([0, 5], 5), ([-1], -1)])
def test_repair_disks_rejects_an_unknown_disk(disks, bad):
    with pytest.raises(InvalidDiskError, match=f"^no disk {bad}; disks are 0..4$"):
        repair_disks(k5_reference_system("girth5"), disks)


DISK_READERS = {
    "disk_edges": lambda sys, d: sys.disk_edges(d),
    "repair_disk": lambda sys, d: repair_disk(sys, d, RepairStrategy.MIN_ROUNDS),
    "repair_disks": lambda sys, d: repair_disks(sys, [0, d]),
}


@pytest.mark.parametrize("reader", DISK_READERS)
@pytest.mark.parametrize("built", [True, False], ids=["built", "loaded"])
def test_every_disk_reader_refuses_an_index_outside_the_system(reader, built):
    """`CubicSystem.disk_edges` owns the one range rule: each entry point
    raises its InvalidDiskError, both an IndexError and a ValueError, for
    -1 (which a list would read as the last disk) and for n, on a built
    system and on a loaded one, and a valid disk's triple is one object."""
    sys = k44_reference_system()
    if not built:
        sys = CubicSystem.from_obj(json.loads(sys.to_json()))
    n = len(sys.disks)
    for d in (-1, n):
        with pytest.raises(InvalidDiskError) as exc:
            DISK_READERS[reader](sys, d)
        assert isinstance(exc.value, IndexError) and isinstance(exc.value, ValueError)
        assert str(exc.value) == f"no disk {d}; disks are 0..{n - 1}"
    assert sys.disk_edges(n - 1) is sys.disk_edges(n - 1)


@pytest.mark.parametrize("rule", PEEL_RULES)
def test_peel_rejects_a_subset_of_another_graph(rule):
    with pytest.raises(ValueError, match="^erased subset sized for a different graph$"):
        peel(k5_reference_system("girth5"), EdgeSubset(14, 1), PEEL_RULES[rule])


@pytest.mark.parametrize("strategy", ["min-bandwidth", None])
def test_peel_and_repair_disk_reject_a_strategy_that_is_not_a_member(strategy):
    sys = k5_reference_system("girth5")
    message = f"^not a repair strategy: {re.escape(repr(strategy))}$"
    with pytest.raises(ValueError, match=message):
        peel(sys, EdgeSubset(15, 1), strategy)
    with pytest.raises(ValueError, match=message):
        repair_disk(sys, 0, strategy)


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


@pytest.fixture(scope="module")
def disk_systems(cage_systems):
    """The Table-1 systems at hand (cages of girth 3-6) and a 200-disk one."""
    g = random_4_regular(200, 1)
    return {**{f"cage{gg}": s for gg, (s, _) in cage_systems.items()},
            "random200": build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)}


@pytest.mark.parametrize("name", ["cage3", "cage4", "cage5", "cage6", "random200"])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_repair_disks_equals_the_bandwidth_peel_of_their_blocks(disk_systems, name, data):
    """`repair_disks` feeds the peel engine its own edge list; its report
    is, field for field, that of `peel` under MIN_BANDWIDTH on the bitset
    of the same blocks, for any disk set, repeats and cycles included."""
    sys = disk_systems[name]
    n, m = len(sys.disks), sys.cubic.edge_count
    disks = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    want = peel(sys, EdgeSubset.from_indices(m, [e for d in disks for e in sys.disk_edges(d)]),
                RepairStrategy.MIN_BANDWIDTH)
    got = repair_disks(sys, disks)
    for field in _REPORT_FIELDS:
        assert getattr(got, field) == getattr(want, field), field
    assert got.to_json() == want.to_json()


def test_repair_disks_walks_no_bits(monkeypatch):
    """The disks' edge list reaches the engine as it is: no report of
    `repair_disks`, recovered or not, reads back the bits of its erased
    subset, while `peel` reads them once."""
    sys = k44_reference_system()
    calls = 0
    indices = EdgeSubset.indices

    def counting(self):
        nonlocal calls
        calls += 1
        return indices(self)

    monkeypatch.setattr(EdgeSubset, "indices", counting)
    reports = [repair_disks(sys, disks) for disks in ([3], [0, 5], range(8))]
    assert calls == 0
    assert not len(reports[0].residual) and len(reports[2].residual)
    peel(sys, reports[1].erased, RepairStrategy.MIN_BANDWIDTH)
    assert calls == 1


def test_fully_recovered_reports_share_the_systems_empty_residual():
    """Every report that recovers all its lost blocks carries the one
    empty subset its system keeps, as `repair_disk`'s do; a stuck one
    builds its own."""
    sys = k5_reference_system("girth5")
    reports = [peel(sys, EdgeSubset.from_indices(15, [4])),
               peel(sys, EdgeSubset.from_indices(15, [0, 1]), RepairStrategy.MIN_BANDWIDTH),
               peel(sys, EdgeSubset(15, 0)), repair_disks(sys, [1])]
    assert all(r.residual is sys.empty_edges for r in reports)
    stuck = repair_disks(k5_reference_system("girth3"), range(5))
    assert len(stuck.residual) and stuck.residual is not sys.empty_edges


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


_REPORT_FIELDS = ("recovered", "transferred_symbols", "rounds", "residual", "erased")


def test_report_is_an_immutable_value():
    """Every entry point's report refuses field assignment, hashes, and
    equals the report rebuilt by keyword from its five fields, and a plain
    tuple of them."""
    sys = system_from_cage(6)[0]
    erased = EdgeSubset.from_indices(sys.cubic.edge_count, sys.disk_edges(0) + sys.disk_edges(5))
    reports = [peel(sys, erased), peel(sys, erased, RepairStrategy.MIN_BANDWIDTH),
               repair_disk(sys, 0, RepairStrategy.MIN_BANDWIDTH),
               repair_disk(sys, 0, RepairStrategy.MIN_ROUNDS), repair_disks(sys, [0, 5])]
    for report in reports:
        for field in _REPORT_FIELDS:
            with pytest.raises(AttributeError):
                setattr(report, field, getattr(report, field))
        values = [getattr(report, field) for field in _REPORT_FIELDS]
        rebuilt = RepairReport(**dict(zip(_REPORT_FIELDS, values)))
        assert rebuilt == report and hash(rebuilt) == hash(report)
        assert rebuilt.to_json() == report.to_json()
        assert report == tuple(values) and report[1] == report.transferred_symbols
    assert reports[2].residual is repair_disk(sys, 7, RepairStrategy.MIN_ROUNDS).residual


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
    for strategy in RepairStrategy:
        calls = 0
        report = peel(sys, erased, strategy)
        assert len(report.recovered) == 16
        assert 0 < calls <= 8 * len(erased), (strategy, calls)


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


@pytest.mark.parametrize("rule", PEEL_RULES)
def test_peel_residual_equals_two_core_on_600_edges(rule):
    """The residual is the 2-core of the erased edges on a system far
    larger than the cages.  Every other pattern holds a planted cycle, so
    both empty and non-empty residuals are checked."""
    g4 = random_4_regular(200, seed=1)
    sys = build_cubic(orient_from_tour(g4, eulerian_tour(g4)), PairingMode.PARALLEL)
    g = sys.cubic
    assert g.edge_count == 600
    rng = random.Random(f"resid600:{rule}")
    stuck = 0
    for i in range(300):
        edges = set(_random_cycle(g, rng, 40)) if i % 2 else set()
        size = rng.randint(max(1, len(edges)), 40)
        edges.update(rng.sample(range(g.edge_count), size - len(edges)))
        s = EdgeSubset.from_indices(g.edge_count, edges)
        residual = peel(sys, s, PEEL_RULES[rule]).residual
        assert residual.bits == two_core(g, s).bits
        stuck += bool(len(residual))
    assert stuck >= 150


def _tour_system(name, mode):
    g = by_name(name).graph
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), mode), g


@pytest.mark.parametrize("mode", list(PairingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["k5", "k44", "robertson", "pg23"])
def test_disks_lose_data_iff_their_owners_induce_a_cycle_of_g(name, mode):
    """`repair_disks` leaves a residual iff the union-find oracle finds a
    cycle among the owners: on every disk set of k5 and k44, and on 1 000
    seeded sets of robertson and pg23, each of a size drawn from 1..n."""
    sys, g = _tour_system(name, mode)
    n = len(sys.disks)
    if n <= 8:
        sets = [d for size in range(n + 1) for d in itertools.combinations(range(n), size)]
    else:
        rng = random.Random(f"disk-loss:{name}:{mode.value}")
        sets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(1000)]
    outcomes = set()
    for disks in sets:
        lost = len(repair_disks(sys, disks).residual) > 0
        assert lost == owners_induce_cycle(g, [sys.disk_owner[d] for d in disks]), disks
        outcomes.add(lost)
    assert outcomes == {False, True}


@pytest.mark.parametrize("name, cycles", [("k44", 36), ("robertson", 54)])
def test_the_disk_sets_of_girth_size_that_lose_data_are_as_many_as_the_girth_cycles(name, cycles):
    sys, g = _tour_system(name, PairingMode.PARALLEL)
    size = girth(g)
    lost = sum(len(repair_disks(sys, disks).residual) > 0
               for disks in itertools.combinations(range(len(sys.disks)), size))
    assert lost == count_cycles(g, size) == cycles
