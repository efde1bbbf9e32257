"""The paper's claims over a whole class of graphs, not four cages: every
connected 4-regular graph on 5 to 9 vertices, 26 graphs from
`connected_4_regular_graphs` in `tests/conftest.py`, each laid out along
its Eulerian tour under all-parallel and all-crossed pairing.  The n = 10
class (59 graphs) and the sweep over every policy stay out of tier-1."""

import itertools
import random

import pytest

from graphdss.analysis import profile, verify_recovery_bound
from graphdss.code import derive_code, encode, verify_state
from graphdss.cubic import InvalidSystemError, PairingMode, build_cubic, check_star_layout
from graphdss.graphs import degree_sequence, girth, is_connected
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy, repair_disk, repair_disks, repair_state

from conftest import connected_4_regular_graphs, copy_state, owners_induce_cycle

SIZES = range(5, 10)


def test_the_class_has_the_counts_of_oeis_a006820_and_its_largest_girths():
    classes = {n: connected_4_regular_graphs(n) for n in SIZES}
    assert [len(classes[n]) for n in SIZES] == [1, 1, 2, 6, 16]
    for n in SIZES:
        assert all(degree_sequence(g) == [4] * n and is_connected(g) for g in classes[n])
    # K4,4 is the one graph of girth 4 up to n = 9: no 4-regular graph on
    # 9 vertices is triangle-free
    assert [max(int(girth(g)) for g in classes[n]) for n in SIZES] == [3, 3, 3, 4, 3]


@pytest.mark.parametrize("mode", list(PairingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", SIZES)
def test_the_paper_claims_hold_on_every_connected_4_regular_graph(n, mode):
    graphs = connected_4_regular_graphs(n)
    for i, g in enumerate(graphs):
        sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), mode)
        gg, gb = int(girth(g)), int(girth(sys.cubic))
        assert gg <= gb <= 3 * gg, i
        prof = profile(sys, g)
        assert (prof.girth_source, prof.girth_cubic, prof.code_dimension) == (gg, gb, n + 1), i
        # the smallest unrecoverable loss is girth(G) disks
        _, witness = verify_recovery_bound(sys, g)
        assert len(witness) == gg and len(repair_disks(sys, witness).residual), i
        for d in range(n):
            assert repair_disk(sys, d, RepairStrategy.MIN_BANDWIDTH).transferred_symbols == 4
            assert repair_disk(sys, d, RepairStrategy.MIN_ROUNDS).transferred_symbols == 5
        for size in range(n + 1):
            for disks in itertools.combinations(range(n), size):
                owners = [sys.disk_owner[d] for d in disks]
                lost = len(repair_disks(sys, disks).residual) > 0
                assert lost == owners_induce_cycle(g, owners), (i, disks)
        code = derive_code(sys.cubic)
        rng = random.Random(f"class:{n}:{i}:{mode.value}")
        state = encode(code, [rng.randbytes(8) for _ in range(code.dimension)])
        for disks in itertools.combinations(range(n), gg - 1):
            broken = copy_state(state)
            for d in disks:
                for e in sys.disk_edges(d):
                    del broken.symbols[e]
            fixed = repair_state(code, broken, repair_disks(sys, disks))
            assert fixed.symbols == state.symbols and verify_state(code, fixed), (i, disks)
        # the layout rule tells the system's own graph from every other one
        for other in graphs[:i] + graphs[i + 1:]:
            with pytest.raises(InvalidSystemError):
                check_star_layout(sys, other)
