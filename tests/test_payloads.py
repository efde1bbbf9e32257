"""Payload bytes: golden digests, a per-byte XOR oracle, block-size
errors and the speed of the 1 MiB stripe.

The digests pin, byte for byte, what `encode` stores and what
`repair_state` rebuilds for seeded 4 KiB payloads, so any change to the
XOR kernel must reproduce every block exactly.
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphdss.catalog import random_4_regular
from graphdss.code import EncodingError, StorageState, derive_code, encode, verify_state
from graphdss.cubic import PairingMode, build_cubic
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import repair_disks, repair_state

from conftest import copy_state, system_from_cage
from test_cubic import k44_reference_system

BLOCK = 4096


def _system(name):
    if name == "pg23":
        return system_from_cage(6)[0]
    g = random_4_regular(200, seed=1)
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)


def _stripe(name):
    """(system, code, state) for a seeded payload of 4 KiB blocks."""
    sys = _system(name)
    code = derive_code(sys.cubic)
    rng = random.Random(f"payload:{name}")
    state = encode(code, [rng.randbytes(BLOCK) for _ in range(code.dimension)])
    return sys, code, state


def _digest(state, m):
    h = hashlib.sha256(str(state.block_size).encode())
    for e in range(m):
        h.update(state.symbols[e])
    return h.hexdigest()


GOLDEN_ENCODE = {
    "pg23": "e8a196636026d1dab36b992e772aca1013c80651b3bcbb3f07f2237a355e8efd",
    "random200": "6540caaca0f5185e40120fa25cc944d6d2d1cad8af6cda3fcc323bd8d7396298",
}

# pg23 disk sets: one, two and five disks (girth(G) - 1 = 5)
GOLDEN_REPAIR = {
    (0,): "7efd8d349c89b61b66945801ff6e25ce3e48d8e62e8226d6517d460e63b3cc54",
    (5, 6): "2f78a19074d38d94e0ba1292a3dc031d779df4af64208f1299013d31bb53798f",
    (1, 9, 13, 20, 25): "3bcf4f384b342b2e306702e3f59e559c0ce8ebd7635e108072d3d71caa3bb658",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ENCODE))
def test_encode_matches_golden(name):
    sys, code, state = _stripe(name)
    assert _digest(state, code.length) == GOLDEN_ENCODE[name]


@pytest.mark.parametrize("disks", sorted(GOLDEN_REPAIR))
def test_repair_state_matches_golden(disks):
    sys, code, state = _stripe("pg23")
    report = repair_disks(sys, disks)
    erased = {e for e, _, _ in report.recovered}
    damaged = copy_state(state)
    for e in erased:
        del damaged.symbols[e]
    rebuilt = repair_state(code, damaged, report)
    assert rebuilt.symbols == state.symbols
    # the digest covers only the rebuilt blocks, in schedule order
    h = hashlib.sha256()
    for e, _, _ in report.recovered:
        h.update(rebuilt.symbols[e])
    assert h.hexdigest() == GOLDEN_REPAIR[disks]


def _xor_bytes(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def _oracle_fill(g, symbols, steps, size):
    """Per-byte reference kernel over the graph's incidence lists: each
    (edge, vertex) step sets the edge to the XOR of the other blocks at the
    vertex."""
    for e, v in steps:
        acc = bytes(size)
        for ei, _ in g.incident(v):
            if ei != e:
                acc = _xor_bytes(acc, symbols[ei])
        symbols[e] = acc


def _without(state, edges):
    return StorageState(state.block_size, {e: b for e, b in state.symbols.items() if e not in edges})


@given(
    n=st.integers(min_value=5, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.sampled_from([0, 1, 3, 4096]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_encode_and_repair_match_byte_xor_oracle(n, seed, size, data):
    g4 = random_4_regular(n, seed)
    sys = build_cubic(orient_from_tour(g4, eulerian_tour(g4)), PairingMode.PARALLEL)
    g, code = sys.cubic, derive_code(sys.cubic)
    rng = random.Random(seed)
    blocks = [rng.randbytes(size) for _ in range(code.dimension)]

    state = encode(code, blocks)
    want = dict(zip(code.information_set, blocks))
    _oracle_fill(g, want, code.tree_order, size)
    assert state.symbols == want

    # any two disks of a simple G (girth >= 3) are recoverable
    disks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    report = repair_disks(sys, disks)
    erased = {e for d in disks for e in sys.disk_edges(d)}
    damaged = _without(state, erased)
    # snapshot the surviving blocks first: repair_state fills `damaged` in place
    want = dict(damaged.symbols)
    rebuilt = repair_state(code, damaged, report)
    assert rebuilt is damaged
    _oracle_fill(g, want, [(e, v) for e, v, _ in report.recovered], size)
    assert rebuilt.symbols == want == state.symbols


def _k44_stripe():
    sys = k44_reference_system()
    code = derive_code(sys.cubic)
    rng = random.Random("k44-stripe")
    return sys, code, encode(code, [rng.randbytes(8) for _ in range(code.dimension)])


def test_repair_rejects_short_helper_block():
    sys, code, state = _k44_stripe()
    report = repair_disks(sys, [0])
    e, v, _ = report.recovered[0]
    helper = next(ei for ei, _ in sys.cubic.incident(v) if ei != e)
    damaged = _without(state, set(sys.disk_edges(0)))
    damaged.symbols[helper] = damaged.symbols[helper][:5]
    assert not verify_state(code, damaged)
    with pytest.raises(EncodingError, match=f"edge {helper} has 5 bytes, expected 8"):
        repair_state(code, damaged, report)


def test_repair_rejects_missing_helper_block():
    sys, code, state = _k44_stripe()
    report = repair_disks(sys, [0])
    e, v, _ = report.recovered[0]
    helper = next(ei for ei, _ in sys.cubic.incident(v) if ei != e)
    damaged = _without(state, set(sys.disk_edges(0)) | {helper})
    with pytest.raises(EncodingError, match=f"no block on edge {helper}$"):
        repair_state(code, damaged, report)


def test_encode_rejects_short_data_block():
    # a short block at any information-set position is caught before any
    # block is computed, and the message names its edge, block 0 included
    for sys in (k44_reference_system(), system_from_cage(6)[0]):
        code = derive_code(sys.cubic)
        info = code.information_set
        for i, edge in enumerate(info):
            data = [bytes(8)] * code.dimension
            data[i] = bytes(5)
            with pytest.raises(EncodingError) as exc:
                encode(code, data)
            message = str(exc.value)
            assert f"on edge {edge} has 5 bytes" in message, (i, message)
            if i:
                assert message == (f"data block {i} on edge {edge} has 5 bytes, "
                                   f"but data block 0 on edge {info[0]} has 8 bytes")
            else:
                assert message == (f"data block 1 on edge {info[1]} has 8 bytes, "
                                   f"but data block 0 on edge {edge} has 5 bytes")


def test_verify_state_catches_one_flipped_byte_in_every_pg23_block():
    sys, code, state = _stripe("pg23")
    rng = random.Random("pg23-flips")
    for e in range(code.length):
        blk = bytearray(state.symbols[e])
        blk[rng.randrange(BLOCK)] ^= 1 << rng.randrange(8)
        symbols = dict(state.symbols)
        symbols[e] = bytes(blk)
        assert not verify_state(code, StorageState(BLOCK, symbols)), e


def test_pg23_one_mib_round_trip_is_fast():
    # three failed disks of a 78 MiB stripe: about 0.4 s with the big-int
    # kernel, over 15 s with a per-byte one
    sys = system_from_cage(6)[0]
    code = derive_code(sys.cubic)
    rng = random.Random("pg23-1MiB")
    data = [rng.randbytes(1 << 20) for _ in range(code.dimension)]
    disks = [0, 7, 15]
    start = time.perf_counter()
    state = encode(code, data)
    report = repair_disks(sys, disks)
    rebuilt = repair_state(code, _without(state, set(report.erased.indices())), report)
    ok = verify_state(code, rebuilt)
    elapsed = time.perf_counter() - start
    assert ok and rebuilt.symbols == state.symbols
    assert elapsed < 5.0, f"1 MiB pg23 round trip took {elapsed:.2f} s"
