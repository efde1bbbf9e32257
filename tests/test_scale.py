"""The library holds what the system runs, in linear size: on a
20 000-vertex block graph neither the code nor a sampled recovery check
builds one n-bit or m-bit int per vertex, and the payload kernel holds a
block's int only from its first read to its last."""

import random
import tracemalloc

import pytest

from graphdss.analysis import verify_recovery_bound
from graphdss.catalog import cage, random_4_regular
from graphdss.code import derive_code, encode, verify_state
from graphdss.cubic import PairingMode, build_cubic
from graphdss.orientation import eulerian_tour, orient_from_tour


@pytest.fixture(scope="module")
def system_10k():
    g = random_4_regular(10_000, 1)
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL), g


def _peak_mib(fn):
    """Peak traced allocation while fn runs, its result included, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_derive_code_is_linear_in_size(system_10k):
    # one 30 000-bit parity row per vertex took 57 MiB
    sys, _ = system_10k
    assert _peak_mib(lambda: derive_code(sys.cubic)) < 16


def test_sampled_recovery_bound_holds_no_state_sized_by_n(system_10k):
    # one 10 000-bit disk mask per block vertex took 19.7 MiB
    sys, g = system_10k
    peak = _peak_mib(lambda: verify_recovery_bound(sys, g, mode="sampled", trials=1000, seed=1))
    assert peak < 4


@pytest.fixture(scope="module")
def stripe_256k():
    """pg23 (78 blocks, 27 of data) with 256 KiB blocks, and its encoded state."""
    g = cage(6).graph
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    code = derive_code(sys.cubic)
    rng = random.Random("stripe-256k")
    data = [rng.randbytes(256 * 1024) for _ in range(code.dimension)]
    return code, data, encode(code, data)


def test_encode_holds_each_block_int_only_until_its_last_read(stripe_256k):
    # 12.75 MiB of output; holding all 78 block ints to the end took 33.6 MiB
    code, data, _ = stripe_256k
    assert _peak_mib(lambda: encode(code, data)) < 20


def test_verify_state_holds_each_block_int_only_until_its_last_read(stripe_256k):
    # holding all 78 block ints to the end took 21.1 MiB
    code, _, state = stripe_256k
    assert _peak_mib(lambda: verify_state(code, state)) < 10
