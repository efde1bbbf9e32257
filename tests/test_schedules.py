"""Golden repair schedules.

The digests below pin, byte for byte, the `RepairReport.to_json()` output of
`peel` under each rule and `repair_disks` over seeded erasure patterns:
half of them random edge subsets, half of them whole failed disks.  Any
change to the peeling engine must reproduce every schedule, round and
transfer count exactly.
"""

import hashlib
import random

import pytest

from graphdss.catalog import k5_reference_system, random_4_regular
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy, peel, repair_disks

from conftest import session_report, system_from_cage

PATTERNS = 60  # per system: 30 random edge subsets, 30 whole-disk failures


def _system(name):
    if name.startswith("cage"):
        return system_from_cage(int(name[4:]))[0]
    if name.startswith("k5-"):
        return k5_reference_system(name[3:])
    g = random_4_regular(int(name[6:]), seed=1)
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)


def _patterns(sys):
    """The seeded (erased subset, failed disks or None) patterns of a system."""
    m = sys.cubic.edge_count
    n = len(sys.disks)
    rng = random.Random(f"golden:{n}:{m}")
    for i in range(PATTERNS):
        if i % 2 == 0:
            edges = rng.sample(range(m), rng.randint(1, min(m, 48)))
            disks = None
        else:
            disks = rng.sample(range(n), rng.randint(1, min(n, 12)))
            edges = [e for d in disks for e in sys.disk_edges(d)]
        yield EdgeSubset.from_indices(m, edges), disks


def _digests(sys):
    """SHA-256 of the concatenated report JSON per peeling rule, `peel`'s
    default and MIN_BANDWIDTH, and of `repair_disks`."""
    h = {name: hashlib.sha256() for name in ("peel", "peel_min_bandwidth", "repair_disks")}
    for erased, disks in _patterns(sys):
        h["peel"].update(peel(sys, erased).to_json().encode())
        h["peel_min_bandwidth"].update(
            peel(sys, erased, RepairStrategy.MIN_BANDWIDTH).to_json().encode())
        if disks is not None:
            h["repair_disks"].update(repair_disks(sys, disks).to_json().encode())
    return {name: x.hexdigest() for name, x in h.items()}


GOLDEN = {
    "cage3": {
        "peel": "1091f89fd7d9fdab46c279700b2c64fa011470dd1dd74ea203a988873f920186",
        "peel_min_bandwidth": "443825a9f22e31522d097ba90fcbe3161d261dc3cf0a0d4a60cb8b8c5168f3ec",
        "repair_disks": "0f4b26d79d3db8cbde0eeb8e574b035cf14d923d2bfd917afe3de92eedecfbb0",
    },
    "cage4": {
        "peel": "c04d27d13037e3e22df14b0b0f3957534524b22ebc5efec7789f4409b6284670",
        "peel_min_bandwidth": "0bec32cd723c4881a759925f4a52d2014df86ea34a449263a5fa3d117a8e0e9b",
        "repair_disks": "9c68263ca5b1b8cee0e05dbc1ad9c8485213e3e26af901467b87154d4a080360",
    },
    "cage5": {
        "peel": "90c67ef9200f189de0536cb80fda7327ed15b340aa579b5cd5db836da50d94b4",
        "peel_min_bandwidth": "c3164607dd6d81e0d521efc66658254869d10e3ca32191a87f19e1e45fa66f41",
        "repair_disks": "bd311f74d8bb12d198c92c30451f76aae9826309d22a73b6b96873eb83cbfa6a",
    },
    "cage6": {
        "peel": "a5d2ee481ba2b48a73707d829b6ae5ab1b39fb704d013bf565b941e75a6501d1",
        "peel_min_bandwidth": "a8548053fb3d28f0c9e4b2676d181297c63c4697fef9fd1c757a0e9f3414a667",
        "repair_disks": "7756c4a3d6bb931e75869848aa3b32d7873e3f3ad535a67fa8bee5837d247831",
    },
    "k5-girth5": {
        "peel": "5f2986f1d06461aed8a310cef5e246e3be630f1593e4d70d17d110f08f608fd3",
        "peel_min_bandwidth": "0f9f890d9f3512a2e1085895e15e6a1e6b9627766131327adcc901f8b0d0b73f",
        "repair_disks": "0035a57852ba2a71029c0ffa0abf92aed53c70a10d19354e2f49e7c5582eff25",
    },
    "k5-girth3": {
        "peel": "b5e0cd2fa11b96035f65d1e2d99959f872a776bc6ee751d375d0856b4746e3a3",
        "peel_min_bandwidth": "53c0df46ac5fb99f3004d0692a89737d49cbb62017eff96253ee76d1e7636a7e",
        "repair_disks": "de19275bbc0c15e5f718f36950027d2df40c8cdace49dbea16f009f54b651d82",
    },
    "random200": {
        "peel": "743dba6042fe30b49c2a09ca9ed45b9d02db4d4d547a9ee715adab83f4c22727",
        "peel_min_bandwidth": "c5aa04c7fabe2e68b035b9baef4cc939cc791622926eb745e10181efa5831903",
        "repair_disks": "a02d4dfc9f3e8bc231aeb9ad79f9c1c99d25bc033a043e48f79a613841fcc317",
    },
    "random3000": {
        "peel": "5f6ce2f9c6e2e64642b310b973a9ef406b6b323e678c7d75a8c08930686a1fbd",
        "peel_min_bandwidth": "888e6b335de5b57b252d56e9dfb70c7b2bc57f67b8e5679e46f63071f05c9c67",
        "repair_disks": "70f3a6ccecc47bce0f51d4933fbfc4dbc74e59e9111ad5d1b630fd45c2e02ae8",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_repair_schedules_match_golden(name):
    assert _digests(_system(name)) == GOLDEN[name]


def _random_1000_patterns():
    """200 random 1-40-edge patterns of a `random_4_regular(1000, 1)` system."""
    g = random_4_regular(1000, seed=1)
    sys = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    m = sys.cubic.edge_count
    rng = random.Random("oracle:1000")
    return sys, [EdgeSubset.from_indices(m, rng.sample(range(m), rng.randint(1, 40)))
                 for _ in range(200)]


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["random1000"])
def test_peel_reports_equal_the_schedule_oracle(name):
    """Both peeling rules price their own schedule; `session_report`
    counts it again from the schedule alone, for every field.  The default
    rule is MIN_ROUNDS."""
    if name == "random1000":
        sys, patterns = _random_1000_patterns()
    else:
        sys = _system(name)
        patterns = [erased for erased, _ in _patterns(sys)]
    g = sys.cubic
    for erased in patterns:
        lost = set(erased.indices())
        assert peel(sys, erased) == peel(sys, erased, RepairStrategy.MIN_ROUNDS)
        for strategy in RepairStrategy:
            report = peel(sys, erased, strategy)
            assert report == session_report(g, erased, lost, report.recovered), (strategy, erased)
