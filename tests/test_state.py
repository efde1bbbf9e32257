"""The state directory through `graphdss.state` alone: store, lose blocks,
repair, with the header checked against the system."""

import hashlib
import json

import pytest

from graphdss.catalog import by_name
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import peel
from graphdss.state import StateError, repair, store, system_digest

from conftest import system_from_cage

# k44 whose vertices 4..7 pair their arcs crossed: the block graph differs
# from parallel k44's, but the code length and information set do not
_K44_CROSSED_4_TO_7 = {v: PairingMode.CROSSED for v in range(4, 8)}


def _k44(overrides=None):
    g = by_name("k44").graph
    policy = tuple((overrides or {}).get(v, PairingMode.PARALLEL) for v in range(8))
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), policy)


def _payload(size: int) -> bytes:
    return bytes((11 * i + 5) % 256 for i in range(size))


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_store_then_repair_a_lost_pg23_disk(tmp_path):
    sys, _ = system_from_cage(6)
    store(sys, _payload(27 * 64), str(tmp_path), 64)
    assert sorted(_files(tmp_path)) == [f"block_{e:05d}.bin" for e in range(78)] + ["header.json"]
    lost = sys.disk_edges(0)
    stored = {e: (tmp_path / f"block_{e:05d}.bin").read_bytes() for e in lost}
    for e in lost:
        (tmp_path / f"block_{e:05d}.bin").unlink()
    report = repair(sys, str(tmp_path), lost)
    assert report == peel(sys, EdgeSubset.from_indices(78, lost))
    assert (report.transferred_symbols, report.rounds, len(report.residual)) == (5, 2, 0)
    assert {e: (tmp_path / f"block_{e:05d}.bin").read_bytes() for e in lost} == stored
    assert not list(tmp_path.glob("*.tmp"))


def test_store_removes_the_blocks_of_a_longer_stripe_and_no_other_file(tmp_path):
    store(system_from_cage(6)[0], _payload(27 * 8), str(tmp_path), 8)
    others = {"notes.txt": b"kept", "block_24.bin": b"not a block name", "block_00030.bin.tmp": b""}
    for name, data in others.items():
        (tmp_path / name).write_bytes(data)
    store(_k44(), _payload(9 * 8), str(tmp_path), 8)
    files = _files(tmp_path)
    assert sorted(set(files) - set(others)) == (
        [f"block_{e:05d}.bin" for e in range(24)] + ["header.json"])
    assert {name: files[name] for name in others} == others


def test_the_header_names_the_system(tmp_path):
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    header = json.loads((tmp_path / "header.json").read_text())
    assert header == {"m": 24, "s": 8, "information_set": [3, 5, 8, 9, 11, 17, 18, 20, 23],
                      "system": system_digest(sys)}


def test_system_digest_is_the_sha256_of_the_edges_and_disks_in_file_order():
    sys = _k44()
    obj = json.loads(sys.to_json())
    text = json.dumps([obj["edges"], obj["disks"]], separators=(",", ":"))
    assert system_digest(sys) == hashlib.sha256(text.encode()).hexdigest()
    assert system_digest(sys) == "b0c7e94a156f70884228e449c66611161c36ae73ebc4302d448911cd4efb1c6c"
    assert system_digest(_k44(_K44_CROSSED_4_TO_7)) != system_digest(sys)


def test_repair_rejects_another_system_before_it_touches_a_block_file(tmp_path):
    """No block file is left at all, so a stat or an open of one would
    raise FileNotFoundError, not the digest mismatch."""
    sys, other = _k44(), _k44(_K44_CROSSED_4_TO_7)
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    for path in tmp_path.glob("block_*.bin"):
        path.unlink()
    before = _files(tmp_path)
    with pytest.raises(StateError) as exc:
        repair(other, str(tmp_path), [0])
    assert str(exc.value) == (f"state header names system {system_digest(sys)}, "
                              f"but the system's digest is {system_digest(other)}")
    assert _files(tmp_path) == before


def test_a_header_without_the_system_key_is_checked_as_before(tmp_path):
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    stored = (tmp_path / "block_00000.bin").read_bytes()
    header = json.loads((tmp_path / "header.json").read_text())
    del header["system"]
    (tmp_path / "header.json").write_text(json.dumps(header))
    (tmp_path / "block_00000.bin").unlink()
    repair(sys, str(tmp_path), [0])
    assert (tmp_path / "block_00000.bin").read_bytes() == stored


@pytest.mark.parametrize("encode", [lambda text: b"\xff\xfe{",
                                    lambda text: b"\xff\xfe" + text.encode("utf-16-le")],
                         ids=["not-utf8", "utf16-header"])
def test_a_header_that_is_not_utf8_json_is_a_state_error_naming_it(tmp_path, encode):
    # the header is read as UTF-8 JSON, as every other file is; json's own
    # guess of UTF-16 or UTF-32 from the bytes is not used
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    header = tmp_path / "header.json"
    header.write_bytes(encode(header.read_text()))
    with pytest.raises(StateError) as exc:
        repair(sys, str(tmp_path), [0])
    assert str(exc.value).startswith(f"state header {header} is not valid JSON: 'utf-8' codec "
                                     "can't decode byte 0xff in position 0")


def test_an_unrecoverable_repair_returns_the_residual_and_writes_nothing(tmp_path):
    sys, _ = system_from_cage(3)
    store(sys, _payload(6 * 8), str(tmp_path), 8)
    for e in (0, 3, 6):
        (tmp_path / f"block_{e:05d}.bin").unlink()
    before = _files(tmp_path)
    report = repair(sys, str(tmp_path), [0, 3, 6])
    assert report.residual.indices() == [0, 3, 6]
    assert _files(tmp_path) == before


def test_store_rejects_a_payload_of_the_wrong_size_and_writes_nothing(tmp_path):
    with pytest.raises(StateError, match=r"^data must be exactly k\*s = 9\*8 = 72 bytes, got 71$"):
        store(_k44(), _payload(71), str(tmp_path / "state"), 8)
    assert not (tmp_path / "state").exists()
