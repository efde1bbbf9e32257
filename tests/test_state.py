"""The state directory through `graphdss.state` alone: store, lose blocks,
repair, with the header checked against the system."""

import hashlib
import json
import re
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from graphdss.catalog import by_name
from graphdss.cubic import PairingMode, build_cubic
from graphdss.graphs import EdgeSubset
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy, peel
from graphdss.state import InvalidBlockError, StateError, repair, store, system_digest

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
                      "system": system_digest(sys),
                      "crc32": [zlib.crc32((tmp_path / f"block_{e:05d}.bin").read_bytes())
                                for e in range(24)]}


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


@pytest.mark.parametrize("erased, named", [([24], 24), ([999], 999), ([-1], -1),
                                           ([3, 30, 25], 25)],
                         ids=["one-past-the-end", "far-past-the-end", "negative", "smallest"])
@pytest.mark.parametrize("stored", [True, False], ids=["stored", "no-header"])
def test_repair_refuses_a_block_outside_the_stripe_before_it_reads_a_file(
        tmp_path, erased, named, stored):
    """With no header.json, reading the header would raise
    FileNotFoundError, not this error."""
    sys = _k44()
    if stored:
        store(sys, _payload(9 * 8), str(tmp_path), 8)
    before = _files(tmp_path)
    with pytest.raises(InvalidBlockError) as exc:
        repair(sys, str(tmp_path), erased)
    assert isinstance(exc.value, StateError) and isinstance(exc.value, IndexError)
    assert str(exc.value) == f"no block {named}; blocks are 0..23"
    assert _files(tmp_path) == before


def _flip_bit_0(path):
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))


_BAD_CRC32 = "state header's crc32 is not a list of 24 ints in 0..2**32-1"


@pytest.mark.parametrize("spoil, message", [
    (lambda crc: crc[:5] + [crc[5] ^ 1] + crc[6:],
     "rebuilt block 5 does not match its crc32 in the state header"),
    (lambda crc: None, _BAD_CRC32),
    (lambda crc: "0", _BAD_CRC32),
    (lambda crc: crc[:-1], _BAD_CRC32),
    (lambda crc: [-1] + crc[1:], _BAD_CRC32),
    (lambda crc: [1 << 32] + crc[1:], _BAD_CRC32),
    (lambda crc: [True] + crc[1:], _BAD_CRC32),
    (lambda crc: [1.0] + crc[1:], _BAD_CRC32),
], ids=["rebuilt-differs", "null", "string", "short", "negative", "too-large", "bool", "float"])
def test_repair_checks_the_header_checksums_and_writes_nothing_on_a_mismatch(
        tmp_path, spoil, message):
    """A `crc32` key that is not 24 ints in 0..2**32-1 is refused with the
    header; a checksum that no rebuild of block 5 can match names the
    rebuilt block, after the helpers pass theirs."""
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    header = json.loads((tmp_path / "header.json").read_text())
    header["crc32"] = spoil(header["crc32"])
    (tmp_path / "header.json").write_text(json.dumps(header))
    (tmp_path / "block_00005.bin").unlink()
    before = _files(tmp_path)
    with pytest.raises(StateError) as exc:
        repair(sys, str(tmp_path), [5])
    assert str(exc.value) == message
    assert _files(tmp_path) == before


@pytest.mark.parametrize("key, message", [
    ("system", "state header names system None, but the system's digest is "),
    ("crc32", _BAD_CRC32),
], ids=["system", "crc32"])
def test_a_header_without_a_required_key_is_refused(tmp_path, key, message):
    # a header stored before its `system` or `crc32` key existed used to
    # repair with that check off: without `crc32`, block 5 was rebuilt from
    # the flipped helper 4 and written wrong
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    header = json.loads((tmp_path / "header.json").read_text())
    del header[key]
    (tmp_path / "header.json").write_text(json.dumps(header))
    (tmp_path / "block_00005.bin").unlink()
    _flip_bit_0(tmp_path / "block_00004.bin")
    before = _files(tmp_path)
    with pytest.raises(StateError) as exc:
        repair(sys, str(tmp_path), [5])
    assert str(exc.value).startswith(message)
    assert _files(tmp_path) == before


def test_repair_rebuilds_a_flipped_helper_block_as_an_erasure(tmp_path):
    # block 5's schedule reads helper 4, whose flipped bit fails its
    # checksum: block 4 joins the erased set, and both are rebuilt
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    stored = _files(tmp_path)
    (tmp_path / "block_00005.bin").unlink()
    _flip_bit_0(tmp_path / "block_00004.bin")
    report = repair(sys, str(tmp_path), [5])
    assert report == peel(sys, EdgeSubset.from_indices(24, [4, 5]))
    assert sorted(e for e, _, _ in report.recovered) == report.erased.indices() == [4, 5]
    assert _files(tmp_path) == stored


def test_a_flipped_helper_that_closes_a_cycle_leaves_the_residual_and_writes_nothing(tmp_path):
    # blocks 0, 3 and 12 peel, reading helper 15; with 15 flipped the four
    # blocks form a 4-cycle of k44's block graph, so nothing can be rebuilt
    sys = _k44()
    store(sys, _payload(9 * 8), str(tmp_path), 8)
    for e in (0, 3, 12):
        (tmp_path / f"block_{e:05d}.bin").unlink()
    _flip_bit_0(tmp_path / "block_00015.bin")
    before = _files(tmp_path)
    report = repair(sys, str(tmp_path), [0, 3, 12])
    assert report.residual.indices() == report.erased.indices() == [0, 3, 12, 15]
    assert _files(tmp_path) == before


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


@pytest.mark.parametrize("s", [True, 1.0, -1])
def test_store_refuses_a_block_size_that_repair_would_refuse_and_writes_nothing(tmp_path, s):
    # store used to write `"s": true`, which its own repair refused, and
    # to fail on 1.0 with a bare TypeError
    with pytest.raises(StateError, match=re.escape(f"invalid block size s={s!r}")):
        store(_k44(), _payload(9), str(tmp_path / "state"), s)
    assert not (tmp_path / "state").exists()


def test_store_rejects_a_payload_of_the_wrong_size_and_writes_nothing(tmp_path):
    with pytest.raises(StateError, match=r"^data must be exactly k\*s = 9\*8 = 72 bytes, got 71$"):
        store(_k44(), _payload(71), str(tmp_path / "state"), 8)
    assert not (tmp_path / "state").exists()


def _tree(directory):
    """Every path under `directory`, with the bytes of each file."""
    return {str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


def _no_header(state):
    (state / "header.json").unlink()
    return state / "header.json"


def _header_is_a_directory(state):
    (state / "header.json").unlink()
    (state / "header.json").mkdir()
    return state / "header.json"


def _surviving_block_missing(state):
    (state / "block_00006.bin").unlink()
    return state / "block_00006.bin"


def _no_state_directory(state):
    for path in state.iterdir():
        path.unlink()
    state.rmdir()
    return state / "header.json"


def _state_path_is_a_file(state):
    _no_state_directory(state)
    state.write_bytes(b"not a directory")
    return state / "header.json"


@pytest.mark.parametrize("spoil, error", [
    (_no_header, FileNotFoundError),
    (_header_is_a_directory, IsADirectoryError),
    (_surviving_block_missing, FileNotFoundError),
    (_no_state_directory, FileNotFoundError),
    (_state_path_is_a_file, NotADirectoryError),
], ids=["no-header", "header-is-a-directory", "surviving-block-missing",
        "no-state-directory", "state-path-is-a-file"])
def test_a_file_that_repair_cannot_read_is_a_state_error_with_the_os_error_chained(
        tmp_path, spoil, error):
    sys, state = _k44(), tmp_path / "state"
    store(sys, _payload(9 * 8), str(state), 8)
    (state / "block_00005.bin").unlink()
    unreadable = spoil(state)
    before = _tree(tmp_path)
    with pytest.raises(StateError) as exc:
        repair(sys, str(state), [5])
    cause = exc.value.__cause__
    assert type(cause) is error and cause.filename == str(unreadable)
    assert str(exc.value) == str(cause) == f"[Errno {cause.errno}] {cause.strerror}: '{unreadable}'"
    assert _tree(tmp_path) == before


class StateDirectoryMachine(RuleBasedStateMachine):
    """A k44 state directory (s = 8) against a model that holds each
    block's bytes as `store` last wrote them.  Files are deleted,
    truncated, or have one bit flipped outside the model.  A repair that
    succeeds leaves every block of its report's erased set equal to the
    model and every other file as it was; a residual or a refusal changes
    nothing, so no wrong block is ever written.  While the header and every
    surviving block's size are intact and the missing and flipped blocks
    together form a forest, repair must succeed: a flipped helper is
    peeled as one more erasure, not refused."""

    def __init__(self):
        super().__init__()
        self.sys = _k44()
        self.dir = Path(tempfile.mkdtemp())
        self.blocks = {}

    def teardown(self):
        shutil.rmtree(self.dir)

    def _block(self, e):
        return self.dir / f"block_{e:05d}.bin"

    @initialize(payload=st.binary(min_size=72, max_size=72))
    def store_first(self, payload):
        self.store_again(payload)

    @rule(payload=st.binary(min_size=72, max_size=72))
    def store_again(self, payload):
        store(self.sys, payload, str(self.dir), 8)
        self.blocks = {e: self._block(e).read_bytes() for e in range(24)}

    @rule(e=st.integers(0, 23))
    def delete_block(self, e):
        self._block(e).unlink(missing_ok=True)

    @rule(d=st.integers(0, 7))
    def erase_disk(self, d):
        for e in self.sys.disk_edges(d):
            self._block(e).unlink(missing_ok=True)

    @rule()
    def delete_header(self):
        (self.dir / "header.json").unlink(missing_ok=True)

    @rule(e=st.integers(0, 23))
    def truncate_block(self, e):
        if self._block(e).exists():
            self._block(e).write_bytes(self._block(e).read_bytes()[:-1])

    @rule(e=st.integers(0, 23), bit=st.integers(0, 63))
    def flip_a_bit(self, e, bit):
        if self._block(e).exists():
            data = bytearray(self._block(e).read_bytes())
            if bit < 8 * len(data):
                data[bit // 8] ^= 1 << bit % 8
                self._block(e).write_bytes(bytes(data))

    @rule(i=st.integers(0, 99), bit=st.integers(0, 63))
    def flip_a_bit_the_next_repair_reads(self, i, bit):
        # the case the checksum retry exists for, which random flips reach
        # only rarely: a helper of the missing blocks' peel goes bad
        missing = [e for e in range(24) if not self._block(e).exists()]
        report = peel(self.sys, EdgeSubset.from_indices(24, missing))
        helpers = sorted({e for _, v, _ in report.recovered
                          for e, _ in self.sys.cubic.incident(v)} - set(missing))
        if helpers:
            self.flip_a_bit(helpers[i % len(helpers)], bit)

    @rule(strategy=st.sampled_from(RepairStrategy))
    def repair_the_missing_blocks(self, strategy):
        files = {e: self._block(e).read_bytes() for e in range(24) if self._block(e).exists()}
        missing = [e for e in range(24) if e not in files]
        damaged = {e for e, data in files.items() if data != self.blocks[e]}
        intact = (self.dir / "header.json").exists() and all(len(b) == 8 for b in files.values())
        forest = not len(peel(self.sys, EdgeSubset.from_indices(24, damaged | set(missing))).residual)
        before = _tree(self.dir)
        try:
            report = repair(self.sys, str(self.dir), missing, strategy)
        except StateError:
            assert not (intact and forest)
            assert _tree(self.dir) == before
            return
        if len(report.residual):
            assert not forest
            assert _tree(self.dir) == before
            return
        erased = report.erased.indices()
        assert set(missing) <= set(erased) <= set(missing) | damaged
        rebuilt = {f"block_{e:05d}.bin": self.blocks[e] for e in erased}
        assert _tree(self.dir) == {**before, **rebuilt}


def test_repair_rebuilds_the_stored_bytes_or_refuses():
    run_state_machine_as_test(StateDirectoryMachine, settings=settings(
        max_examples=60, stateful_step_count=15, derandomize=True, deadline=None))
