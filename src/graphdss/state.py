"""The state directory: one stored stripe of a system, one file per block.

A stripe is the edges of the block graph, each edge one block on the disk
whose P4 path holds it.  Block e lives in `block_{e:05d}.bin`, and
`header.json` holds five keys, every one required: the code length `m`,
the block size `s`, the information set, `system`, the system's digest:
the SHA-256, in hex, of the JSON text `[edges, disks]` without spaces,
the block graph's edges and the disks in file order, which fix which XOR
rebuilds which block, and `crc32`, the `zlib.crc32` of each block's
bytes, in block order.  `_header` builds every key but `crc32`: `store`
writes them, and `repair` checks a header against them, so the writer and
the reader cannot drift apart.  It is also the one block-size rule, so
`store` refuses the block size that `repair` would refuse in a header.

Every file is written as `<file>.tmp` and renamed (`write_atomic`, which
also writes the CLI's `build --output`), so it holds either its old
contents or all of its new ones.  The `.tmp` file is created
exclusively: a file that already has its name is refused, not touched.
`store` removes a stale header
first, then the block files of a longer stripe (every `block_NNNNN.bin`
of index m or more, and no other name), writes the blocks next and the
header last, so a directory without a header holds no complete stripe
and a stored one holds no other stripe's blocks.  `repair` refuses an
erased block outside 0..m-1 (`InvalidBlockError`) before it reads any
file, as `CubicSystem.disk_edges` refuses a disk outside the system
(`cubic.InvalidDiskError`).  It reads the header through
`graphs.read_json_file`, as UTF-8 JSON, and checks it,
then the size of every surviving block, then opens only the helper
blocks that its peel schedule reads, each checked against its checksum
as it is read.  A helper that fails its checksum is an error whose
location is known, so it joins the erased set and the peel runs again
(errors-and-erasures decoding), until every helper read passes or the
enlarged erased set holds a cycle, whose report is returned with nothing
written.  `repair` writes the erased blocks back only if every rebuilt
block matches its checksum: a block that does not is a `StateError`
naming it, and no file is written.  A checksum finds accidental
corruption, not an adversary's.  Every rejection is a
`StateError`: one `try` around these reads turns an `OSError` (a missing
or unreadable header or block, a state path that is missing or not a
directory) or a header that is not JSON into a `StateError` of the same
message, with the original chained as its `__cause__`.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import Iterable

from .code import ParityCode, StorageState, derive_code, encode
from .cubic import CubicSystem
from .graphs import EdgeSubset, read_json_file
from .repair import RepairReport, RepairStrategy, peel, repair_state


class StateError(ValueError):
    """A payload, state header, block file or erased block that does not fit the system."""


class InvalidBlockError(StateError, IndexError):
    """An erased block outside 0..m-1: a StateError of the rejected input,
    and an IndexError of the stripe."""


def _block(directory: str, e: int) -> str:
    return os.path.join(directory, f"block_{e:05d}.bin")


def system_digest(system: CubicSystem) -> str:
    """The header's `system` key, serialized as the module docstring says."""
    import hashlib  # loads OpenSSL, about 3.5 MiB of RSS that only store and repair need

    text = json.dumps([system.cubic.edges, system.disks], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _header(system: CubicSystem, code: ParityCode, s) -> dict:
    """Every header key but `crc32`; the one block-size rule: a StateError
    unless `s` is an int of at least 0 (`True` is not an int)."""
    if type(s) is not int or s < 0:
        raise StateError(f"invalid block size s={s!r}: a block size is an int of at least 0")
    return {"m": code.length, "s": s, "information_set": list(code.information_set),
            "system": system_digest(system)}


def write_atomic(path: str, data: bytes) -> None:
    """Write `data` to `path` as `<path>.tmp` renamed over it, so `path`
    holds its old bytes or all of `data`.  A taken `.tmp` name is a
    `FileExistsError` naming it, and that file is left as it was; a failure
    after the `.tmp` file is created removes it, and only it."""
    tmp = path + ".tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def store(system: CubicSystem, payload: bytes, directory: str, block_size: int) -> None:
    """Encode `payload`, exactly k * `block_size` bytes, as a stripe in `directory`."""
    code = derive_code(system.cubic)
    keys = _header(system, code, block_size)  # before any write: refuses a block size
    k, s = len(code.information_set), block_size
    if len(payload) != k * s:
        raise StateError(f"data must be exactly k*s = {k}*{s} = {k * s} bytes, got {len(payload)}")
    state = encode(code, [payload[i * s : (i + 1) * s] for i in range(k)])
    os.makedirs(directory, exist_ok=True)
    header = os.path.join(directory, "header.json")
    if os.path.exists(header):
        os.remove(header)
    for name in os.listdir(directory):
        # the names `_block` gives: 5 digits, or more without a leading zero
        match = re.fullmatch(r"block_([0-9]{5}|[1-9][0-9]{5,})\.bin", name)
        if match and int(match[1]) >= code.length:
            os.remove(os.path.join(directory, name))
    for e in range(code.length):
        write_atomic(_block(directory, e), state.symbols[e])
    crc32 = [zlib.crc32(state.symbols[e]) for e in range(code.length)]
    write_atomic(header, json.dumps({**keys, "crc32": crc32}).encode())


def repair(system: CubicSystem, directory: str, erased: Iterable[int],
           strategy: RepairStrategy = RepairStrategy.MIN_ROUNDS) -> RepairReport:
    """Rebuild the `erased` blocks in `directory` and return the report of
    the peel under `strategy`.  A helper block that fails its checksum is
    peeled as one more erased block and rebuilt and written with them, so
    the report's `erased` and `recovered` name it."""
    lost, m = set(erased), system.cubic.edge_count
    outside = [e for e in lost if not 0 <= e < m]
    if outside:
        raise InvalidBlockError(f"no block {min(outside)}; blocks are 0..{m - 1}")
    code = derive_code(system.cubic)
    # before the try: peel's ValueError for a strategy is no state rejection
    report = peel(system, EdgeSubset.from_indices(code.length, lost), strategy)
    try:
        header = read_json_file(os.path.join(directory, "header.json"), "state header")
        if not isinstance(header, dict):
            raise StateError("state header is not a JSON object")
        s = header.get("s")
        want = _header(system, code, s)
        if header.get("m") != want["m"]:
            raise StateError(f"state header has m={header.get('m')!r}, "
                             f"but the system's code has length {code.length}")
        if header.get("information_set") != want["information_set"]:
            raise StateError("state header's information set differs from the system's code's, "
                             "so the state was stored under another system")
        if header.get("system") != want["system"]:
            raise StateError(f"state header names system {header.get('system')}, "
                             f"but the system's digest is {want['system']}")
        crc32 = header.get("crc32")
        if not (isinstance(crc32, list) and len(crc32) == code.length
                and all(type(c) is int and 0 <= c < 1 << 32 for c in crc32)):
            raise StateError(f"state header's crc32 is not a list of {code.length} ints "
                             "in 0..2**32-1")
        for e in range(code.length):
            if e not in lost:
                size = os.stat(_block(directory, e)).st_size
                if size != s:
                    raise StateError(f"block {e} has {size} bytes, the header says {s}")
        state = StorageState(s, {})
        while not len(report.residual):
            helpers = {e for _, v, _ in report.recovered for e, _ in system.cubic.incident(v)}
            unread = helpers - lost - state.symbols.keys()
            for e in unread:
                with open(_block(directory, e), "rb") as fh:
                    state.symbols[e] = fh.read()
            failed = {e for e in unread if zlib.crc32(state.symbols[e]) != crc32[e]}
            if not failed:
                break
            # a helper that fails its checksum is an erasure at a known place;
            # its bytes in `state` are rebuilt before any step reads them
            lost |= failed
            report = peel(system, EdgeSubset.from_indices(code.length, lost), strategy)
        else:  # the erased set, enlarged or not, holds a cycle: nothing is written
            return report
    except StateError:
        raise
    except (OSError, ValueError) as exc:  # a file it cannot read, or a header that is not JSON
        raise StateError(str(exc)) from exc
    repair_state(code, state, report)
    for e in sorted(lost):
        if zlib.crc32(state.symbols[e]) != crc32[e]:
            raise StateError(f"rebuilt block {e} does not match its crc32 in the state header")
    for e in sorted(lost):
        write_atomic(_block(directory, e), state.symbols[e])
    return report
