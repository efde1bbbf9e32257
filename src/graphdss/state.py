"""The state directory: one stored stripe of a system, one file per block.

A stripe is the edges of the block graph, each edge one block on the disk
whose P4 path holds it.  Block e lives in `block_{e:05d}.bin`, and
`header.json` holds the code length `m`, the block size `s`, the
information set and `system`, the system's digest: the SHA-256, in hex,
of the JSON text `[edges, disks]` without spaces, the block graph's edges
and the disks in file order, which fix which XOR rebuilds which block.
`_header` builds the header: `store` writes it, and `repair` checks a
header against it, so the writer and the reader cannot drift apart.  A
header without `system`, stored before the key existed, is checked on its
other keys.

Every file is written as `<file>.tmp` and renamed, so it holds either its
old contents or all of its new ones.  `store` removes a stale header
first, then the block files of a longer stripe (every `block_NNNNN.bin`
of index m or more, and no other name), writes the blocks next and the
header last, so a directory without a header holds no complete stripe
and a stored one holds no other stripe's blocks.  `repair` reads the
header through `graphs.read_json_file`, as UTF-8 JSON, and checks it,
then the size of every surviving block, then opens only the helper
blocks that its peel schedule reads; it writes the erased blocks back
only if the peel leaves no residual.  Every rejection is a `StateError`.
"""

from __future__ import annotations

import json
import os
import re
from typing import Iterable

from .code import ParityCode, StorageState, derive_code, encode
from .cubic import CubicSystem
from .graphs import EdgeSubset, read_json_file
from .repair import RepairReport, peel, repair_state


class StateError(ValueError):
    """A payload, state header or block file that does not fit the system."""


def _block(directory: str, e: int) -> str:
    return os.path.join(directory, f"block_{e:05d}.bin")


def system_digest(system: CubicSystem) -> str:
    """The header's `system` key, serialized as the module docstring says."""
    import hashlib  # loads OpenSSL, about 3.5 MiB of RSS that only store and repair need

    text = json.dumps([system.cubic.edges, system.disks], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _header(system: CubicSystem, code: ParityCode, s) -> dict:
    return {"m": code.length, "s": s, "information_set": list(code.information_set),
            "system": system_digest(system)}


def _write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def store(system: CubicSystem, payload: bytes, directory: str, block_size: int) -> None:
    """Encode `payload`, exactly k * `block_size` bytes, as a stripe in `directory`."""
    code = derive_code(system.cubic)
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
        _write_atomic(_block(directory, e), state.symbols[e])
    _write_atomic(header, json.dumps(_header(system, code, s)).encode())


def repair(system: CubicSystem, directory: str, erased: Iterable[int]) -> RepairReport:
    """Rebuild the `erased` blocks in `directory` and return the peel's report."""
    code = derive_code(system.cubic)
    try:
        header = read_json_file(os.path.join(directory, "header.json"), "state header")
    except ValueError as exc:
        raise StateError(str(exc)) from None
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
    if header.get("system", want["system"]) != want["system"]:
        raise StateError(f"state header names system {header['system']}, "
                         f"but the system's digest is {want['system']}")
    if type(s) is not int or s < 0:
        raise StateError(f"state header has an invalid block size s={s!r}")
    lost = set(erased)
    for e in range(code.length):
        if e not in lost:
            size = os.stat(_block(directory, e)).st_size
            if size != s:
                raise StateError(f"block {e} has {size} bytes, the header says {s}")
    report = peel(system, EdgeSubset.from_indices(code.length, lost))
    if len(report.residual):
        return report
    state = StorageState(s, {})
    for e in {e for _, v, _ in report.recovered for e, _ in system.cubic.incident(v)} - lost:
        with open(_block(directory, e), "rb") as fh:
            state.symbols[e] = fh.read()
    repair_state(code, state, report)
    for e in sorted(lost):
        _write_atomic(_block(directory, e), state.symbols[e])
    return report
