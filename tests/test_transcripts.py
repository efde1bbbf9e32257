"""Whole-CLI transcripts: each row runs `cli.main` in-process in a fresh
directory and pins one SHA-256 over every step's exit code, stdout and
stderr and the bytes of every file the row leaves behind.

Rows run from `tmp_path` with relative paths, so no temporary directory
name reaches the output, and with the cage-7 data variable unset, so
`profile --table1` always reports that cage as skipped; no row names
`cage7` itself.  A step is a command line split on spaces; a step that
starts with `rm` deletes the files it names.  An input file is written
before the first step.

A digest may change only together with a CHANGES entry that says which
output changed and why; list the row here too.  Changed so far:
- error-graph-edges, error-graph-json: a graph or system file whose edge,
  disk, disk owner or arc name is not a list of ints of the right length
  (a bool is not an int) is rejected with a message that names the entry;
  `build --input` checks the declared vertex count first.
- error-graph-edges, error-input-graph-shape: `build`, `profile`,
  `simulate` and `decompose` reject a file that declares more vertices
  than its edges have ends before a Graph is built, with a new message.
- store-repair-k44, store-repair-pg23-crossed, repair-unrecoverable-k5,
  error-repair-inputs: `header.json` gains the `"system"` key, the digest
  of the block graph's edges and the disks; every step's exit code and
  output is unchanged, and without that key each row gives its old digest.
- error-orientation: `load_orientation` checks that each arc is a pair of
  ints, so its `o2.json` step reads `error: arc 0 is not a list of 2 ints:
  [0, 1, 2]` in place of the CLI's own message, which named the file; the
  other three steps are unchanged.
- error-policy: a `--policy` vertex that is not decimal digits is refused
  before `int()` reads it, so the `crossed@x` step reads `error: policy
  token 'crossed@x': vertex 'x' is not decimal digits` in place of `int()`'s
  message, which named neither the token nor `--policy`; the other two
  steps are unchanged.
- error-graph-json, error-graph-edges: every `--input` file is read by
  `graphs.read_graph_file`, so `export-dot` applies the declared-count
  rule of the other commands and a file that is not JSON is named: the
  `a.json` step reads `error: input graph a.json is not valid JSON: ...`
  in place of json's bare message, and the `export-dot --input c.json` and
  `export-dot --input bool.json` steps read `error: input graph declares 3
  vertices, but its 1 edges have 2 ends, so some vertex has no edge` in
  place of the bad edge's message; the other steps are unchanged.
- store-repair-k44, store-repair-pg23-crossed, repair-unrecoverable-k5,
  error-repair-inputs, and the four rows added after the `system` key
  (store-repair-k44-strategy, store-repair-pg23-disks-both-strategies,
  error-repair-disks, error-repair-foreign-system): `header.json` gains
  the `"crc32"` key, one `zlib.crc32` per block; every step's exit code
  and output is unchanged, and without that key each row gives its old
  digest.
- error-empty-options: `build --output` writes through `state.write_atomic`,
  as `<file>.tmp` renamed over the file, so its `--output=` step fails at
  the rename and reads `error: [Errno 2] No such file or directory: '.tmp'
  -> ''` in place of the open's `... directory: ''`; no `.tmp` is left,
  and the other five steps are unchanged.
"""

import hashlib
import json
import os

import pytest

from graphdss import catalog
from graphdss.catalog import by_name
from graphdss.cli import main
from graphdss.cubic import PairingMode, build_cubic
from graphdss.orientation import eulerian_tour, orient_from_tour


def _payload(size: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(size))


def _k44_block_graph() -> str:
    g = by_name("k44").graph
    return build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).cubic.to_json()


def _k44_system_with_true() -> str:
    """A k44 system file that names block-graph vertex 1 as `true`."""
    g = by_name("k44").graph
    obj = json.loads(
        build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL).to_json())
    for key in ("edges", "disks"):
        obj[key] = [[True if v == 1 else v for v in item] for item in obj[key]]
    return json.dumps(obj)


def _two_k5() -> str:
    edges = [[u, v] for u in range(5) for v in range(u + 1, 5)]
    edges += [[u + 5, v + 5] for u, v in edges]
    return '{"vertices": 10, "edges": %s}' % edges


# k = 6 / 9 / 27 data blocks on k5 / k44 / pg23; blocks of 8 bytes
K5_DATA = {"data.bin": _payload(6 * 8)}
K44_DATA = {"data.bin": _payload(9 * 8)}
PG23_DATA = {"data.bin": _payload(27 * 8)}


def _stored(catalog_name: str, policy: str = "parallel"):
    return [f"build --catalog {catalog_name} --policy {policy} --output sys.json",
            "store --system sys.json --data data.bin --out state --block-size 8"]


# id -> (input files, steps, digest)
ROWS = {
    "build-k5-parallel": (
        {}, ["build --catalog k5 --output sys.json"],
        "99da9642e5e17f89bfe9321db5ff9ddaa21a962030103dbabbe145c347f602c3"),
    "build-k5-crossed": (
        {}, ["build --catalog k5 --policy crossed"],
        "78407a59d3ab4f7c6ce6b7ff7e1ad9039c33ac0affc51f9f65e98f4a5598ea06"),
    "build-k5-reference-orientation": (
        {}, ["build --catalog k5 --orientation reference "
             "--policy parallel,crossed@0,crossed@2,crossed@4"],
        "a1651f3c0ebda7acfdb622a9380ed026573ff6c9e287119b3d56a26936aa6264"),
    "build-k44-parallel": (
        {}, ["build --catalog k44"],
        "d96934a7f4ebfa19ef403514066ebf0c9129b0c7c97f4ec94e6c64295c54d94d"),
    "build-k44-crossed": (
        {}, ["build --catalog k44 --policy crossed --output sys.json"],
        "f1ed5c3dc9fb397afad27a6f98582c5308ea2f9c4178fb5e37c586242248a9b2"),
    "build-robertson-both": (
        {}, ["build --catalog robertson --output par.json",
             "build --catalog robertson --policy crossed --output cross.json"],
        "adefafbbfde8bf3ed11cb3495c69f37d5cd001a1cc5d92ef70bf773c40942b90"),
    "build-pg23-both": (
        {}, ["build --catalog pg23 --output par.json",
             "build --catalog pg23 --policy crossed,parallel@3 --output mixed.json"],
        "4618f998f5e59caca24f3ca7a90ff3d397dc1f0891a361891005f14a4e6fb3b8"),
    "build-input-file": (
        {"g.json": by_name("k44").graph.to_json().encode()},
        ["build --input g.json --policy crossed"],
        "7dd0304296dbaed7bcc0a697dafa4a5a76acb47b080d1e021f5b53d728d7e785"),
    "decompose-petersen": (
        {}, ["decompose --catalog petersen"],
        "75e613102865bb8d42673a54420487dddd67fa1c7f74f154e395e2642335ee34"),
    "decompose-k44-block-graph": (
        {"b.json": _k44_block_graph().encode()}, ["decompose --input b.json"],
        "59644ea4d31d743bf1b0777b308ba0c6ae1329b14c63f7389f12dc9aa8f02416"),
    "profile-k5-both": (
        {}, ["profile --catalog k5", "profile --catalog k5 --policy crossed --csv"],
        "6acac1cdb9b2098afa7b64891a7f009341f46cac5875a3ea4b34b2c596b7f0b6"),
    "profile-k44-both": (
        {}, ["profile --catalog k44 --csv", "profile --catalog k44 --policy crossed"],
        "166b377634e77fb37afde57936b58681bbf6124b602216ba2e7c08b7de48b88a"),
    "profile-petersen": (
        {}, ["profile --catalog petersen"],
        "4009492b59cbc73da6920459faa9471b96006913d810c78dc3fe0120b8b1641b"),
    "profile-robertson-both": (
        {}, ["profile --catalog robertson", "profile --catalog robertson --policy crossed --csv"],
        "58d19ec7ef82027fe0cd8c12b34a700221bfcbcfd3b4e4e3a8f7dbfec25514c9"),
    "profile-pg23-both": (
        {}, ["profile --catalog pg23 --csv", "profile --catalog pg23 --policy crossed"],
        "457cfe0af44fc5712a72fa39382f6d1a4140316ce871b1f593b40dbc983f343e"),
    "profile-system-file": (
        {}, ["build --catalog pg23 --policy crossed --output sys.json",
             "profile --system sys.json"],
        "f2ff77446d9035ba8d0c19d40ccd76b72fc9ff6ca7edaff9a68ceee2c71bf34a"),
    # a file whose policy mixes modes loads and is profiled
    "profile-system-mixed-policy": (
        {}, ["build --catalog k44 --policy parallel,crossed@4 --output sys.json",
             "profile --system sys.json"],
        "f5fa0978b8a814b0d7415575d3fb7b56eda2f44efda88c56210875e7eea85862"),
    "profile-table1": (
        {}, ["profile --table1"],
        "7f1e881d42d318c8c9f484aa24ea45ed739729c4382e78c7f2506bf0a1532404"),
    "profile-table1-csv": (
        {}, ["profile --table1 --csv"],
        "d13054b12377edaca4a78380b478ee110f9bbe9882c4fe77706920b12e21e3c8"),
    "simulate-k5-exhaustive-both": (
        {}, ["simulate --catalog k5 --exhaustive --measure-bandwidth",
             "simulate --catalog k5 --policy crossed --exhaustive --measure-bandwidth"],
        "3fc402bebda3b4599ff58afb09ce1d6370eab6bed9a865234d7785d4d877529c"),
    "simulate-k44-exhaustive-both": (
        {}, ["simulate --catalog k44 --exhaustive --measure-bandwidth",
             "simulate --catalog k44 --policy crossed --exhaustive"],
        "25834574cdf6618e84ace66e9d1ff210cd0c141889f0ae62afac4656f31916f6"),
    "simulate-robertson-sampled-both": (
        {}, ["simulate --catalog robertson --seed 5 --trials 40",
             "simulate --catalog robertson --policy crossed --seed 5 --trials 40 "
             "--measure-bandwidth"],
        "1b69e8dcec048bcd4e76040c9d7eb83cd88a27dc88bfa64eb86b5dec4a8ef1fa"),
    "simulate-pg23-both": (
        {}, ["simulate --catalog pg23 --exhaustive --measure-bandwidth",
             "simulate --catalog pg23 --policy crossed --seed 11 --trials 30 --disks 3"],
        "a644c7da564792a2fb9af7cb56187d14687988a296ad12f3a08942fc73591236"),
    "export-dot-k5": (
        {}, ["export-dot --catalog k5"],
        "9c7c04d3ab44dfd72e370678b3e40a854be65111064b2f91226f7f44124c414f"),
    "export-dot-petersen-and-input": (
        {"g.json":
         b'{"vertices": 3, "edges": [[0, 1], [1, 2]], "vertex_labels": ["a", "b", "c"]}'},
        ["export-dot --catalog petersen", "export-dot --input g.json"],
        "1ec6626fc1db249846fa493ffe72dd85367a4e30c66939f55865d616a2b55189"),
    "store-repair-k44": (
        K44_DATA, _stored("k44") + [
            "rm state/block_00003.bin state/block_00004.bin state/block_00005.bin",
            "repair --system sys.json --state state --erased 3,4,5"],
        "80d9a600d09ba113e97fc3e07f2a4fc83dc7621750158db562cdeae37f4bd243"),
    "store-repair-pg23-crossed": (
        PG23_DATA, _stored("pg23", "crossed") + [
            "rm state/block_00000.bin state/block_00001.bin state/block_00002.bin "
            "state/block_00040.bin",
            "repair --system sys.json --state state --erased 0,1,2,40"],
        "34f88783896cdf5627ba2a495e3a690f4196e21e86298f77c9193c55636cb408"),
    "repair-unrecoverable-k5": (
        K5_DATA, _stored("k5") + [
            "rm state/block_00000.bin state/block_00003.bin state/block_00006.bin",
            "repair --system sys.json --state state --erased 0,3,6"],
        "6736512a947020a7ac87c00b18b504785b95a78014e3bdbfe3a937fb98d719ad"),
    # --disks erases whole disks; the same stripe repaired under both rules
    "store-repair-pg23-disks-both-strategies": (
        PG23_DATA, _stored("pg23") + [
            "rm state/block_00000.bin state/block_00001.bin state/block_00002.bin "
            "state/block_00015.bin state/block_00016.bin state/block_00017.bin",
            "repair --system sys.json --state state --disks 0,5 --strategy min-bandwidth",
            "rm state/block_00000.bin state/block_00001.bin state/block_00002.bin",
            "repair --system sys.json --state state --disks 0"],
        "11dc93fe5a22735a975cf151956e2c361116b1bcb43be32f5f48978db5bf414e"),
    "store-repair-k44-strategy": (
        K44_DATA, _stored("k44") + [
            "rm state/block_00003.bin state/block_00004.bin state/block_00005.bin",
            "repair --system sys.json --state state --erased 3,4,5 --strategy min-bandwidth",
            "rm state/block_00003.bin state/block_00004.bin state/block_00005.bin",
            "repair --system sys.json --state state --disks 1,1 --strategy min-rounds"],
        "17041d084c58b010adbc6b8daa7f14ff3eca51643e4e3befe8b50801dfe03d3f"),
    # exit 2, one row per message family
    "error-missing-file": (
        {}, ["profile --system nosuch.json", "build --input nosuch.json"],
        "6d1632b2aec2067c2726508c4ef31472724ce8c319e0ad25b10fba26a0f1828c"),
    "error-no-graph-source": (
        {}, ["build", "export-dot"],
        "3de2a0c70a557e440d95cf730509a10c1bcb35f0527aa914c235a6ed9f16f0da"),
    "error-graph-json": (
        {"a.json": b"not json", "b.json": b'{"edges": []}',
         "c.json": b'{"vertices": 3, "edges": [["a", 1]]}',
         "d.json": b'{"vertices": 2, "edges": [[0, 0]]}'},
        ["build --input a.json", "build --input b.json", "export-dot --input c.json",
         "build --input d.json"],
        "c4b51931bdefbcbd837759a079d2244ece837e5cd9b7134fe6f2c314e916fcf3"),
    "error-graph-edges": (
        {"three.json": b'{"vertices": 5, "edges": [[0, 1, 2]]}',
         "one.json": b'{"vertices": 5, "edges": [[0]]}',
         "float.json": b'{"vertices": 5, "edges": [[0, 1.0]]}',
         "bool.json": b'{"vertices": 3, "edges": [[true, 2]]}',
         "sys.json": _k44_system_with_true().encode()},
        ["build --input three.json", "build --input one.json", "build --input float.json",
         "export-dot --input bool.json", "profile --system sys.json"],
        "bdb64ce4add2488e0f8b3dce0c416a8a19d980cde04d8ccde8daac49eabed112"),
    "error-graph-edges-within-count": (
        {"three.json": b'{"vertices": 2, "edges": [[0, 1, 2]]}',
         "float.json": b'{"vertices": 2, "edges": [[0, 1.0]]}',
         "true.json": b'{"vertices": true, "edges": [[0, 1]]}'},
        ["build --input three.json", "decompose --input float.json", "profile --input true.json"],
        "3abcd52bdd42bd1e9256edd0588966cef10e50796964592e1ae66feeb2de907d"),
    "error-input-graph-shape": (
        {"empty.json": b'{"vertices": 0, "edges": []}', "two.json": _two_k5().encode(),
         "path.json": b'{"vertices": 1000, "edges": [[0, 1], [1, 2]]}'},
        ["build --catalog petersen", "profile --input empty.json", "build --input two.json",
         "simulate --input path.json --seed 1", "decompose --input path.json"],
        "823c805556a77dd29dda7b11d9c5934bce2c4910ab3def0ee9eb3c40306a3ae0"),
    "error-orientation": (
        {"o1.json": b'{"edges": []}', "o2.json": b'{"arcs": [[0, 1, 2]]}',
         "o3.json": b'{"arcs": [[0, 1]]}'},
        ["build --catalog k44 --orientation reference",
         "build --catalog k5 --orientation o1.json",
         "build --catalog k5 --orientation o2.json",
         "build --catalog k5 --orientation o3.json"],
        "407766cc0be6386e7b300b943e09221835559b12e9be02d30c7f71061edad430"),
    "error-policy": (
        {}, ["build --catalog k5 --policy foo", "build --catalog k5 --policy crossed@x",
             "build --catalog k5 --policy crossed@99"],
        "b79c7e7a031d6667e8e5d2f778c3fed52eeed3bf5c6a5f8f919c2b7c7489a851"),
    "error-simulate-options": (
        {}, ["simulate --catalog k5 --trials 0 --seed 1", "simulate --catalog k5",
             "simulate --catalog k5 --disks 9 --seed 1", "simulate --catalog k5 --disks 2"],
        "63f9534c792a21abd453deb56a0e986d2e180e70a6fc1f87996449aeb13dc109"),
    # an option that names a second graph or system is refused, not ignored
    "error-refused-options": (
        {"g.json": by_name("k44").graph.to_json().encode()},
        ["build --catalog k44 --output sys.json",
         "profile --system sys.json --catalog k5 --policy crossed --orientation reference",
         "profile --table1 --system sys.json", "profile --table1 --csv --policy crossed",
         "build --catalog k5 --input g.json", "export-dot --catalog k5 --input g.json"],
        "a64e347e1e61a68026bdc020f504e19c89c5a7c7aa893ddae905d2e679c90cf2"),
    # an option given as the empty string, written `--name=`, is read or refused;
    # `--output=` fails at `state.write_atomic`'s rename of `.tmp` onto ''
    "error-empty-options": (
        {}, ["build --catalog k44 --output sys.json", "build --catalog k5 --input=",
             "profile --system sys.json --policy= --csv", "build --input=",
             "build --catalog k5 --orientation=", "build --catalog k5 --output="],
        "827310f6d7db76ceda0d310fc77f22065cb4ac3878f1da030dc30e007000d80b"),
    "error-decompose": (
        {}, ["decompose --catalog k5"],
        "e408af65418c4706cedcbd98c8882804ec061770e5c137d6c3fee88e07e8c0bb"),
    "error-system-file": (
        {"dup.json": b'{"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]], "disks": '
                     b'[[0, 1, 2, 3], [0, 1, 2, 3]], "disk_owner": [0, 1], '
                     b'"arc_names": [[0, 1], [1, 0], [0, 1], [1, 0]]}',
         "bad.json": b'{"vertices": 2}'},
        ["profile --system dup.json", "store --system bad.json --data x --out state"],
        "7ad12e3eff651bc4962eac28aeecf510e23d49881796dc705c3283db6a3e7d0b"),
    "error-store-data-size": (
        {"data.bin": _payload(5)},
        ["build --catalog k44 --output sys.json",
         "store --system sys.json --data data.bin --out state --block-size 8"],
        "0860c56c71e38be7bca19498c2d4d266faa88b5b5f6484057fa15c070a646327"),
    "error-repair-inputs": (
        K44_DATA, _stored("k44") + [
            "repair --system sys.json --state state --erased 1,x",
            "repair --system sys.json --state state --erased 99",
            "rm state/block_00007.bin",
            "repair --system sys.json --state state --erased 3",
            "build --catalog k5 --output k5.json",
            "repair --system k5.json --state state --erased 3"],
        "460b32f64be7a49af853a90fd372cbe8b6dfbc95d7f0ae7426861599cab12dfb"),
    "error-repair-disks": (
        K44_DATA, _stored("k44") + [
            "rm state/block_00003.bin",
            "repair --system sys.json --state state",
            "repair --system sys.json --state state --erased 3 --disks 1",
            "repair --system sys.json --state state --disks 1,x",
            "repair --system sys.json --state state --disks=",
            "repair --system sys.json --state state --disks 1,8"],
        "ef00abab2297effa077179d1aa97b62978904016496a7173799ee90b24f6299f"),
    # k44 under these pairings has the same m and information set as
    # parallel k44, so only the header's system digest tells them apart
    "error-repair-foreign-system": (
        K44_DATA, _stored("k44") + [
            "build --catalog k44 --policy parallel,crossed@4,crossed@5,crossed@6,crossed@7 "
            "--output other.json",
            "rm state/block_00000.bin",
            "repair --system other.json --state state --erased 0"],
        "0563fc4cd67af48237e3eaa0bf3144d36d83a8f337c772aa67bf7320bce70e95"),
}


def _run_row(capsys, files, steps) -> str:
    digest = hashlib.sha256()

    def add(data: bytes) -> None:
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)

    for name, data in files.items():
        with open(name, "wb") as fh:
            fh.write(data)
    for step in steps:
        argv = step.split()
        if argv[0] == "rm":
            for path in argv[1:]:
                os.remove(path)
            continue
        code = main(argv)
        out = capsys.readouterr()
        # a command refuses its input before it prints its first line
        assert code != 2 or out.out == "", f"{step!r} exited 2 after printing {out.out!r}"
        add(f"{step}\n{code}".encode())
        add(out.out.encode())
        add(out.err.encode())
    for root, dirs, names in os.walk("."):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            add(path.encode())
            with open(path, "rb") as fh:
                add(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("row", sorted(ROWS))
def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys, row):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(catalog.CAGE7_ENV_VAR, raising=False)
    files, steps, want = ROWS[row]
    assert _run_row(capsys, files, steps) == want
