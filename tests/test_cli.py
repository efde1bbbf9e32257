import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graphdss.catalog
import graphdss.cli
import graphdss.graphs
import graphdss.state
from graphdss.catalog import complete_graph
from graphdss.cli import main
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy

from test_catalog import _GIRTH7_VOLTAGES, _k5_lift
from test_cubic import (
    _arc_out_of_range,
    _assert_p4_cover,
    _cubic_without_perfect_matching,
    _random_system_with_k44_arcs,
    k44_reference_system,
    prism,
)
from test_orientation import k5_arcs_all_into_vertex_0
from test_state import _flip_bit_0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    # a command refuses its input before it prints its first line
    assert code != 2 or out.out == "", f"exit 2 after printing {out.out!r}"
    return code, out.out, out.err


def test_build_k44(tmp_path, capsys):
    out_file = tmp_path / "sys.json"
    code, out, err = run(capsys, "build", "--catalog", "k44", "--output", str(out_file))
    assert code == 0
    assert "disks: 8" in err and "blocks: 24" in err
    obj = json.loads(out_file.read_text())
    assert len(obj["disks"]) == 8


def test_build_reference_k5_policy(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "build",
        "--catalog",
        "k5",
        "--orientation",
        "reference",
        "--policy",
        "parallel,crossed@0,crossed@2,crossed@4",
    )
    assert code == 0
    obj = json.loads(out)
    from graphdss.catalog import k5_reference_system

    assert [tuple(d) for d in obj["disks"]] == list(k5_reference_system("girth5").disks)


@pytest.mark.parametrize(
    "modes,named",
    [(["crossed"], "policy has 1 modes for 5 disks"),
     (["crossed"] * 5, "disk 0 is not the crossed pairing of vertex 0's arcs")],
    ids=["one-mode-for-5-disks", "crossed-over-parallel-disks"],
)
def test_profile_rejects_a_policy_the_disks_do_not_follow(tmp_path, capsys, modes, named):
    sys_file = tmp_path / "sys.json"
    assert run(capsys, "build", "--catalog", "k5", "--output", str(sys_file))[0] == 0
    obj = json.loads(sys_file.read_text())
    obj["policy"] = modes
    sys_file.write_text(json.dumps(obj))
    code, out, err = run(capsys, "profile", "--system", str(sys_file))
    assert code == 2
    assert named in err


def test_build_rejects_non_4_regular(capsys):
    code, out, err = run(capsys, "build", "--catalog", "petersen")
    assert code == 2
    assert "not 4-regular" in err


@pytest.mark.parametrize("command", ["build", "profile", "simulate"])
def test_graph_without_vertices_is_rejected(tmp_path, capsys, command):
    graph_file = tmp_path / "empty.json"
    graph_file.write_text('{"vertices": 0, "edges": []}')
    out_file = tmp_path / "sys.json"
    argv = [command, "--input", str(graph_file)]
    if command == "build":
        argv += ["--output", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "no vertices" in err
    assert not out_file.exists()


def test_profile_robertson(capsys):
    code, out, err = run(capsys, "profile", "--catalog", "robertson", "--csv")
    assert code == 0
    assert out.strip().split(",")[:6] == ["19", "57", "4", "12", "57", "20"]


def test_profile_table1(capsys):
    code, out, err = run(capsys, "profile", "--table1")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "disks"))]
    assert len(rows) >= 4


def test_profile_table1_prints_nothing_before_a_rejected_cage7_file(tmp_path, capsys,
                                                                      monkeypatch):
    path = tmp_path / "k5.json"
    path.write_text(complete_graph(5).to_json())
    monkeypatch.setenv("GRAPHDSS_CAGE7_FILE", str(path))
    code, out, err = run(capsys, "profile", "--table1")
    assert (code, out) == (2, "")
    assert err == "error: cage47: girth 3 != claimed 7\n"


def test_profile_cage7_missing(capsys, monkeypatch):
    monkeypatch.delenv("GRAPHDSS_CAGE7_FILE", raising=False)
    code, out, err = run(capsys, "profile", "--catalog", "cage7")
    assert code == 2
    assert "cage" in err


def test_profile_cage7_rejects_a_graph_that_is_not_the_cage(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cage7.json"
    path.write_text(_k5_lift(26, _GIRTH7_VOLTAGES).to_json())
    monkeypatch.setenv("GRAPHDSS_CAGE7_FILE", str(path))
    code, out, err = run(capsys, "profile", "--catalog", "cage7")
    assert (code, out) == (2, "")
    assert "130 vertices, the (4,7)-cage has 67" in err


def test_simulate_k5_exhaustive(capsys):
    code, out, err = run(
        capsys, "simulate", "--catalog", "k5", "--exhaustive", "--measure-bandwidth"
    )
    assert code == 0
    verdict = json.loads(out[out.index("{"):])
    assert verdict["all_g_minus_1_ok"] is True
    assert len(verdict["witness"]) == 3


def test_simulate_sampled_requires_seed(capsys):
    code, out, err = run(capsys, "simulate", "--catalog", "k5")
    assert code == 2


def test_simulate_disjoint_disk_bandwidth(capsys):
    code, out, err = run(
        capsys, "simulate", "--catalog", "k44", "--exhaustive",
        "--disks", "2", "--seed", "1", "--trials", "20",
    )
    assert code == 0
    assert "4x2: ok" in out


def test_profile_table1_reports_a_row_that_differs_from_the_table(capsys, monkeypatch):
    monkeypatch.delenv("GRAPHDSS_CAGE7_FILE", raising=False)
    monkeypatch.setattr(graphdss.cli, "_TABLE1",
                        {**graphdss.cli._TABLE1, 4: (8, 24, 3, 9, 24, 10)})
    code, out, err = run(capsys, "profile", "--table1")
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("8,24,"))
    assert f"# MISMATCH for (4,4)-cage: row {row} does not start with (8, 24, 3, 9, 24, 10)\n" in err
    assert err.count("MISMATCH") == 1


@pytest.mark.parametrize("strategy", list(RepairStrategy), ids=lambda s: s.name)
def test_simulate_measure_bandwidth_reports_a_wrong_price(capsys, monkeypatch, strategy):
    real = graphdss.cli.repair_disk

    def one_symbol_more(sys_, d, s):
        r = real(sys_, d, s)
        return r._replace(transferred_symbols=r.transferred_symbols + 1) if s is strategy else r

    monkeypatch.setattr(graphdss.cli, "repair_disk", one_symbol_more)
    code, out, err = run(
        capsys, "simulate", "--catalog", "k5", "--exhaustive", "--measure-bandwidth")
    assert code == 1
    assert out.splitlines()[0] == ("per-disk bandwidth: min-bandwidth=4/3 rounds, "
                                   "min-rounds=5/2 rounds: FAILED")


def test_simulate_disks_reports_a_wrong_transfer_count(capsys, monkeypatch):
    real = graphdss.cli.repair_disks
    monkeypatch.setattr(graphdss.cli, "repair_disks",
                        lambda sys_, disks: real(sys_, disks)._replace(transferred_symbols=0))
    code, out, err = run(
        capsys, "simulate", "--catalog", "k44", "--exhaustive",
        "--disks", "2", "--seed", "1", "--trials", "20",
    )
    assert code == 1
    assert out.startswith("disjoint 2-disk repairs measured: 20, expected transfer 4x2: FAILED\n")


PG23_DISJOINT_STDOUT = """disjoint 2-disk repairs measured: 50, expected transfer 4x2: ok
{
  "all_g_minus_1_ok": true,
  "witness": [
    0,
    1,
    4,
    13,
    14,
    17
  ]
}
"""


def test_simulate_disjoint_disks_output_is_pinned(capsys):
    # the disjoint-disk sampler draws from the rng exactly as before its
    # neighbourhood sets were built once per command
    code, out, err = run(
        capsys, "simulate", "--catalog", "pg23", "--disks", "2", "--seed", "3",
        "--trials", "50", "--exhaustive",
    )
    assert (code, out) == (0, PG23_DISJOINT_STDOUT)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_rejects_no_trials(capsys, trials):
    # an empty sample must not read as "all subsets verified"
    code, out, err = run(capsys, "simulate", "--catalog", "k5", "--seed", "1", "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("disks", ["0", "-1", "999"])
def test_simulate_rejects_disk_count_out_of_range(capsys, disks):
    code, out, err = run(capsys, "simulate", "--catalog", "k5", "--exhaustive",
                         "--seed", "1", "--disks", disks)
    assert code == 2
    assert out == ""
    assert "--disks" in err and disks in err


def test_simulate_without_disjoint_disks_is_not_ok(capsys):
    # any two disks of K5 are adjacent in its block graph
    code, out, err = run(capsys, "simulate", "--catalog", "k5", "--exhaustive",
                         "--seed", "1", "--disks", "2", "--trials", "20")
    assert (code, out) == (2, "")
    assert "20" in err and "2 pairwise non-adjacent disks" in err


@pytest.mark.parametrize("argv, message", [
    (["--measure-bandwidth"], "sampled simulation requires --seed"),
    (["--measure-bandwidth", "--disks", "2"], "--disks sampling requires --seed"),
    (["--exhaustive", "--disks", "5", "--seed", "1", "--trials", "3", "--measure-bandwidth"],
     "no trial of 3 found 5 pairwise non-adjacent disks"),
], ids=["no-seed", "disks-without-seed", "no-disjoint-disks"])
def test_simulate_prints_nothing_before_it_refuses(capsys, argv, message):
    # the bandwidth line is printed only once every refusal is behind it
    code, out, err = run(capsys, "simulate", "--catalog", "k5", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_store_and_repair_round_trip(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))

    rng = random.Random(2)
    data = bytes(rng.randrange(256) for _ in range(9 * 32))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(data)
    state_dir = tmp_path / "state"
    code, out, err = run(
        capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(state_dir), "--block-size", "32",
    )
    assert code == 0
    original = (state_dir / "block_00005.bin").read_bytes()

    code, out, err = run(
        capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
        "--erased", "5,6,7",
    )
    assert code == 0
    assert (state_dir / "block_00005.bin").read_bytes() == original


def _repair_pg23_disk_0(tmp_path, capsys, monkeypatch, *options):
    """Store a pg23 stripe, delete disk 0's block files and run `repair`
    with `options`; return the exit code, stdout, the block files opened
    for reading in the order opened, the helper blocks of the printed
    schedule, and whether every lost block holds its bytes again."""
    from graphdss.cubic import CubicSystem

    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "pg23", "--output", str(sys_file))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(bytes(i % 251 for i in range(27 * 64)))
    state_dir = tmp_path / "state"
    run(capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(state_dir), "--block-size", "64")
    sysm = CubicSystem.from_obj(json.loads(sys_file.read_text()))
    lost = sysm.disk_edges(0)
    original = {e: (state_dir / f"block_{e:05d}.bin").read_bytes() for e in lost}
    for e in lost:
        (state_dir / f"block_{e:05d}.bin").unlink()

    real_open = open
    read = []

    def recording_open(path, mode="r", *args, **kwargs):
        name = os.path.basename(path)
        if "r" in mode and name.startswith("block_") and name.endswith(".bin"):
            read.append(int(name[len("block_"):-len(".bin")]))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(graphdss.state, "open", recording_open, raising=False)
    code, out, err = run(
        capsys, "repair", "--system", str(sys_file), "--state", str(state_dir), *options)
    report = json.JSONDecoder().raw_decode(out)[0] if code == 0 else {"recovered": []}
    helpers = {ei for _, v, _ in report["recovered"] for ei, _ in sysm.cubic.incident(v)}
    restored = all((state_dir / f"block_{e:05d}.bin").read_bytes() == original[e] for e in lost)
    return code, out, read, helpers - set(lost), restored


def test_repair_reads_only_the_helper_blocks(tmp_path, capsys, monkeypatch):
    """Repairing pg23's disk 0 reads the 5 helper blocks of its schedule,
    not the 75 surviving block files."""
    code, out, read, helpers, restored = _repair_pg23_disk_0(
        tmp_path, capsys, monkeypatch, "--erased", "0,1,2")
    assert code == 0
    report = {"recovered": [[0, 0, 1], [2, 2, 1], [1, 1, 2]], "transferred": 5,
              "rounds": 2, "residual": []}
    assert out == (json.dumps(report, indent=2) + "\n"
                   "repaired 3 blocks, transferred 5 symbols in 2 rounds\n")
    assert sorted(read) == sorted(helpers)
    assert len(read) == report["transferred"]
    assert restored


def test_repair_a_disk_under_min_bandwidth_reads_4_blocks(tmp_path, capsys, monkeypatch):
    """`--disks 0 --strategy min-bandwidth` erases disk 0's 3 blocks and
    peels them along the path: 4 symbols in 3 rounds, and exactly the 4
    helper block files are opened."""
    code, out, read, helpers, restored = _repair_pg23_disk_0(
        tmp_path, capsys, monkeypatch, "--disks", "0", "--strategy", "min-bandwidth")
    assert code == 0
    report = {"recovered": [[0, 0, 1], [1, 1, 2], [2, 3, 3]], "transferred": 4,
              "rounds": 3, "residual": []}
    assert out == (json.dumps(report, indent=2) + "\n"
                   "repaired 3 blocks, transferred 4 symbols in 3 rounds\n")
    assert len(read) == 4 and sorted(read) == sorted(helpers)
    assert restored


def test_repair_disks_default_strategy_is_min_rounds(tmp_path, capsys, monkeypatch):
    # --disks erases the same blocks as --erased of the disk's edges
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, by_disk, _, _, _ = _repair_pg23_disk_0(tmp_path / "a", capsys, monkeypatch, "--disks", "0")
    _, by_block, _, _, _ = _repair_pg23_disk_0(tmp_path / "b", capsys, monkeypatch,
                                               "--erased", "2,1,0", "--strategy", "min-rounds")
    assert by_disk == by_block and "transferred 5 symbols in 2 rounds" in by_disk


def _stored_k44(tmp_path, capsys):
    """A k44 system file and a state directory holding a stored payload."""
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(bytes(i % 251 for i in range(9 * 32)))
    state_dir = tmp_path / "state"
    code, _, _ = run(
        capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(state_dir), "--block-size", "32",
    )
    assert code == 0
    return sys_file, state_dir


def _fail_kth_block_write(monkeypatch, k):
    """Make the k-th block file that `graphdss.state` opens for writing
    store half of its bytes and then raise, as a crash or a full disk
    would."""
    real_open = open
    opened = []

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("injected write failure")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if mode in ("wb", "xb") and os.path.basename(path).startswith("block_"):
            opened.append(path)
            if len(opened) == k:
                return HalfWrite(fh)
        return fh

    monkeypatch.setattr(graphdss.state, "open", failing_open, raising=False)


@pytest.mark.parametrize("command", ["store", "store-again", "repair"])
def test_failed_block_write_leaves_no_partial_block(tmp_path, capsys, monkeypatch, command):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    original = {p.name: p.read_bytes() for p in state_dir.glob("block_*.bin")}
    if command.startswith("store"):
        if command == "store":
            state_dir = tmp_path / "fresh"
        argv = ["store", "--system", str(sys_file), "--data", str(tmp_path / "data.bin"),
                "--out", str(state_dir), "--block-size", "32"]
    else:
        for e in (5, 6, 7):
            (state_dir / f"block_{e:05d}.bin").unlink()
        argv = ["repair", "--system", str(sys_file), "--state", str(state_dir),
                "--erased", "5,6,7"]
    before = {p.name for p in state_dir.glob("block_*.bin")}
    _fail_kth_block_write(monkeypatch, 2)
    code, out, err = run(capsys, *argv)
    assert code == 2 and "injected write failure" in err
    assert not list(state_dir.glob("*.tmp"))
    # every block file holds its old contents or all of its new ones
    blocks = {p.name: p.read_bytes() for p in state_dir.glob("block_*.bin")}
    assert blocks and before <= set(blocks)
    assert all(original[name] == b for name, b in blocks.items())
    # a store directory, fresh or not, gets its header only after every block
    assert (state_dir / "header.json").exists() == (command == "repair")


def test_failed_build_output_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    # the system file is written as sys.json.tmp and renamed over sys.json
    out = tmp_path / "sys.json"
    out.write_bytes(b"old bytes")

    def failing_replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(graphdss.state.os, "replace", failing_replace)
    code, _, err = run(capsys, "build", "--catalog", "k44", "--output", str(out))
    assert (code, err) == (2, "error: injected rename failure\n")
    assert out.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]


def _repair_lost_block_5(capsys, sys_file, state_dir, erased="5"):
    """Delete block 5, run repair, and return (exit code, stderr); block 5
    must not have been written."""
    (state_dir / "block_00005.bin").unlink()
    code, _, err = run(
        capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
        "--erased", erased,
    )
    assert not (state_dir / "block_00005.bin").exists()
    return code, err


def test_repair_rejects_out_of_range_erased(tmp_path, capsys):
    code, err = _repair_lost_block_5(capsys, *_stored_k44(tmp_path, capsys), erased="5,99")
    assert code == 2
    assert "99" in err


def test_repair_rejects_non_integer_erased(tmp_path, capsys):
    code, err = _repair_lost_block_5(capsys, *_stored_k44(tmp_path, capsys), erased="5,x")
    assert code == 2
    assert "--erased" in err


@pytest.mark.parametrize("erased,block", [("1_0", 10), ("+3", 3), ("\u0663", 3)],
                         ids=["underscore", "sign", "arabic-indic-digit"])
def test_repair_reads_erased_as_ascii_decimal_digits(tmp_path, capsys, erased, block):
    # int() reads each of these as the index of the lost block
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    lost = state_dir / f"block_{block:05d}.bin"
    lost.unlink()
    argv = ["repair", "--system", str(sys_file), "--state", str(state_dir), "--erased"]
    code, out, err = run(capsys, *argv, erased)
    assert (code, out) == (2, "")
    assert err == f"error: --erased must be comma-separated block indices, got {erased!r}\n"
    assert not lost.exists()
    # spaces around an item are read, as before
    code, out, err = run(capsys, *argv, f" {block} ")
    assert code == 0 and lost.exists()


@pytest.mark.parametrize("options, message", [
    ([], "need --erased or --disks"),
    (["--erased", "3", "--disks", "0"], "--disks cannot be given with --erased"),
    (["--disks", "0,x"], "--disks must be comma-separated disk indices, got '0,x'"),
    (["--disks="], "--disks must be comma-separated disk indices, got ''"),
    (["--disks", "1,8"], "--disks: no disk 8; disks are 0..7"),
], ids=["neither", "both", "not-digits", "empty", "no-such-disk"])
def test_repair_takes_exactly_one_of_erased_and_disks(tmp_path, capsys, options, message):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    (state_dir / "block_00003.bin").unlink()
    code, out, err = run(capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
                         *options)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (state_dir / "block_00003.bin").exists()


def test_repair_refuses_an_unknown_strategy(tmp_path, capsys):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["repair", "--system", str(sys_file), "--state", str(state_dir),
              "--disks", "0", "--strategy", "fastest"])
    assert exc.value.code == 2
    assert "invalid choice: 'fastest'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "export-dot"])
def test_a_closed_stdout_exits_141_quietly(command):
    """A reader that left before the output was written is not rejected
    input: the command exits 141, as if SIGPIPE had killed it, printing no
    error, traceback or "Exception ignored" line."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphdss.__file__)))
    try:
        done = subprocess.run([sys.executable, "-m", "graphdss.cli", command, "--catalog", "pg23"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr
    assert b"error" not in done.stderr


def test_repair_rejects_truncated_helper_block(tmp_path, capsys):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    for path in state_dir.glob("block_*.bin"):
        if path.name != "block_00005.bin":
            path.write_bytes(path.read_bytes()[:5])
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "5 bytes" in err


def test_repair_rebuilds_a_flipped_helper_block(tmp_path, capsys):
    # store k44 with s = 32, delete block 5 and flip bit 0 of block 4, a
    # helper that block 5's schedule reads: repair used to exit 0 with a
    # wrong block 5; block 4 now fails its checksum, joins the erased set,
    # and both are rebuilt
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    stored = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    (state_dir / "block_00005.bin").unlink()
    _flip_bit_0(state_dir / "block_00004.bin")
    code, out, err = run(capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
                         "--erased", "5")
    assert (code, err) == (0, "")
    report = json.JSONDecoder().raw_decode(out)[0]
    assert sorted(e for e, _, _ in report["recovered"]) == [4, 5]
    assert out.endswith(f"repaired 2 blocks, transferred {report['transferred']} symbols "
                        f"in {report['rounds']} rounds\n")
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == stored


def test_repair_refuses_a_header_without_its_crc32_key(tmp_path, capsys):
    # the same flipped helper, under a header without checksums: repair used
    # to exit 0 and write a wrong block 5
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    header = json.loads((state_dir / "header.json").read_text())
    del header["crc32"]
    (state_dir / "header.json").write_text(json.dumps(header))
    _flip_bit_0(state_dir / "block_00004.bin")
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert (code, err) == (2, "error: state header's crc32 is not a list of 24 ints "
                              "in 0..2**32-1\n")


def test_a_flipped_helper_that_closes_a_cycle_exits_1_and_writes_nothing(tmp_path, capsys):
    # blocks 0, 3 and 12 peel, reading helper 15; flipped, 15 joins them in
    # a 4-cycle of the block graph of k44's tour layout
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    for e in (0, 3, 12):
        (state_dir / f"block_{e:05d}.bin").unlink()
    _flip_bit_0(state_dir / "block_00015.bin")
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    code, out, err = run(capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
                         "--erased", "0,3,12")
    assert (code, err) == (1, "")
    assert out.startswith("unrecoverable: residual cycle on edges [0, 3, 12, 15]\n")
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_a_file_that_holds_a_tmp_name_is_refused_and_left_as_it_was(tmp_path, capsys):
    # every file is written as <file>.tmp, created exclusively: a user's
    # file of that name used to be overwritten and then renamed away
    sys_tmp = tmp_path / "sys.json.tmp"
    sys_tmp.write_bytes(b"the user's sys.json.tmp")
    code, _, err = run(capsys, "build", "--catalog", "k44", "--output", str(tmp_path / "sys.json"))
    assert (code, err) == (2, f"error: [Errno 17] File exists: '{sys_tmp}'\n")
    assert sys_tmp.read_bytes() == b"the user's sys.json.tmp"
    assert not (tmp_path / "sys.json").exists()
    sys_tmp.unlink()
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    block_tmp = state_dir / "block_00005.bin.tmp"
    block_tmp.write_bytes(b"the user's block_00005.bin.tmp")
    (state_dir / "block_00005.bin").unlink()
    for argv in (["repair", "--system", sys_file, "--state", state_dir, "--erased", "5"],
                 ["store", "--system", sys_file, "--data", tmp_path / "data.bin",
                  "--out", state_dir, "--block-size", "32"]):
        code, _, err = run(capsys, *map(str, argv))
        assert (code, err) == (2, f"error: [Errno 17] File exists: '{block_tmp}'\n")
        assert block_tmp.read_bytes() == b"the user's block_00005.bin.tmp"
        assert not (state_dir / "block_00005.bin").exists()


def test_repair_rejects_header_of_another_code_length(tmp_path, capsys):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    header = json.loads((state_dir / "header.json").read_text())
    header["m"] = 25
    (state_dir / "header.json").write_text(json.dumps(header))
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "m=25" in err


def test_repair_rejects_missing_surviving_block(tmp_path, capsys):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    (state_dir / "block_00006.bin").unlink()
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "block_00006.bin" in err


def test_repair_rejects_missing_header(tmp_path, capsys):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    (state_dir / "header.json").unlink()
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "header.json" in err


@pytest.mark.parametrize("text", [b"{", b"[]", b"\xff\xfe{"])
def test_repair_rejects_header_that_is_not_a_json_object(tmp_path, capsys, text):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    (state_dir / "header.json").write_bytes(text)
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "header" in err


@pytest.mark.parametrize("s", [-1, "32", 32.0, None, True])
def test_repair_rejects_a_header_block_size_that_is_not_a_size(tmp_path, capsys, s):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    header = json.loads((state_dir / "header.json").read_text())
    header["s"] = s
    (state_dir / "header.json").write_text(json.dumps(header))
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert f"invalid block size s={s!r}" in err


def test_store_and_repair_blocks_of_size_zero(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(b"")
    state_dir = tmp_path / "state"
    code, _, _ = run(capsys, "store", "--system", str(sys_file), "--data", str(data_file),
                     "--out", str(state_dir), "--block-size", "0")
    assert code == 0
    (state_dir / "block_00005.bin").unlink()
    code, _, _ = run(capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
                     "--erased", "5")
    assert code == 0
    assert (state_dir / "block_00005.bin").read_bytes() == b""


def test_repair_rejects_a_state_stored_under_another_system(tmp_path, capsys):
    # crossed k5 has parallel k5's 15 blocks but another information set;
    # repair used to rebuild block 3 from it with the wrong bytes
    par, crossed = tmp_path / "par.json", tmp_path / "crossed.json"
    run(capsys, "build", "--catalog", "k5", "--output", str(par))
    run(capsys, "build", "--catalog", "k5", "--policy", "crossed", "--output", str(crossed))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(bytes(i % 251 for i in range(6 * 32)))
    state_dir = tmp_path / "state"
    code, _, _ = run(capsys, "store", "--system", str(par), "--data", str(data_file),
                     "--out", str(state_dir), "--block-size", "32")
    assert code == 0
    (state_dir / "block_00003.bin").unlink()
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    code, out, err = run(capsys, "repair", "--system", str(crossed), "--state", str(state_dir),
                         "--erased", "3")
    assert (code, out) == (2, "")
    assert "information set" in err
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_repair_rejects_a_state_of_another_block_graph_with_the_same_code(tmp_path, capsys):
    # these two k44 systems share m = 24 and the information set, so only
    # the header's system digest tells them apart; repair used to exit 0
    # and write a wrong block 0
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    other = tmp_path / "other.json"
    run(capsys, "build", "--catalog", "k44", "--policy",
        "parallel,crossed@4,crossed@5,crossed@6,crossed@7", "--output", str(other))
    (state_dir / "block_00000.bin").unlink()
    code, out, err = run(capsys, "repair", "--system", str(other), "--state", str(state_dir),
                         "--erased", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: state header names system ")
    assert not (state_dir / "block_00000.bin").exists()


def _corrupt_system(sys_file, fault):
    """Rewrite a system file so that disk 1 repeats disk 0, or names
    vertex 99."""
    obj = json.loads(sys_file.read_text())
    obj["disks"][1] = list(obj["disks"][0]) if fault == "duplicate" else [0, 1, 2, 99]
    sys_file.write_text(json.dumps(obj))


@pytest.mark.parametrize("fault", ["duplicate", "vertex99"])
def test_profile_rejects_bad_system_file(tmp_path, capsys, fault):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))
    _corrupt_system(sys_file, fault)
    code, out, err = run(capsys, "profile", "--system", str(sys_file))
    assert code == 2
    assert "disk" in err


def _two_k5_systems():
    """System-file JSON of two disjoint copies of the pinned girth-5 K5
    system: a valid file whose block graph is disconnected."""
    from graphdss.catalog import k5_reference_system

    obj = json.loads(k5_reference_system("girth5").to_json())
    nv, nd = obj["vertices"], len(obj["disks"])
    obj["edges"] += [[u + nv, v + nv] for u, v in obj["edges"]]
    obj["disks"] += [[v + nv for v in d] for d in obj["disks"]]
    obj["disk_owner"] += [o + nd for o in obj["disk_owner"]]
    obj["arc_names"] += [[u + nd, v + nd] for u, v in obj["arc_names"]]
    obj["vertices"] = 2 * nv
    obj.pop("policy", None)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text,named",
    [(_two_k5_systems(), "disconnected"),
     ('{"vertices": 0, "edges": [], "disks": [], "disk_owner": [], "arc_names": []}', "empty")],
    ids=["two-k5", "no-disks"],
)
def test_profile_rejects_a_system_without_one_block_graph(tmp_path, capsys, text, named):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(text)
    code, out, err = run(capsys, "profile", "--system", str(sys_file))
    assert code == 2
    assert named in err


def test_profile_system_builds_the_source_graph_once(tmp_path, capsys, monkeypatch):
    # the graph that the system check builds from the arc names is the one
    # that `profile` reports on
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(k44_reference_system().to_json())
    built = []
    init = graphdss.graphs.Graph.__init__

    def counted(self, vertex_count, *args, **kwargs):
        built.append(vertex_count)
        init(self, vertex_count, *args, **kwargs)

    monkeypatch.setattr(graphdss.graphs.Graph, "__init__", counted)
    code, out, _ = run(capsys, "profile", "--system", str(sys_file))
    assert code == 0 and "girth of source graph:  4" in out
    assert built.count(8) == 1, built


def _k44_reversed_and_shuffled(tmp_path):
    # the edges of k44, each written head first, in a shuffled order
    edges = [(v, u) for u, v in graphdss.catalog.by_name("k44").graph.edges]
    random.Random(45).shuffle(edges)
    return _written(tmp_path, json.dumps({"vertices": 8, "edges": edges}))


@pytest.mark.parametrize("argv", [
    lambda t: ["profile", "--catalog", "k44"],
    lambda t: ["profile", "--input", _k44_reversed_and_shuffled(t)],
    lambda t: ["profile", "--system", _k44_system_file(t)],
    lambda t: ["profile", "--table1"],
    lambda t: ["simulate", "--catalog", "k44", "--exhaustive"],
], ids=["profile-catalog", "profile-input", "profile-system", "profile-table1", "simulate"])
def test_every_verdict_reads_g_off_its_system(tmp_path, capsys, monkeypatch, argv):
    # no CLI path keeps a graph beside its system: G is the system's own
    calls = []
    for name in ("profile", "verify_recovery_bound"):
        def recorded(sys_, g, *rest, _f=getattr(graphdss.cli, name)):
            calls.append((sys_, g))
            return _f(sys_, g, *rest)
        monkeypatch.setattr(graphdss.cli, name, recorded)
    assert run(capsys, *argv(tmp_path))[0] == 0
    assert calls
    for sys_, g in calls:
        assert g is sys_.source_graph


def test_simulate_names_the_disks_of_the_system_build_writes(tmp_path, capsys):
    # an orientation file whose arcs are not in the input graph's edge order:
    # simulate reads G off the system, as a load of the built file does
    sys_file = tmp_path / "sys.json"
    assert run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))[0] == 0
    arcs = json.loads(sys_file.read_text())["arc_names"][::-1]
    rev = _written(tmp_path, json.dumps({"arcs": arcs}))
    code, out, _ = run(capsys, "simulate", "--catalog", "k44", "--orientation", rev,
                       "--exhaustive")
    assert code == 0
    assert json.loads(out)["witness"] == [0, 3, 6, 7]
    assert run(capsys, "build", "--catalog", "k44", "--orientation", rev,
               "--output", str(sys_file))[0] == 0
    loaded = graphdss.cli._load_system(str(sys_file))
    _, witness = graphdss.cli.verify_recovery_bound(loaded, loaded.source_graph)
    assert sorted(witness) == [0, 3, 6, 7]


@pytest.mark.parametrize("fault", ["duplicate", "vertex99"])
def test_store_rejects_bad_system_file(tmp_path, capsys, fault):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))
    _corrupt_system(sys_file, fault)
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(bytes(9 * 32))
    code, out, err = run(
        capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(tmp_path / "state"), "--block-size", "32",
    )
    assert code == 2
    assert "disk" in err
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("fault", ["duplicate", "vertex99"])
def test_repair_rejects_bad_system_file(tmp_path, capsys, fault):
    sys_file, state_dir = _stored_k44(tmp_path, capsys)
    _corrupt_system(sys_file, fault)
    code, err = _repair_lost_block_5(capsys, sys_file, state_dir)
    assert code == 2
    assert "disk" in err


def test_store_wrong_size(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k44", "--output", str(sys_file))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(b"short")
    code, out, err = run(
        capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(tmp_path / "s"), "--block-size", "32",
    )
    assert code == 2
    assert "9*32" in err


def test_repair_unrecoverable_cycle(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    run(capsys, "build", "--catalog", "k5", "--orientation", "reference",
        "--policy", "parallel", "--output", str(sys_file))
    data_file = tmp_path / "data.bin"
    data_file.write_bytes(bytes(6 * 8))
    state_dir = tmp_path / "state"
    run(capsys, "store", "--system", str(sys_file), "--data", str(data_file),
        "--out", str(state_dir), "--block-size", "8")

    # find a triangle of the girth-3 system to erase
    from graphdss.catalog import k5_reference_system
    from graphdss.graphs import EdgeSubset, two_core
    import itertools

    sysm = k5_reference_system("girth3")
    tri = next(
        combo
        for combo in itertools.combinations(range(15), 3)
        if len(two_core(sysm.cubic, EdgeSubset.from_indices(15, combo))) == 3
    )
    code, out, err = run(
        capsys, "repair", "--system", str(sys_file), "--state", str(state_dir),
        "--erased", ",".join(map(str, tri)),
    )
    assert code == 1
    assert "unrecoverable" in out


def test_export_dot(capsys):
    code, out, err = run(capsys, "export-dot", "--catalog", "k5")
    assert code == 0
    assert out.startswith("graph {")


def test_export_dot_escapes_vertex_labels(tmp_path, capsys):
    # the label used to close its quotes and add a node x to the output
    text = json.dumps({"vertices": 2, "edges": [[0, 1]],
                       "vertex_labels": ['a"]; x [label="pwn', "b\\"]})
    code, out, err = run(capsys, "export-dot", "--input", _written(tmp_path, text))
    assert code == 0
    assert out.splitlines()[1:3] == ['  0 [label="a\\"]; x [label=\\"pwn"];',
                                     '  1 [label="b\\\\"];']


def test_decompose(capsys):
    code, out, err = run(capsys, "decompose", "--catalog", "petersen")
    assert code == 0
    assert len(json.loads(out)["paths"]) == 5


def test_decompose_a_graph_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the recursive matching search went one call deeper per matched edge,
    # so this 2 400-vertex prism ended in a RecursionError traceback
    g = prism(1200)
    code, out, err = run(capsys, "decompose", "--input", _written(tmp_path, g.to_json()))
    assert code == 0
    _assert_p4_cover(g, [tuple(p) for p in json.loads(out)["paths"]])


_COMMANDS = ("build", "decompose", "profile", "simulate", "store", "repair", "export-dot")


def _flags(parser):
    return {flag: action for action in parser._actions for flag in action.option_strings}


def test_graph_options_are_declared_once_for_every_command_that_takes_them():
    parser = graphdss.cli.make_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands) == sorted(_COMMANDS)
    for flag in ("--orientation", "--policy"):
        actions = [_flags(commands[c])[flag] for c in ("build", "profile", "simulate")]
        assert all(a.help for a in actions)
        assert len({(a.help, a.default) for a in actions}) == 1
    for c in ("decompose", "export-dot"):
        flags = _flags(commands[c])
        assert "--catalog" in flags and "--input" in flags
        assert "--orientation" not in flags and "--policy" not in flags


@pytest.mark.parametrize("command", _COMMANDS)
def test_help_of_every_command_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: graphdss {command}")


def test_build_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "build", "--catalog", "robertson", "--output", str(a))
    run(capsys, "build", "--catalog", "robertson", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def _k44_system_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(k44_reference_system().to_json())
    return str(path)


def _written(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _no_matching_graph(tmp_path):
    return _written(tmp_path, _cubic_without_perfect_matching().to_json())


MISSING = "nosuch.json"

# id -> (argv from a temporary directory, exit code, text the error names)
REJECTED_INPUTS = {
    "profile-missing-system": (lambda t: ["profile", "--system", str(t / MISSING)], 2, MISSING),
    "build-missing-input": (lambda t: ["build", "--input", str(t / MISSING)], 2, MISSING),
    "build-missing-orientation": (
        lambda t: ["build", "--catalog", "k5", "--orientation", str(t / MISSING)], 2, MISSING),
    "store-missing-data": (
        lambda t: ["store", "--system", _k44_system_file(t), "--data", str(t / MISSING),
                   "--out", str(t / "state")], 2, MISSING),
    # checked before the data file is read, which here does not exist
    "store-negative-block-size": (
        lambda t: ["store", "--system", _k44_system_file(t), "--data", str(t / MISSING),
                   "--out", str(t / "state"), "--block-size", "-8"],
        2, "--block-size must be at least 0, got -8"),
    "build-non-json": (lambda t: ["build", "--input", _written(t, "not json")], 2, "Expecting"),
    "export-dot-non-json": (
        lambda t: ["export-dot", "--input", _written(t, "not json")], 2, "Expecting"),
    "export-dot-label-not-a-string": (
        lambda t: ["export-dot", "--input", _written(
            t, '{"vertices": 2, "edges": [[0, 1]], "vertex_labels": [null, {"x": 1}]}')],
        2, "vertex label 0 is not a string: None"),
    "export-dot-labels-not-a-list": (
        lambda t: ["export-dot", "--input", _written(
            t, '{"vertices": 2, "edges": [[0, 1]], "vertex_labels": "ab"}')],
        2, "vertex_labels is not a list: 'ab'"),
    "build-self-loop": (
        lambda t: ["build", "--input", _written(t, '{"vertices": 2, "edges": [[0, 0]]}')],
        2, "self-loop"),
    "orientation-without-arcs": (
        lambda t: ["build", "--catalog", "k5", "--orientation", _written(t, '{"edges": []}')],
        2, "arcs"),
    "orientation-arc-not-a-list": (
        lambda t: ["build", "--catalog", "k5", "--orientation",
                   _written(t, '{"arcs": [[0, 1], 5]}')], 2, "arc 1 is not a list of 2 ints"),
    "orientation-arc-of-three": (
        lambda t: ["build", "--catalog", "k5", "--orientation",
                   _written(t, '{"arcs": [[0, 1, 2]]}')], 2, "arc 0 is not a list of 2 ints"),
    # True compares as 1, so these arcs orient K5 unless their types are checked
    "orientation-arc-end-true": (
        lambda t: ["build", "--catalog", "k5", "--orientation", _written(t, json.dumps(
            {"arcs": [[True if v == 1 else v for v in a]
                      for a in graphdss.catalog.K5_ORIENTATION.arcs]}))],
        2, "arc 0 is not a list of 2 ints: [0, True]"),
    # the arcs orient K5, so `load_orientation` takes them; `build_cubic` does not
    "orientation-not-two-in-two-out": (
        lambda t: ["build", "--catalog", "k5", "--orientation",
                   _written(t, json.dumps({"arcs": k5_arcs_all_into_vertex_0()}))],
        2, "digraph must have in-degree = out-degree = 2"),
    "policy-unknown-mode": (lambda t: ["build", "--catalog", "k5", "--policy", "foo"], 2, "foo"),
    "policy-non-integer-vertex": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@x"],
        2, "policy token 'crossed@x': vertex 'x' is not decimal digits"),
    "policy-empty-vertex": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@"],
        2, "policy token 'crossed@': vertex '' is not decimal digits"),
    "policy-vertex-too-large": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@99"], 2, "99"),
    "policy-negative-vertex": (
        lambda t: ["build", "--catalog", "k5", "--policy", "parallel,crossed@-1"], 2, "-1"),
    # a token that would go unread, or a vertex not written in decimal digits
    "policy-second-base-mode": (
        lambda t: ["build", "--catalog", "k5", "--policy", "parallel,crossed"], 2, "'crossed'"),
    "policy-second-mode-for-a-vertex": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@1,parallel@1"],
        2, "'parallel@1'"),
    "policy-vertex-with-prefix": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@v1"], 2, "'crossed@v1'"),
    "policy-vertex-with-sign": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@+1"], 2, "'crossed@+1'"),
    "policy-vertex-with-space": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@ 1"], 2, "'crossed@ 1'"),
    "policy-vertex-with-underscore": (
        lambda t: ["build", "--catalog", "k5", "--policy", "crossed@0_1"], 2, "'crossed@0_1'"),
    "decompose-not-cubic": (lambda t: ["decompose", "--catalog", "k5"], 2, "3-regular"),
    "decompose-no-perfect-matching": (
        lambda t: ["decompose", "--input", _no_matching_graph(t)], 1, "perfect matching"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_INPUTS))
def test_rejected_input_gives_exit_code_and_message(tmp_path, capsys, case):
    argv, want_code, named = REJECTED_INPUTS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (want_code, "")
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "state").exists()


# id -> (argv of a command that reads bad.json, or the state header
# state/header.json, or with `--table1` the cage-7 file, which names
# bad.json; the role and path that its refusal of a file that is not JSON
# names)
MALFORMED_FILE_READERS = {
    "build-input": (["build", "--input", "bad.json"], "input graph bad.json"),
    "export-dot-input": (["export-dot", "--input", "bad.json"], "input graph bad.json"),
    "decompose-input": (["decompose", "--input", "bad.json"], "input graph bad.json"),
    "build-orientation": (["build", "--catalog", "k5", "--orientation", "bad.json"],
                          "orientation file bad.json"),
    "profile-system": (["profile", "--system", "bad.json"], "system file bad.json"),
    "store-system": (["store", "--system", "bad.json", "--data", "sys.json", "--out", "state"],
                     "system file bad.json"),
    "repair-system": (["repair", "--system", "bad.json", "--state", "state", "--erased", "0"],
                      "system file bad.json"),
    "repair-header": (["repair", "--system", "sys.json", "--state", "state", "--erased", "0"],
                      "state header " + os.path.join("state", "header.json")),
    "profile-table1-cage7": (["profile", "--table1"], "cage47: graph file bad.json"),
}

MALFORMED_CONTENTS = {
    "empty": b"",
    "null": b"null",
    "empty-list": b"[]",
    "string": b'"x"',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b"\xff\xfe{",
    "5000-digit-int": b"9" * 5000,
    "nan-vertices": b'{"vertices": NaN, "edges": []}',
}

# the contents that no JSON parser reads, whatever the Python version
NOT_JSON = {"empty", "nested-100000-deep", "not-utf8"}


@pytest.mark.parametrize("content", sorted(MALFORMED_CONTENTS))
@pytest.mark.parametrize("reader", sorted(MALFORMED_FILE_READERS))
def test_every_file_reader_rejects_a_malformed_file(tmp_path, capsys, monkeypatch,
                                                     reader, content):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(graphdss.catalog.CAGE7_ENV_VAR, "bad.json")
    _k44_system_file(tmp_path)
    (tmp_path / "state").mkdir()
    for path in ("bad.json", "state/header.json"):
        (tmp_path / path).write_bytes(MALFORMED_CONTENTS[content])
    argv, named = MALFORMED_FILE_READERS[reader]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if content in NOT_JSON:
        assert err.startswith(f"error: {named} is not valid JSON: ")


# id -> (argv run in a directory that holds the k44 graph g.json and the
# k44 system sys.json, the refused option, the option it is refused with);
# each of these command lines used to read one option and ignore the other
REFUSED_OPTIONS = {
    "build-catalog-input": (["build", "--catalog", "k44", "--input", "g.json"],
                            "--input", "--catalog"),
    "simulate-catalog-input": (["simulate", "--catalog", "k5", "--input", "g.json",
                                "--exhaustive"], "--input", "--catalog"),
    "profile-catalog-input": (["profile", "--catalog", "k5", "--input", "g.json"],
                              "--input", "--catalog"),
    "decompose-catalog-input": (["decompose", "--catalog", "petersen", "--input", "g.json"],
                                "--input", "--catalog"),
    "export-dot-catalog-input": (["export-dot", "--catalog", "k5", "--input", "g.json"],
                                 "--input", "--catalog"),
    "profile-system-catalog": (["profile", "--system", "sys.json", "--catalog", "k5",
                                "--policy", "crossed", "--orientation", "reference"],
                               "--catalog", "--system"),
    "profile-system-input": (["profile", "--system", "sys.json", "--input", "g.json"],
                             "--input", "--system"),
    "profile-system-orientation": (["profile", "--system", "sys.json", "--orientation",
                                    "reference"], "--orientation", "--system"),
    "profile-system-policy": (["profile", "--system", "sys.json", "--policy", "crossed"],
                              "--policy", "--system"),
    "profile-table1-system": (["profile", "--table1", "--system", "sys.json"],
                              "--system", "--table1"),
    "profile-table1-catalog": (["profile", "--table1", "--catalog", "k5"],
                               "--catalog", "--table1"),
    "profile-table1-policy": (["profile", "--table1", "--csv", "--policy", "crossed"],
                              "--policy", "--table1"),
    # an option given as the empty string is given
    "build-catalog-empty-input": (["build", "--catalog", "k5", "--input", ""],
                                  "--input", "--catalog"),
    "profile-system-empty-policy": (["profile", "--system", "sys.json", "--policy", "", "--csv"],
                                    "--policy", "--system"),
}


def _k44_graph_and_system(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(graphdss.catalog.CAGE7_ENV_VAR, raising=False)
    (tmp_path / "g.json").write_text(graphdss.catalog.by_name("k44").graph.to_json())
    _k44_system_file(tmp_path)


@pytest.mark.parametrize("case", sorted(REFUSED_OPTIONS))
def test_an_option_that_would_be_ignored_is_refused(tmp_path, capsys, monkeypatch, case):
    argv, refused, kept = REFUSED_OPTIONS[case]
    _k44_graph_and_system(tmp_path, monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {refused} cannot be given with {kept}\n")


@pytest.mark.parametrize("command", ["build", "decompose", "export-dot", "simulate", "profile"])
def test_a_command_without_a_graph_source_is_refused(capsys, command):
    code, out, err = run(capsys, command)
    assert (code, out, err) == (2, "", "error: need --catalog or --input\n")


@pytest.mark.parametrize("argv", [
    ["build", "--input", ""], ["build", "--catalog", "k5", "--orientation", ""],
    ["build", "--catalog", "k5", "--output", ""], ["profile", "--system", "", "--csv"]],
    ids=["input", "orientation", "output", "system"])
def test_an_empty_file_option_is_read_as_a_path(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2]") and "''" in err


def test_an_empty_policy_is_all_parallel(capsys):
    assert run(capsys, "build", "--catalog", "k44", "--policy", "") == run(
        capsys, "build", "--catalog", "k44", "--policy", "parallel")


@pytest.mark.parametrize("argv", [["profile", "--system", "sys.json", "--csv"],
                                  ["profile", "--table1", "--csv"]], ids=["system", "table1"])
def test_profile_of_a_system_file_or_table1_takes_csv(tmp_path, capsys, monkeypatch, argv):
    _k44_graph_and_system(tmp_path, monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "8,24,3,9,24,9,4,4,0.375000\n" in out


@pytest.mark.parametrize(
    "corrupt,named",
    [(_random_system_with_k44_arcs, "disk 0"), (_arc_out_of_range, "(0,42)")],
)
def test_profile_rejects_arcs_that_do_not_match_the_disks(tmp_path, capsys, corrupt, named):
    obj = json.loads(k44_reference_system().to_json())
    corrupt(obj)
    code, out, err = run(capsys, "profile", "--system", _written(tmp_path, json.dumps(obj)))
    assert code == 2
    assert named in err and "disks recoverable" not in out


HUGE = 10**30


@pytest.mark.parametrize("argv,named", [
    (["build", "--input", "g.json"], f"declares {HUGE} vertices, but its 2 edges have 4 ends"),
    (["profile", "--input", "g.json"], f"declares {HUGE} vertices"),
    (["simulate", "--input", "g.json", "--seed", "1"], f"declares {HUGE} vertices"),
    (["decompose", "--input", "g.json"], f"declares {HUGE} vertices"),
    (["profile", "--system", "sys.json"], f"2 disks need 4 graph vertices, not {HUGE}"),
    (["export-dot", "--input", "g.json"], f"declares {HUGE} vertices, but its 2 edges have 4 ends"),
    (["export-dot", "--input", "labelled.json"], f"declares {HUGE} vertices"),
    # an edge list that is an object, not a list, has no ends to count
    (["build", "--input", "object.json"], "edge list is not a list: {}"),
])
def test_declared_vertex_count_is_checked_before_a_graph_is_built(
        tmp_path, capsys, monkeypatch, argv, named):
    """A file that declares 10**30 vertices is rejected from its counts; a
    Graph of more than 10 000 vertices is never started."""
    init = graphdss.graphs.Graph.__init__

    def small_only(self, vertex_count, *args, **kwargs):
        if vertex_count > 10_000:
            raise AssertionError(f"Graph of {vertex_count} vertices built")
        init(self, vertex_count, *args, **kwargs)

    monkeypatch.setattr(graphdss.graphs.Graph, "__init__", small_only)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text('{"vertices": %d, "edges": [[0, 1], [1, 2]]}' % HUGE)
    (tmp_path / "labelled.json").write_text(
        '{"vertices": %d, "edges": [[0, 1], [1, 2]], "vertex_labels": ["a"]}' % HUGE)
    (tmp_path / "object.json").write_text('{"vertices": %d, "edges": {}}' % HUGE)
    (tmp_path / "sys.json").write_text(json.dumps(
        {"vertices": HUGE, "edges": [[0, 1], [1, 2], [2, 3]],
         "disks": [[0, 1, 2, 3], [4, 5, 6, 7]], "disk_owner": [0, 1],
         "arc_names": [[0, 1], [1, 0], [0, 1], [1, 0]]}))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and named in err


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="sparse files and RLIMIT_AS as Linux gives them")
@pytest.mark.parametrize("argv", [
    ["store", "--system", "sys.json", "--data", "big", "--out", "state"],
    ["profile", "--system", "big"],
    ["build", "--input", "big"],
], ids=["store-data", "profile-system", "build-input"])
def test_a_file_too_large_to_hold_exits_2_not_a_traceback(tmp_path, argv):
    """A 3 GiB sparse file read by a CLI with 1 GiB of address space: the
    MemoryError of the read is one `error:` line and exit 2."""
    import resource  # a Unix module

    def limit_address_space_to_1_gib():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 2**30 if hard == resource.RLIM_INFINITY else min(hard, 2**30)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with open(tmp_path / "big", "wb") as fh:
        fh.truncate(3 * 2**30)
    (tmp_path / "sys.json").write_text(k44_reference_system().to_json())
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphdss.__file__)))
    done = subprocess.run([sys.executable, "-m", "graphdss.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, preexec_fn=limit_address_space_to_1_gib)
    assert (done.returncode, done.stdout) == (2, b""), done.stderr
    assert done.stderr == b"error: out of memory\n"
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("argv,named", [
    (["build", "--input", "bad.json"], "input graph bad.json"),
    (["export-dot", "--input", "bad.json"], "input graph bad.json"),
    (["build", "--catalog", "k5", "--orientation", "bad.json"], "orientation file bad.json"),
    (["profile", "--table1"], "cage47: graph file bad.json"),
    (["profile", "--system", "bad.json"], "system file bad.json"),
], ids=["build-input", "export-dot-input", "orientation", "profile-table1-cage7",
        "profile-system"])
def test_a_file_that_is_not_json_is_named_with_its_role(tmp_path, capsys, monkeypatch,
                                                        argv, named):
    # json's own message named neither the file nor what it was read as
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(graphdss.catalog.CAGE7_ENV_VAR, "bad.json")
    (tmp_path / "bad.json").write_text("")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"


def _run_on_a_utf8_k5_file_in_the_c_locale(tmp_path, command):
    """`graphdss <command> --input` of a UTF-8 K5 file with the label "é",
    in a fresh interpreter under the C locale with UTF-8 mode off, whose
    stdout and file reads would encode and decode as ASCII."""
    obj = json.loads(complete_graph(5).to_json())
    obj["vertex_labels"] = ["é", "b", "c", "d", "e"]
    path = tmp_path / "k5.json"
    path.write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(graphdss.__file__)))
    return subprocess.run([sys.executable, "-m", "graphdss.cli", command, "--input", str(path)],
                          env=env, capture_output=True)


def test_a_graph_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # a reader that decoded by the locale would refuse the file as ASCII
    done = _run_on_a_utf8_k5_file_in_the_c_locale(tmp_path, "build")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["disk_owner"] == [0, 1, 2, 3, 4]


def test_export_dot_writes_utf8_whatever_the_locale(tmp_path):
    # a print through the locale's stdout would refuse the label as ASCII
    done = _run_on_a_utf8_k5_file_in_the_c_locale(tmp_path, "export-dot")
    assert done.returncode == 0, done.stderr
    assert '  0 [label="é"];' in done.stdout.decode("utf-8").splitlines()


def test_export_dot_to_a_stdout_with_no_byte_buffer():
    # a text stream such as a StringIO takes the DOT text itself
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["export-dot", "--catalog", "pg23"])
    assert code == 0
    assert out.getvalue() == graphdss.catalog.cage(6).graph.to_dot() + "\n"


# the values a fuzzed system file puts in place of a key's value, a list
# entry or an int inside one: no value, a negative, a huge and a float
# number, two strings, two empty containers and a bool (an int to Python)
FUZZ_VALUES = [None, -1, 2**70, 1.5, "x", "", [], {}, True]


@st.composite
def _mutated(draw, base):
    """A copy of the JSON object `base` with one mutation: a top-level key
    deleted or its value replaced; or, in a list, an entry dropped,
    duplicated or replaced, or an int of a nested entry replaced."""
    obj = json.loads(json.dumps(base))
    key = draw(st.sampled_from(sorted(obj)))
    value = obj[key]
    kinds = ["delete key", "replace key"]
    if isinstance(value, list) and value:
        kinds += ["drop entry", "duplicate entry", "replace entry"]
        if isinstance(value[0], list):
            kinds.append("replace nested int")
    kind = draw(st.sampled_from(kinds))
    if kind == "delete key":
        del obj[key]
    elif kind == "replace key":
        obj[key] = draw(st.sampled_from(FUZZ_VALUES))
    else:
        i = draw(st.integers(0, len(value) - 1))
        if kind == "drop entry":
            del value[i]
        elif kind == "duplicate entry":
            value.insert(i, value[i])
        elif kind == "replace entry":
            value[i] = draw(st.sampled_from(FUZZ_VALUES))
        else:
            value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(st.sampled_from(FUZZ_VALUES))
    return obj


def _run_fuzz_case(*argvs):
    """Run each command line through `cli.main` in-process and assert the
    rules of a mutated file: no exception escapes, the exit code is 0, 1 or
    2, exit 2 prints nothing on stdout, and the commands take under 2 s.
    Return each command's exit code and stdout."""
    start = time.perf_counter()
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv[0]} raised {exc!r}")
        assert code in (0, 1, 2), (argv[0], code, err.getvalue())
        assert code != 2 or out.getvalue() == "", (argv[0], out.getvalue())
        results.append((code, out.getvalue()))
    assert time.perf_counter() - start < 2
    return results


def _assert_recovered_blocks_are_stored(results, states, stored):
    """The exit-0 rule of `repair`: every block that the printed report
    recovered holds its stored bytes again."""
    for (code, out), state in zip(results, states):
        if code == 0:
            for e, _, _ in json.JSONDecoder().raw_decode(out)[0]["recovered"]:
                name = f"block_{e:05d}.bin"
                assert (state / name).read_bytes() == (stored / name).read_bytes(), name


@pytest.fixture(scope="module")
def stored_k44(tmp_path_factory):
    """A payload of 9 blocks of 32 bytes and the k44 state stored from it,
    made once; each fuzz case copies the state before it repairs it."""
    root = tmp_path_factory.mktemp("stored-k44")
    (root / "sys.json").write_text(k44_reference_system().to_json())
    data = root / "data.bin"
    data.write_bytes(bytes(i % 251 for i in range(9 * 32)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["store", "--system", str(root / "sys.json"), "--data", str(data),
                     "--out", str(root / "state"), "--block-size", "32"]) == 0
    return data, root / "state"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(obj=_mutated(json.loads(k44_reference_system().to_json())))
def test_a_mutated_system_file_gets_an_exit_code_not_a_traceback(stored_k44, obj):
    """`profile`, `store` and `repair`, in-process, on a mutated k44 system
    file, by the rules of `_run_fuzz_case`."""
    data, stored = stored_k44
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys_file = tmp / "sys.json"
        sys_file.write_text(json.dumps(obj))
        state = tmp / "state"
        shutil.copytree(stored, state)
        (state / "block_00005.bin").unlink()
        _run_fuzz_case(["profile", "--system", sys_file],
                       ["store", "--system", sys_file, "--data", data, "--out", tmp / "out",
                        "--block-size", "32"],
                       ["repair", "--system", sys_file, "--state", state, "--erased", "5"])


# the bases stay at 10 vertices or fewer, so that `decompose`'s backtracking
# matcher cannot reach the time bound on any mutation of them
_K44 = graphdss.catalog.by_name("k44").graph
_K44_GRAPH = json.loads(_K44.to_json())
_PETERSEN_GRAPH = json.loads(graphdss.catalog.by_name("petersen").graph.to_json())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(k44=_mutated(_K44_GRAPH), petersen=_mutated(_PETERSEN_GRAPH))
def test_a_mutated_graph_file_gets_an_exit_code_not_a_traceback(k44, petersen):
    """`build`, `profile --csv` and `simulate --exhaustive` on a mutated k44
    graph file, and `decompose` and `export-dot` on a mutated Petersen
    graph file, by the rules of `_run_fuzz_case`."""
    with tempfile.TemporaryDirectory() as tmp:
        g, cubic = Path(tmp) / "k44.json", Path(tmp) / "petersen.json"
        g.write_text(json.dumps(k44))
        cubic.write_text(json.dumps(petersen))
        _run_fuzz_case(["build", "--input", g], ["profile", "--input", g, "--csv"],
                       ["simulate", "--input", g, "--exhaustive"],
                       ["decompose", "--input", cubic], ["export-dot", "--input", cubic])


_K44_TOUR_ARCS = {"arcs": [list(arc) for arc in orient_from_tour(_K44, eulerian_tour(_K44)).arcs]}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(obj=_mutated(_K44_TOUR_ARCS))
def test_a_mutated_orientation_file_gets_an_exit_code_not_a_traceback(obj):
    """`build` and `simulate --exhaustive` on k44 with a mutated file of its
    tour's arcs, by the rules of `_run_fuzz_case`."""
    with tempfile.TemporaryDirectory() as tmp:
        arcs = Path(tmp) / "arcs.json"
        arcs.write_text(json.dumps(obj))
        _run_fuzz_case(["build", "--catalog", "k44", "--orientation", arcs],
                       ["simulate", "--catalog", "k44", "--orientation", arcs, "--exhaustive"])


def _repair_cases(stored, tmp):
    """Two copies in `tmp` of the stored k44 state, one without block 5 and
    one without disk 1's blocks, and the `repair --erased 5` and `repair
    --disks 1` command lines of the two: (command lines, state directories)."""
    argvs, states = [], []
    for option, value, lost in (("--erased", "5", [5]),
                                ("--disks", "1", k44_reference_system().disk_edges(1))):
        state = tmp / option[2:]
        shutil.copytree(stored, state)
        for e in lost:
            (state / f"block_{e:05d}.bin").unlink()
        argvs.append(["repair", "--system", stored.parent / "sys.json", "--state", state,
                      option, value])
        states.append(state)
    return argvs, states


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_mutated_state_header_gets_an_exit_code_not_a_traceback(stored_k44, data):
    """`repair --erased 5` and `repair --disks 1` on the stored k44 state
    with a mutated header, each on its own copy of the state with its lost
    blocks deleted, by the rules of `_run_fuzz_case` and
    `_assert_recovered_blocks_are_stored`."""
    _, stored = stored_k44
    header = data.draw(_mutated(json.loads((stored / "header.json").read_text())))
    with tempfile.TemporaryDirectory() as tmp:
        argvs, states = _repair_cases(stored, Path(tmp))
        for state in states:
            (state / "header.json").write_text(json.dumps(header))
        _assert_recovered_blocks_are_stored(_run_fuzz_case(*argvs), states, stored)


def _alter_block(path, how, bit):
    """Make the block file at `path` one byte short or long, empty, a
    directory, or deleted, or flip its bit `bit` if it has one; a missing
    file only becomes a directory, and a directory stays one."""
    if how == "directory" and not path.is_dir():
        path.unlink(missing_ok=True)
        path.mkdir()
    elif how == "deleted" and not path.is_dir():
        path.unlink(missing_ok=True)
    elif path.is_file():
        data = bytearray(path.read_bytes())
        if how == "flipped" and bit < 8 * len(data):
            data[bit // 8] ^= 1 << bit % 8
        path.write_bytes({"short": data[:-1], "long": data + b"\0", "empty": b""}.get(how, data))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(alterations=st.lists(st.tuples(
    st.integers(0, 23),
    st.sampled_from(["short", "long", "empty", "directory", "flipped", "deleted"]),
    st.integers(0, 255)), min_size=1, max_size=3))
def test_altered_block_files_get_an_exit_code_and_never_a_wrong_block(stored_k44, alterations):
    """`repair --erased 5` and `repair --disks 1` on the stored k44 state
    with up to 3 block files altered (`_alter_block`), by the rules of
    `_run_fuzz_case` and `_assert_recovered_blocks_are_stored`."""
    _, stored = stored_k44
    with tempfile.TemporaryDirectory() as tmp:
        argvs, states = _repair_cases(stored, Path(tmp))
        for state in states:
            for e, how, bit in alterations:
                _alter_block(state / f"block_{e:05d}.bin", how, bit)
        _assert_recovered_blocks_are_stored(_run_fuzz_case(*argvs), states, stored)
