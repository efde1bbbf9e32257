"""Batch command-line front end: build systems, profile them, verify the
recovery bound, and store/repair real payloads.

Exit codes: 0 success/verified, 1 a checked property failed, a pattern
was unrecoverable or a graph has no P4 decomposition, 2 usage error or
rejected input (a missing file, malformed JSON, a file too large to hold
in memory, an invalid graph, system file or option), 141 stdout was
closed before the output was written (the status a shell gives a command
killed by SIGPIPE, 128 + 13).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys as _sys
from typing import Dict, List, Optional, Tuple

from . import catalog as cat, state
from .analysis import SystemProfile, profile, verdict_json, verify_recovery_bound
from .cubic import (
    CubicSystem,
    DecompositionFailure,
    InvalidDiskError,
    PairingMode,
    build_cubic,
    decompose_p4,
)
from .graphs import Graph, degree_sequence, is_connected, read_graph_file, read_json_file
from .orientation import eulerian_tour, load_orientation, orient_from_tour
from .repair import RepairStrategy, repair_disk, repair_disks


class UsageError(Exception):
    pass


def _one_of(args, *names: str) -> str:
    """The one option of `names` that is given (a value other than None or
    False); UsageError if none is, or if a second one is, since it would
    go unread.  The error names the options in the order of `names`."""
    given = [name for name in names if vars(args)[name] not in (None, False)]
    if not given:
        raise UsageError("need --" + " or --".join(names))
    if len(given) > 1:
        raise UsageError(f"--{given[1]} cannot be given with --{given[0]}")
    return given[0]


def _load_graph(args) -> Graph:
    """The --catalog graph or the --input file's (`read_graph_file`)."""
    if _one_of(args, "catalog", "input") == "catalog":
        return cat.by_name(args.catalog).graph
    return read_graph_file(args.input, "input graph")


def _load_system(path: str) -> CubicSystem:
    """The system of the --system file (`CubicSystem.from_obj`)."""
    return CubicSystem.from_obj(read_json_file(path, "system file"))


def _parse_policy(text: Optional[str], n: int) -> Tuple[PairingMode, ...]:
    """One mode per vertex from e.g. 'parallel' or 'parallel,crossed@0,crossed@2';
    a vertex that no token names gets the base mode, parallel unless a
    token names another (so None, the --policy default, and '' are all
    parallel).  ValueError for an unknown mode, a vertex that is not
    written in ASCII decimal digits or is outside 0..n-1, or a token that
    gives the base mode or one vertex's mode a second time."""
    modes: Dict[Optional[int], PairingMode] = {}  # key None: the base mode
    for token in (text or "").split(","):
        token = token.strip()
        if not token:
            continue
        mode_s, at, v_s = token.partition("@")
        mode, v = PairingMode(mode_s), None
        if at:
            if not (v_s.isascii() and v_s.isdigit()):
                raise ValueError(f"policy token {token!r}: vertex {v_s!r} is not decimal digits")
            v = int(v_s)
        if v in modes:
            what = "the base mode" if v is None else f"the mode of vertex {v}"
            raise ValueError(f"policy token {token!r} gives {what} a second time")
        modes[v] = mode
    base = modes.pop(None, PairingMode.PARALLEL)
    for v in modes:
        if not 0 <= v < n:
            raise ValueError(f"no vertex {v}; vertices are 0..{n - 1}")
    return tuple(modes.get(v, base) for v in range(n))


def _build_system(args) -> CubicSystem:
    """The system the layout options build; its G is `source_graph`, the
    graph its arcs name, which is the graph the verdicts read."""
    g = _load_graph(args)
    if g.vertex_count == 0:
        raise UsageError("input graph has no vertices")
    degs = degree_sequence(g)
    bad = [v for v, d in enumerate(degs) if d != 4]
    if bad:
        raise UsageError(f"input is not 4-regular: vertex {bad[0]} has degree {degs[bad[0]]}")
    if not is_connected(g):
        raise UsageError("input graph is disconnected")
    if args.orientation is not None:
        if args.orientation == "reference":
            if args.catalog != "k5":
                raise UsageError("--orientation reference is only pinned for --catalog k5")
            og = cat.K5_ORIENTATION
        else:
            obj = read_json_file(args.orientation, "orientation file")
            if not isinstance(obj, dict) or not isinstance(obj.get("arcs"), list):
                raise UsageError(f'orientation file {args.orientation} has no "arcs" list')
            og = load_orientation(g, obj["arcs"])
    else:
        og = orient_from_tour(g, eulerian_tour(g))
    policy = _parse_policy(args.policy, g.vertex_count)
    return build_cubic(og, policy)


def cmd_build(args) -> int:
    sys_ = _build_system(args)
    n = len(sys_.disks)
    text = sys_.to_json()
    if args.output is not None:
        state.write_atomic(args.output, text.encode())
    else:
        print(text)
    print(f"disks: {n}  block-graph vertices: {2 * n}  blocks: {3 * n}", file=_sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    g = _load_graph(args)
    paths = decompose_p4(g)
    print(json.dumps({"paths": [list(p) for p in paths]}, indent=2))
    return 0


_TABLE1 = {
    3: (5, 15, 2, 6, 15, 6),
    4: (8, 24, 3, 9, 24, 9),
    5: (19, 57, 4, 12, 57, 20),
    6: (26, 78, 5, 15, 78, 27),
    7: (67, 201, 6, 18, 201, 68),
}


def cmd_profile(args) -> int:
    if args.table1 or args.system is not None:
        # each fixes the systems to profile, so any other of these would go unread
        _one_of(args, "table1", "system", "catalog", "input", "orientation", "policy")
    if args.table1:
        # every cage is loaded before the first line is printed, so a
        # rejected cage-7 file leaves stdout empty
        cages = {}
        for gg in _TABLE1:
            try:
                cages[gg] = cat.cage(gg).graph
            except cat.MissingDataFileError:
                print(f"# (4,{gg})-cage skipped: data file not available", file=_sys.stderr)
        ok = True
        print(SystemProfile.CSV_HEADER)
        for gg, g in cages.items():
            sys_ = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
            row = profile(sys_, sys_.source_graph).csv_row()
            print(row)
            if tuple(map(int, row.split(",")[:6])) != _TABLE1[gg]:
                ok = False
                print(f"# MISMATCH for (4,{gg})-cage: row {row} does not start with "
                      f"{_TABLE1[gg]}", file=_sys.stderr)
        return 0 if ok else 1

    sys_ = _load_system(args.system) if args.system is not None else _build_system(args)
    prof = profile(sys_, sys_.source_graph)
    if args.csv:
        print(prof.csv_row())
    else:
        print(prof.text_report())
    return 0


def cmd_simulate(args) -> int:
    sys_ = _build_system(args)
    n = len(sys_.disks)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > 1_000_000:  # 100 times the default; the trial loop is not otherwise bounded
        raise UsageError(f"--trials must be at most 1000000, got {args.trials}")
    if args.disks is not None and not 1 <= args.disks <= n:
        raise UsageError(f"--disks must be between 1 and the disk count {n}, got {args.disks}")
    if args.disks is not None and args.seed is None:
        raise UsageError("--disks sampling requires --seed")
    if not args.exhaustive and args.seed is None:
        raise UsageError("sampled simulation requires --seed")
    ok = True
    # printed once the disk sampling, the last step that can refuse, is done
    lines: List[str] = []

    if args.measure_bandwidth:
        for d in range(n):
            r = repair_disk(sys_, d, RepairStrategy.MIN_BANDWIDTH)
            if (r.transferred_symbols, r.rounds) != (4, 3):
                ok = False
            r = repair_disk(sys_, d, RepairStrategy.MIN_ROUNDS)
            if (r.transferred_symbols, r.rounds) != (5, 2):
                ok = False
        lines.append(f"per-disk bandwidth: min-bandwidth=4/3 rounds, min-rounds=5/2 rounds: "
                     f"{'ok' if ok else 'FAILED'}")

    if args.disks is not None:
        rng = random.Random(f"simulate:{args.seed}")
        sample_disjoint = _disjoint_disk_sampler(sys_)
        adj_ok = 0
        for _ in range(args.trials):
            picked = sample_disjoint(rng, args.disks)
            if picked is None:
                continue
            r = repair_disks(sys_, picked)
            if r.transferred_symbols != 4 * len(picked) or len(r.residual):
                ok = False
            adj_ok += 1
        if not adj_ok:
            raise UsageError(f"no trial of {args.trials} found {args.disks} pairwise "
                             f"non-adjacent disks to repair")
        lines.append(f"disjoint {args.disks}-disk repairs measured: {adj_ok}, "
                     f"expected transfer 4x{args.disks}: {'ok' if ok else 'FAILED'}")

    for line in lines:
        print(line)
    _, witness = verify_recovery_bound(sys_, sys_.source_graph)
    print(verdict_json(witness))
    return 0 if ok else 1


def _disjoint_disk_sampler(sys_: CubicSystem):
    """A function (rng, count) that samples `count` disks pairwise
    non-adjacent in the block graph, or None if 200 random orders find none;
    the disks' vertex sets and neighbourhoods are built once."""
    n = len(sys_.disks)
    vertices = [set(path) for path in sys_.disks]
    touched = [vertices[d] | {w for p in sys_.disks[d] for _, w in sys_.cubic.incident(p)}
               for d in range(n)]

    def sample(rng, count: int) -> Optional[List[int]]:
        for _ in range(200):
            picked: List[int] = []
            near = set()  # vertices on or next to a picked disk
            for d in rng.sample(range(n), n):
                if vertices[d].isdisjoint(near):
                    picked.append(d)
                    if len(picked) == count:
                        return picked
                    near |= touched[d]
        return None

    return sample


def cmd_store(args) -> int:
    if args.block_size < 0:
        raise UsageError(f"--block-size must be at least 0, got {args.block_size}")
    sys_ = _load_system(args.system)
    with open(args.data, "rb") as fh:
        payload = fh.read()
    state.store(sys_, payload, args.out, args.block_size)
    print(f"stored {sys_.cubic.edge_count} blocks of {args.block_size} bytes in {args.out}")
    return 0


def _parse_indices(text: str, option: str, what: str) -> List[int]:
    """The distinct indices of a comma-separated list, ascending; UsageError
    naming `option` unless every item is ASCII decimal digits (spaces
    around an item are read)."""
    items = [x.strip() for x in text.split(",")]
    if not all(x.isascii() and x.isdigit() for x in items):
        raise UsageError(f"{option} must be comma-separated {what} indices, got {text!r}")
    return sorted({int(x) for x in items})


def cmd_repair(args) -> int:
    lost_by = _one_of(args, "erased", "disks")
    sys_ = _load_system(args.system)
    try:
        if lost_by == "disks":
            erased = sorted(e for d in _parse_indices(args.disks, "--disks", "disk")
                            for e in sys_.disk_edges(d))
        else:
            erased = _parse_indices(args.erased, "--erased", "block")
        report = state.repair(sys_, args.state, erased, RepairStrategy(args.strategy))
    except (InvalidDiskError, state.InvalidBlockError) as exc:
        # the library's range rules; the error is prefixed with the option it refuses
        raise UsageError(f"--{lost_by}: {exc}") from None
    if len(report.residual):
        print(f"unrecoverable: residual cycle on edges {report.residual.indices()}")
        print(report.to_json())
        return 1
    print(report.to_json())
    print(f"repaired {len(report.recovered)} blocks, "
          f"transferred {report.transferred_symbols} symbols in {report.rounds} rounds")
    return 0


def cmd_export_dot(args) -> int:
    # DOT text is UTF-8, so its bytes go out as UTF-8, whatever encoding the
    # locale gives stdout; a stream with no byte buffer (a StringIO) takes
    # the text
    text = _load_graph(args).to_dot() + "\n"
    out = _sys.stdout
    if hasattr(out, "buffer"):
        out.flush()
        out.buffer.write(text.encode("utf-8"))
    else:
        out.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="graphdss", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # the graph source, and the layout (orientation, pairing) that fixes a system on it
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--catalog", choices=cat.catalog_names())
    source.add_argument("--input", help="JSON graph file")
    layout = argparse.ArgumentParser(add_help=False, parents=[source])
    layout.add_argument("--orientation", help="'reference' (k5, the pinned 5-disk orientation) or a JSON arc-list file")
    layout.add_argument("--policy",
                        help="pairing policy, e.g. 'parallel' or 'parallel,crossed@0'")

    b = sub.add_parser("build", parents=[layout],
                       help="construct a storage system from a 4-regular graph")
    b.add_argument("--output", help="system JSON output path")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("decompose", parents=[source], help="P4-decompose a 3-regular graph")
    d.set_defaults(func=cmd_decompose)

    pr = sub.add_parser("profile", parents=[layout], help="system parameter report")
    pr.add_argument("--system", help="system JSON file")
    pr.add_argument("--table1", action="store_true",
                    help="profile all catalog cages and diff against expected values")
    pr.add_argument("--csv", action="store_true")
    pr.set_defaults(func=cmd_profile)

    sm = sub.add_parser("simulate", parents=[layout], help="verify recovery bound and bandwidth")
    sm.add_argument("--exhaustive", action="store_true")
    sm.add_argument("--trials", type=int, default=10_000)
    sm.add_argument("--seed", type=int)
    sm.add_argument("--disks", type=int, help="measure repair of this many disjoint disks")
    sm.add_argument("--measure-bandwidth", action="store_true")
    sm.set_defaults(func=cmd_simulate)

    st = sub.add_parser("store", help="encode a data file into a state directory")
    st.add_argument("--system", required=True)
    st.add_argument("--data", required=True)
    st.add_argument("--out", required=True)
    st.add_argument("--block-size", type=int, default=4096)
    st.set_defaults(func=cmd_store)

    rp = sub.add_parser("repair", help="rebuild erased blocks of a state directory")
    rp.add_argument("--system", required=True)
    rp.add_argument("--state", required=True)
    rp.add_argument("--erased", help="comma-separated block (edge) indices")
    rp.add_argument("--disks", help="comma-separated failed disks; every block of each is erased")
    rp.add_argument("--strategy", choices=[s.value for s in RepairStrategy],
                    default=RepairStrategy.MIN_ROUNDS.value,
                    help="peeling rule; one lost disk costs 5 symbols in 2 rounds under "
                         "min-rounds (the default) and 4 in 3 under min-bandwidth")
    rp.set_defaults(func=cmd_repair)

    ex = sub.add_parser("export-dot", parents=[source], help="DOT output of a graph")
    ex.set_defaults(func=cmd_export_dot)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # buffered output is written here, not at exit, so a closed stdout
        # raises below rather than as an "Exception ignored" at shutdown
        _sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: not rejected input, so no message and the
        # status of a command killed by SIGPIPE; the output still buffered
        # goes to devnull, so the flush at exit cannot fail again (Python's
        # note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, OSError, ValueError, MemoryError, DecompositionFailure) as exc:
        # ValueError covers a file that is not UTF-8 or not JSON and every
        # rejected-input error of the library (GraphError, InvalidSystemError,
        # NotCubicError, ...); a MemoryError, a file too large to hold, has
        # no text of its own
        print(f"error: {str(exc) or 'out of memory'}", file=_sys.stderr)
        return 1 if isinstance(exc, DecompositionFailure) else 2


if __name__ == "__main__":
    raise SystemExit(main())
