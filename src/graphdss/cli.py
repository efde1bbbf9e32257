"""Batch command-line front end: build systems, profile them, verify the
recovery bound, and store/repair real payloads.

Exit codes: 0 success/verified, 1 a checked property failed, a pattern
was unrecoverable or a graph has no P4 decomposition, 2 usage error or
rejected input (a missing file, malformed JSON, an invalid graph, system
file or option).
"""

from __future__ import annotations

import argparse
import json
import random
import sys as _sys
from typing import Dict, List, Optional, Tuple

from . import catalog as cat, state
from .analysis import profile, verdict_json, verify_recovery_bound
from .cubic import (
    CubicSystem,
    DecompositionFailure,
    PairingMode,
    build_cubic,
    decompose_p4,
)
from .graphs import Graph, degree_sequence, is_connected, read_graph_file, read_json_file
from .orientation import eulerian_tour, load_orientation, orient_from_tour
from .repair import RepairStrategy, UnrecoverableError, repair_disk, repair_disks


class UsageError(Exception):
    pass


def _load_graph(args) -> Graph:
    """The --catalog graph or the --input file's (`read_graph_file`);
    UsageError if both are given, as they name two graphs."""
    if args.catalog and args.input is not None:
        raise UsageError("--input cannot be given with --catalog")
    if args.catalog:
        return cat.by_name(args.catalog).graph
    if args.input is not None:
        return read_graph_file(args.input, "input graph")
    raise UsageError("need --catalog or --input")


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


def _build_system(args) -> Tuple[CubicSystem, Graph]:
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
            og = cat._K5_ORIENTATION
        else:
            obj = read_json_file(args.orientation, "orientation file")
            if not isinstance(obj, dict) or not isinstance(obj.get("arcs"), list):
                raise UsageError(f'orientation file {args.orientation} has no "arcs" list')
            og = load_orientation(g, obj["arcs"])
    else:
        og = orient_from_tour(g, eulerian_tour(g))
    policy = _parse_policy(args.policy, g.vertex_count)
    return build_cubic(og, policy), g


def cmd_build(args) -> int:
    sys_, g = _build_system(args)
    n = g.vertex_count
    text = sys_.to_json()
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text)
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
    # --table1 and --system each fix the systems to profile: the other, or a
    # source or layout option, would go unread, so it is refused
    given = [f"--{name}" for name in ("table1", "system", "catalog", "input", "orientation",
                                      "policy") if vars(args)[name] not in (None, False)]
    if (args.table1 or args.system is not None) and len(given) > 1:
        raise UsageError(f"{given[1]} cannot be given with {given[0]}")
    if args.table1:
        # every cage is loaded before the first line is printed, so a
        # rejected cage-7 file leaves stdout empty
        cages = {}
        for gg in (3, 4, 5, 6, 7):
            try:
                cages[gg] = cat.cage(gg).graph
            except cat.MissingDataFileError:
                print(f"# (4,{gg})-cage skipped: data file not available", file=_sys.stderr)
        ok = True
        print("disks,blocks,disks_recoverable,blocks_recoverable,length,dimension,d_source_girth,d_block_girth,rate")
        for gg, g in cages.items():
            sys_ = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
            prof = profile(sys_, g)
            row = prof.csv_row()
            print(row)
            if tuple(map(int, row.split(",")[:6])) != _TABLE1[gg]:
                ok = False
                print(f"# MISMATCH for (4,{gg})-cage: row {row} does not start with "
                      f"{_TABLE1[gg]}", file=_sys.stderr)
        return 0 if ok else 1

    if args.system is not None:
        sys_ = _load_system(args.system)
        g = sys_.source_graph
    else:
        sys_, g = _build_system(args)
    prof = profile(sys_, g)
    if args.csv:
        print(prof.csv_row())
    else:
        print(prof.text_report())
    return 0


def cmd_simulate(args) -> int:
    sys_, g = _build_system(args)
    n = len(sys_.disks)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
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
    all_ok, witness = verify_recovery_bound(sys_, g)
    ok = ok and all_ok
    print(verdict_json(all_ok, witness))
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


def cmd_repair(args) -> int:
    sys_ = _load_system(args.system)
    m = sys_.cubic.edge_count
    items = [x.strip() for x in args.erased.split(",")]
    if not all(x.isascii() and x.isdigit() for x in items):
        raise UsageError(f"--erased must be comma-separated block indices, got {args.erased!r}")
    erased = sorted({int(x) for x in items})
    bad = [ei for ei in erased if not 0 <= ei < m]
    if bad:
        raise UsageError(f"--erased: no block {bad[0]}; blocks are 0..{m - 1}")
    report = state.repair(sys_, args.state, erased)
    if len(report.residual):
        print(f"unrecoverable: residual cycle on edges {report.residual.indices()}")
        print(report.to_json())
        return 1
    print(report.to_json())
    print(f"repaired {len(erased)} blocks, transferred {report.transferred_symbols} symbols "
          f"in {report.rounds} rounds")
    return 0


def cmd_export_dot(args) -> int:
    g = _load_graph(args)
    print(g.to_dot())
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
    rp.add_argument("--erased", required=True, help="comma-separated edge indices")
    rp.set_defaults(func=cmd_repair)

    ex = sub.add_parser("export-dot", parents=[source], help="DOT output of a graph")
    ex.set_defaults(func=cmd_export_dot)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        # ValueError covers a file that is not UTF-8 or not JSON and every
        # rejected-input error of the library (GraphError, InvalidSystemError,
        # NotCubicError, ...)
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (UnrecoverableError, DecompositionFailure) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
