"""The four benchmark workloads.

Each workload builds its system in ``setup`` and then runs operations one at
a time (a closed loop with one client).  ``op(ctx, i, tally)`` makes the
inputs of operation ``i`` from the seed, runs the library calls inside
``tally.timed`` and checks the outputs afterwards, returning a list of
problems (empty when every check passed).  Input generation, the damaged
copies handed to ``repair_state`` and all checks stay outside the timed
regions.

Library functions are always called through their module attribute
(``code.encode``), so the traced run sees the wrappers installed by
``spans.SpanRecorder``.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import graphdss.cli  # noqa: F401  (bound in sys.modules before tracing starts)
from graphdss import analysis, catalog, cli, code, cubic, graphs, orientation, repair

# Disk-failure events fail 1/2/3/4 disks with probability 60/25/10/5 %, so
# p50 falls inside the 1-disk mode and p90 inside the 3-disk mode.
DISK_COUNTS = (1, 2, 3, 4)
DISK_WEIGHTS = (60, 25, 10, 5)

# Table 1 of the paper: disks, blocks, disks recoverable, blocks
# recoverable, code length, code dimension.
TABLE1 = {
    "k5": (3, (5, 15, 2, 6, 15, 6)),
    "k44": (4, (8, 24, 3, 9, 24, 9)),
    "robertson": (5, (19, 57, 4, 12, 57, 20)),
    "pg23": (6, (26, 78, 5, 15, 78, 27)),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them, the benchmark never does."""

    stripe_block: int = 256 * 1024
    fleet_n: int = 3000
    fleet_block: int = 4096
    certify_n: int = 1000
    certify_trials: int = 500
    certify_cages: Tuple[str, ...] = ("k5", "k44", "robertson", "pg23")
    cli_block: int = 4096


def build_system(g: graphs.Graph) -> cubic.CubicSystem:
    """Hierholzer tour -> orientation -> block graph with PARALLEL pairing."""
    og = orientation.orient_from_tour(g, orientation.eulerian_tour(g))
    return cubic.build_cubic(og, cubic.PairingMode.PARALLEL)


def parity_holds(g: graphs.Graph, symbols: Dict[int, bytes]) -> bool:
    """Independent oracle for a stored state: every vertex's incident blocks
    XOR to zero, computed on Python ints rather than by the library."""
    ints = {e: int.from_bytes(b, "little") for e, b in symbols.items()}
    for v in range(g.vertex_count):
        acc = 0
        for e, _ in g.incident(v):
            acc ^= ints[e]
        if acc:
            return False
    return True


def without(state: code.StorageState, erased: Sequence[int]) -> code.StorageState:
    """The surviving blocks of a state, as a repair would find them."""
    lost = set(erased)
    return code.StorageState(
        state.block_size, {e: b for e, b in state.symbols.items() if e not in lost}
    )


def check_rebuilt(
    erased: Sequence[int], rebuilt: code.StorageState, original: Dict[int, bytes]
) -> List[str]:
    bad = [e for e in erased if rebuilt.symbols.get(e) != original[e]]
    return [f"rebuilt blocks differ from the originals: {bad[:8]}"] if bad else []


def disk_edges(system: cubic.CubicSystem, disks: Sequence[int]) -> List[int]:
    return sorted(e for d in disks for e in system.disk_edges(d))


class StripeWorkload:
    """pg23 with 256 KiB blocks: one operation stores a fresh stripe, fails
    1-5 disks, plans, rebuilds and scrubs it."""

    name = "stripe-256k"
    min_ops = 3

    def __init__(self, sizes: Sizes = Sizes()):
        self.s = sizes.stripe_block

    def setup(self, seed: int, tally) -> dict:
        with tally.timed("setup"):
            system = build_system(catalog.cage(6).graph)
            pc = code.derive_code(system.cubic)
        return {"seed": seed, "system": system, "code": pc, "owner": system.edge_owner()}

    def op(self, ctx: dict, i: int, tally) -> List[str]:
        system, pc, s = ctx["system"], ctx["code"], self.s
        rng = random.Random(f"{ctx['seed']}:{self.name}:{i}")
        data = [rng.randbytes(s) for _ in range(len(pc.information_set))]
        disks = rng.sample(range(len(system.disks)), rng.randint(1, 5))
        erased = disk_edges(system, disks)
        tally.event(f"disks={len(disks)}")

        with tally.timed("encode"):
            state = code.encode(pc, data)
        tally.count("code.encode.bytes", len(data) * s)
        damaged = without(state, erased)
        with tally.timed("repair"):
            report = repair.repair_disks(system, disks)
            rebuilt = repair.repair_state(pc, damaged, report)
        tally.count("repair.repair_state.bytes", len(report.recovered) * s)
        with tally.timed("verify"):
            scrub_ok = code.verify_state(pc, rebuilt)
        tally.count("code.verify_state.bytes", pc.length * s)

        problems = []
        if any(state.symbols[e] != b for e, b in zip(pc.information_set, data)):
            problems.append("encode did not store the data blocks verbatim")
        if not parity_holds(system.cubic, state.symbols):
            problems.append("encoded stripe violates a parity check")
        if not scrub_ok:
            problems.append("verify_state rejected the rebuilt stripe")
        problems += check_rebuilt(erased, rebuilt, state.symbols)
        problems += tally.account(i, system.cubic, ctx["owner"], report)
        return problems

    def inputs(self, ctx: dict) -> dict:
        system = ctx["system"]
        return {
            "graph": "pg23", "n": len(system.disks), "blocks": ctx["code"].length,
            "k": ctx["code"].dimension, "block_size": self.s,
            "girth_G": 6, "girth_block_graph": int(graphs.girth(system.cubic)),
        }


class FleetWorkload:
    """random_4_regular(3000) with 4 KiB blocks: one operation is a disk-failure
    event followed by a block-loss event."""

    name = "fleet-3000"
    min_ops = 100

    def __init__(self, sizes: Sizes = Sizes()):
        self.n, self.s = sizes.fleet_n, sizes.fleet_block

    def setup(self, seed: int, tally) -> dict:
        with tally.timed("setup"):
            g = catalog.random_4_regular(self.n, seed)
            system = build_system(g)
            pc = code.derive_code(system.cubic)
        rng = random.Random(f"{seed}:{self.name}:payload")
        data = [rng.randbytes(self.s) for _ in range(len(pc.information_set))]
        with tally.timed("setup"):
            state = code.encode(pc, data)
        tally.count("code.encode.bytes", len(data) * self.s)
        if not parity_holds(system.cubic, state.symbols):
            raise AssertionError("initial encode violates a parity check")
        return {"seed": seed, "g": g, "system": system, "code": pc, "state": state,
                "owner": system.edge_owner()}

    def _event(self, ctx, i, tally, kind, erased, plan) -> List[str]:
        system, pc, state = ctx["system"], ctx["code"], ctx["state"]
        m = system.cubic.edge_count
        damaged = without(state, erased)
        rebuilt = None
        with tally.timed(kind):
            report = plan()
            if not len(report.residual):
                rebuilt = repair.repair_state(pc, damaged, report)
        tally.event(kind)
        oracle = graphs.two_core(system.cubic, graphs.EdgeSubset.from_indices(m, erased))
        if report.residual.bits != oracle.bits:
            return [f"{kind}: residual differs from the 2-core of the erased edges"]
        if rebuilt is None:
            tally.event(f"{kind}-unrecoverable")
            return []
        tally.count("repair.repair_state.bytes", len(report.recovered) * self.s)
        return check_rebuilt(erased, rebuilt, state.symbols) + tally.account(
            i, system.cubic, ctx["owner"], report
        )

    def op(self, ctx: dict, i: int, tally) -> List[str]:
        system = ctx["system"]
        rng = random.Random(f"{ctx['seed']}:{self.name}:{i}")
        count = rng.choices(DISK_COUNTS, DISK_WEIGHTS)[0]
        disks = rng.sample(range(len(system.disks)), count)
        blocks = rng.sample(range(system.cubic.edge_count), rng.randint(1, 16))
        erased_blocks = graphs.EdgeSubset.from_indices(system.cubic.edge_count, blocks)
        return self._event(
            ctx, i, tally, "disk_event", disk_edges(system, disks),
            lambda: repair.repair_disks(system, disks),
        ) + self._event(
            ctx, i, tally, "block_event", sorted(blocks),
            lambda: repair.peel(system, erased_blocks),
        )

    def inputs(self, ctx: dict) -> dict:
        system = ctx["system"]
        return {
            "graph": f"random_4_regular({self.n}, seed)", "n": self.n,
            "blocks": ctx["code"].length, "k": ctx["code"].dimension,
            "block_size": self.s, "girth_G": int(graphs.girth(ctx["g"])),
            "girth_block_graph": int(graphs.girth(system.cubic)),
        }


@dataclass
class _Certified:
    name: str
    system: cubic.CubicSystem
    prof: analysis.SystemProfile
    bound: Tuple[bool, set]
    patterns: int
    costs: List[repair.RepairReport]
    decomposition: Optional[bool]


class CertifyWorkload:
    """One operation is a certification pass over the four cages and
    random_4_regular(1000): build, profile, recovery bound, per-disk repair
    costs, and (cages only) P4 decomposition."""

    name = "certify"
    min_ops = 1

    def __init__(self, sizes: Sizes = Sizes()):
        self.sizes = sizes

    def setup(self, seed: int, tally) -> dict:
        # The random graph is an input, like a graph file handed to the CLI;
        # its rejection sampling takes a seed-dependent number of tries.
        random_graph = catalog.random_4_regular(self.sizes.certify_n, seed)
        with tally.timed("setup"):
            graphs_ = [(name, catalog.cage(TABLE1[name][0]).graph)
                       for name in self.sizes.certify_cages]
        return {"seed": seed, "graphs": graphs_ + [("random", random_graph)]}

    def _certify(self, name, g, seed, tally) -> _Certified:
        system = build_system(g)
        prof = analysis.profile(system, g)
        with tally.timed("bound", nested=True):
            if name == "random":
                bound = analysis.verify_recovery_bound(
                    system, g, mode="sampled", trials=self.sizes.certify_trials, seed=seed)
            else:
                bound = analysis.verify_recovery_bound(system, g)
        if name == "random":
            patterns = self.sizes.certify_trials
        else:
            patterns = math.comb(len(system.disks), prof.girth_source - 1)
        costs = [
            repair.repair_disk(system, d, strategy)
            for d in range(len(system.disks))
            for strategy in (repair.RepairStrategy.MIN_BANDWIDTH, repair.RepairStrategy.MIN_ROUNDS)
        ]
        decomposition = None
        if name != "random":
            paths = cubic.decompose_p4(system.cubic)
            decomposition = len(paths) == len(system.disks) and cubic.verify_disk_decomposition(
                cubic.CubicSystem(system.cubic, tuple(paths), tuple(range(len(paths))),
                                  system.arc_names))
        return _Certified(name, system, prof, bound, patterns if bound[0] else 0,
                          costs, decomposition)

    def op(self, ctx: dict, i: int, tally) -> List[str]:
        with tally.timed("pass"):
            done = [self._certify(name, g, ctx["seed"], tally) for name, g in ctx["graphs"]]
        problems = []
        for c in done:
            p = c.prof
            row = (p.disk_count, p.block_count, p.max_guaranteed_disk_erasures,
                   p.blocks_recoverable, p.code_length, p.code_dimension)
            if c.name == "random":
                n = self.sizes.certify_n
                want = (n, 3 * n, p.girth_source - 1, 3 * (p.girth_source - 1), 3 * n, n + 1)
            else:
                want = TABLE1[c.name][1]
            if row != want:
                problems.append(f"{c.name}: profile row {row} != {want}")
            all_ok, witness = c.bound
            if not all_ok or len(witness) != p.girth_source:
                problems.append(f"{c.name}: recovery bound {all_ok}, witness {sorted(witness)}")
            tally.count("analysis.verify_recovery_bound.patterns", c.patterns)
            owner = c.system.edge_owner()
            for k, report in enumerate(c.costs):
                want_cost = (4, 3) if k % 2 == 0 else (5, 2)
                if (report.transferred_symbols, report.rounds) != want_cost:
                    problems.append(f"{c.name}: disk {k // 2} costs "
                                    f"{report.transferred_symbols}/{report.rounds}")
                problems += tally.account(i, c.system.cubic, owner, report)
            if c.decomposition is False:
                problems.append(f"{c.name}: P4 decomposition does not verify")
        return problems

    def inputs(self, ctx: dict) -> dict:
        out = {}
        for name, g in ctx["graphs"]:
            system = build_system(g)
            out[name] = {"n": g.vertex_count, "blocks": system.cubic.edge_count,
                         "girth_G": int(graphs.girth(g)),
                         "girth_block_graph": int(graphs.girth(system.cubic))}
        out["sampled_trials"] = self.sizes.certify_trials
        return out


class CliWorkload:
    """pg23 with 4 KiB blocks through ``graphdss store`` and ``graphdss repair``
    in-process; one operation stores a fresh payload, deletes the block files
    of 1-4 failed disks and repairs them."""

    name = "cli-4k"
    min_ops = 100

    def __init__(self, sizes: Sizes = Sizes()):
        self.s = sizes.cli_block

    def setup(self, seed: int, tally) -> dict:
        tmp = Path(tally.tmpdir)
        with tally.timed("setup"):
            system = build_system(catalog.cage(6).graph)
            (tmp / "system.json").write_text(system.to_json())
        pc = code.derive_code(system.cubic)
        return {"seed": seed, "system": system, "code": pc, "tmp": tmp,
                "system_path": str(tmp / "system.json"), "owner": system.edge_owner()}

    @staticmethod
    def _run_cli(tally, phase: str, argv: List[str]) -> Tuple[int, str]:
        out = io.StringIO()
        with tally.timed(phase), redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def op(self, ctx: dict, i: int, tally) -> List[str]:
        system, pc, s = ctx["system"], ctx["code"], self.s
        k, m = len(pc.information_set), pc.length
        rng = random.Random(f"{ctx['seed']}:{self.name}:{i}")
        payload = rng.randbytes(k * s)
        count = rng.choices(DISK_COUNTS, DISK_WEIGHTS)[0]
        disks = rng.sample(range(len(system.disks)), count)
        erased = disk_edges(system, disks)
        tally.event(f"disks={count}")
        work = ctx["tmp"] / f"op{i}"
        work.mkdir()
        data, state_dir = work / "data.bin", work / "state"
        data.write_bytes(payload)
        block = lambda e: state_dir / f"block_{e:05d}.bin"  # noqa: E731
        try:
            rc, _ = self._run_cli(tally, "store", [
                "store", "--system", ctx["system_path"], "--data", str(data),
                "--out", str(state_dir), "--block-size", str(s)])
            if rc != 0:
                return [f"store exited {rc}"]
            tally.count("code.encode.bytes", k * s)
            original = {e: block(e).read_bytes() for e in range(m)}
            problems = []
            if any(original[e] != payload[j * s:(j + 1) * s]
                   for j, e in enumerate(pc.information_set)):
                problems.append("store did not write the data blocks verbatim")
            if not parity_holds(system.cubic, original):
                problems.append("stored state violates a parity check")
            if not code.verify_state(pc, code.StorageState(s, original)):
                problems.append("verify_state rejected the stored state")
            for e in erased:
                os.remove(block(e))
            rc, text = self._run_cli(tally, "repair", [
                "repair", "--system", ctx["system_path"], "--state", str(state_dir),
                "--erased", ",".join(map(str, erased))])
            if rc != 0:
                return problems + [f"repair exited {rc}"]
            tally.count("repair.repair_state.bytes", len(erased) * s)
            rebuilt = code.StorageState(s, {e: block(e).read_bytes() for e in erased})
            problems += check_rebuilt(erased, rebuilt, original)
            printed = json.JSONDecoder().raw_decode(text)[0]
            report = repair.RepairReport(
                recovered=tuple(tuple(r) for r in printed["recovered"]),
                transferred_symbols=printed["transferred"],
                rounds=printed["rounds"],
                residual=graphs.EdgeSubset.from_indices(m, printed["residual"]),
                erased=graphs.EdgeSubset.from_indices(m, erased),
            )
            return problems + tally.account(i, system.cubic, ctx["owner"], report)
        finally:
            shutil.rmtree(work)

    def inputs(self, ctx: dict) -> dict:
        system = ctx["system"]
        return {
            "graph": "pg23", "n": len(system.disks), "blocks": ctx["code"].length,
            "k": ctx["code"].dimension, "block_size": self.s, "girth_G": 6,
            "girth_block_graph": int(graphs.girth(system.cubic)),
        }


WORKLOADS = {w.name: w for w in (StripeWorkload, FleetWorkload, CertifyWorkload, CliWorkload)}
