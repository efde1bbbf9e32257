"""graphdss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Runs one workload (see perfbench/README.md) as a closed loop with one client
for at least S seconds and at least the workload's minimum operation count,
checks every output, and prints the workload's metrics, one per line, then
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, from spans recorded around every traced library
function.  ``--workload all`` runs every workload in its own process, one
after the other, and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spans import SpanRecorder
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # set up at least this often, and for at least MIN_SETUP_S
MIN_SETUP_S = 0.5
MAX_LOOP_S = 120  # stop extending a run to its minimum operation count here

E2E_METRICS = ("setup_s", "op_ms_p50", "op_ms_p90", "reads_per_block", "peak_rss_MiB")


def percentile(xs, q: float) -> float:
    """Linear interpolation between closest ranks; nan for no samples."""
    if not xs:
        return math.nan
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Timed regions, byte and event counters, and repair read accounting of
    one run.  Read counts cover only the first ``count_ops`` operations,
    which every run completes, so they repeat exactly for a seed."""

    def __init__(self, count_ops: int, tmpdir: str, tracer=None):
        self.count_ops = count_ops
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.op = -1  # index of the running operation; setups are negative
        self.regions = []  # (op, phase, start, end, nested)
        self.windows = []  # span-index ranges of the timed operation regions
        self.counts = Counter()
        self.events = Counter()

    @contextmanager
    def timed(self, phase: str, nested: bool = False):
        """Time a region of library calls.  A nested region lies inside
        another one and is not added to the operation's time."""
        first = self.tracer.mark() if self.tracer else 0
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.regions.append((self.op, phase, start, end, nested))
            if self.tracer and self.op >= 0 and not nested:
                self.windows.append((first, self.tracer.mark()))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def event(self, kind: str) -> None:
        self.events[kind] += 1

    def account(self, i: int, g, owner, report) -> list:
        """Reads per helper disk of one repair session, from the schedule and
        the edge -> disk map: a recovered edge reads the intact edges at its
        parity vertex.  Their number must equal the reported transfers."""
        erased = report.erased.bits
        reads = {
            ei
            for e, v, _ in report.recovered
            for ei, _ in g.incident(v)
            if ei != e and not (erased >> ei) & 1
        }
        by_disk = Counter(owner[ei] for ei in reads)
        if i < self.count_ops:
            c = self.counts
            c["repair.recovered_blocks"] += len(report.recovered)
            c["repair.transferred_symbols"] += report.transferred_symbols
            c["repair.rounds_max"] = max(c["repair.rounds_max"], report.rounds)
            c["repair.max_helper_disk_reads"] = max(
                c["repair.max_helper_disk_reads"], max(by_disk.values(), default=0))
            c["repair.helper_disks_read"] += len(by_disk)
        if len(reads) != report.transferred_symbols:
            return [f"{len(reads)} helper reads but {report.transferred_symbols} transfers"]
        return []

    def timings(self, probe) -> dict:
        """Raw and speed-scaled seconds: per phase (one entry per region) and
        per operation or setup (summed over its non-nested regions)."""
        phases = defaultdict(list)
        per_op = defaultdict(lambda: [0.0, 0.0])
        for op, phase, start, end, nested in self.regions:
            pair = (end - start, probe.scaled(start, end))
            phases[phase].append(pair)
            if not nested:
                per_op[op][0] += pair[0]
                per_op[op][1] += pair[1]
        ops = [tuple(per_op[i]) for i in sorted(per_op) if i >= 0]
        setups = [tuple(per_op[i]) for i in sorted(per_op) if i < 0]
        return {"phases": phases, "ops": ops, "setups": setups}


def measure(workload, seed: int, seconds: float, tracer, tmpdir: str) -> dict:
    """Set up repeatedly (setup_s is the median), then run the closed loop."""
    tally = Tally(workload.min_ops, tmpdir, tracer)
    ctx, k, first = None, 0, perf_counter()
    while k < SETUP_REPEATS or perf_counter() - first < MIN_SETUP_S:
        ctx = None  # release the previous system before building the next
        gc.collect()
        k += 1
        tally.op = -k
        ctx = workload.setup(seed, tally)

    ops, failed, shown = 0, 0, 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (ops >= workload.min_ops or elapsed >= MAX_LOOP_S):
            break
        tally.op = ops
        try:
            problems = workload.op(ctx, ops, tally)
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc()]
        ops += 1
        if problems:
            failed += 1
            if shown < 5:
                shown += 1
                print(f"op {tally.op} failed: {'; '.join(problems)}", file=sys.stderr)
    return {"tally": tally, "ctx": ctx, "ops": ops, "failed": failed}


def replay_untraced(workload, ctx, ops: int, tmpdir: str) -> Tally:
    """The same operations again with tracing off, for the overhead."""
    tally = Tally(0, tmpdir)
    for i in range(ops):
        tally.op = i
        try:
            workload.op(ctx, i, tally)
        except Exception:  # already counted as failed in the traced loop
            pass
    return tally


def workload_metrics(name: str, run: dict, tm: dict) -> dict:
    """Every end-to-end metric of the workload: name -> (speed-scaled value,
    raw value, unit, samples).  Times and rates use the scaled seconds."""
    c, ph = run["tally"].counts, tm["phases"]

    def col(pairs, j):
        return [p[j] for p in pairs]

    def timing(pairs, q, scale, unit):
        return (scale * percentile(col(pairs, 1), q), scale * percentile(col(pairs, 0), q),
                unit, len(pairs))

    def rate(count, *phases):
        pairs = [p for name in phases for p in ph[name]]
        raw, scaled = sum(col(pairs, 0)), sum(col(pairs, 1))
        return (c[count] / 1e6 / scaled, c[count] / 1e6 / raw, "MB/s", len(pairs))

    recovered = c["repair.recovered_blocks"]
    rpb = c["repair.transferred_symbols"] / recovered if recovered else math.nan
    ops = tm["ops"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "setup_s": timing(tm["setups"], 0.5, 1, "s"),
        "op_ms_p50": timing(ops, 0.5, 1000, "ms"),
        "op_ms_p90": timing(ops, 0.9, 1000, "ms"),
        "reads_per_block": (rpb, rpb, "count", min(len(ops), run["tally"].count_ops)),
        "failed_share": (run["failed"] / len(ops),) * 2 + ("ratio", len(ops)),
        "peak_rss_MiB": (rss, rss, "MiB", 1),
    }
    if name == "stripe-256k":
        out["store_MBps"] = rate("code.encode.bytes", "encode")
        out["repair_MBps"] = rate("repair.repair_state.bytes", "repair")
        out["scrub_MBps"] = rate("code.verify_state.bytes", "verify")
    elif name == "fleet-3000":
        out["repair_MBps"] = rate("repair.repair_state.bytes", "disk_event", "block_event")
        for kind in ("disk", "block"):
            out[f"{kind}_rebuild_ms_p50"] = timing(ph[f"{kind}_event"], 0.5, 1000, "ms")
            out[f"{kind}_rebuild_ms_p90"] = timing(ph[f"{kind}_event"], 0.9, 1000, "ms")
    elif name == "certify":
        out["certify_s"] = timing(ph["pass"], 0.5, 1, "s")
        patterns = c["analysis.verify_recovery_bound.patterns"]
        bound = ph["bound"]
        out["bound_patterns_per_s"] = (patterns / sum(col(bound, 1)),
                                       patterns / sum(col(bound, 0)), "1/s", len(bound))
    elif name == "cli-4k":
        out["store_MBps"] = rate("code.encode.bytes", "store")
        out["disk_rebuild_ms_p50"] = timing(ph["repair"], 0.5, 1000, "ms")
        out["disk_rebuild_ms_p90"] = timing(ph["repair"], 0.9, 1000, "ms")
    return out


def layer_metrics(run: dict, tm: dict, tracer, untraced: dict) -> dict:
    """Every per-layer metric: calls, inclusive and self seconds (raw) of
    each traced function, byte and repair counters, and the tracing cost:
    ``trace.overhead_share`` compares the speed-scaled operation time of
    the traced loop with that of an untraced replay of the same operations,
    and ``trace.span_share`` is the share of the traced operation time that
    the top-level spans account for."""
    t = run["tally"]
    out = {}
    for qual, row in tracer.summary().items():
        for key in ("calls", "s", "self_s"):
            out[f"{qual}.{key}"] = (row[key], "count" if key == "calls" else "s")
    for name in ("code.encode.bytes", "code.verify_state.bytes", "repair.repair_state.bytes"):
        out[name] = (t.counts[name], "B")
    for name in ("analysis.verify_recovery_bound.patterns", "repair.recovered_blocks",
                 "repair.transferred_symbols", "repair.rounds_max",
                 "repair.max_helper_disk_reads", "repair.helper_disks_read"):
        out[name] = (t.counts[name], "count")
    traced_raw = sum(p[0] for p in tm["ops"])
    traced = sum(p[1] for p in tm["ops"])
    out["trace.overhead_share"] = (traced / sum(p[1] for p in untraced["ops"]) - 1, "ratio")
    out["trace.span_share"] = (tracer.root_seconds(t.windows) / traced_raw, "ratio")
    return out


def execute(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and compute its metrics; a traced run also
    replays its operations untraced, for the tracing overhead."""
    tracer = SpanRecorder() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        with SpeedProbe() as probe:
            if tracer:
                tracer.install()
            try:
                run = measure(workload, seed, seconds, tracer, tmpdir)
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer:
                replay = replay_untraced(workload, run["ctx"], run["ops"], tmpdir)
        tm = run["tally"].timings(probe)
        if tracer:
            run["metrics"] = layer_metrics(run, tm, tracer, replay.timings(probe))
            run["absent"] = tracer.absent
        else:
            run["metrics"] = workload_metrics(workload.name, run, tm)
        run["inputs"] = workload.inputs(run["ctx"])
    run["probe_ms"] = 1000 * statistics.median(probe.durations)
    return run


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    run = execute(workload, args.seed, args.seconds, bool(args.trace))
    metrics = run["metrics"]
    print(f"# {workload.name}  seed={args.seed}  ops={run['ops']}  failed={run['failed']}"
          f"  trace={args.trace}  probe_ms_median={run['probe_ms']:.3f}")
    print(f"# inputs {json.dumps(run['inputs'], sort_keys=True)}")
    print(f"# events {json.dumps(dict(sorted(run['tally'].events.items())))}")
    if args.trace:
        print(f"# absent {' '.join(run['absent']) or '-'}")
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:14.6g} {unit}")
        wanted, unit_at = list(metrics), 1
    else:
        print(f"# {'metric':46s} {'scaled':>14s} {'raw':>14s} unit  samples")
        for name, (value, raw, unit, n) in metrics.items():
            print(f"{name:48s} {value:14.6g} {raw:14.6g} {unit}  n={n}")
        wanted, unit_at = E2E_METRICS, 2
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][unit_at]} for k in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, never two at a time, so that
    peak_rss_MiB and setup_s belong to one workload."""
    from workloads import WORKLOADS

    summary, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exited {proc.returncode}")
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
