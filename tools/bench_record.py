"""Record the benchmark's end-to-end metrics, or compare two trees by them.

Run, from the root of the checkout:

    python3 tools/bench_record.py --out BENCH.json [--runs R] [--seed S] [--seconds T]
    python3 tools/bench_record.py --pairs PARENT_TREE CHANGE_TREE --workload W [--runs R] ...

Each run is a fresh process of a tree's own, unchanged `perfbench/run.py`
at `--trace 0`, with `PYTHONPATH` set to that tree's `src`, and is read by
its last line, the JSON object of `correct`, `attempted`, `failed` and
`metrics`, and by the `probe_ms_median=` of its first line, the median
of the speed probe (`perfbench/speed.py`) that the run scales its timings
by.  The metrics are the end-to-end metrics that `BENCHMARK.json` gates.
`--out` records only the workloads it gates; `--pairs` runs any workload
of the tree's `perfbench/run.py`, such as cli-4k, the one that runs
`cli.main` and `state`, and a name that the tree does not know is a run
that fails.

`--out` runs every workload (or each `--workload` given) R times, the
workloads interleaved, at one seed and duration.  It writes, per workload
and end-to-end metric, the median, quartiles, min, max and the values,
the same summary of the probe medians per workload (`probe_ms`), with
the commit (`git rev-parse HEAD` and a dirty flag), the Python version,
R, the seed, the seconds and the code-line total of `src/graphdss` as
`tools/code_lines.py` counts it.

`--pairs` runs one workload R times in each tree, alternating: the parent
first in odd pairs, the change first in even ones.  It prints, per metric,
each tree's median and quartiles and the number of pairs the change won,
then each tree's probe summary, then one verdict per metric (`verdict`),
and then the same as one JSON line.

Both modes exit 1, and `--out` writes nothing, if any run is not `correct`,
has a failed operation or has no probe median on its first line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from code_lines import code_lines

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    pass


def run_once(tree: Path, workload: str, args) -> Tuple[Dict[str, float], float]:
    """One fresh run of `tree`'s benchmark: its end-to-end metric values and
    its probe median in ms."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except ValueError:
        last = {}
    if last.get("correct") is not True or last.get("failed") != 0:
        raise RunFailed(f"{tree} {workload}: exit {proc.returncode}, last line "
                        f"{lines[-1] if lines else '(none)'}")
    probe = re.search(r"\bprobe_ms_median=(\d+(?:\.\d*)?)", lines[0])
    if probe is None:
        raise RunFailed(f"{tree} {workload}: no probe_ms_median= on the first line {lines[0]}")
    return ({name: last["metrics"][name]["value"] for name in args.better},
            float(probe.group(1)))


def summary(values: List[float]) -> Dict[str, object]:
    """Median, quartiles (inclusive method), min, max and the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "values": values}


def _git(tree: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(tree), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def record(args) -> int:
    workloads = args.workload or args.workloads
    values = {w: {m: [] for m in args.better} for w in workloads}
    probes: Dict[str, List[float]] = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            metrics, probe = run_once(ROOT, w, args)
            for m, v in metrics.items():
                values[w][m].append(v)
            probes[w].append(probe)
            print(f"# run {r + 1}/{args.runs} {w}: correct", flush=True)
    lines = sum(code_lines(p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / "src" / "graphdss").rglob("*.py")))
    result = {
        "commit": {"head": _git(ROOT, "rev-parse", "HEAD") or None,
                   "dirty": bool(_git(ROOT, "status", "--porcelain"))},
        "python": platform.python_version(),
        "runs": args.runs, "seed": args.seed, "seconds": args.seconds,
        "code_lines": lines,
        "probe_ms": {w: summary(probes[w]) for w in workloads},
        "workloads": {w: {m: summary(v) for m, v in values[w].items()} for w in workloads},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


def _sides(by_side: Dict[str, Dict]) -> str:
    """The parent's and the change's median [quartiles] in `by_side`."""
    return "  ".join(f"{side} {by_side[side]['median']:.6g} [{by_side[side]['q1']:.6g}, "
                     f"{by_side[side]['q3']:.6g}]" for side in ("parent", "change"))


def _beats(better: str, value: float, other: float) -> bool:
    return value < other if better == "lower" else value > other


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """The verdict on one metric of a pairs run, `parent[i]` and `change[i]`
    being pair i, by the rule of a gain claim and the metric's relative bound
    in BENCHMARK.json: `gain` if the change won at least 9 of 10 pairs (ties
    count for neither) and the medians differ in its favour by more than the
    parent's interquartile range; else `worse` if the change's median is
    worse than the parent's by more than bound times the parent's median;
    else `unresolved` if the parent's interquartile range is wider than that,
    unless every change run beats every parent run; else `same`."""
    p, c = summary(parent), summary(change)
    iqr = p["q3"] - p["q1"]
    ahead = (p["median"] - c["median"]) * (1 if better == "lower" else -1)
    won = sum(_beats(better, cv, pv) for pv, cv in zip(parent, change))
    if 10 * won >= 9 * len(parent) and ahead > iqr:
        return "gain"
    allowed = bound * abs(p["median"])
    if -ahead > allowed:
        return "worse"
    if iqr > allowed and not all(_beats(better, cv, pv) for pv in parent for cv in change):
        return "unresolved"
    return "same"


def pairs(args) -> int:
    workload = args.workload[0]
    trees = {"parent": Path(args.pairs[0]).resolve(), "change": Path(args.pairs[1]).resolve()}
    values = {side: {m: [] for m in args.better} for side in trees}
    probes: Dict[str, List[float]] = {side: [] for side in trees}
    for i in range(1, args.runs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            metrics, probe = run_once(trees[side], workload, args)
            for m, v in metrics.items():
                values[side][m].append(v)
            probes[side].append(probe)
        print(f"# pair {i}/{args.runs}: {' then '.join(order)}", flush=True)
    result = {"workload": workload, "pairs": args.runs, "seed": args.seed,
              "seconds": args.seconds, "metrics": {},
              "probe_ms": {side: summary(probes[side]) for side in trees}}
    for m, better in args.better.items():
        parent, change = values["parent"][m], values["change"][m]
        won = sum(_beats(better, c, p) for p, c in zip(parent, change))
        result["metrics"][m] = {"parent": summary(parent), "change": summary(change),
                                "change_won": won,
                                "verdict": verdict(parent, change, better, args.bound[m])}
        print(f"{m:16s} {_sides(result['metrics'][m])}  change won {won}/{args.runs}")
    print(f"{'probe_ms':16s} {_sides(result['probe_ms'])}")
    for m, row in result["metrics"].items():
        print(f"verdict {m:16s} {row['verdict']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the record of this checkout to this file")
    mode.add_argument("--pairs", nargs=2, metavar=("PARENT_TREE", "CHANGE_TREE"))
    p.add_argument("--workload", action="append",
                   help="a workload to run (repeatable); --out defaults to every gated one")
    p.add_argument("--runs", type=int, default=10, help="runs per workload and tree")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = p.parse_args(argv)
    args.workloads = workloads
    args.better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    args.bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if args.pairs and len(args.workload or ()) != 1:
        p.error("--pairs takes exactly one --workload")
    if args.out and not set(args.workload or ()) <= set(workloads):
        p.error(f"--out records only the gated workloads: {', '.join(workloads)}")
    try:
        return record(args) if args.out else pairs(args)
    except RunFailed as exc:
        print(f"bench_record: refused, a run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
