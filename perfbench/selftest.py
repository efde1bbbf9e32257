"""Self-test of the benchmark harness, at tiny input sizes.

    python3 perfbench/selftest.py

1. Runs every workload, untraced and traced, and requires every check to
   pass and every metric to be computed.
2. Flips one byte of one rebuilt block (by wrapping ``repair_state``) and
   requires every stripe operation to be counted as failed.

Exits 0 when both hold.  Takes about 15 seconds.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from graphdss import repair  # noqa: E402

TINY = workloads.Sizes(
    stripe_block=1024,
    fleet_n=60,
    fleet_block=64,
    certify_n=30,
    certify_trials=20,
    certify_cages=("k5", "k44", "robertson"),
    cli_block=64,
)


def smoke() -> list:
    errors = []
    for name, cls in workloads.WORKLOADS.items():
        for trace in (False, True):
            result = run.execute(cls(TINY), seed=7, seconds=0, trace=trace)
            metrics = result["metrics"]
            if result["failed"] or result["ops"] < cls.min_ops:
                errors.append(f"{name} trace={trace}: {result['failed']} of "
                              f"{result['ops']} operations failed")
            wanted = run.E2E_METRICS if not trace else metrics
            missing = [m for m in wanted if m not in metrics or math.isnan(metrics[m][0])]
            if missing:
                errors.append(f"{name} trace={trace}: no value for {missing}")
        print(f"smoke {name}: ok" if not errors else f"smoke {name}: {errors}")
    return errors


def flipped_byte() -> list:
    original = repair.repair_state

    def corrupting(code, state, report):
        out = original(code, state, report)
        e = report.recovered[0][0]
        block = bytearray(out.symbols[e])
        block[0] ^= 1
        out.symbols[e] = bytes(block)
        return out

    repair.repair_state = corrupting
    try:
        result = run.execute(workloads.StripeWorkload(TINY), seed=7, seconds=0, trace=False)
    finally:
        repair.repair_state = original
    print(f"flipped byte: {result['failed']} of {result['ops']} operations failed")
    if result["failed"] != result["ops"]:
        return ["a flipped byte in a rebuilt block was not counted as failed"]
    return []


def main() -> int:
    errors = smoke() + flipped_byte()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest ok" if not errors else "selftest FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
