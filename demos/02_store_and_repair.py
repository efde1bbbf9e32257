"""Store real bytes, lose a disk, repair it.

Encodes random data into the 8-disk layout built from K4,4, erases one whole
disk, repairs it with the bandwidth-minimal schedule (4 symbols over 3
rounds), and checks the recovered bytes match the originals.

Run: python3 demos/02_store_and_repair.py
"""

import random

from graphdss.catalog import cage
from graphdss.code import StorageState, derive_code, encode, verify_state
from graphdss.cubic import PairingMode, build_cubic
from graphdss.orientation import eulerian_tour, orient_from_tour
from graphdss.repair import RepairStrategy, repair_disk, repair_state


def main():
    g = cage(4).graph
    sysm = build_cubic(orient_from_tour(g, eulerian_tour(g)), PairingMode.PARALLEL)
    code = derive_code(sysm.cubic)
    print(f"system: {len(sysm.disks)} disks, {code.length} blocks, "
          f"{code.dimension} of them hold independent data")

    rng = random.Random(0)
    block_size = 64
    payload = [bytes(rng.randrange(256) for _ in range(block_size))
               for _ in range(code.dimension)]
    state = encode(code, payload)
    print(f"stored {code.dimension} x {block_size} bytes; "
          f"all parity checks hold: {verify_state(code, state)}")
    print()

    victim = 3
    lost = sysm.disk_edges(victim)
    broken = StorageState(state.block_size, dict(state.symbols))
    for e in lost:
        del broken.symbols[e]
    print(f"disk {victim} failed, losing blocks {', '.join(map(str, lost))}")

    report = repair_disk(sysm, victim, RepairStrategy.MIN_BANDWIDTH)
    print(f"repair schedule reads {report.transferred_symbols} intact blocks "
          f"over {report.rounds} rounds:")
    for edge, vertex, rnd in report.recovered:
        print(f"  round {rnd}: recover block {edge} via the parity check at node {vertex}")

    fixed = repair_state(code, broken, report)
    ok = fixed.symbols == state.symbols and verify_state(code, fixed)
    print(f"recovered bytes identical to originals: {ok}")
    print()

    fast = repair_disk(sysm, victim, RepairStrategy.MIN_ROUNDS)
    print(f"latency-minimal alternative: {fast.transferred_symbols} blocks "
          f"over {fast.rounds} rounds")


if __name__ == "__main__":
    main()
