"""Graph-based distributed storage: cycle-space codes over GF(2), P4 disk
decompositions of cubic graphs, and peeling repair with bandwidth accounting.

Pipeline: a 4-regular graph is oriented by an Eulerian tour, the resulting
2-in-2-out digraph yields a 3-regular graph whose edges are storage blocks
and whose P4 paths are disks.  Erased blocks are rebuilt by a sequential
peeling decoder; unrecoverable patterns are exactly the cycles of erased
edges.
"""

from .graphs import (
    Graph, EdgeSubset, degree_sequence, girth, shortest_cycle, two_core, is_connected
)
from .orientation import (
    OrientedGraph,
    eulerian_tour,
    orient_from_tour,
    load_orientation,
    NotEulerianError,
    InvalidTourError,
)
from .cubic import (
    PairingMode,
    CubicSystem,
    build_cubic,
    decompose_p4,
    verify_disk_decomposition,
    DecompositionFailure,
)
from .code import ParityCode, StorageState, derive_code, encode, verify_state
from .repair import (
    RepairReport,
    RepairStrategy,
    peel,
    repair_disk,
    repair_disks,
    repair_state,
)
from .analysis import (
    SystemProfile,
    verify_recovery_bound,
    profile,
)
from . import catalog, state

__all__ = [
    "Graph",
    "EdgeSubset",
    "degree_sequence",
    "girth",
    "shortest_cycle",
    "two_core",
    "is_connected",
    "OrientedGraph",
    "eulerian_tour",
    "orient_from_tour",
    "load_orientation",
    "NotEulerianError",
    "InvalidTourError",
    "PairingMode",
    "CubicSystem",
    "build_cubic",
    "decompose_p4",
    "verify_disk_decomposition",
    "DecompositionFailure",
    "ParityCode",
    "StorageState",
    "derive_code",
    "encode",
    "verify_state",
    "RepairReport",
    "RepairStrategy",
    "peel",
    "repair_disk",
    "repair_disks",
    "repair_state",
    "SystemProfile",
    "verify_recovery_bound",
    "profile",
    "catalog",
    "state",
]
