"""Built-in graphs: the (4,g)-cage family, the Petersen graph, the two
pinned 5-disk systems, and a seeded random d-regular generator.

The hard-coded graphs and the pinned K5 orientation are plain
constructions: tier-1 tests prove their regularity, girth, connectivity
and sizes once.  The one graph read from outside the program, the
(4,7)-cage file, is checked on every load.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Set

from .cubic import CubicSystem, PairingMode, build_cubic
from .graphs import Graph, degree_sequence, girth, is_connected, read_graph_file
from .orientation import OrientedGraph

CAGE7_ENV_VAR = "GRAPHDSS_CAGE7_FILE"


class CatalogError(ValueError):
    pass


class MissingDataFileError(FileNotFoundError):
    pass


class GenerationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    graph: Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# (4,5)-cage on 19 vertices; found by exhaustive girth-constrained search
# (the cage is unique); tier-1 tests prove it 4-regular, connected and of
# girth 5
_ROBERTSON_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 8), (2, 9),
    (2, 10), (3, 11), (3, 12), (3, 13), (4, 14), (4, 15), (4, 16), (5, 8),
    (5, 11), (5, 14), (6, 9), (6, 12), (6, 15), (7, 10), (7, 13), (7, 16),
    (8, 12), (8, 16), (9, 13), (9, 17), (10, 15), (10, 18), (11, 15),
    (11, 17), (12, 18), (13, 14), (14, 18), (16, 17), (17, 18),
]


# (4,6)-cage on 26 vertices: the point-line incidence graph of PG(2,3).
# Points 0..12 and lines 13..25 are the 13 nonzero triples over GF(3) whose
# first nonzero coordinate is 1, in lexicographic order; a point lies on a
# line iff their dot product is 0 mod 3.  The tier-1 oracle
# `pg23_incidence_oracle` builds it from the coordinates and proves this
# list, edge order and labels included
_PG23_EDGES = (
    (0, 14), (0, 17), (0, 20), (0, 23), (1, 13), (1, 17), (1, 18), (1, 19),
    (2, 16), (2, 17), (2, 22), (2, 24), (3, 15), (3, 17), (3, 21), (3, 25),
    (4, 13), (4, 14), (4, 15), (4, 16), (5, 14), (5, 19), (5, 22), (5, 25),
    (6, 14), (6, 18), (6, 21), (6, 24), (7, 13), (7, 23), (7, 24), (7, 25),
    (8, 16), (8, 19), (8, 21), (8, 23), (9, 15), (9, 18), (9, 22), (9, 23),
    (10, 13), (10, 20), (10, 21), (10, 22), (11, 15), (11, 19), (11, 20),
    (11, 24), (12, 16), (12, 18), (12, 20), (12, 25),
)
_PG23_LABELS = (
    "p(0, 0, 1)", "p(0, 1, 0)", "p(0, 1, 1)", "p(0, 1, 2)", "p(1, 0, 0)",
    "p(1, 0, 1)", "p(1, 0, 2)", "p(1, 1, 0)", "p(1, 1, 1)", "p(1, 1, 2)",
    "p(1, 2, 0)", "p(1, 2, 1)", "p(1, 2, 2)",
    "l(0, 0, 1)", "l(0, 1, 0)", "l(0, 1, 1)", "l(0, 1, 2)", "l(1, 0, 0)",
    "l(1, 0, 1)", "l(1, 0, 2)", "l(1, 1, 0)", "l(1, 1, 1)", "l(1, 1, 2)",
    "l(1, 2, 0)", "l(1, 2, 1)", "l(1, 2, 2)",
)


def cage(g: int) -> CatalogEntry:
    """The (4,g)-cage for g in 3..7.

    g=7 needs an external adjacency file (JSON graph format) because the
    67-vertex cage listing is too long to embed; the environment variable
    named by CAGE7_ENV_VAR gives its path.  `read_graph_file` reads it, and
    its graph must be 4-regular, of girth 7, connected and on 67 vertices,
    checked in that order; CatalogError, its message prefixed `cage47: `,
    for the first rule the file breaks.
    """
    if g == 3:
        return CatalogEntry(complete_graph(5))
    if g == 4:
        return CatalogEntry(complete_bipartite(4, 4))
    if g == 5:
        return CatalogEntry(Graph(19, _ROBERTSON_EDGES))
    if g == 6:
        return CatalogEntry(Graph(26, _PG23_EDGES, _PG23_LABELS))
    if g == 7:
        path = os.environ.get(CAGE7_ENV_VAR)
        if not path or not os.path.exists(path):
            raise MissingDataFileError(
                "the 67-vertex (4,7)-cage is loaded from a JSON graph file; "
                f"set ${CAGE7_ENV_VAR}"
            )
        try:
            graph = read_graph_file(path, "graph file")
        except ValueError as exc:
            raise CatalogError(f"cage47: {exc}") from exc
        if any(d != 4 for d in degree_sequence(graph)):
            raise CatalogError("cage47: not 4-regular")
        gv = girth(graph)
        if gv != 7:
            raise CatalogError(f"cage47: girth {gv} != claimed 7")
        if not is_connected(graph):
            raise CatalogError("cage47: disconnected")
        if graph.vertex_count != 67:
            raise CatalogError(f"cage47: {graph.vertex_count} vertices, the (4,7)-cage has 67")
        return CatalogEntry(graph)
    raise CatalogError(f"no (4,{g})-cage in the catalog")


_PETERSEN_EDGES = [
    # outer 5-cycle, spokes, inner pentagram
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


def petersen() -> CatalogEntry:
    return CatalogEntry(Graph(10, _PETERSEN_EDGES))


# the pinned 5-disk example: one Eulerian orientation of K5 (0-indexed);
# tier-1 tests prove it an orientation of complete_graph(5)
K5_ORIENTATION = OrientedGraph(5, (
    (0, 1), (0, 3), (1, 2), (1, 4), (2, 0),
    (2, 3), (3, 1), (3, 4), (4, 0), (4, 2),
))

# per-vertex pairing that reproduces the girth-5 disk list (the block graph
# is then the Petersen graph); uniform Parallel gives the girth-3 variant
_K5_GIRTH5_MODES = (PairingMode.CROSSED, PairingMode.PARALLEL, PairingMode.CROSSED,
                    PairingMode.PARALLEL, PairingMode.CROSSED)


def k5_reference_system(variant: str) -> CubicSystem:
    """The two pinned disk assignments of the 5-disk K5 system.

    variant="girth5": block graph isomorphic to Petersen, girth 5.
    variant="girth3": same orientation, different pairing, girth 3.
    """
    if variant == "girth5":
        policy = _K5_GIRTH5_MODES
    elif variant == "girth3":
        policy = PairingMode.PARALLEL
    else:
        raise CatalogError(f"unknown variant {variant!r}")
    return build_cubic(K5_ORIENTATION, policy)


_CATALOG_BUILDERS = {
    "k5": lambda: cage(3),
    "k44": lambda: cage(4),
    "robertson": lambda: cage(5),
    "pg23": lambda: cage(6),
    "cage7": lambda: cage(7),
    "petersen": petersen,
}


def by_name(name: str) -> CatalogEntry:
    try:
        builder = _CATALOG_BUILDERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog graph {name!r}; available: {sorted(_CATALOG_BUILDERS)}"
        )
    return builder()


def catalog_names() -> List[str]:
    return sorted(_CATALOG_BUILDERS)


# configuration-model draws before random_regular gives up
RANDOM_REGULAR_TRIES = 2000


def _simple_pairing(getrandbits, stubs: List[int], n: int) -> Optional[Set[int]]:
    """Shuffle `stubs` with the draws of `random.shuffle` and pair positions
    (0, 1), (2, 3), ...; return the pairs as keys u * n + v with u < v, or
    None if a loop or a repeated pair comes up.

    Step i draws j = getrandbits(k) again while j > i, then fixes position i,
    so pair (i, i + 1) is checked as soon as step i, for even i, is done.  A
    final position is never read again: its stub is kept in u or v, and
    only the stub it displaces is written, to position j.  From the first
    loop or repeated pair on, `keys` is None and the steps left only draw,
    with no swap and no set insert, so the next try sees the random stream
    that a full shuffle leaves.
    """
    keys = set()
    v = 0
    top = len(stubs) - 1
    while top >= 0:
        # steps top, ..., end share the draw width k = (i + 1).bit_length()
        # that random.shuffle uses on CPython 3.10-3.13; step 0 is no shuffle
        # step and draws getrandbits(0), which is 0 and uses no state
        k = (top + 1).bit_length() if top else 0
        end = (1 << k - 1) - 1 if top else 0
        for i in range(top, end - 1, -1):
            if keys is None:
                while getrandbits(k) > i:
                    pass
                continue
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            if i & 1:
                v = stubs[j]
                stubs[j] = stubs[i]
                continue
            u = stubs[j]
            stubs[j] = stubs[i]
            key = u * n + v if u < v else v * n + u
            if u == v or key in keys:
                keys = None
            else:
                keys.add(key)
        top = end - 1
    return keys


def random_regular(d: int, n: int, seed: int) -> Graph:
    """Connected simple d-regular graph on n vertices via the configuration
    model with rejection; deterministic per (d, n, seed).

    Each try shuffles the stub list [0]*d + [1]*d + ... as `random.shuffle`
    would and pairs it up; a try with a loop or a repeated pair costs only
    its remaining random draws.  The graph depends only on the
    `getrandbits` stream of `random.Random`, not on `random.shuffle`.
    """
    if n <= d or n * d % 2:
        raise GenerationFailed(
            f"a {d}-regular graph needs more than {d} vertices and an even n*d"
        )
    rng = random.Random(f"{d}reg:{n}:{seed}")
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(RANDOM_REGULAR_TRIES):
        keys = _simple_pairing(rng.getrandbits, stubs[:], n)
        if keys is None:
            continue
        g = Graph(n, [divmod(key, n) for key in sorted(keys)])
        if is_connected(g):
            return g
    raise GenerationFailed(f"no simple connected {d}-regular graph after {RANDOM_REGULAR_TRIES} tries")


def random_4_regular(n: int, seed: int) -> Graph:
    return random_regular(4, n, seed)


def random_cubic(n: int, seed: int) -> Graph:
    return random_regular(3, n, seed)
