"""Every library name that `README.md` and `tools/README.md` cite in
backticks exists in `src/graphdss`, so the docs cannot go on naming a
function after it is removed or renamed."""

import importlib
import json
import re
from pathlib import Path

import pytest

import graphdss

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "tools/README.md")
MODULES = {p.stem for p in (ROOT / "src" / "graphdss").glob("*.py")} - {"__init__"}
# a metric key such as `repair.peel.self_s` is read by the function it
# names, less its last part
METRICS = {m["name"] for key in ("end_to_end", "per_layer")
           for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
# a whole code span that is a dotted name, bare, called, or as a metric
# family (`repair.peel.*`)
DOTTED = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\.\*|\([^`]*\))?`")


def _library_root(parts):
    """The module or exported class that a dotted name starts from, and the
    attribute names after it; None for a name that is not the library's
    (a standard-library name, a file name, a local variable)."""
    if parts[0] == "graphdss":
        parts = parts[1:]
    if parts[0] in MODULES:
        return importlib.import_module(f"graphdss.{parts[0]}"), parts[1:]
    exported = getattr(graphdss, parts[0], None)
    if isinstance(exported, type):
        return exported, parts[1:]
    return None


def _has(obj, name):
    # a dataclass field without a default is an annotation, not a class
    # attribute
    return hasattr(obj, name) or isinstance(obj, type) and any(
        name in vars(c).get("__annotations__", {}) for c in obj.__mro__)


def unresolved_names(text):
    """The library names cited in `text` that do not resolve."""
    dead = []
    for name in DOTTED.findall(text):
        parts = name.split(".")
        root = _library_root(parts[:-1] if name in METRICS else parts)
        if root is None:
            continue
        obj, rest = root
        for attr in rest:
            if not _has(obj, attr):
                dead.append(name)
                break
            obj = getattr(obj, attr, None)
    return dead


@pytest.mark.parametrize("doc", DOCS)
def test_every_library_name_in_the_docs_resolves(doc):
    assert unresolved_names((ROOT / doc).read_text(encoding="utf-8")) == []


def test_the_name_check_finds_a_removed_name_and_skips_what_is_not_the_library():
    text = ("`repair.peel` `repair.peel_min_bandwidth` `graphdss.cubic.check_star_layout` "
            "`CubicSystem.source_graph` `CubicSystem.gone()` `cubic.PairingMode.CROSSED` "
            "`analysis.nothing(sys, g)` `zlib.crc32` `header.json` `erased.indices()` "
            "`repair.peel.self_s` `repair.peel.*` `graphs.girth_cycle.*` `two words.x`")
    assert unresolved_names(text) == ["repair.peel_min_bandwidth", "CubicSystem.gone",
                                      "analysis.nothing", "graphs.girth_cycle"]
