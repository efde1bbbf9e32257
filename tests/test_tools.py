"""`tools/code_lines.py`, the counter behind the code-line figures of
CHANGES.md and ROADMAP.md, and `tools/dead_names.py`, the list of library
names that nothing calls."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines").code_lines


SOURCE = '''"""Module docstring
on two lines."""

import os  # a trailing comment keeps its line

# a comment line
def f():
    """One-line docstring."""
    text = """a string on two lines
is code, not a docstring"""
    return text


class C:
    """Class
    docstring."""
    x = 1
'''


def test_code_lines_leave_out_blank_lines_comments_and_docstrings():
    # import, def, the two lines of text, return, class, x
    assert _code_lines()(SOURCE) == 7


# the library names that no library or demo code calls, each with the
# reason it stays; a new one fails the test below until it gets a caller,
# a reason here, or is deleted
UNCALLED = {
    "catalog.random_cubic": "public API of graphdss.catalog, named in the README: "
                            "random_regular's d = 3 case, a generator of decompose inputs",
    "cubic.CubicSystem.edge_owner": "ROADMAP item 2: the recorder's per-disk helper reads "
                                    "give it a library caller; perfbench reads it",
    "cubic.verify_disk_decomposition": "ROADMAP item 5 moves it to the test oracles; "
                                       "perfbench calls it",
    "graphs.two_core": "ROADMAP item 5 moves it to the test oracles; perfbench calls it",
}


def test_every_uncalled_library_name_has_a_reason():
    dead = _tool("dead_names").dead_names(ROOT / "src" / "graphdss", [ROOT / "demos"])
    assert dead == sorted(UNCALLED)


def test_dead_names_counts_names_and_attributes_but_not_dunders_or_init(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    # neither a use nor a definition in __init__.py counts
    (package / "__init__.py").write_text("from .mod import C, unused\nC.n\n\ndef f():\n    pass\n")
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def unused():\n    return 2\n\n"
        "class C:\n"
        "    def __init__(self):\n        pass\n"
        "    def m(self):\n        pass\n"
        "    def n(self):\n        pass\n")
    (callers / "run.py").write_text("from pkg.mod import C, used\nused()\nC().m()\n")
    assert _tool("dead_names").dead_names(package, [callers]) == ["mod.C.n", "mod.unused"]
