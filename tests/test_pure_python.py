"""The package stays pure Python with no runtime dependency: every module
imports only the standard library and graphdss itself."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "graphdss").glob("*.py"))


def _imported_top_level_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_the_standard_library():
    assert SOURCES
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in _imported_top_level_modules(path)
        if name != "graphdss" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
    assert sum(line.startswith("dependencies") for line in lines) == 1


def _unused_imports(path: Path):
    """(module file, name) for each name that an import binds and the
    module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.name, name) for name in bound - read}


def test_modules_import_no_name_they_do_not_use():
    # __init__.py imports names to re-export them
    assert SOURCES
    unused = set().union(*(_unused_imports(p) for p in SOURCES if p.name != "__init__.py"))
    assert unused == set()


def _imported_names(path: Path):
    """(absolute module, name) for each name a `from ... import` binds;
    a relative module resolves inside graphdss."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(["graphdss"] * bool(node.level) + [node.module or ""]).rstrip(".")
            names |= {(module, alias.name) for alias in node.names}
    return names


def test_theorems_stand_in_for_the_computations_they_replaced():
    # the star-layout theorem proves the witness unrecoverable, so the
    # bound needs no peel; Hierholzer's walk proves the tour's
    # connectivity, so the tour needs no BFS
    src = ROOT / "src" / "graphdss"
    from_repair = {(m, n) for m, n in _imported_names(src / "analysis.py")
                   if m == "graphdss.repair" or (m, n) == ("graphdss", "repair")}
    assert from_repair == set()
    assert "bfs_tree" not in {n for _, n in _imported_names(src / "orientation.py")}


def _incidence_reads(path: Path):
    """Line numbers at which a module reads an attribute `_incidence`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_incidence"
                  and isinstance(node.ctx, ast.Load))


def test_only_graphs_reads_the_private_incidence():
    # the BFS loops of graphs.py read Graph._incidence once per call;
    # every other module asks `Graph.incident`
    assert _incidence_reads(ROOT / "src" / "graphdss" / "graphs.py")
    readers = {(p.name, line) for p in SOURCES if p.name != "graphs.py"
               for line in _incidence_reads(p)}
    assert readers == set()


def _byte_conversions(path: Path):
    """(module file, method) for each call of `int.from_bytes` or of a
    `.to_bytes` method in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.name, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "to_bytes"
                 or (node.func.attr == "from_bytes" and isinstance(node.func.value, ast.Name)
                     and node.func.value.id == "int"))]


def test_blocks_convert_in_one_reader_and_one_writer():
    # fill_edges and verify_state share code.py's block reader, and
    # fill_edges alone writes a block back to bytes
    calls = sorted(c for p in SOURCES for c in _byte_conversions(p))
    assert calls == [("code.py", "from_bytes"), ("code.py", "to_bytes")]


def _called_names(path: Path):
    """The name of the function or method of each call in a module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _open_modes(path: Path):
    """The mode of each `open(...)` call in a module: its second argument or
    its `mode=` keyword, "r" if it has neither, None if it is not a string
    literal."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            yield mode.value if isinstance(mode, ast.Constant) else None


def test_files_are_parsed_by_one_reader():
    # graphs.read_json_file is the one parse of a JSON file from outside the
    # program (graph, orientation, cage-7 and system files, state headers):
    # it reads bytes and decodes them as UTF-8, and no file is read in text
    # mode, whose decoding the locale would choose
    names = [(p.name, name) for p in SOURCES for name in _called_names(p)]
    assert sorted(c for c in names if c[1] in ("loads", "parse_json", "from_json")) == [
        ("graphs.py", "loads")]
    assert not [c for c in names if c[1] == "read_text"]
    modes = [(p.name, mode) for p in SOURCES for mode in _open_modes(p)]
    assert ("graphs.py", "rb") in modes
    text_reads = [(name, mode) for name, mode in modes if mode is None or (
        ("+" in mode or not set(mode) & set("wax")) and "b" not in mode)]
    assert text_reads == []
