"""List the names of a package that nothing calls: its top-level functions
and classes, and the methods of its top-level classes, that no code of the
package (outside its `__init__.py` files) or of the caller directories
refers to, by name or as an attribute.

Run: python3 tools/dead_names.py src/graphdss demos

Prints one `module.name` or `module.Class.method` per line, sorted.  The
scan matches names, not bindings, so a dead function that shares its name
with a used one is missed.  Dunder methods, which Python calls itself, are
left out, and so is a package's `__init__.py`, whose imports and `__all__`
only name what the modules define.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree: ast.Module, module: str) -> Iterator[Tuple[str, str]]:
    """(qualified name, name) of each definition the scan checks."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _used(tree: ast.Module) -> Set[str]:
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _modules(directory: Path) -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(directory.rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def dead_names(package: Path, callers: List[Path]) -> List[str]:
    """The qualified names defined in `package` that no module of
    `package` or of `callers` uses."""
    defined: List[Tuple[str, str]] = []
    used: Set[str] = set()
    for path, tree in _modules(package):
        defined += _defined(tree, ".".join(path.relative_to(package).with_suffix("").parts))
        used |= _used(tree)
    for directory in callers:
        for _, tree in _modules(directory):
            used |= _used(tree)
    return sorted(qualified for qualified, name in defined if name not in used)


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name in dead_names(Path(argv[0]), [Path(p) for p in argv[1:]]):
        print(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
