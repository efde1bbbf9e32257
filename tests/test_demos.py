"""Each demo's main() runs to the end and prints its key result, and so
does the README's library quick start."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# demo file -> lines its output must contain
EXPECTED = {
    "01_build_system.py": ["every edge appears in exactly one disk: True"],
    "02_store_and_repair.py": ["recovered bytes identical to originals: True"],
    "03_failure_tolerance.py": [
        # header labels stay apart and right-aligned with the numbers below
        "  disks rec. blocks rec.",
        *(f"every set of {g - 1} failed disks recovers: True" for g in (3, 4, 5, 6)),
    ],
    "04_pairing_matters.py": [
        "any 4 erased blocks recover",
        "any 2 erased blocks recover",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name[:2]}", DEMOS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out


def test_readme_library_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    out = capsys.readouterr().out
    assert "disks:                  19" in out
    assert "disks recoverable:      4" in out
    # the rebuilt disk holds the encoded bytes again
    assert scope["state2"].symbols == scope["state"].symbols
    assert len(scope["report"].recovered) == 3
