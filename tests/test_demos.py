"""Each demo's main() runs to the end and prints its key result."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

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
