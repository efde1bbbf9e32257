"""`tools/code_lines.py`, the counter behind the code-line figures of
CHANGES.md and ROADMAP.md, `tools/dead_names.py`, the list of library
names that nothing calls, and `tools/bench_record.py`, the recorder of the
benchmark's end-to-end metrics."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


_E2E = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
_SUMMARY = {"median", "q1", "q3", "min", "max", "values"}


def _bench_record(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)


def test_bench_record_writes_a_record_of_this_checkout(tmp_path):
    out = tmp_path / "bench.json"
    proc = _bench_record("--out", str(out), "--workload", "certify", "--runs", "1",
                         "--seconds", "0", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"commit", "python", "runs", "seed", "seconds", "code_lines",
                           "probe_ms", "workloads"}
    assert set(record["commit"]) == {"head", "dirty"}
    assert (record["runs"], record["seed"], record["seconds"]) == (1, 3, 0)
    assert record["code_lines"] > 0
    assert set(record["workloads"]) == {"certify"}
    for metric in record["workloads"]["certify"].values():
        assert set(metric) == _SUMMARY and len(metric["values"]) == 1
    assert set(record["workloads"]["certify"]) == _E2E
    assert set(record["probe_ms"]) == {"certify"}
    probe = record["probe_ms"]["certify"]
    assert set(probe) == _SUMMARY and len(probe["values"]) == 1 and probe["median"] > 0


def test_bench_record_pairs_a_tree_with_itself():
    proc = _bench_record("--pairs", str(ROOT), str(ROOT), "--workload", "certify",
                         "--runs", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["workload"], result["pairs"]) == ("certify", 1)
    assert set(result["metrics"]) == _E2E
    verdicts = [line.split() for line in proc.stdout.splitlines() if line.startswith("verdict ")]
    assert [name for _, name, _ in verdicts] == list(result["metrics"])
    for metric in result["metrics"].values():
        assert set(metric) == {"parent", "change", "change_won", "verdict"}
        assert set(metric["parent"]) == set(metric["change"]) == _SUMMARY
        assert 0 <= metric["change_won"] <= 1
        assert metric["verdict"] in {"gain", "worse", "unresolved", "same"}
    assert {name: v for _, name, v in verdicts} == {
        name: metric["verdict"] for name, metric in result["metrics"].items()}
    assert set(result["probe_ms"]) == {"parent", "change"}
    for probe in result["probe_ms"].values():
        assert set(probe) == _SUMMARY and len(probe["values"]) == 1


def test_bench_record_refuses_a_run_that_is_not_correct(tmp_path):
    # a tree whose benchmark reports one failed operation
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\nprint(json.dumps({'correct': False, 'attempted': 1, 'failed': 1,"
        " 'metrics': {}}))\n")
    proc = _bench_record("--pairs", str(tmp_path), str(ROOT), "--workload", "certify",
                         "--runs", "1", "--seconds", "0")
    assert proc.returncode == 1
    assert "refused, a run failed" in proc.stderr


def test_bench_record_refuses_a_run_without_a_probe_median(tmp_path):
    # a correct run whose first line does not give the speed probe's median
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\nprint('# certify  seed=1  ops=1  failed=0  trace=0')\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    proc = _bench_record("--pairs", str(tmp_path), str(ROOT), "--workload", "certify",
                         "--runs", "1", "--seconds", "0")
    assert proc.returncode == 1
    assert "no probe_ms_median=" in proc.stderr


def test_bench_record_refuses_pairs_of_an_unknown_workload():
    # --pairs runs any workload of the trees' harness, cli-4k too; a name
    # that the harness does not know is a run that fails
    proc = _bench_record("--pairs", str(ROOT), str(ROOT), "--workload", "no-such-workload",
                         "--runs", "1", "--seconds", "0")
    assert proc.returncode == 1
    assert "bench_record: refused, a run failed" in proc.stderr


def test_bench_record_records_only_the_gated_workloads(tmp_path):
    out = tmp_path / "bench.json"
    proc = _bench_record("--out", str(out), "--workload", "cli-4k", "--runs", "1")
    assert proc.returncode == 2
    assert "--out records only the gated workloads" in proc.stderr
    assert not out.exists()


_WIDE = [5, 15] * 5  # median 10, quartiles 5 and 15


@pytest.mark.parametrize("parent, change, better, expected", [
    # won 10 of 10, and the medians differ by 3, more than the parent's IQR
    ([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [8] * 10, "lower", "gain"),
    ([10] * 10, [9] * 9 + [10], "lower", "gain"),  # 9 of 10 is enough
    ([10] * 10, [9] * 8 + [10] * 2, "lower", "same"),  # ties count for neither
    ([10, 10.1] * 5, [12.6] * 10, "lower", "worse"),  # 25 % over a 24 % bound
    ([1.0] * 10, [0.7] * 10, "higher", "worse"),
    (_WIDE, [10] * 10, "lower", "unresolved"),  # an IQR of 100 % of the median
    (_WIDE, [4] * 10, "lower", "same"),  # every change run beats every parent run
    ([10] * 10, [10.5] * 10, "lower", "same"),
])
def test_bench_record_verdicts(monkeypatch, parent, change, better, expected):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    assert _tool("bench_record").verdict(parent, change, better, 0.24) == expected
