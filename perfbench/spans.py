"""Span recorder for the traced benchmark run.

Each traced library function is replaced, in every ``graphdss`` module that
binds it, by a wrapper that records (name, start, end, parent) with
``time.perf_counter_ns``.  Rebinding every module's name, not only the
defining one, makes calls from one layer into another visible, e.g.
``analysis`` -> ``repair.peel`` or ``cli`` -> ``code.encode``.  Spans stay in
memory and are aggregated once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns
from typing import Dict, List, Tuple

# <module>.<function> of every traced public function, grouped by layer.
TRACED = (
    "graphs.girth",
    "graphs.two_core",
    "catalog.random_4_regular",
    "catalog.cage",
    "orientation.eulerian_tour",
    "orientation.orient_from_tour",
    "cubic.build_cubic",
    "cubic.decompose_p4",
    "cubic.verify_disk_decomposition",
    "code.derive_code",
    "code.gf2_rank",
    "code.encode",
    "code.verify_state",
    "code.minimum_distance",
    "repair.peel",
    "repair.peel_min_bandwidth",
    "repair.repair_disks",
    "repair.repair_disk",
    "repair.repair_state",
    "analysis.profile",
    "analysis.verify_recovery_bound",
    "analysis.girth_cycle_vertices",
    "cli.main",
)


class SpanRecorder:
    """Records one span per call of each installed function."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int]] = []  # name, start, end, parent
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def mark(self) -> int:
        """Index of the next span; brackets the spans of a timed region."""
        return len(self.spans)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0, 0, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED; a name the program no longer has is
        recorded in ``absent`` rather than raising."""
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            try:
                module = importlib.import_module(f"graphdss.{mod_name}")
            except ImportError:
                self.absent.append(qual)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(qual)
                continue
            wrapper = self._wrap(qual, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("graphdss"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per function: calls, inclusive seconds, self seconds (inclusive
        minus the time of its direct child spans)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {q: {"calls": 0, "s": 0.0, "self_s": 0.0} for q in TRACED}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def root_seconds(self, windows: List[Tuple[int, int]]) -> float:
        """Summed duration of the top-level spans opened inside the given
        [first, last) span-index windows."""
        total = 0
        for first, last in windows:
            for _, start, end, parent in self.spans[first:last]:
                if parent < 0:
                    total += end - start
        return total / 1e9
