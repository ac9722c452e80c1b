"""Outside-in tracer for fogplan's layers.

The tracer replaces public fogplan functions with timing wrappers from
outside the package; nothing under ``src/`` knows it exists.  Consumer
modules bind names with ``from .common import make_solution``, so a
wrapper is installed in every ``fogplan`` module that holds the
original object, not only in the defining module.  Methods are patched
on their class.  ``restore`` puts every original back.

Spans (layer id, parent span, start, end) are kept in flat arrays so
that a traced run of a million spans stays small.  A layer's self time
is the sum of its spans' durations minus the durations of their direct
child spans.  Very hot leaf functions are only counted, never timed:
their cost stays inside the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

SPAN = "span"
COUNT = "count"
COUNT_TRUE = "count_true"

#: (module, attribute or Class.method, layer name, kind).  Order matters
#: where two entries wrap the same callable: the later one wraps the
#: earlier wrapper.
PATCHES = (
    ("fogplan.scenario", "build_instance", "scenario.build", SPAN),
    ("fogplan.model", "latency_matrix", "model.latency_matrix", SPAN),
    ("fogplan.fsdp", "evaluate", "fsdp.evaluate", SPAN),
    ("fogplan.fsdp", "ProblemInstance.as_assignment", "fsdp.as_assignment", SPAN),
    ("fogplan.fsdp", "fog_utilization", "fsdp.fog_utilization", SPAN),
    ("fogplan.fsdp", "availability_objective", "fsdp.availability_objective", SPAN),
    ("fogplan.fsdp", "capacity_violation", "fsdp.capacity_violation", SPAN),
    ("fogplan.fsdp", "deadline_violation", "fsdp.deadline_violation", SPAN),
    ("fogplan.timing", "response_time_report", "timing.response_time_report", SPAN),
    ("fogplan.moea.common", "make_solution", "moea.make_solution", SPAN),
    ("fogplan.moea.common", "fast_nondominated_sort", "moea.fast_nondominated_sort", SPAN),
    ("fogplan.moea.common", "crowding_distance", "moea.crowding_distance", SPAN),
    ("fogplan.moea.common", "ParetoArchive.add", "moea.archive_add", SPAN),
    ("fogplan.moea.common", "ParetoArchive.add", "moea.archive_add.accepted", COUNT_TRUE),
    ("fogplan.moea.common", "generation_stats", "moea.generation_stats", SPAN),
    ("fogplan.moea.common", "select_compromise", "moea.select_compromise", SPAN),
    ("fogplan.moea.common", "uniform_crossover", "moea.variation", SPAN),
    ("fogplan.moea.common", "reset_mutation", "moea.variation", SPAN),
    ("fogplan.moea.common", "constrained_dominates", "moea.constrained_dominates", COUNT),
    ("fogplan.oracle", "exact_pareto", "oracle.exact_pareto", SPAN),
    # only the oracle's own binding: every assignment it enumerates
    ("fogplan.oracle", "=make_solution", "oracle.enumerated", COUNT),
)


def _resolve(module_name: str, target: str):
    """(owner, attribute, sites) for one patch entry.

    ``sites`` lists every (namespace object, attribute) holding the
    original: the class for a method, one module for a ``=name`` entry,
    and every loaded fogplan module holding the same object otherwise.
    """
    module = importlib.import_module(module_name)
    if "." in target:
        cls_name, attr = target.split(".")
        cls = getattr(module, cls_name)
        return getattr(cls, attr), [(cls, attr)]
    if target.startswith("="):
        attr = target[1:]
        return getattr(module, attr), [(module, attr)]
    original = getattr(module, target)
    sites = [
        (mod, target)
        for name, mod in sorted(sys.modules.items())
        if (name == "fogplan" or name.startswith("fogplan.")) and mod is not None
        and mod.__dict__.get(target) is original
    ]
    return original, sites


class Tracer:
    """Records spans and counts for fogplan's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around an algorithm call."""
        idx = self._open(self._layer_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, kind: str):
        if kind == SPAN:
            layer_id = self._layer_id(name)
            opener, closer = self._open, self._close

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = opener(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closer(idx)

        elif kind == COUNT:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        elif kind == COUNT_TRUE:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result:
                    counts[name] += 1
                return result

        else:
            raise ValueError(f"unknown patch kind {kind!r}")
        return wrapper

    def install(self, patches=PATCHES) -> None:
        """Wrap every patch site; call ``restore`` to undo."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, target, name, kind in patches:
                original, sites = _resolve(module_name, target)
                wrapper = self._wrap(original, name, kind)
                for owner, attr in sites:
                    self._saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (self seconds, span count)."""
        layer = np.asarray(self.layer, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(layer, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(layer, minlength=len(self.names))
        return {
            name: (float(self_time[i]), int(calls[i])) for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span (layer, parent, start, end) and the counts."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.asarray(self.layer, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )
