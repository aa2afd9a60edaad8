"""Spans and counts around the public functions of thinpart's layers.

The tracer lives entirely in the benchmark: it replaces every module-level
binding of a layer's public function, in every loaded thinpart module, with
a wrapper that records one span per call.  Calls between two functions of
the linalg module are left alone, so a kernel that calls another kernel
(mat_log -> op_norm, frobenius) counts as one linalg call and its own time.

A function that a later change deletes, renames or stops calling simply
records nothing, and every metric derived from it reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# Modules traced, with the short layer name used in metric names.
LAYERS = {
    "thinpart.harness.experiments": "experiments",
    "thinpart.harness.report": "report",
    "thinpart.harness.config": "config",
    "thinpart.slgroup": "slgroup",
    "thinpart.linalg": "linalg",
    "thinpart.analysis": "analysis",
    "thinpart.grassmann": "grassmann",
}

# Leaf layers whose functions call each other inside tight loops; tracing
# those inner calls would swamp the timings of the outer kernel.
_UNTRACED_INTERNAL = {"thinpart.linalg"}


class Tracer:
    """Holds every span in memory until `write_spans` is called.

    stats[name] = [calls, errors, total seconds, self seconds], where self
    time is a span's duration minus the durations of its direct child spans.
    edges[(binder, parent, name)] counts calls of `name` made through the
    namespace of module `binder` while span `parent` was innermost.
    """

    def __init__(self):
        self.stats: dict = {}
        self.edges: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0

    def install(self) -> None:
        targets = {}
        for module_name, layer in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module_name
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[id(obj)] = (obj, f"{layer}.{attr}", module_name)
        binders = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "thinpart" or n.startswith("thinpart."))
        ]
        for binder in binders:
            binder_name = binder.__name__
            short = LAYERS.get(binder_name, binder_name)
            for attr, obj in list(vars(binder).items()):
                hit = targets.get(id(obj))
                if hit is None:
                    continue
                fn, name, home = hit
                if home == binder_name and home in _UNTRACED_INTERNAL:
                    continue
                setattr(binder, attr, self._wrap(fn, name, short))

    def _wrap(self, fn, name: str, binder: str):
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            edges[(binder, parent[2] if parent else None, name)] += 1
            frame = [0.0, self._next_id, name]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[1] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[2] += duration
                stats[3] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                spans.append((frame[1], parent[1] if parent else None, name, start, end))

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def errors(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[1]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0.0))[2]

    def us_per_call(self, name: str, self_time: bool = False) -> float:
        entry = self.stats.get(name)
        if not entry or entry[0] == 0:
            return 0.0
        return 1e6 * entry[3 if self_time else 2] / entry[0]

    def edge_count(self, binder: str | None = None, parent: str | None = None,
                   name: str | None = None) -> int:
        """Calls matching every given key of the (binder, parent, name) edge."""
        return sum(
            n for (b, p, c), n in self.edges.items()
            if (binder is None or b == binder)
            and (parent is None or p == parent)
            and (name is None or c == name)
        )

    def write_spans(self, path) -> None:
        """One JSON array [id, parent id, name, start s, end s] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
