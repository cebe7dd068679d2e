"""Span tracing by rebinding idindex module attributes.

``Tracer.install`` replaces each traced function, in every loaded
``idindex`` module that binds it, with a wrapper that records a span
``(name, start, end, parent, instance)``.  Spans stay in memory; ``dump``
writes them out once the run ends.  Nothing is wrapped unless a tracer is
installed, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, span name)
TRACED = (
    ("idindex.cli", "run", "cli.run"),
    ("idindex.solvers", "id_index_exact", "solvers.exact"),
    ("idindex.solvers", "greedy_upper_bound", "solvers.greedy"),
    ("idindex.solvers", "id_number_exact", "solvers.id_number"),
    ("idindex.graphs", "all_pairs_distances", "graphs.bfs"),
    ("idindex.graphs", "parse_edge_list", "graphs.parse"),
    ("idindex.structure", "tuplet_classes", "structure.twins"),
    ("idindex.strings_codes", "string_table", "strings_codes.string_table"),
    ("idindex.strings_codes", "code_table", "strings_codes.code_table"),
    ("idindex.strings_codes", "first_collision", "strings_codes.collision_check"),
    ("idindex.families", "generate", "families.generate"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        # (instance, nodes searched, nodes of the exhausted level k-1)
        self.exact_counts: list[tuple[str, int, int]] = []
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._instance = None
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "idindex"]
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()

    @contextmanager
    def instance(self, label: str):
        self._instance = label
        try:
            yield
        finally:
            self._instance = None

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            if name in active:  # recursive call: the outer span covers it
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active.discard(name)
                stack.pop()
                spans[idx] = (name, start, end, parent, self._instance)
            if name == "solvers.exact":
                witness = result.infeasibility
                km1 = witness.nodes if witness and witness.certified_by == "exhaustive-search" else 0
                self.exact_counts.append((self._instance, result.nodes_searched, km1))
            return result

        return traced

    def totals(self):
        """Per span name: total seconds, self seconds and call count."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls

    def dump(self, path) -> None:
        """JSON lines: first the instance labels, then one span per line as
        ``[name, start_us, end_us, parent, instance index]``, with times in
        microseconds from the first span's start."""
        labels = list(dict.fromkeys(span[4] for span in self.spans))
        index = {label: i for i, label in enumerate(labels)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"instances": labels}) + "\n")
            for name, start, end, parent, instance in self.spans:
                us = (round((start - t0) * 1e6), round((end - t0) * 1e6))
                fh.write(json.dumps([name, *us, parent, index[instance]]) + "\n")
