"""Per-layer spans for planarcert, recorded from outside the package.

Tracer.install() replaces each traced public function with a wrapper, and
rebinds every name that refers to it in every loaded planarcert module:
``from .x import f`` leaves a separate reference in each importing module,
so patching only the defining module would miss most calls.  uninstall()
puts the originals back.

A wrapper records a span (id, name, start, end, parent id) and folds its
duration into per-function totals: calls, busy time (the whole span) and
self time (the span minus the spans of traced functions it called).
Searches also count how often they found something and how many of their
calls had distinct arguments within the current operation.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, kind); kind adds a counter beyond calls/busy/self:
#   search   -- result is not None        -> found
#   distinct -- search, plus distinct argument tuples per operation
#   parse    -- edges parsed              -> edges
#   accept   -- result is True            -> found
TRACED = (
    ("cli", "main", ""),
    ("documents", "parse_edge_list", "parse"),
    ("documents", "verdict_to_doc", ""),
    ("documents", "verdict_doc_is_valid", "accept"),
    ("planarity", "decide", ""),
    ("planarity", "decide_via_minor", ""),
    ("embedding", "find_planar_rotation", "distinct"),
    ("embedding", "trace_faces", ""),
    ("subdivision", "find_kuratowski", "distinct"),
    ("subdivision", "find_subdivision", "distinct"),
    ("subdivision", "find_minor", "search"),
    ("subdivision", "minor_to_subdivision", ""),
    ("subdivision", "validate_subdivision", "accept"),
    ("lemmas", "condition1", ""),
    ("lemmas", "condition2", ""),
    ("lemmas", "condition3", ""),
    ("harness", "enumerate_graph_class_masks", ""),
    ("harness", "random_cubic_graph", ""),
    ("harness", "verify_kuratowski", ""),
    ("harness", "verify_kuratowski_classes", ""),
    ("harness", "verify_lemma_characterization", ""),
    ("harness", "verify_chartrand_harary", ""),
    ("harness", "verify_menger_cubic", ""),
    ("harness", "verify_lifting", ""),
    ("graphs", "from_edge_mask", ""),
    ("graphs", "contract_edge", ""),
)

# field order of a per-function totals row
CALLS, BUSY, SELF, FOUND, DISTINCT, EDGES = range(6)
PACKAGE = "planarcert"
SPAN_CAP = 100_000  # spans kept for the span file; later ones are counted


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.totals: dict[str, list] = {}
        self._seen: dict[str, set] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name, kind in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- per-operation totals ----------------------------------------------

    def take_totals(self) -> dict[str, list]:
        """Totals since the last call, with distinct-argument counts closed
        off: distinctness is judged within one operation."""
        for name, seen in self._seen.items():
            self.totals[name][DISTINCT] = len(seen)
        out = self.totals
        self.totals = {}
        self._seen = {}
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                row = tracer.totals.get(name)
                if row is None:
                    row = tracer.totals[name] = [0, 0.0, 0.0, 0, 0, 0]
                row[CALLS] += 1
                row[BUSY] += duration
                row[SELF] += duration - frame[1]
                if kind in ("search", "distinct"):
                    row[FOUND] += result is not None
                elif kind == "accept":
                    row[FOUND] += result is True
                elif kind == "parse" and result is not None:
                    row[EDGES] += len(result.edges)
                if kind == "distinct":
                    key = hash((args, tuple(sorted(kwargs.items()))))
                    tracer._seen.setdefault(name, set()).add(key)
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced
