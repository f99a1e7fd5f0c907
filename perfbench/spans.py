"""Span tracer for the traced benchmark run.

The tracer replaces the module attributes through which each patex layer is
called with thin wrappers, records one span per call in memory and puts the
original attributes back afterwards. Nothing inside ``src/`` changes: a
layer is visible exactly where another module (or the benchmark) looks it up
by attribute at call time.

Functions called about a million times per pass (``_greedy_sdr``,
``_Frontier.advance``) are deliberately not wrapped; their work shows up as
``search.exact_ex.nodes``, which ``exact_ex`` reports in its provenance.
"""

from __future__ import annotations

import importlib
import time


def _count(key, fn):
    def observe(counts, result):
        counts[key] = counts.get(key, 0) + fn(result)
    return observe


_found = _count("found", lambda r: r is not None)

# (module, attribute path, layer name, observer). One layer name may cover
# several bindings of the same function: ``count.count_copies`` is both the
# public function and ``_count_copies`` as ``increment`` imports it, and
# ``matrix.find_embedding`` is every module's binding of the kernel.
LAYERS = (
    ("patex.search", "exact_ex", "search.exact_ex",
     _count("nodes", lambda r: r.provenance.get("nodes", 0))),
    ("patex.search", "extremal_table", "search.extremal_table", None),
    ("patex.search", "deletion_lower_bound", "search.deletion_lower_bound",
     _count("deletions", lambda r: r.provenance["deletions"])),
    ("patex.matrix", "find_embedding", "matrix.find_embedding", _found),
    ("patex.search", "find_embedding", "matrix.find_embedding", _found),
    ("patex.cache", "find_embedding", "matrix.find_embedding", _found),
    ("patex.cache", "CacheStore.get", "cache.get", _count("hits", lambda r: r is not None)),
    ("patex.cache", "CacheStore.put", "cache.put", None),
    ("patex.count", "count_copies", "count.count_copies", None),
    ("patex.increment", "_count_copies", "count.count_copies", None),
    ("patex.increment", "build_column_hypergraph", "ohypergraph.build_column_hypergraph",
     _count("edges", lambda r: len(r[0].edges))),
    ("patex.increment", "find_ordered_complete_t_partite",
     "ohypergraph.find_ordered_complete_t_partite", _found),
    ("patex.increment", "run_driver", "increment.run_driver",
     _count("levels", lambda r: len(r.levels))),
    ("patex.increment", "_horizontal_step", "increment.step",
     _count("embedded", lambda r: r.kind == "embedded")),
    ("patex.increment", "symmetric_increment_step", "increment.step",
     _count("embedded", lambda r: r.kind == "embedded")),
    ("patex.cycles", "cycle_driver", "cycles.cycle_driver", None),
    ("patex.cycles", "dense_or_balanced", "cycles.dense_or_balanced", None),
    ("patex.cycles", "embed_xmonotone_balanced", "cycles.embed_xmonotone_balanced", _found),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


class Tracer:
    """Spans are ``[id, parent id, op index, name, start, end]`` lists; the
    parent id is -1 for a span opened directly by the benchmark's op loop.
    ``counts[name]`` holds ``calls`` plus the observer's counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict] = {name: {"calls": 0} for name in LAYER_NAMES}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, observe):
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = clock()
            counts["calls"] += 1
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, path, name, observe in LAYERS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_seconds(self, scale: list[float]) -> dict[str, float]:
        """Per layer, the summed span durations minus the time covered by
        each span's direct children (spans nest strictly: one thread), in
        reference seconds: a span inside op i is scaled by ``scale[i]``."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: 0.0 for name in LAYER_NAMES}
        for sid, _, op, name, start, end in self.spans:
            out[name] += (end - start - covered[sid]) * scale[op]
        return out
