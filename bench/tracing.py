"""Spans around the benchmark's calls into treemorse, kept in memory.

A span is [name, parent index, start, end]; the parent is the span that
caused it (-1 for none). Spans are recorded only from the benchmark's own
code, around the calls it makes into each module, so a span's self time
(its duration minus its children's) is the time of the calls it made
itself.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class NoTrace:
    """The untraced run: calls go straight through."""

    enabled = False
    rounds_multiple = 1

    def start_round(self, number: int) -> None:
        pass

    def next_op(self) -> None:
        pass

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer(NoTrace):
    """Traces every other operation; the ones between run untraced.

    Operation j of round r is traced when r + j is odd, so over two rounds
    every operation runs once each way, close together in time. Comparing
    the two halves gives the tracing overhead without the drift between two
    separate passes.
    """

    rounds_multiple = 2

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.traced_ops = 0
        self._open = [-1]

    def start_round(self, number: int) -> None:
        self.enabled = number % 2 == 1

    def next_op(self) -> None:
        self.traced_ops += self.enabled
        self.enabled = not self.enabled

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        index = len(self.spans)
        self.spans.append([name, self._open[-1], perf_counter(), 0.0])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if index >= 0:
            self.spans[index][3] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    @contextmanager
    def within(self, index: int):
        """Record the spans opened here as children of an ended span."""
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(inclusive seconds, self seconds, calls) per span name."""
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        own: Counter = Counter()
        for (name, _, start, end), inner in zip(self.spans, children):
            own[name] += end - start - inner
        return inclusive, own, calls

    def write(self, path: Path, header: dict) -> None:
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [ids[name], parent, round((start - t0) * 1e9), round((end - t0) * 1e9)]
            for name, parent, start, end in self.spans
        ]
        doc = {**header, "names": names, "columns": ["name", "parent", "start_ns", "end_ns"],
               "spans": rows, "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# per-layer metric: (unit, how it is read from the traced pass)
LAYER_METRICS = {
    "oracle.labelings": ("count", "count oracle.labelings"),
    "oracle.sweep_s": ("s", "inclusive oracle.sweep"),
    "oracle.ns_per_labeling": ("ns", None),
    "oracle.check_invariants_s": ("s", "inclusive oracle.check_invariants"),
    "oracle.count_merge_classes_s": ("s", "inclusive oracle.count_merge_classes"),
    "oracle.enumerate_dmfs_s": ("s", "inclusive oracle.enumerate_dmfs"),
    "documents.parse_s": ("s", "self documents.parse"),
    "documents.simplices": ("count", "count documents.simplices"),
    "complexes.build_tree_s": ("s", "inclusive complexes.build_tree"),
    "complexes.matching_number_s": ("s", "inclusive complexes.matching_number"),
    "morse.validate_s": ("s", "inclusive morse.validate"),
    "morse.validate_calls": ("count", "calls morse.validate"),
    "merge_tree.induce_s": ("s", "inclusive merge_tree.induce"),
    "merge_tree.nodes": ("count", "count merge_tree.nodes"),
    "merge_tree.render_s": ("s", "inclusive merge_tree.render"),
    "merge_tree.impasse_count_s": ("s", "inclusive merge_tree.impasse_count"),
    "equivalence.homological_s": ("s", "inclusive equivalence.homological"),
    "equivalence.persistence_s": ("s", "inclusive equivalence.persistence"),
    "equivalence.compare_s": ("s", "inclusive equivalence.compare"),
    "stars.thin_from_lr_s": ("s", "inclusive stars.thin_from_lr"),
    "stars.realize_on_star_s": ("s", "inclusive stars.realize_on_star"),
    "stars.lr_sequence_s": ("s", "inclusive stars.lr_sequence"),
    "cli.self_s": ("s", "self cli.main"),
    "setup.import_s": ("s", None),
    "trace.overhead_pct": ("%", None),
}


def layer_values(tracer: Tracer, rounds: float) -> dict[str, float]:
    """Every per-layer metric that the spans give, per round of traced operations."""
    inclusive, own, calls = tracer.totals()
    source = {"inclusive": inclusive, "self": own, "calls": calls, "count": tracer.counts}
    out = {}
    for metric, (_, how) in LAYER_METRICS.items():
        if how is not None:
            kind, name = how.split()
            out[metric] = source[kind][name] / rounds
    swept = tracer.counts["oracle.sweep_labelings"]
    out["oracle.ns_per_labeling"] = inclusive["oracle.sweep"] / swept * 1e9 if swept else 0.0
    return out
