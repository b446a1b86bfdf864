"""Span tracing of qtchar's layers from outside the package.

The tracer replaces public entry points with wrappers on the module
attribute that callers look up at call time (``qtchar.fm.sl2_simple_qt``,
``qtchar.fusion.twisted_product``, ...), so nothing under ``src/`` changes.
Each wrapped call records one span ``(id, parent, name, start_ns, end_ns)``
in memory; the spans are written out once, when the traced process ends.

A call made while a span named in its ``absorb`` set is innermost records
no span of its own, so its time stays in that span's self time: rank-one
template products are booked under ``sl2.template``, and the coefficient
checks inside ``annotate_character`` under ``jordan.decode``.

Counts are taken at the same boundaries, from the arguments and results.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

COUNTS = ("fm.terms", "sl2.template_calls", "sl2.template_misses",
          "fusion.pairs", "fusion.terms_out", "jordan.non_lefschetz",
          "serialize.bytes")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = [(0, "")]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.template_keys: set = set()
        self._next = 1

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self.stack[-1][0]
        self.stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str, absorb=frozenset(), count=None):
        """Span-recording wrapper of ``fn``; ``count(args, result,
        absorbed)`` runs after every call."""

        def traced(*args, **kwargs):
            if self.stack[-1][1] in absorb:
                result = fn(*args, **kwargs)
                if count:
                    count(args, result, True)
                return result
            with self.span(name):
                result = fn(*args, **kwargs)
            if count:
                count(args, result, False)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced entry point of the qtchar package."""
        c = self.counts

        def fm_terms(_args, chi, _absorbed):
            c["fm.terms"] += len(chi)

        def template(args, _chi, _absorbed):
            c["sl2.template_calls"] += 1
            self.template_keys.add(tuple(sorted(args[0])))
            c["sl2.template_misses"] = len(self.template_keys)

        def product(args, chi, absorbed):
            if not absorbed:
                c["fusion.pairs"] += len(args[1]) * len(args[2])
                c["fusion.terms_out"] += len(chi)

        def validate(_args, report, _absorbed):
            if not report:
                c["jordan.non_lefschetz"] += 1

        def dumped(_args, text, _absorbed):
            c["serialize.bytes"] += len(text.encode())

        entry_points = [
            (("fm", "cli"), "fundamental_qt", "fm.fundamental", (), fm_terms),
            (("fm",), "audit_expansion", "fm.audit", (), None),
            (("fm",), "sl2_simple_qt", "sl2.template", (), template),
            (("fusion",), "twisted_product", "fusion.product",
             {"sl2.template"}, product),
            (("jordan",), "annotate_character", "jordan.decode", (), None),
            (("jordan",), "validate_poincare", "jordan.validate",
             {"jordan.decode", "jordan.validate"}, validate),
            (("serialize",), "character_to_doc", "serialize.to_doc", (), None),
            (("serialize",), "dumps", "serialize.dumps", (), dumped),
            (("cli",), "main", "cli.main", (), None),
        ]
        for modules, attr, name, absorb, count in entry_points:
            owners = [importlib.import_module(f"qtchar.{m}") for m in modules]
            wrapped = self.wrap(getattr(owners[0], attr), name,
                                frozenset(absorb), count)
            for owner in owners:
                setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans and counts of this process as one JSON file."""
        names = sorted({s[2] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "names": names,
            "spans": [[sid, parent, index[name], start, end]
                      for sid, parent, name, start, end in self.spans],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(doc: dict) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    durations of its direct children."""
    names = doc["names"]
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, start, end in doc["spans"]:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, float] = {}
    for sid, _parent, name, start, end in doc["spans"]:
        own = end - start - child_ns.get(sid, 0)
        out[names[name]] = out.get(names[name], 0.0) + own / 1e9
    return out


def total_times(doc: dict) -> dict[str, float]:
    """Seconds of inclusive time per span name."""
    names = doc["names"]
    out: dict[str, float] = {}
    for _sid, _parent, name, start, end in doc["spans"]:
        out[names[name]] = out.get(names[name], 0.0) + (end - start) / 1e9
    return out
