"""Shipped regression fixtures: hand-transcribed character tables.

Each fixture is a character JSON document extended with the data needed to
recompute it (``kind`` plus node/shift or factor list).  ``partial``
fixtures pin a subset of coefficients; complete ones require exact term
and (optionally) string-edge agreement.
"""

from __future__ import annotations

import json
from importlib import resources

from ..charalg import parse_monomial, render_monomial
from ..rootdata import parse_type
from ..tpoly import TPoly

_NAMES = (
    "d4-fund-2",
    "a2-std-1x0-1x0",
    "a2-std-1x0-2x1",
    "e6-fund-3-partial",
)


def fixture_names() -> tuple[str, ...]:
    return _NAMES


def load_fixture(name: str) -> dict:
    path = resources.files(__package__).joinpath(f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def compute_fixture_character(doc: dict):
    """Recompute the character a fixture document describes."""
    from ..fm import fundamental_qt
    from ..fusion import standard_module_qt

    datum = parse_type(doc["type"])
    if doc["kind"] == "fundamental":
        return fundamental_qt(datum, doc["node"], doc.get("shift", 0),
                              doc.get("orbit", "a"))
    if doc["kind"] == "standard":
        return standard_module_qt(datum, [tuple(f) for f in doc["factors"]])
    raise ValueError(f"unknown fixture kind {doc['kind']!r}")


def verify_fixture(doc: dict) -> list[str]:
    """Recompute a fixture and diff it exactly.

    Returns a list of human-readable mismatch lines; empty means pass.
    """
    from ..fm import string_edges

    datum = parse_type(doc["type"])
    chi = compute_fixture_character(doc)

    def canon(text: str) -> str:
        return render_monomial(parse_monomial(text, datum))

    expected = {canon(t["monomial"]): TPoly.from_pairs(t["coeff"])
                for t in doc["terms"]}
    computed = {chi.window.text(m): c for m, c in chi.terms.items()}

    mismatches = []
    for text, coeff in expected.items():
        got = computed.get(text)
        if got is None:
            mismatches.append(f"missing monomial {text}")
        elif got != coeff:
            mismatches.append(
                f"coefficient of {text}: expected {coeff}, got {got}")
    if not doc.get("partial", False):
        for text in sorted(set(computed) - set(expected)):
            mismatches.append(f"unexpected monomial {text}")

    if "edges" in doc:
        want = {(canon(a), canon(b), i) for a, b, i in doc["edges"]}
        text = chi.window.text
        got = {(text(src), text(dst), i)
               for src, dst, i, _step in string_edges(chi)}
        for edge in sorted(want - got):
            mismatches.append(f"missing edge {edge[0]} -> {edge[1]} "
                              f"(direction {edge[2]})")
        for edge in sorted(got - want):
            mismatches.append(f"unexpected edge {edge[0]} -> {edge[1]} "
                              f"(direction {edge[2]})")
    return mismatches
