"""Character JSON schema.

A character document looks like::

    {
      "type": "D4",
      "orbits": ["a"],
      "highest": "2_0",
      "terms": [
        {"monomial": "1_1 2_2^-1 3_1 4_1",
         "w": {"2_0": 1},
         "v": {"2_1": 1},
         "coeff": [[0, 1]]},
        ...
      ]
    }

``coeff`` is the list of [t-exponent, coefficient] pairs sorted by
exponent; ``w``/``v`` use the same ``i_n[@orbit]`` key syntax as monomial
factors.  Terms are sorted by lowering degree, then canonical monomial
order, so serialization is byte-stable.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import re

from .charalg import (
    HIGHEST,
    Character,
    Window,
    parse_monomial,
    render_monomial,
)
from .errors import MixedHighestWeight, OutsideWindow, ParseError
from .rootdata import parse_type
from .tpoly import TPoly

_KEY_RE = re.compile(r"^(\d+)_(-?\d+)(?:@([A-Za-z][A-Za-z0-9]*))?$")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _render_map(table: dict) -> dict:
    out = {}
    for (orbit, node, shift), mult in sorted(table.items()):
        tag = f"{node}_{shift}" + (f"@{orbit}" if orbit != "a" else "")
        out[tag] = mult
    return out


def _parse_map(doc) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"exponent map {doc!r} is not an object")
    out = {}
    for tag, mult in doc.items():
        m = _KEY_RE.match(tag)
        if not m:
            raise ParseError(f"malformed exponent key {tag!r}")
        if not _is_int(mult):
            raise ParseError(f"exponent {mult!r} at {tag!r} is not an integer")
        if mult:
            orbit = m.group(3) or "a"
            out[(orbit, int(m.group(1)), int(m.group(2)))] = mult
    return out


def _parse_coeff(pairs) -> TPoly:
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
            for p in pairs)):
        raise ParseError(f"coefficient {pairs!r} is not a list of "
                         f"[t-exponent, integer] pairs")
    return TPoly.from_pairs(pairs)


def character_to_doc(chi: Character, annotations: dict | None = None) -> dict:
    window = chi.window
    w = _render_map(chi.w)
    doc = {
        "type": f"{chi.datum.family}{chi.datum.rank}",
        "orbits": list(window.orbits),
        "highest": render_monomial(chi.w),
        "terms": [],
    }
    for m, y, coeff in chi.sorted_terms():
        term = {
            "monomial": render_monomial(y),
            "w": w,
            "v": _render_map(window.v(m)),
            "coeff": [[e, c] for e, c in coeff.pairs()],
        }
        if annotations is not None and m in annotations:
            profile = annotations[m]
            term["jordan"] = {
                "n": profile.n,
                "blocks": list(profile.blocks),
                "graded": list(profile.graded),
            }
        doc["terms"].append(term)
    return doc


def character_from_doc(doc) -> Character:
    """Read a character document; ParseError on anything malformed.

    Raises MixedHighestWeight if terms do not share the highest monomial's
    w, since one character cannot hold them; it carries every coefficient
    so they can still be checked."""
    if not isinstance(doc, dict):
        raise ParseError("a character document must be a JSON object")
    for field in ("type", "highest", "terms"):
        if field not in doc:
            raise ParseError(f"character document has no {field!r}")
    if not isinstance(doc["type"], str) or not isinstance(doc["highest"], str):
        raise ParseError("'type' and 'highest' must be strings")
    entries = doc["terms"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries):
        raise ParseError("'terms' must be a list of objects")
    datum = parse_type(doc["type"])
    rows = []
    w = None
    for entry in entries:
        text = entry.get("monomial")
        if not isinstance(text, str):
            raise ParseError(f"term monomial {text!r} is not a string")
        if "w" not in entry or "v" not in entry or "coeff" not in entry:
            raise ParseError(f"term {text!r} is missing w/v/coeff")
        row = (text, _parse_map(entry["w"]), _parse_map(entry["v"]),
               _parse_coeff(entry["coeff"]))
        rows.append(row)
        if not row[2]:
            w = row[1]
    if w is None:
        raise ParseError("character document has no monomial with v = 0")
    windows: dict = {}
    terms, mixed = {}, []
    for text, tw, v, coeff in rows:
        key = tuple(sorted(tw.items()))
        if key not in windows:
            windows[key] = _window(datum, tw, doc["type"])
        window = windows[key]
        try:
            m = window.pack(v)
        except OutsideWindow as err:
            raise ParseError(f"term {text!r}: {err}") from err
        y = window.y(m)
        if y != parse_monomial(text, datum):
            raise ParseError(
                f"term {text!r}: stated monomial does not match its (w, v) "
                f"payload, which yields {render_monomial(y)!r}")
        if tw == w:
            terms[m] = coeff
        else:
            mixed.append((m.vdeg, y, coeff))
    chi = Character(windows[tuple(sorted(w.items()))], terms)
    if parse_monomial(doc["highest"], datum) != chi.window.y(HIGHEST):
        raise ParseError("stated highest monomial is not the v = 0 term")
    if mixed:
        every = [(m.vdeg, y, c, False) for m, y, c in chi.sorted_terms()]
        every += [(vdeg, y, c, True) for vdeg, y, c in mixed]
        every.sort(key=lambda term: (term[0], tuple(term[1].items())))
        raise MixedHighestWeight(
            f"{len(mixed)} terms do not share the highest monomial's w, "
            f"first {render_monomial(mixed[0][1])!r}",
            [(render_monomial(y), c, differs) for _d, y, c, differs in every],
            terms.get(HIGHEST))
    return chi


def _window(datum, w: dict, type_name: str) -> Window:
    if not all(1 <= node <= datum.rank and mult >= 0
               for (_o, node, _n), mult in w.items()):
        raise ParseError(f"highest weight {render_monomial(w)!r} is not a "
                         f"product of Y-variables of {type_name}")
    try:
        return Window(datum, w)
    except OutsideWindow as err:
        raise ParseError(f"highest weight: {err}") from err


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
