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

`character_to_doc` renders each window field's tag once, and each
distinct coefficient and Jordan profile once, shared by the terms that
have it, like ``w``; `dumps` writes the bytes of
``json.dumps(doc, indent=2)`` with an exact encoder for these types.
"""

from __future__ import annotations

import re
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

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


def _tag(key) -> str:
    orbit, node, shift = key
    return f"{node}_{shift}" + (f"@{orbit}" if orbit != "a" else "")


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
    """The character document; every term shares ``w``, and equal
    coefficients and Jordan profiles share their rendered values."""
    window = chi.window
    tags = [_tag(key) for key in window.keys]  # one per field
    tag = dict(zip(window.keys, tags))
    w = {tag[key]: mult for key, mult in chi.w.items()}
    coeffs: dict = {}
    jordans: dict = {}
    terms = []
    for m, y, c in chi.sorted_terms():
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = [[e, x] for e, x in c.pairs()]
        v = window.fields(m.v)
        term = {
            "monomial": " ".join([tag[key] if e == 1 else f"{tag[key]}^{e}"
                                  for key, e in y.items()]) or "1",
            "w": w,
            "v": dict(zip(compress(tags, v), filter(None, v))),
            "coeff": coeff,
        }
        if annotations is not None and m in annotations:
            profile = annotations[m]
            jordan = jordans.get(profile)
            if jordan is None:
                jordan = jordans[profile] = {
                    "n": profile.n,
                    "blocks": list(profile.blocks),
                    "graded": list(profile.graded),
                }
            term["jordan"] = jordan
        terms.append(term)
    return {
        "type": f"{chi.datum.family}{chi.datum.rank}",
        "orbits": list(window.orbits),
        "highest": render_monomial(chi.w),
        "terms": terms,
    }


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
    terms, listing = {}, []
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
        listing.append((window, m, coeff, tw != w))
    chi = Character(windows[tuple(sorted(w.items()))], terms)
    if parse_monomial(doc["highest"], datum) != chi.window.y(HIGHEST):
        raise ParseError("stated highest monomial is not the v = 0 term")
    mixed = [tw.text(m) for tw, m, _c, differs in listing if differs]
    if mixed:
        listing.sort(key=lambda term: term[0].order(term[1]))
        raise MixedHighestWeight(
            f"{len(mixed)} terms do not share the highest monomial's w, "
            f"first {mixed[0]!r}",
            [(tw.text(m), c, differs) for tw, m, c, differs in listing],
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
    """``json.dumps(doc, indent=2)`` plus a newline, in one pass that
    joins the items of each container; the document may hold dicts with
    string keys, lists, strings and integers, anything else is a
    TypeError."""
    return _encode(doc, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = [_quote(key) + ": " + _encode(value, inner)
                 for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not obj:
            return "[]"
        items = [_encode(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"{kind.__name__} {obj!r} is not a str, int, list or "
                    f"dict with str keys")
