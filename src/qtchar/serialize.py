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

`character_to_doc` takes each term's monomial text from
`Character.sorted_terms`, which joins it from the window's memoised row
pieces in the pass that builds the order key, renders each window
field's tag once, and each distinct coefficient and Jordan profile once,
shared by the terms that have it, like ``w``.

`dumps` writes the bytes of ``json.dumps(doc, indent=2)`` with an exact
encoder for these types.  It quotes each dict key once per call, writes
integers in place, renders the items of an integer-valued container
from a per-call table, renders a list or dict that recurs by identity
at the same indent once, and joins the text once from its pieces.
"""

from __future__ import annotations

import re
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from .charalg import (
    HIGHEST,
    Character,
    Window,
    factor_text,
    parse_monomial,
    render_monomial,
)
from .errors import MixedHighestWeight, OutsideWindow, ParseError
from .rootdata import parse_type
from .tpoly import TPoly

_KEY_RE = re.compile(r"^(\d+)_(-?\d+)(?:@([A-Za-z][A-Za-z0-9]*))?$")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
    tags = list(map(factor_text, window.keys))  # one per field
    w = {factor_text(key): mult for key, mult in chi.w.items()}
    coeffs: dict = {}
    jordans: dict = {}
    terms = []
    for m, text, c in chi.sorted_terms():
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = [[e, x] for e, x in c.pairs()]
        v = window.fields(m.v)
        term = {
            "monomial": text,
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
        # the windows differ, so sort on the order's definition
        listing.sort(key=lambda term: (term[1].vdeg,
                                       list(term[0].y(term[1]).items())))
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
    """``json.dumps(doc, indent=2)`` plus a newline.  The document may
    hold dicts with string keys, lists, strings and integers; anything
    else is a TypeError.  The text is joined once, from pieces."""
    out: list = []
    _Encoder(out).put(doc, "\n")
    out.append("\n")
    return "".join(out)


_INT = {int}


class _Keys(dict):
    """Each dict key's quoted text and ": ", made on first use."""

    def __missing__(self, key) -> str:
        text = self[key] = _quote(key) + ": "
        return text


class _Items(dict):
    """The text of each (key, integer) item, made on first use; looked up
    only with exact integers, so never with a bool or a float."""

    def __init__(self, keys: _Keys):
        super().__init__()
        self.keys = keys

    def __missing__(self, item: tuple) -> str:
        key, value = item
        text = self[item] = self.keys[key] + int.__repr__(value)
        return text


class _Encoder:
    """One `dumps` call, appending pieces of the text to ``out``.  Keys
    and integer-valued items are rendered once per call, and a list or
    dict met again at the same indent reuses its first text."""

    __slots__ = ("out", "keys", "items", "seen", "shared")

    def __init__(self, out: list):
        self.out = out
        self.keys = _Keys()
        self.items = _Items(self.keys)
        self.seen: set = set()  # ids of the containers met so far
        self.shared: dict = {}  # id -> (newline, text) of a recurring one

    def put(self, obj, newline: str) -> None:
        """Append the text of obj, its inner lines starting ``newline``."""
        out = self.out
        kind = type(obj)
        if kind is str:
            out.append(_quote(obj))
            return
        if kind is int:
            out.append(int.__repr__(obj))
            return
        if kind is dict:
            if not obj:
                out.append("{}")
                return
        elif kind is list:
            if not obj:
                out.append("[]")
                return
        else:
            raise TypeError(f"{kind.__name__} {obj!r} is not a str, int, "
                            f"list or dict with str keys")
        ident = id(obj)
        memo = self.shared.get(ident)
        if memo is not None and memo[0] == newline:
            out.append(memo[1])
            return
        start = len(out)
        inner = newline + "  "
        sep = "," + inner
        if kind is dict:
            if set(map(type, obj.values())) == _INT:
                out.append("{" + inner + sep.join(
                    map(self.items.__getitem__, obj.items())) + newline + "}")
            else:
                keys = self.keys
                head = "{" + inner
                for key, value in obj.items():
                    self.put_item(head + keys[key], value, inner)
                    head = sep
                out.append(newline + "}")
        elif set(map(type, obj)) == _INT:
            out.append("[" + inner + sep.join(map(int.__repr__, obj))
                       + newline + "]")
        else:
            head = "[" + inner
            for value in obj:
                self.put_item(head, value, inner)
                head = sep
            out.append(newline + "]")
        if ident in self.seen:
            if memo is None:
                text = "".join(out[start:])
                del out[start:]
                out.append(text)
                self.shared[ident] = (newline, text)
        else:
            self.seen.add(ident)

    def put_item(self, head: str, value, newline: str) -> None:
        """Append ``head`` and the text of a container's item."""
        kind = type(value)
        if kind is str:
            self.out.append(head + _quote(value))
        elif kind is int:
            self.out.append(head + int.__repr__(value))
        else:
            self.out.append(head)
            self.put(value, newline)
