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

`write_character` writes the text of a document term by term, exactly
``json.dumps(doc, indent=2)`` and a newline, with no document and no
whole text held: each term is rendered from `Character.sorted_terms`,
which joins its monomial text from the window's memoised row pieces in
the pass that builds the order key.  Only the ``w`` block, each window
field's quoted tag, and each distinct coefficient and Jordan profile are
rendered once and reused.  The pieces go out in writes of about
`_SLICE` characters.  `character_to_doc` reads that text back, so the
schema is rendered in one place, and `dumps` is ``json.dumps``.
"""

from __future__ import annotations

import json
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from .charalg import (
    HIGHEST,
    Character,
    Window,
    factor_text,
    parse_key,
    parse_monomial,
    render_monomial,
)
from .errors import MixedHighestWeight, OutsideWindow, ParseError
from .rootdata import parse_type
from .tpoly import TPoly

_SLICE = 1 << 20  # characters gathered before each write


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_map(doc) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"exponent map {doc!r} is not an object")
    out = {}
    for tag, mult in doc.items():
        key = parse_key(tag)
        if not _is_int(mult):
            raise ParseError(f"exponent {mult!r} at {tag!r} is not an integer")
        if key in out:
            raise ParseError(f"exponent key {tag!r} repeats "
                             f"{factor_text(key)!r}")
        out[key] = mult
    return {key: mult for key, mult in out.items() if mult}


def _parse_coeff(pairs) -> TPoly:
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
            for p in pairs)):
        raise ParseError(f"coefficient {pairs!r} is not a list of "
                         f"[t-exponent, integer] pairs")
    return TPoly.from_pairs(pairs)


def write_pieces(pieces, fh) -> None:
    """Write the strings ``pieces`` to the text file ``fh`` in order,
    gathered into writes of about `_SLICE` characters each."""
    buf, size = [], 0
    for piece in pieces:
        buf.append(piece)
        size += len(piece)
        if size >= _SLICE:
            fh.write("".join(buf))
            buf, size = [], 0
    fh.write("".join(buf))


def write_character(chi: Character, annotations: dict | None,
                    fh) -> None:
    """Write the character document to the text file ``fh`` term by term:
    ``dumps(character_to_doc(chi, annotations))``, without either."""
    write_pieces(_pieces(chi, annotations), fh)


def _nested(value) -> str:
    """``json.dumps(value, indent=2)`` for a value of a term's field."""
    return json.dumps(value, indent=2).replace("\n", "\n      ")


def _pieces(chi: Character, annotations: dict | None):
    """The document's text: the head, one piece per term, the tail."""
    window = chi.window
    head = json.dumps({"type": f"{chi.datum.family}{chi.datum.rank}",
                       "orbits": list(window.orbits),
                       "highest": render_monomial(chi.w)}, indent=2)
    yield head[:-2] + ',\n  "terms": ['  # drop the closing "\n}"
    tags = ["\n        " + _quote(factor_text(key)) + ": "
            for key in window.keys]  # one per field
    slots = range(len(tags))
    w = _nested({factor_text(key): mult for key, mult in chi.w.items()})
    coeffs: dict = {}
    jordans: dict = {}
    sep = "\n    "
    for m, text, c in chi.sorted_terms():
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = _nested([[e, x] for e, x in c.pairs()])
        f = window.fields(m.v)
        v = ",".join([tags[k] + str(f[k]) for k in compress(slots, f)])
        v = "{" + v + "\n      }" if v else "{}"
        jordan = ""
        if annotations is not None and m in annotations:
            profile = annotations[m]
            jordan = jordans.get(profile)
            if jordan is None:
                jordan = jordans[profile] = ',\n      "jordan": ' + _nested({
                    "n": profile.n,
                    "blocks": list(profile.blocks),
                    "graded": list(profile.graded),
                })
        yield (f'{sep}{{\n      "monomial": {_quote(text)},\n      "w": {w},'
               f'\n      "v": {v},\n      "coeff": {coeff}{jordan}\n    }}')
        sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"  # [] if no term


def character_to_doc(chi: Character, annotations: dict | None = None) -> dict:
    """The character document, read back from `write_character`'s text."""
    return json.loads("".join(_pieces(chi, annotations)))


def character_from_doc(doc) -> Character:
    """Read a character document; ParseError on anything malformed,
    a repeated (w, v) included.

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
    seen = set()  # (window, m) of every term so far
    for text, tw, v, coeff in rows:
        key = tuple(sorted(tw.items()))
        if key not in windows:
            windows[key] = _window(datum, tw, doc["type"])
        window = windows[key]
        try:
            m = window.pack(v)
        except OutsideWindow as err:
            raise ParseError(f"term {text!r}: {err}") from err
        if (window, m) in seen:
            raise ParseError(f"term {text!r} repeats the (w, v) of an "
                             f"earlier term")
        seen.add((window, m))
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
    """The text of a character document: ``json.dumps(doc, indent=2)``
    and a newline, which `write_character` writes term by term."""
    return json.dumps(doc, indent=2) + "\n"
