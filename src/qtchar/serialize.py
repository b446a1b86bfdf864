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

`character_from_doc` reads the head first: ``highest`` is Y^w, the one
``w`` of the character, and ``orbits`` must be that ``w``'s orbits.  It
then reads the terms in one pass into that window.  Each must repeat the
``w``, state the monomial its ``(w, v)`` yields and not repeat an earlier
term's ``v``, and one must have ``v = 0``.

`write_character` writes the text of a document term by term, exactly
``json.dumps(doc, indent=2)`` and a newline, with no document and no
whole text held.  Each term's order key, monomial text and ``v`` come
from one walk of its y rows (`Window.walk`), the one owner of the term
order: a y row's memoised triple holds its piece of the key and of the
text, and the text of its node's ``v`` row, which the image this module
passes in renders once per distinct part of that row; so no term is
scanned field by field, and the window alone owns the layout.  The
terms come in the order of `Character.sorted_terms`.  The ``w`` block,
each window field's quoted tag, each distinct row part of ``v`` and each
distinct coefficient with its Jordan block are rendered once; the
pieces go to ``fh.writelines``.  The writer builds no reference cycles,
so it runs with the cyclic collector paused (`gcpause`).
`character_to_doc` reads that text back, so the schema is rendered in
one place.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .charalg import (
    HIGHEST,
    Character,
    Window,
    factor_text,
    parse_key,
    parse_monomial,
    render_monomial,
)
from .errors import OutsideWindow, ParseError
from .gcpause import paused_gc
from .rootdata import parse_type
from .tpoly import TPoly


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


@paused_gc
def write_character(chi: Character, annotations: dict | None,
                    fh) -> None:
    """Write the character document to the text file ``fh`` term by term:
    ``dumps(character_to_doc(chi, annotations))``, without either.
    ``annotations`` maps coefficients to profiles, as
    `jordan.annotate_character` returns them."""
    fh.writelines(_pieces(chi, annotations))


def _nested(value, pad: str = "\n      ") -> str:
    """``json.dumps(value, indent=2)`` for a value on a line that ``pad``
    (a newline and that line's indent) starts: a term's field by default.
    Rendered directly, as `json`'s indenting encoder is pure Python and
    leaves reference cycles behind each call."""
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _nested(x, pad + "  ")
                 for key, x in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_nested(x, pad + "  ") for x in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = pad + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + pad
            + brackets[1])


def _pieces(chi: Character, annotations: dict | None):
    """The document's text: the head, one piece per term, the tail."""
    window = chi.window
    head = _nested({"type": f"{chi.datum.family}{chi.datum.rank}",
                    "orbits": list(window.orbits),
                    "highest": render_monomial(chi.w)}, "\n")
    yield head[:-2] + ',\n  "terms": ['  # drop the closing "\n}"
    tags = ["\n        " + _quote(factor_text(key)) + ": "
            for key in window.keys]  # one per field
    walk = window.walk(lambda k, fields: ",".join(
        [tags[j] + str(a) for j, a in enumerate(fields, k) if a]))
    terms = [(*walk(m), c) for m, c in chi.terms.items()]
    terms.sort(key=itemgetter(0))
    w = _nested({factor_text(key): mult for key, mult in chi.w.items()})
    coeffs: dict = {}  # coefficient -> its text and its Jordan block's
    sep = "\n    "
    for _key, rows, c in terms:
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = _nested([[e, x] for e, x in c.pairs()])
            if annotations is not None:
                profile = annotations[c]
                coeff += ',\n      "jordan": ' + _nested({
                    "n": profile.n,
                    "blocks": list(profile.blocks),
                    "graded": list(profile.graded),
                })
            coeffs[c] = coeff
        text = " ".join(filter(None, map(_text, rows))) or "1"
        v = ",".join(filter(None, map(_piece, rows)))
        v = "{" + v + "\n      }" if v else "{}"
        yield (f'{sep}{{\n      "monomial": {_quote(text)},\n      "w": {w},'
               f'\n      "v": {v},\n      "coeff": {coeff}\n    }}')
        sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"  # [] if no term


_text, _piece = itemgetter(1), itemgetter(2)  # of a `Window.walk` triple


def character_to_doc(chi: Character, annotations: dict | None = None) -> dict:
    """The character document, read back from `write_character`'s text."""
    return json.loads("".join(_pieces(chi, annotations)))


def character_from_doc(doc) -> Character:
    """Read a character document; ParseError on anything malformed, a
    term with another ``w`` or a repeated ``(w, v)`` included."""
    if not isinstance(doc, dict):
        raise ParseError("a character document must be a JSON object")
    for field in ("type", "orbits", "highest", "terms"):
        if field not in doc:
            raise ParseError(f"character document has no {field!r}")
    if not isinstance(doc["type"], str) or not isinstance(doc["highest"], str):
        raise ParseError("'type' and 'highest' must be strings")
    entries = doc["terms"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries):
        raise ParseError("'terms' must be a list of objects")
    datum = parse_type(doc["type"])
    try:
        window = Window(datum, parse_monomial(doc["highest"], datum))
    except OutsideWindow as err:
        raise ParseError(f"highest weight: {err}") from err
    if doc["orbits"] != list(window.orbits):
        raise ParseError(f"'orbits' {doc['orbits']!r} are not the highest "
                         f"monomial's {list(window.orbits)!r}")
    terms = {}
    for entry in entries:
        text = entry.get("monomial")
        if not isinstance(text, str):
            raise ParseError(f"term monomial {text!r} is not a string")
        if "w" not in entry or "v" not in entry or "coeff" not in entry:
            raise ParseError(f"term {text!r} is missing w/v/coeff")
        w, v = _parse_map(entry["w"]), _parse_map(entry["v"])
        coeff = _parse_coeff(entry["coeff"])
        if w != window.w:
            raise ParseError(
                f"term {text!r}: w differs from the highest monomial")
        try:
            m = window.pack(v)
        except OutsideWindow as err:
            raise ParseError(f"term {text!r}: {err}") from err
        if m in terms:
            raise ParseError(f"term {text!r} repeats the (w, v) of an "
                             f"earlier term")
        y = window.y(m)
        if y != parse_monomial(text, datum):
            raise ParseError(
                f"term {text!r}: stated monomial does not match its (w, v) "
                f"payload, which yields {render_monomial(y)!r}")
        terms[m] = coeff
    if HIGHEST not in terms:
        raise ParseError("character document has no monomial with v = 0")
    return Character(window, terms)


def dumps(doc: dict) -> str:
    """The text of a character document: ``json.dumps(doc, indent=2)``
    and a newline, which `write_character` writes term by term."""
    return json.dumps(doc, indent=2) + "\n"
