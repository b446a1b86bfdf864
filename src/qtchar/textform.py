"""The text format of monomials, factors, document keys and orbit
names.

Each factor Y_{i, orbit shift}^m is written ``i_n``, ``i_n^m`` or, on a
non-default orbit, ``i_n@orbit^m``; factors are space separated and the
identity monomial renders as ``1``.  An orbit name is [A-Za-z][A-Za-z0-9]*.
One pattern, in ASCII and on whole strings, reads factors, document keys
``i_n[@orbit]`` and orbit names.

`charalg` re-exports every name here; it alone calls `check_orbit`
(on a highest weight) and parses whole monomials (`parse_monomial`).
"""

from __future__ import annotations

import re

from .errors import ParseError

DEFAULT_ORBIT = "a"

_FACTOR_RE = re.compile(
    r"(\d+)_(-?\d+)(?:@([A-Za-z][A-Za-z0-9]*))?(?:\^(-?\d+))?", re.ASCII)


def parse_factor(text: str) -> tuple[tuple, int | None] | None:
    """The key and exponent (None if unwritten) of the factor text, or
    None."""
    m = _FACTOR_RE.fullmatch(text)
    if m is None:
        return None
    node, shift, orbit, exp = m.groups()
    try:
        return ((orbit or DEFAULT_ORBIT, int(node), int(shift)),
                None if exp is None else int(exp))
    except ValueError:  # a numeral past the interpreter's digit limit
        return None


def parse_key(tag: str) -> tuple:
    """The key (orbit, node, shift) of the text ``i_n[@orbit]``."""
    parsed = parse_factor(tag)
    if parsed is None or parsed[1] is not None:
        raise ParseError(f"malformed exponent key {tag!r}")
    return parsed[0]


def check_orbit(name: str) -> str:
    """``name``, if it is an orbit name: what may follow ``@`` in a key."""
    if parse_factor(f"1_0@{name}") != ((name, 1, 0), None):
        raise ParseError(f"bad orbit name {name!r}")
    return name


def factor_text(key: tuple, exp: int = 1) -> str:
    """The text ``i_n[@orbit][^exp]`` of Y_{i, orbit n}^exp."""
    orbit, node, shift = key
    tag = f"{node}_{shift}"
    if orbit != DEFAULT_ORBIT:
        tag += f"@{orbit}"
    if exp != 1:
        tag += f"^{exp}"
    return tag


def render_monomial(y: dict) -> str:
    """Canonical text for a Y-exponent map; inverse of parse_monomial."""
    if not y:
        return "1"
    return " ".join(factor_text(key, exp) for key, exp in sorted(y.items()))
