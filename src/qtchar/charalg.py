"""Monomial and character algebra for l-weights.

An l-weight is encoded by a monomial in formal variables Y_{i,c}, where i
is a Dynkin node and c a spectral parameter.  Spectral parameters live on
q-power orbits and are stored as (orbit, integer shift) pairs; the base
point of each orbit stays symbolic, so parameters on distinct orbits never
collide and no complex arithmetic is performed.  Sparse exponent maps are
keyed by (orbit, node, shift).

Every monomial of a character is its highest monomial Y^w times one
inverse A-variable per unit of its lowering exponents v, with A_{i,n} =
Y_{i,n-1} Y_{i,n+1} prod_{j~i} Y_{j,n}^{-1}.  All terms share ``w``, so a
`Character` keeps it once, in its `Window`, and a `Monomial` is one
integer: ``v`` packed over the window's fields, above a ``DEG_BITS``-bit
field that holds its sum ``vdeg``.  A-variables are algebraically
independent, so for a fixed ``w`` the vector ``v`` fixes the Y-exponents
``y``: monomials hash and compare as integers, ``y`` is derived, and
multiplying two monomials is one integer add, which sums the degrees
with the vectors.  Compare monomials within one character, or across
equal ``w``.
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import chain
from operator import itemgetter, sub

from .errors import (InconsistentExpansion, NodeOutOfRange, OutsideWindow,
                     ParseError)
from .rootdata import RootDatum
from .tpoly import TPoly

DEFAULT_ORBIT = "a"

_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


DEG_BITS = 32  # the low bits of a monomial: its lowering degree
DEG_MASK = (1 << DEG_BITS) - 1


class Monomial(int):
    """An l-weight label: the packed lowering vector ``v`` shifted above
    the lowering degree ``vdeg``, ``v << DEG_BITS | vdeg``.

    The degree field of a `Window` holds twice its ``bound``, so the sum
    of two of its monomials has the sum of their degrees in the low bits.
    When that is at most ``bound``, every field of ``v`` holds at most
    ``bound`` and none carries either: the sum is their product.
    Arithmetic gives plain ints; ``Monomial(x)`` makes one a term key."""

    __slots__ = ()

    @property
    def v(self) -> int:
        return self >> DEG_BITS

    @property
    def vdeg(self) -> int:
        return self & DEG_MASK


HIGHEST = Monomial(0)


class Window:
    """Dense (orbit, node, shift) fields of the monomials of one character
    with highest-weight exponents ``w``.

    ``v`` lives on the shifts s+1 .. s+h-1 of each Y_{i,s} in ``w`` (h the
    Coxeter number: the A-variables of V(Y_{i,s}) lie strictly between s
    and s+h), merged into blocks per orbit; blocks over two shifts apart
    stay apart.  Rows, laid out by orbit, node and block so that ``keys``
    is sorted, span one more shift at either end, the range of ``y``.  So
    ``y`` is computed on the packed integer: a one-field shift moves
    v[i,n] to (i, n-1) or (i, n+1), and row copies move it to the
    neighbours of i.  Fields hold ``bound``, the largest lowering degree
    ``w`` allows, and the degree field of a `Monomial` twice that, else
    the window raises OutsideWindow; ``slots`` maps each key ``v`` may
    occupy to its field.

    A monomial is read row by row off the packed parts of its ``y``.  One
    memo, keyed by a row and its fields of those parts, holds the row's
    record: its piece of the order key, of the text and of ``y`` (`label`,
    `y`), its node and its node shape (`node_roots`), and the shape of its
    mirror row (`node_roots_and_mirror`).  A record decodes
    only its own row's fields.  So a term costs one pass over the rows and
    not one over the fields.

    The window alone knows where a field's bits lie: other modules read
    and move monomials by `pack`, `pairs`, `v`, `mask`, `row_masks` and
    `fields`, `embedding` and `mirror`, and the degree by ``DEG_MASK``.
    """

    __slots__ = ("datum", "w", "orbits", "bound", "bits", "keys", "slots",
                 "_field", "_code", "_nbytes", "_wpacked", "_rows", "_moves",
                 "_row_masks", "_keysize", "_records")

    def __init__(self, datum: RootDatum, w: dict):
        self.bound = sum(m * datum.lowest_depths[i - 1]
                         for (_o, i, _n), m in w.items())
        if 2 * self.bound >> DEG_BITS:
            raise OutsideWindow(f"lowering degree {self.bound} overflows "
                                f"the {DEG_BITS}-bit degree field")
        self.datum = datum
        self.w = {k: m for k, m in sorted(w.items()) if m}
        # an orbit must be a name the text format can write
        self.orbits = tuple(sorted({check_orbit(o) for o, _i, _n in self.w}))
        h = datum.coxeter_number
        spans: dict = {}  # orbit -> [lowest, highest shift] of v per block
        for o, _i, s in sorted(self.w, key=lambda key: (key[0], key[2])):
            blocks = spans.setdefault(o, [])
            if blocks and s + 1 <= blocks[-1][1] + 2:
                blocks[-1][1] = max(blocks[-1][1], s + h - 1)
            else:
                blocks.append([s + 1, s + h - 1])
        # a field holds v (<= bound), and w plus neighbouring v for y
        need = max(self.w.values(), default=0) + self.bound
        size = self._size(need)
        self.bits = b = 8 * size
        self._code = _TYPECODES[size]
        self._rows = []  # (node, first field, stride, (orbit, shift)s)
        self.keys = []
        for o, blocks in spans.items():
            rows = [[(o, n) for n in range(lo - 1, hi + 2)]
                    for lo, hi in blocks]
            stride = sum(map(len, rows))
            for i in datum.nodes:
                for row in rows:
                    self._rows.append((i, len(self.keys), stride, row))
                    self.keys += [(o, i, n) for o, n in row]
        self._field = {key: k for k, key in enumerate(self.keys)}
        self.slots = {(o, i, n): k for i, start, _stride, row in self._rows
                      for k, (o, n) in enumerate(row[1:-1], start + 1)}
        self._nbytes = size * len(self.keys)
        self._wpacked = sum(m << b * self._field[key]
                            for key, m in self.w.items())
        # rows that move by the same number of bits move as one mask
        moves: dict = {}  # bits moved -> mask of the rows moved so
        for i, k, stride, row in self._rows:
            mask = (1 << b * len(row)) - 1 << b * k
            for j in datum.adjacency[i - 1]:
                shift = b * (j - i) * stride
                moves[shift] = moves.get(shift, 0) | mask
        self._moves = sorted(moves.items())
        self._row_masks = [
            (r, b * k, (1 << b * len(row)) - 1)
            for r, (_i, k, _stride, row) in enumerate(self._rows)]
        # an order-key unit holds vdeg, a field or an exponent + bound
        self._keysize = self._size(max(len(self.keys) - 1, need + self.bound))
        self._records: dict = {}  # (row, plus row, minus row) -> record

    def _size(self, top: int) -> int:
        # bytes of the least array unit that holds 0 .. top
        size = 1
        while top >= 1 << 8 * size:
            size *= 2
        if size not in _TYPECODES:
            raise OutsideWindow(f"exponents up to {top} overflow {self!r}")
        return size

    def pack(self, v: dict) -> Monomial:
        """The monomial with the lowering exponents of the map ``v``."""
        packed = vdeg = 0
        for key, a in v.items():
            k = self.slots.get(key)
            if k is None or a < 0:
                raise OutsideWindow(f"v[{key}] = {a} is outside {self!r}")
            packed += a << self.bits * k
            vdeg += a
        if vdeg > self.bound:
            raise OutsideWindow(f"degree {vdeg} > {self.bound} in {self!r}")
        return Monomial(packed << DEG_BITS | vdeg)

    def fields(self, v: int, count: int | None = None) -> array:
        """Every field of a packed vector, in slot order; only the first
        ``count`` when it is given."""
        size = self._nbytes if count is None else count * self.bits // 8
        out = array(self._code, v.to_bytes(size, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out

    def pairs(self, m: Monomial) -> list[tuple[int, int]]:
        """(field, exponent) of each nonzero lowering exponent of m, in
        field order."""
        return [(k, a) for k, a in enumerate(self.fields(m >> DEG_BITS)) if a]

    def v(self, m: Monomial) -> dict:
        """Lowering exponents of m as a map (orbit, node, shift) -> mult."""
        return {self.keys[k]: a for k, a in self.pairs(m)}

    def mask(self, keys) -> int:
        """The bits of a monomial that hold the fields of ``keys``."""
        ones = (1 << self.bits) - 1
        return sum(ones << self.bits * self._field[key] + DEG_BITS
                   for key in set(keys))

    def row_masks(self) -> list[tuple[int, int, int, int]]:
        """(first field, offset, mask, field count) of each row, in field
        order: ``m >> offset & mask`` packs the row's fields of a monomial
        m, and `fields` reads them with that count."""
        b = self.bits
        return [(k, b * k + DEG_BITS, (1 << b * len(row)) - 1, len(row))
                for _i, k, _stride, row in self._rows]

    def embedding(self, src: "Window"):
        """The map of ``src``'s monomials to this window's, degree kept.
        Each field of src must lie here as wide and no lower, as it does in
        the window of a product of src.  Fields that move by the same
        number of bits move as one mask: with equal widths, one per row of
        src at most, as a row of src lies inside one row here."""
        moves: dict = {0: DEG_MASK}  # bits moved -> the mask of the bits
        b, ones = src.bits, (1 << src.bits) - 1
        for key, k in src.slots.items():
            shift = self.bits * self.slots[key] - b * k
            moves[shift] = moves.get(shift, 0) | ones << b * k + DEG_BITS
        moves = sorted(moves.items())
        return lambda m: sum([(m & bits) << shift for shift, bits in moves])

    def mirror(self, low: Monomial):
        """The duality involution of `fm` on the window of one Y_{i,s}:
        v -> low.v - sigma(v) and vdeg -> low.vdeg - vdeg, ``low`` the
        lowest weight and sigma moving each row, reversed, to the row of
        the dual node, as `node_roots_and_mirror` mirrors shapes.  A row
        part's image is computed once; InconsistentExpansion if a field of
        it is negative."""
        b, duals = self.bits, self.datum.duals
        rows = [(b * k + DEG_BITS, b * (k + (duals[i - 1] - i) * stride)
                 + DEG_BITS, len(row), (1 << b * len(row)) - 1, {})
                for i, k, stride, row in self._rows]
        bound = low & DEG_MASK

        def phi(m: int) -> int:
            out = bound - (m & DEG_MASK)
            for start, dual, count, mask, memo in rows:
                part = m >> start & mask
                x = memo.get(part)
                if x is None:
                    high = low >> dual & mask
                    mirrored = self.fields(part, count)[::-1]
                    if any(map(int.__lt__, self.fields(high, count),
                               mirrored)):
                        raise InconsistentExpansion(
                            "the mirror of a term leaves the window")
                    x = memo[part] = high - sum(
                        a << b * t for t, a in enumerate(mirrored)) << dual
                out += x
            return out

        return phi

    def _yparts(self, v: int) -> tuple[int, int]:
        # y = w + (v moved to the neighbours) - (v moved up and down); the
        # two parts are packed like v, and no field of either carries
        plus = self._wpacked
        for shift, mask in self._moves:
            if shift > 0:
                plus += (v & mask) << shift
            else:
                plus += (v & mask) >> -shift
        b = self.bits
        return plus, (v >> b) + (v << b)

    def y(self, m: Monomial) -> dict:
        """Y-exponents of m, in sorted key order."""
        return dict(chain.from_iterable(
            record[2] for record in self._row_records(m)))

    def text(self, m: Monomial) -> str:
        """Canonical text of m, `render_monomial` of its y."""
        return self.label(m)[1]

    def label(self, m: Monomial) -> tuple[bytes, str]:
        """The sort key of m in the canonical term order, and its `text`,
        joined from its rows' records.  The order is by lowering degree,
        then by the Y-exponents' (key, exponent) pairs in sorted key order.

        The key is a run of equal-width big-endian units: vdeg, then the
        field and ``bound`` + exponent of each nonzero Y-exponent, in
        field order.  For any two monomials of this window it sorts like
        the tuple (vdeg, k1, e1, k2, e2, ...) of those pairs:

        * Every unit fits.  vdeg <= bound and a field is below len(keys).
          y = w + (v moved to the neighbours) - (v moved up and down)
          takes its two v-sums from disjoint fields of v, each sum at most
          vdeg <= bound, so -bound <= e <= max(w) + bound.  The unit is
          the least array width that holds len(keys) - 1 and
          max(w) + 2 bound.
        * ``keys`` is sorted in field order, and e -> e + bound is
          strictly increasing.  The tuple and the units alternate key and
          exponent positions alike, so mapping every position strictly
          increasingly keeps their lexicographic order, and a prefix
          stays a prefix.
        * Equal-width big-endian units compare as bytes do: the first
          differing byte lies in the first differing unit and decides it
          as it decides the unit, and a prefix of units is a prefix of
          bytes.

        Keys of different windows do not compare.
        """
        records = self._row_records(m)
        return ((m & DEG_MASK).to_bytes(self._keysize, "big")
                + b"".join([record[0] for record in records]),
                " ".join([record[1] for record in records]) or "1")

    def _row_records(self, m: Monomial) -> list:
        # the records of m's rows with a nonzero Y-exponent, in field order
        plus, minus = self._yparts(m >> DEG_BITS)
        records = self._records
        out = []
        for r, start, mask in self._row_masks:
            p, q = plus >> start & mask, minus >> start & mask
            if p != q:
                record = records.get((r, p, q))
                if record is None:
                    record = records[r, p, q] = self._row_record(r, p, q)
                out.append(record)
        return out

    def _row_record(self, r: int, p: int, q: int) -> tuple:
        # a row with Y-exponents p - q: its order-key units, text, Y-items,
        # node and node shape, None if an exponent is negative, else the
        # (orbit, shift) of each exponent unit; then the node shape of its
        # mirror row, whose node is the dual of its own
        i, k, _stride, row = self._rows[r]
        es = list(map(sub, self.fields(p, len(row)), self.fields(q, len(row))))
        y = [(field, e) for field, e in enumerate(es, k) if e]
        units = array(_TYPECODES[self._keysize],
                      [x for field, e in y for x in (field, e + self.bound)])
        if sys.byteorder == "little":
            units.byteswap()
        keys = self.keys
        shape = None if min(es) < 0 else tuple(
            key for key, e in zip(row, es) for _ in range(e))
        mirror = None if max(es) > 0 else tuple(
            key for key, e in zip(row, reversed(es)) for _ in range(-e))
        return (units.tobytes(),
                " ".join(factor_text(keys[field], e) for field, e in y),
                tuple((keys[field], e) for field, e in y), i, shape, mirror)

    def node_roots(self, m: Monomial) -> dict:
        """The shape of m's Y-exponents at each node with a nonzero row:
        None if one of them is negative, else the node's root tuple, the
        sorted (orbit, shift) multiset of its exponents (see
        `sl2.root_tuple`), its blocks merged.  Each row's shape is read
        from its record, and a node's rows come in field order: by orbit,
        then by block."""
        return _node_shapes(self._row_records(m), 4)

    def node_roots_and_mirror(self, m: Monomial) -> tuple[dict, dict]:
        """`node_roots` of m and of its mirror, from one pass over m's rows.

        The mirror of a row reverses its shifts, negates its exponents and
        moves it to the row of the dual node (`RootDatum.duals`): m maps
        under Y_{j,n} -> Y_{jbar,a+b-n}^-1, a and b the first and last
        shift of the row.  On the window of one Y_{i,s} that is the
        duality involution of `fm`.  Each record holds its mirror's
        shape."""
        records = self._row_records(m)
        return (_node_shapes(records, 4),
                _node_shapes(records, 5, self.datum.duals))

    def shifted(self, delta: int) -> "Window":
        """The window of w shifted by ``delta``; packed v carry over."""
        return Window(self.datum, {(o, i, n + delta): m
                                   for (o, i, n), m in self.w.items()})

    def solve(self, y: dict) -> Monomial | None:
        """The monomial with Y-exponents ``y``, or None: solves (y-w)[i,s]
        = -v[i,s+1] - v[i,s-1] + sum_{j~i} v[j,s] upward in s, then checks
        that v is a lowering vector of the window and gives all of y."""
        d = [0] * len(self.keys)
        for key, e in y.items():
            if key not in self._field:
                return None
            d[self._field[key]] = e
        w = self.fields(self._wpacked)
        v = [0] * len(self.keys)  # each row's end fields stay 0
        adj = self.datum.adjacency
        for t in range(max((len(r[3]) for r in self._rows), default=2) - 2):
            for i, start, stride, row in self._rows:
                if t < len(row) - 2:
                    k = start + t
                    near = sum(v[k + (j - i) * stride] for j in adj[i - 1])
                    v[k + 1] = a = w[k] - d[k] - v[k - 1] + near
                    if a < 0:
                        return None
        if sum(v) > self.bound:
            return None
        m = self.pack({key: a for key, a in zip(self.keys, v) if a})
        return m if self.y(m) == y else None

    def __repr__(self):
        return (f"Window({self.datum.family}{self.datum.rank}, "
                f"w={render_monomial(self.w)})")


def _node_shapes(records: list, at: int, duals=None) -> dict:
    # the node shapes of `node_roots`, from the shape at ``at`` of each row
    # record, at the record's node or, with ``duals``, at its dual
    out: dict = {}
    for record in records:
        i, shape = record[3], record[at]
        if duals:
            i = duals[i - 1]
        roots = out.get(i, ())
        if roots is not None:
            out[i] = None if shape is None else roots + shape
    return out


# -- text format -------------------------------------------------------
#
# Each factor Y_{i, orbit shift}^m is written ``i_n``, ``i_n^m`` or, on a
# non-default orbit, ``i_n@orbit^m``; factors are space separated and the
# identity monomial renders as ``1``.  An orbit name is [A-Za-z][A-Za-z0-9]*.
# One pattern, in ASCII and on whole strings, reads factors, document keys
# ``i_n[@orbit]`` and orbit names.

_FACTOR_RE = re.compile(
    r"(\d+)_(-?\d+)(?:@([A-Za-z][A-Za-z0-9]*))?(?:\^(-?\d+))?", re.ASCII)


def _parse_factor(text: str) -> tuple[tuple, int | None] | None:
    # the key and exponent (None if unwritten) of the factor text, or None
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
    parsed = _parse_factor(tag)
    if parsed is None or parsed[1] is not None:
        raise ParseError(f"malformed exponent key {tag!r}")
    return parsed[0]


def check_orbit(name: str) -> str:
    """``name``, if it is an orbit name: what may follow ``@`` in a key."""
    if _parse_factor(f"1_0@{name}") != ((name, 1, 0), None):
        raise ParseError(f"bad orbit name {name!r}")
    return name


def parse_monomial(s: str, datum: RootDatum) -> dict:
    """Parse monomial text into a Y-exponent map keyed (orbit, node, shift)."""
    y = {}
    text = s.strip()
    if text in ("", "1"):
        return y
    pos = 0
    for factor in text.split():
        pos = s.index(factor, pos)
        parsed = _parse_factor(factor)
        if parsed is None:
            raise ParseError(f"malformed factor {factor!r} at position {pos}",
                             position=pos)
        key, exp = parsed
        if not 1 <= key[1] <= datum.rank:
            raise NodeOutOfRange(
                f"node {key[1]} not in 1..{datum.rank} (factor {factor!r})")
        val = y.get(key, 0) + (1 if exp is None else exp)
        if val:
            y[key] = val
        else:
            y.pop(key, None)
        pos += len(factor)
    return y


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


# -- characters --------------------------------------------------------


class Character:
    """Finite map Monomial -> TPoly over one window; the highest monomial
    is HIGHEST, the one with v = 0."""

    __slots__ = ("window", "terms")

    def __init__(self, window: Window, terms: dict):
        self.window = window
        self.terms = terms

    datum = property(lambda self: self.window.datum)
    w = property(lambda self: self.window.w)  # shared by every term

    def sorted_terms(self) -> list[tuple[Monomial, str, TPoly]]:
        """(monomial, text, coefficient) in the order of `Window.label`: by
        lowering degree, then sorted y."""
        label = self.window.label
        rows = [(*label(m), m, c) for m, c in self.terms.items()]
        rows.sort(key=itemgetter(0))
        return [(m, text, c) for _key, text, m, c in rows]

    def coefficient(self, text: str) -> TPoly:
        """Coefficient of the monomial given in text form (0 if absent)."""
        c = self.terms.get(self.window.solve(parse_monomial(text, self.datum)))
        return TPoly.zero() if c is None else c

    def mass_at_t1(self) -> int:
        """Total dimension: sum of all coefficients evaluated at t = 1."""
        return sum(c.mass() for c in self.terms.values())

    def shifted(self, delta: int) -> "Character":
        return Character(self.window.shifted(delta), dict(self.terms))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return (f"Character({self.datum.family}{self.datum.rank}, "
                f"highest={render_monomial(self.w)}, {len(self.terms)} terms)")


def trivial_character(datum: RootDatum) -> Character:
    """The character of the trivial module: the identity monomial alone."""
    return Character(Window(datum, {}), {HIGHEST: TPoly.one()})
