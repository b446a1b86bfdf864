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
integer: ``v`` packed over the window's fields, the keys the lowest
weight's lowering vector uses and so all a term can use, each as wide as
the bit length of the window's bound, above a ``DEG_BITS``-bit field
that holds its sum ``vdeg``.  A-variables are
algebraically independent, so for a fixed ``w`` the vector ``v`` fixes
the Y-exponents ``y``: monomials hash and compare as integers, ``y`` is
derived, and multiplying two monomials is one integer add, which sums
the degrees with the vectors.  Compare monomials within one character,
or across equal ``w``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import chain
from operator import itemgetter

from .errors import (InconsistentExpansion, NodeOutOfRange, OutsideWindow,
                     ParseError)
from .rootdata import RootDatum
from .textform import (DEFAULT_ORBIT, check_orbit, factor_text, parse_factor,
                       parse_key, render_monomial)
from .tpoly import TPoly

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
_UNSEEN = object()  # a row part that no record is memoised for yet


class Row(namedtuple("Row", "units text y node shape")):
    """The record of one y row of a monomial with a nonzero Y-exponent:
    its ``units`` of the order key and its ``text`` (`Window.label`), its
    (key, exponent) items ``y`` in key order, its ``node``, and its node
    ``shape``: None if an exponent is negative, else the sorted (orbit,
    shift) multiset of its exponents (see `sl2.root_tuple`)."""

    __slots__ = ()


class Window:
    """The fields of the monomials of one character with highest-weight
    exponents ``w``.

    ``v`` is packed over the support of the lowest weight's lowering
    vector and nothing else: each Y_{i,s} of ``w`` gives the fields
    (orbit, j, s+u) with c_ij(u) > 0 (`RootDatum.lowest_lowering`), and
    the window takes their union.  A term of a fundamental module lowers
    below its lowest weight (the half-depth mirror of `fm` checks it on
    every term), and a product's lowering vectors are sums of its
    factors', so no term has a field outside it.  ``keys`` lists the
    fields in sorted order, ``slots`` maps each key to its field, and a
    row is the fields of one (orbit, node), in shift order.  A field holds
    at most ``bound``, the largest lowering degree ``w`` allows, so it is
    ``bits`` = ``bound.bit_length()`` wide (one bit for a bound of 0); the
    degree field of a `Monomial` holds twice ``bound``, else the window
    raises OutsideWindow.

    ``y`` has rows of its own, one per (orbit, node), over the shifts
    where a Y-exponent can be nonzero: those of ``w`` at the node, each
    shift of its v fields plus and minus one, and each shift of its
    neighbours' v fields.  Where one factor's v lies on one shift parity
    of a node, its y lies on the other; where two factors' parities differ
    (D4 ``2:0,2:1``), both parities share the node's rows, in shift order.
    A y row is read off the packed v rows of its node and its neighbours.
    One memo per y row, keyed by a monomial's bits of those rows (one
    AND), holds the row's `Row` record: its piece of the order key, of
    the text and of ``y`` (`label`, `y`), its node and its node shape
    (`node_roots`).  Rows with equal Y-exponents share one record.  A
    memo miss sums the row's packed exponents from w and from each v row
    part it reads, and a part's contribution is decoded once.  So a term
    costs one pass over the rows and not one over the fields, and a
    term's tuple of records (`records`) is all its row state: the
    expansion and the audit of `fm` read shapes from it and map it to
    its mirror's by `record`, and the writer reads a term's key, text
    and v text in one pass over `y_rows`.

    The window alone knows where a field's bits lie: other modules read
    and move monomials by `pack`, `pairs`, `v`, `mask`, `fields`,
    `by_rows`, `y_rows`, `embedding` and `mirror`, and the degree by
    ``DEG_MASK``.
    It is also the one check of a highest weight, in one pass over ``w``
    before the bound and any layout: a node outside 1..rank raises
    NodeOutOfRange, a negative exponent ParseError, and so does an orbit
    that is not a name the text format can write (`check_orbit`).
    """

    __slots__ = ("datum", "w", "orbits", "bound", "bits", "keys", "slots",
                 "_rows", "_center", "_ywidth", "_yrows", "_ykeys", "_memos",
                 "_keysize")

    def __init__(self, datum: RootDatum, w: dict):
        for (o, i, _n), m in w.items():
            if not 1 <= i <= datum.rank:
                raise NodeOutOfRange(f"node {i} not in 1..{datum.rank}")
            if m < 0:
                raise ParseError(
                    f"highest weight {render_monomial(w)!r} is not a product "
                    f"of Y-variables of {datum.family}{datum.rank}")
            check_orbit(o)  # a name the text format can write
        self.bound = sum(m * datum.lowest_depths[i - 1]
                         for (_o, i, _n), m in w.items())
        if 2 * self.bound >> DEG_BITS:
            raise OutsideWindow(f"lowering degree {self.bound} overflows "
                                f"the {DEG_BITS}-bit degree field")
        self.datum = datum
        self.w = {k: m for k, m in sorted(w.items()) if m}
        self.orbits = tuple(sorted({o for o, _i, _n in self.w}))
        self.keys = sorted({(o, j, s + u) for o, i, s in self.w
                            for j, u, _c in datum.lowest_lowering(i)})
        self.slots = {key: k for k, key in enumerate(self.keys)}
        self.bits = b = max(1, self.bound.bit_length())
        rows: dict = {}  # (orbit, node) -> [first field, field count]
        for k, (o, j, _n) in enumerate(self.keys):
            rows.setdefault((o, j), [k, 0])[1] += 1
        # each v row: (first field, offset, mask, field count), so that
        # m >> offset & mask packs the row's fields and `fields` reads them
        self._rows = [(k, b * k + DEG_BITS, (1 << b * count) - 1, count)
                      for k, count in rows.values()]
        # the shifts of each (orbit, node) where y can be nonzero
        shifts: dict = {}
        for o, i, s in self.w:
            shifts.setdefault((o, i), set()).add(s)
        for o, j, n in self.keys:
            shifts.setdefault((o, j), set()).update((n - 1, n + 1))
            for k in datum.adjacency[j - 1]:
                shifts.setdefault((o, k), set()).add(n)
        # the mirror n -> c - n of each orbit: c = 2s + h on the window of
        # one Y_{i,s}, the duality involution of `fm`
        self._center = {o: min(n for p, _i, n in self.w if p == o)
                        + max(n for p, _i, n in self.w if p == o)
                        + datum.coxeter_number for o in self.orbits}
        order = {oj: r for r, oj in enumerate(rows)}
        # a y row's Y-exponents are packed as signed digits, e 2^(W t) at
        # its t-th shift; |e| <= max(w) + bound < 2^(W-1) (see `label`),
        # so equal packed values are equal exponents
        self._ywidth = W = (max(self.w.values(), default=0)
                            + self.bound).bit_length() + 1
        # each y row: its node, orbit, shifts, first y field, packed w and,
        # for each v row it reads, its offset, mask and field count, the
        # (position, sign) of its fields' y terms and its packed
        # contribution by part
        self._yrows = []
        self._ykeys = []  # the key of each y field, in sorted order
        # each y row's bits of the v rows it reads, its record by a
        # monomial's bits there and its record by Y-exponents
        self._memos = []
        for (o, i), ns in sorted(shifts.items()):
            ns = sorted(ns)
            at = {n: t for t, n in enumerate(ns)}
            feeds = [self._rows[order[o, j]]
                     for j in sorted((i, *datum.adjacency[i - 1]))
                     if (o, j) in order]
            spread = [(start, mask, count, [
                ((at[n - 1], -1), (at[n + 1], -1)) if j == i
                else ((at[n], 1),)
                for _o, j, n in self.keys[k:k + count]], {})
                for k, start, mask, count in feeds]
            self._memos.append((sum(mask << start
                                    for _k, start, mask, _n in feeds), {}, {}))
            self._yrows.append((i, o, ns, len(self._ykeys),
                                sum(self.w.get((o, i, n), 0) << W * t
                                    for t, n in enumerate(ns)), spread))
            self._ykeys += [(o, i, n) for n in ns]
        # an order-key unit holds vdeg, a y field or an exponent + bound
        top = max(len(self._ykeys) - 1,
                  max(self.w.values(), default=0) + 2 * self.bound)
        self._keysize = max(1, -(-top.bit_length() // 8))

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

    def fields(self, v: int, count: int | None = None) -> list[int]:
        """Every field of a packed vector, ``bits`` wide, as a list in
        slot order; only the first ``count`` when it is given."""
        b = self.bits
        ones = (1 << b) - 1
        if count is None:
            count = len(self.keys)
        return [v >> s & ones for s in range(0, b * count, b)]

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
        return sum(ones << self.bits * self.slots[key] + DEG_BITS
                   for key in set(keys))

    def by_rows(self, image):
        """The map of a monomial m to the list of ``image(k, fields)``,
        one per row of m with a nonzero field, in field order: ``k`` the
        row's first field and ``fields`` its exponents (`fields`).  Each
        row's image is computed once per distinct part of it and memoised,
        as the terms of a character repeat few parts per row."""
        rows = [(k, start, mask, count, {})
                for k, start, mask, count in self._rows]
        fields = self.fields

        def parts(m: int) -> list:
            out = []
            for k, start, mask, count, memo in rows:
                part = m >> start & mask
                if part:
                    x = memo.get(part, _UNSEEN)
                    if x is _UNSEEN:
                        x = memo[part] = image(k, fields(part, count))
                    out.append(x)
            return out

        return parts

    def embedding(self, src: "Window"):
        """The map of ``src``'s monomials to this window's, degree kept.
        Each field of src must lie here no narrower and no lower, as it
        does in the window of a product of src.  A row's fields move as
        one piece only where the two widths agree, and src's fields are
        narrower wherever the product's bound needs more bits.  So each
        row of src moves through `src.by_rows`: a part's image is built
        field by field once, as a factor's terms repeat few parts."""
        at = [self.bits * self.slots[key] + DEG_BITS for key in src.keys]
        parts = src.by_rows(lambda k, fields: sum(
            [a << at[t] for t, a in enumerate(fields, k)]))
        return lambda m: (m & DEG_MASK) + sum(parts(m))

    def mirror(self, low: Monomial):
        """The duality involution of `fm` on the window of one Y_{i,s}:
        v -> low.v - sigma(v) and vdeg -> low.vdeg - vdeg, ``low`` the
        lowest weight and sigma moving the field (orbit, j, n) to
        (orbit, jbar, 2s+h-n), as `fm` mirrors a term's row records.
        Rows move through `by_rows`, so the image of a row's part is
        built once; InconsistentExpansion if a field of it leaves the
        window or exceeds ``low``'s."""
        b, duals = self.bits, self.datum.duals
        high = self.fields(low >> DEG_BITS)
        image = [self.slots.get((o, duals[j - 1], self._center[o] - n))
                 for o, j, n in self.keys]

        def move(k: int, fields: list) -> int:
            x = 0
            for t, a in enumerate(fields, k):
                if a:
                    d = image[t]
                    if d is None or high[d] < a:
                        raise InconsistentExpansion(
                            "the mirror of a term leaves the window")
                    x += a << b * d + DEG_BITS
            return x

        parts = self.by_rows(move)
        return lambda m: low - (m & DEG_MASK) - sum(parts(m))

    def y(self, m: Monomial) -> dict:
        """Y-exponents of m, in sorted key order."""
        return dict(chain.from_iterable(
            record.y for record in self.records(m)))

    def text(self, m: Monomial) -> str:
        """Canonical text of m, `render_monomial` of its y."""
        return self.label(m)[1]

    def label(self, m: Monomial) -> tuple[bytes, str]:
        """The sort key of m in the canonical term order, and its `text`,
        joined from its rows' records.  The order is by lowering degree,
        then by the Y-exponents' (key, exponent) pairs in sorted key order.

        The key is a run of equal-width big-endian units: vdeg, then the
        y field and ``bound`` + exponent of each nonzero Y-exponent, in
        field order.  For any two monomials of this window it sorts like
        the tuple (vdeg, k1, e1, k2, e2, ...) of those pairs:

        * Every unit fits.  vdeg <= bound and a y field is below the
          number of y fields.  y = w + (v moved to the neighbours) - (v
          moved up and down) takes its two v-sums from disjoint fields of
          v, each sum at most vdeg <= bound, so -bound <= e <= max(w) +
          bound.  The unit is the least number of bytes that holds the
          last y field and max(w) + 2 bound.
        * The y fields are numbered in sorted key order, and e -> e +
          bound is strictly increasing.  The tuple and the units alternate
          key and exponent positions alike, so mapping every position
          strictly increasingly keeps their lexicographic order, and a
          prefix stays a prefix.
        * Equal-width big-endian units compare as bytes do: the first
          differing byte lies in the first differing unit and decides it
          as it decides the unit, and a prefix of units is a prefix of
          bytes.

        Keys of different windows do not compare.
        """
        records = self.records(m)
        return ((m & DEG_MASK).to_bytes(self._keysize, "big")
                + b"".join([record.units for record in records]),
                " ".join([record.text for record in records]) or "1")

    def records(self, m: Monomial) -> tuple:
        """The `Row` record of each y row of m with a nonzero Y-exponent,
        in row order: by orbit, then node."""
        got = [memo.get(m & bits, _UNSEEN) for bits, memo, _es in self._memos]
        if _UNSEEN in got:
            got = [self._memoise(r, m) if record is _UNSEEN else record
                   for r, record in enumerate(got)]
        return tuple(filter(None, got))

    def _memoise(self, r: int, m: int) -> Row | None:
        # the record of y row r of m, memoised by m's bits there
        bits, memo, _by_exponents = self._memos[r]
        key = m & bits
        record = memo[key] = self._record(r, self._exponents(r, key))
        return record

    def _exponents(self, r: int, key: int) -> int:
        # the packed Y-exponents of y row r from a monomial's bits of the v
        # rows it reads: w's plus each v row part's, computed once per part
        _i, _o, _shifts, _first, y, spread = self._yrows[r]
        width = self._ywidth
        for start, mask, count, targets, made in spread:
            part = key >> start & mask
            if part:
                x = made.get(part)
                if x is None:
                    x = made[part] = sum(
                        sign * a << width * t for a, moves
                        in zip(self.fields(part, count), targets) if a
                        for t, sign in moves)
                y += x
        return y

    def _record(self, r: int, y: int) -> Row | None:
        # y row r with packed Y-exponents y, one record per distinct value:
        # None if they are all 0
        by_exponents = self._memos[r][2]
        record = by_exponents.get(y, _UNSEEN)
        if record is _UNSEEN:
            record = by_exponents[y] = self._row_record(r, y) if y else None
        return record

    def _row_record(self, r: int, y: int) -> Row:
        # the record of y row r with the packed, nonzero Y-exponents y
        i, o, shifts, first, _w, _spread = self._yrows[r]
        width = self._ywidth
        full, half = (1 << width) - 1, 1 << width - 1
        es = []
        for _n in shifts:  # the signed digits, lowest first
            e = (y + half & full) - half
            es.append(e)
            y = (y - e) >> width
        pairs = [(field, e) for field, e in enumerate(es, first) if e]
        size, keys = self._keysize, self._ykeys
        return Row(
            b"".join([x.to_bytes(size, "big") for field, e in pairs
                      for x in (field, e + self.bound)]),
            " ".join(factor_text(keys[field], e) for field, e in pairs),
            tuple((keys[field], e) for field, e in pairs), i,
            None if min(es) < 0 else tuple(
                (o, n) for n, e in zip(shifts, es) for _ in range(e)))

    def y_rows(self) -> list:
        """Each y row, in row order, as (bits, read): a monomial m's key
        there is ``m & bits``, and ``read(key)`` gives the row's record,
        memoised as `records` memoises it (None if the row's Y-exponents
        are all 0), and the part of the node's v row the key holds: None
        if it is 0, else (part, k, fields), ``k`` and ``fields`` as
        `by_rows` gives them."""
        own = {self.keys[row[0]][:2]: row for row in self._rows}
        return [(bits, partial(self._read, r, own.get((o, i))))
                for r, ((bits, _memo, _es), (i, o, *_rest))
                in enumerate(zip(self._memos, self._yrows))]

    def _read(self, r: int, vrow: tuple | None, key: int) -> tuple:
        # `y_rows`' read of y row r, whose node's v row is vrow
        record = self._memos[r][1].get(key, _UNSEEN)
        if record is _UNSEEN:
            record = self._memoise(r, key)
        if vrow is None:
            return record, None
        k, start, mask, count = vrow
        part = key >> start & mask
        return record, (part, k, self.fields(part, count)) if part else None

    def node_roots(self, m: Monomial) -> dict:
        """The shape of m's Y-exponents at each node with a nonzero row:
        None if one of them is negative, else the node's root tuple, the
        sorted (orbit, shift) multiset of its exponents (see
        `sl2.root_tuple`).  Each row's shape is read from its record, and
        a node's rows come in orbit order."""
        out: dict = {}
        for record in self.records(m):
            roots = out.get(record.node, ())
            if roots is not None:
                out[record.node] = (None if record.shape is None
                                    else roots + record.shape)
        return out

    def record(self, y) -> Row | None:
        """The record of the y row with the nonzero Y-exponents ``y``,
        (key, exponent) pairs of one (orbit, node), shared with `records`;
        None if a key lies outside the window's y rows."""
        (o, i, _n), _e = y[0]
        r = next((r for r, row in enumerate(self._yrows)
                  if row[:2] == (i, o)), None)
        at = {} if r is None else {n: t for t, n
                                   in enumerate(self._yrows[r][2])}
        if not all(n in at for (_o, _i, n), _e in y):
            return None
        return self._record(r, sum(e << self._ywidth * at[n]
                                   for (_o, _i, n), e in y))

    def solve(self, y: dict) -> Monomial | None:
        """The monomial with Y-exponents ``y``, or None: solves (y-w)[i,n]
        = -v[i,n+1] - v[i,n-1] + sum_{j~i} v[j,n] upward in n, on a dense
        scratch row of every node over each orbit's y shifts, then packs
        v and checks that it gives all of y.  None if a key of y lies
        outside those shifts, a v entry is negative or `pack` refuses v."""
        span: dict = {}  # orbit -> its lowest and highest y shift
        for _i, o, shifts, *_rest in self._yrows:
            lo, hi = span.get(o, (shifts[0], shifts[-1]))
            span[o] = min(lo, shifts[0]), max(hi, shifts[-1])
        d = dict(self.w)  # w - y
        for key, e in y.items():
            o, i, n = key
            lo, hi = span.get(o, (n + 1, n))
            if not (lo <= n <= hi and i in self.datum.nodes):
                return None
            d[key] = d.get(key, 0) - e
        nodes, adj = self.datum.nodes, self.datum.adjacency
        v = {}
        for o, (lo, hi) in span.items():
            before = now = [0] * len(nodes)  # v at the shifts n-1 and n
            for n in range(lo, hi + 1):
                before, now = now, [
                    d.get((o, i, n), 0) - before[i - 1]
                    + sum(now[j - 1] for j in adj[i - 1]) for i in nodes]
                if min(now) < 0:
                    return None
                v.update(((o, i, n + 1), a) for i, a in zip(nodes, now) if a)
        try:
            m = self.pack(v)
        except OutsideWindow:
            return None
        return m if self.y(m) == y else None

    def __repr__(self):
        return (f"Window({self.datum.family}{self.datum.rank}, "
                f"w={render_monomial(self.w)})")


# -- text format: `textform`, and whole monomials here ---------------


def parse_monomial(s: str, datum: RootDatum) -> dict:
    """Parse monomial text into a Y-exponent map keyed (orbit, node, shift)."""
    y = {}
    text = s.strip()
    if text in ("", "1"):
        return y
    pos = 0
    for factor in text.split():
        pos = s.index(factor, pos)
        parsed = parse_factor(factor)
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

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return (f"Character({self.datum.family}{self.datum.rank}, "
                f"highest={render_monomial(self.w)}, {len(self.terms)} terms)")


def trivial_character(datum: RootDatum) -> Character:
    """The character of the trivial module: the identity monomial alone."""
    return Character(Window(datum, {}), {HIGHEST: TPoly.one()})
