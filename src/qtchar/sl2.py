"""Rank-one engine: q-segments, string ladders and simple sl2 characters.

Spectral parameters on one q-power orbit form step-2 chains of integer
shifts.  A multiset of parameters decomposes uniquely into pairwise
non-linked segments (greedy longest-chain extraction); the simple module
attached to the multiset factors over that decomposition, and its
q,t-character is the twisted product of the thin segment ladders.  These
rank-one characters are the expansion templates used by the degree-layer
expansion of minuscule modules.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .charalg import HIGHEST, Character, Monomial, Window, trivial_character
from .errors import QtCharError
from .rootdata import build_root_datum
from .tpoly import TPoly

RANK_ONE = build_root_datum("A", 1)


class Segment(namedtuple("Segment", "orbit head length")):
    """Step-2 chain of shifts: head, head+2, ..., head+2(length-1).
    Ordered as the tuple (orbit, head, length)."""

    __slots__ = ()

    def __new__(cls, orbit: str, head: int, length: int):
        if length < 1:
            raise QtCharError(f"segment length {length} is not >= 1")
        return super().__new__(cls, orbit, head, length)

    @classmethod
    def _make(cls, fields):  # so _replace checks the length too
        return cls(*fields)

    def shifts(self) -> list[int]:
        return [self.head + 2 * j for j in range(self.length)]


def root_tuple(roots) -> tuple:
    """Sorted tuple of a root multiset given as an iterable of
    (orbit, shift), each root repeated by its multiplicity."""
    return tuple(sorted(roots))


def decompose_segments(roots) -> list[Segment]:
    """Unique non-linked segment decomposition of a root multiset.

    Per orbit, repeatedly extract the maximal step-2 chain starting at the
    smallest available shift.  The result is sorted by (orbit, head,
    -length); no two returned segments are linked.
    """
    per_orbit: dict[str, dict[int, int]] = {}
    for orbit, shift in root_tuple(roots):
        counts = per_orbit.setdefault(orbit, {})
        counts[shift] = counts.get(shift, 0) + 1

    segments = []
    for orbit in sorted(per_orbit):
        counts = per_orbit[orbit]
        while counts:
            head = min(counts)
            n = head
            length = 0
            while counts.get(n):
                counts[n] -= 1
                if not counts[n]:
                    del counts[n]
                length += 1
                n += 2
            segments.append(Segment(orbit, head, length))
    segments.sort(key=lambda s: (s.orbit, s.head, -s.length))
    return segments


def ladder_character(seg: Segment) -> Character:
    """Thin string character of one segment: length+1 monomials, all with
    coefficient 1, obtained by lowering from the top of the string down."""
    one = TPoly.one()
    window = Window(RANK_ONE, {(seg.orbit, 1, n): 1 for n in seg.shifts()})
    terms = {HIGHEST: one}
    m = HIGHEST  # each step multiplies by A^{-1} at the next shift down
    for k in range(seg.length):
        m = Monomial(m + window.pack(
            {(seg.orbit, 1, seg.head + 2 * (seg.length - k) - 1): 1}))
        terms[m] = one
    return Character(window, terms)


@lru_cache(maxsize=None)
def _simple_qt_cached(root_tuple: tuple) -> Character:
    from .fusion import twisted_product

    if not root_tuple:
        return trivial_character(RANK_ONE)
    segments = decompose_segments(root_tuple)
    chi = ladder_character(segments[0])
    for seg in segments[1:]:
        chi = twisted_product(RANK_ONE, chi, ladder_character(seg))
    return chi


def sl2_simple_qt(roots) -> Character:
    """q,t-character of the simple rank-one module with the given Drinfeld
    root multiset, an iterable of (orbit, shift) (see `root_tuple`)."""
    return _simple_qt_cached(root_tuple(roots))
