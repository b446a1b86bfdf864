"""Worklist expansion of q,t-characters of minuscule modules.

Starting from the single dominant monomial, monomials are processed in
non-decreasing lowering degree.  Whenever a direction i still has
unexplained mass at a popped monomial whose node-i exponents are all
nonnegative, that residual is expanded by the simple rank-one
q,t-character of the node-i exponent multiset, embedded back through the
inverse A-variables of node i.

Bookkeeping: a per-direction ledger records how much coefficient mass each
direction has generated at every monomial.  A popped monomial's
coefficient is pinned by the ledgers of the directions in which it carries
a negative exponent (every generator of the monomial has strictly smaller
lowering degree, so those ledgers are complete by pop time); all such
directions must agree, and a residual at a non-dominant direction must
vanish.  This converts the unproven bookkeeping assumptions into runtime
checks, and `audit_expansion` re-verifies the finished character by
peeling the per-direction decomposition off it from scratch.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import attrgetter

from .charalg import HIGHEST, Character, Monomial, Window
from .errors import (
    InconsistentExpansion,
    NodeOutOfRange,
    NonMinuscule,
    OutsideWindow,
)
from .rootdata import RootDatum
from .sl2 import sl2_simple_qt
from .tpoly import TPoly

_ZERO = TPoly.zero()


def _ipart_roots(ipart: dict) -> tuple:
    """Dominant node-i exponent map -> sorted root multiset tuple."""
    roots = []
    for (orbit, n), exp in ipart.items():
        roots.extend([(orbit, n)] * exp)
    return tuple(sorted(roots))


def _string(window: Window, i: int, roots: tuple, cache: dict) -> list:
    """The rank-one template of ``roots`` embedded in direction i, as
    (packed lowering, template monomial, template coefficient) triples;
    adding the lowering to a host monomial gives the image of the template
    monomial, the template highest mapping to the host itself."""
    out = cache.get((i, roots))
    if out is None:
        template = sl2_simple_qt(roots)
        tv = template.window.v
        try:
            out = [(window.pack({(o, i, n): a for (o, _node, n), a
                                 in tv(tm).items()}), tm, c)
                   for tm, c in template.terms.items()]
        except OutsideWindow as err:
            raise InconsistentExpansion(
                f"direction {i}: the string of {roots} leaves the "
                f"window: {err}") from err
        cache[(i, roots)] = out
    return out


@lru_cache(maxsize=None)
def _template_step_pairs(root_tuple: tuple) -> tuple:
    """Single lowering steps between members of one rank-one template,
    as (source, target, (orbit, shift)) triples of template monomials."""
    template = sl2_simple_qt(root_tuple)
    window = template.window
    pairs = []
    for tm in template.terms:
        for orbit, _one, n in window.keys:
            try:
                t2 = window.lowered(tm, 1, {(orbit, n): 1})
            except OutsideWindow:
                continue
            if t2 in template.terms:
                pairs.append((tm, t2, (orbit, n)))
    return tuple(pairs)


def fundamental_qt(datum: RootDatum, node: int, shift: int = 0,
                   orbit: str = "a") -> Character:
    """q,t-character of the fundamental module with highest l-weight
    Y_{node, orbit shift}, audited by `audit_expansion`.

    The expansion runs down to the lowering degree of the lowest weight,
    ``window.bound``, and must end on the single monomial
    Y_{j, orbit shift+h}^{-1} with coefficient 1 there.  Raises
    NonMinuscule if a second dominant monomial appears and
    InconsistentExpansion if the per-direction bookkeeping disagrees or
    the expansion does not end on that lowest weight.
    """
    if not 1 <= node <= datum.rank:
        raise NodeOutOfRange(f"node {node} not in 1..{datum.rank}")
    window = Window(datum, {(orbit, node, shift): 1})
    result: dict[Monomial, TPoly] = {HIGHEST: TPoly.one()}
    ledgers: dict[int, dict[Monomial, TPoly]] = {i: {} for i in datum.nodes}
    heap: list[tuple[int, int]] = [(0, 0)]
    enqueued = {HIGHEST}
    strings: dict = {}

    while heap:
        vdeg, v = heapq.heappop(heap)
        m = Monomial(v, vdeg)
        parts = window.parts(m)

        if m == HIGHEST:
            coeff = result[m]
        else:
            negative = sorted(j for j, part in parts.items()
                              if min(part.values()) < 0)
            if not negative:
                raise NonMinuscule(
                    f"second dominant monomial {window.text(m)}; the "
                    f"expansion only applies to modules with a single "
                    f"dominant l-weight")
            coeff = ledgers[negative[0]].get(m, _ZERO)
            for i in negative[1:]:
                if ledgers[i].get(m, _ZERO) != coeff:
                    raise InconsistentExpansion(
                        f"directions {negative[0]} and {i} disagree on the "
                        f"coefficient of {window.text(m)}")
            result[m] = coeff

        for i in datum.nodes:
            ledger = ledgers[i]
            residual = coeff - ledger.get(m, _ZERO)
            if not residual:
                continue
            ipart = parts.get(i)
            if ipart and min(ipart.values()) < 0:
                raise InconsistentExpansion(
                    f"unexplained mass {residual} in direction {i} at the "
                    f"non-dominant monomial {window.text(m)}")
            if not residual.is_positive():
                raise InconsistentExpansion(
                    f"negative residual {residual} in direction {i} at "
                    f"{window.text(m)}")
            ledger[m] = coeff
            if not ipart:
                continue
            for d, _tm, tc in _string(window, i, _ipart_roots(ipart),
                                      strings):
                if not d.vdeg:
                    continue
                ivdeg = vdeg + d.vdeg
                if ivdeg > window.bound:
                    raise InconsistentExpansion(
                        f"lowering degree {ivdeg} passes the lowest weight "
                        f"(degree {window.bound})")
                img = Monomial(v + d.v, ivdeg)
                ledger[img] = ledger.get(img, _ZERO) + residual * tc
                if img not in enqueued:
                    enqueued.add(img)
                    heapq.heappush(heap, (ivdeg, img.v))

    terms = {m: c for m, c in result.items() if c}
    # the expansion ends on the lowest weight Y_{j, orbit shift+h}^{-1}
    lowest = [(m, window.y(m)) for m in terms if m.vdeg == window.bound]
    ends = [(o, n, e) for _m, y in lowest for (o, _j, n), e in y.items()]
    end = shift + datum.coxeter_number
    if ends != [(orbit, end, -1)] or terms[lowest[0][0]] != 1:
        raise InconsistentExpansion(
            f"the expansion does not end on one lowest weight "
            f"Y_{{j,{end}}}^-1 with coefficient 1 at degree {window.bound}")
    chi = Character(window, terms)
    audit_expansion(chi)
    return chi


def _peel(chi: Character, i: int, order: list, parts: dict, strings: dict):
    """decompose_direction, given the terms ``order``ed by lowering degree
    and their Y-exponents per node."""
    window = chi.window
    residue = dict(chi.terms)
    sites = []
    edges = []
    for m in order:
        c = residue[m]
        if not c:
            continue
        ipart = parts[m].get(i)
        if ipart and min(ipart.values()) < 0:
            raise InconsistentExpansion(
                f"direction {i}: leftover mass {c} at non-dominant "
                f"{window.text(m)}")
        if not c.is_positive():
            raise InconsistentExpansion(
                f"direction {i}: negative peel coefficient {c} at "
                f"{window.text(m)}")
        sites.append((m, c))
        if not ipart:
            residue[m] = _ZERO
            continue
        roots = _ipart_roots(ipart)
        images = {}
        for d, tm, tc in _string(window, i, roots, strings):
            img = Monomial(m.v + d.v, m.vdeg + d.vdeg)
            if img.vdeg > window.bound or img not in residue:
                raise InconsistentExpansion(
                    f"direction {i}: a string monomial expected below "
                    f"{window.text(m)} is missing from the character")
            images[tm] = img
            residue[img] = residue[img] - c * tc
        for src, dst, step in _template_step_pairs(roots):
            edges.append((images[src], images[dst], i, step))
    leftovers = [m for m, c in residue.items() if c]
    if leftovers:
        raise InconsistentExpansion(
            f"direction {i}: decomposition does not close; leftover mass at "
            f"{window.text(leftovers[0])}")
    return sites, edges


def _decompositions(chi: Character, nodes):
    """Yield decompose_direction(chi, i) for each i in ``nodes``, sharing
    the per-term work between directions."""
    order = sorted(chi.terms, key=attrgetter("vdeg"))
    parts = {m: chi.window.parts(m) for m in order}
    strings: dict = {}
    for i in nodes:
        yield _peel(chi, i, order, parts, strings)


def decompose_direction(chi: Character, i: int):
    """Peel the direction-i decomposition off a character.

    Expresses the character as a sum over i-dominant monomials m of
    c_m(t) times the simple rank-one character of the node-i exponents of
    m, embedded at m.  Returns (sites, edges) where ``sites`` lists the
    (monomial, c_m) pairs and ``edges`` the lowering steps interior to the
    embedded rank-one strings, as (from, to, i, (orbit, shift)) tuples.

    Raises InconsistentExpansion if no such decomposition exists.
    """
    return next(_decompositions(chi, [i]))


def audit_expansion(chi: Character) -> None:
    """Verify that every direction's decomposition of the character exists
    with nonnegative coefficients; hard error otherwise."""
    for _decomposition in _decompositions(chi, chi.datum.nodes):
        pass


def string_edges(chi: Character) -> list:
    """All lowering-step edges interior to the per-direction strings of a
    character, deduplicated and canonically sorted.  This is the edge set
    a printed character graph shows."""
    seen = set()
    out = []
    for _sites, edges in _decompositions(chi, chi.datum.nodes):
        for edge in edges:
            if edge not in seen:
                seen.add(edge)
                out.append(edge)
    key = {m: chi.window.order(m) for m in chi.terms}
    out.sort(key=lambda e: (key[e[0]], e[2], key[e[1]]))
    return out
