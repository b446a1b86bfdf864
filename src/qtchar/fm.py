"""Degree-by-degree expansion of q,t-characters of minuscule modules.

Starting from the single dominant monomial, monomials are processed one
lowering degree at a time.  Whenever a direction i still has unexplained
mass at a monomial whose node-i exponents are all nonnegative, that
residual is expanded by the simple rank-one q,t-character of the node-i
exponent multiset, embedded back through the inverse A-variables of node i.

Bookkeeping: layer d maps each monomial of lowering degree d that a string
reached to the coefficient mass each direction generated there.  Images lie
strictly deeper than their host, so a layer is complete when the expansion
reaches it, and it is dropped once read.  A monomial's coefficient is
pinned by the first direction in which it carries a negative exponent, and
the residual at every other such direction must vanish.  This converts the
unproven bookkeeping assumptions into runtime checks, and `audit_expansion`
re-verifies the finished character by peeling the per-direction
decomposition off it, by the node shapes the expansion computed.

Coefficients are packed integers, as in `fusion`, through the codec of
`tpoly` (`pack`, `Decoded`): a_e t^e becomes a_e 2^(W (e - lo)), so a
residual is one subtraction and a string application one multiply and
one add per image.  Each distinct packed value is decoded once, its
positivity checked once, and equal coefficients of a result share one
TPoly.  The packing is exact while every digit lies in the signed range
(-2^(W-1), 2^(W-1)) and every exponent is at least lo; both are proved,
not assumed.  A rank-one template coefficient is a sum of t^(2p), p >= 0,
with positive coefficients, so multiplying by it neither lowers an
exponent nor turns a digit negative, and a product's digits sum to at
most mass(c) mass(tc).

* Expansion: lo = 0 and W = 32.  Every layer entry is a sum of
  residual x template terms over already-checked positive residuals, so
  its digits lie in [0, B], B the running budget, the sum of
  mass(residual) mass(template) over the strings applied so far; a
  coefficient is 1 or a layer entry, and a residual the difference of
  two of them, with digits in [-B, B].  B is checked against 2^(W-1)
  before each string is applied, and an overrun raises
  InconsistentExpansion instead of decoding a wrong value.
* Peel (`audit_expansion`, `string_edges`), which also reads documents:
  lo is the character's lowest t-exponent and W = (2M).bit_length() + 1,
  M its absolute mass (the sum of |a_e| over all coefficients).  In one
  direction a residue is the character's coefficient, digits in [-M, M],
  minus strings of checked positive peel coefficients, so its digits lie
  in [-M - B, M], B the direction's running budget.  A valid character
  is the sum of its peel coefficients times their templates, so at t = 1
  the budget ends at its mass, at most M: a budget past M rejects the
  character correctly, and is checked before each string is subtracted.
  Digits therefore stay in [-2M, M], inside the signed range.
"""

from __future__ import annotations

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
from .tpoly import Decoded, lo_and_mass, pack

_WIDTH = 32  # digit width of the expansion's packed coefficients


def _string(window: Window, i: int, roots: tuple, width: int,
            cache: dict) -> tuple[int, list]:
    """The rank-one template of ``roots`` embedded in direction i: its mass
    at t = 1 and its (packed lowering, packed template coefficient) pairs,
    one per template monomial; adding the lowering to a host monomial
    gives the image of that monomial, the template highest mapping to the
    host itself.  ``cache`` holds one width."""
    out = cache.get((i, roots))
    if out is None:
        template = sl2_simple_qt(roots)
        tv = template.window.v
        packed = pack(template.terms.values(), width, 0)
        try:
            out = (template.mass_at_t1(),
                   [(window.pack({(o, i, n): a for (o, _node, n), a
                                  in tv(tm).items()}), x)
                    for tm, x in zip(template.terms, packed)])
        except OutsideWindow as err:
            raise InconsistentExpansion(
                f"direction {i}: the string of {roots} leaves the "
                f"window: {err}") from err
        cache[(i, roots)] = out
    return out


def _string_steps(window: Window, i: int, string: list) -> list:
    """The single lowering steps inside a string of `_string`, as
    (d1, d2, (orbit, n)) with d2 = d1 times A_{i, orbit n}^{-1}.

    Such a pair differs by one unit in the field (orbit, i, n): d2.v - d1.v
    is that field's unit.  A difference of one unit with a carry out of a
    field would change the lowering degree by other than +1, so checking
    d2.vdeg = d1.vdeg + 1 as well leaves no other pair."""
    unit = {1 << window.bits * k: (o, n)
            for (o, j, n), k in window.slots.items() if j == i}
    lowerings = [d for d, _x in string]
    return [(d1, d2, unit[d2.v - d1.v])
            for d1 in lowerings for d2 in lowerings
            if d2.vdeg == d1.vdeg + 1 and d2.v - d1.v in unit]


def fundamental_qt(datum: RootDatum, node: int, shift: int = 0,
                   orbit: str = "a") -> Character:
    """q,t-character of the fundamental module with highest l-weight
    Y_{node, orbit shift}, audited by `audit_expansion` on the node
    shapes its expansion computed.

    The expansion runs down to the lowering degree of the lowest weight,
    ``window.bound``, and must end on the single monomial
    Y_{j, orbit shift+h}^{-1} with coefficient 1 there.  Raises
    NonMinuscule if a second dominant monomial appears and
    InconsistentExpansion if the per-direction bookkeeping disagrees, the
    coefficient budget overruns the packed digits (see the module
    docstring) or the expansion does not end on that lowest weight.
    """
    if not 1 <= node <= datum.rank:
        raise NodeOutOfRange(f"node {node} not in 1..{datum.rank}")
    window = Window(datum, {(orbit, node, shift): 1})
    bound = window.bound
    decoded = Decoded(_WIDTH, 0)
    half = 1 << _WIDTH - 1
    # layers[d]: packed v of degree d -> the packed coefficient each
    # direction generated there; images lie strictly deeper than their
    # host, so a layer is complete when it is reached
    layers = [{0: [0] * datum.rank}] + [{} for _ in range(bound)]
    strings: dict = {}
    budget = 0
    terms: dict = {}
    shapes = []  # `Window.node_roots` of each term, aligned with terms

    for vdeg in range(bound + 1):
        layer, layers[vdeg] = layers[vdeg], None
        for v, generated in layer.items():
            m = Monomial(v, vdeg)
            shape = window.node_roots(m)
            # the first direction with a negative exponent pins coeff
            pin = next((j for j, roots in shape.items() if roots is None),
                       None)
            if m == HIGHEST:
                coeff = 1
            elif pin is None:
                raise NonMinuscule(
                    f"second dominant monomial {window.text(m)}; the "
                    f"expansion only applies to modules with a single "
                    f"dominant l-weight")
            else:
                coeff = generated[pin - 1]
            # no zero coeff is kept: some direction generated a nonzero
            # entry at m, which a zero coeff leaves as a nonzero residual
            terms[m] = decoded[coeff]
            shapes.append(shape)

            for i, made in zip(datum.nodes, generated):
                residual = coeff - made
                if not residual:
                    continue
                roots = shape.get(i, ())
                if roots is None:
                    raise InconsistentExpansion(
                        f"directions {pin} and {i} disagree on the "
                        f"coefficient of {window.text(m)}")
                mass = decoded.positive_mass(residual)
                if mass is None:
                    raise InconsistentExpansion(
                        f"negative residual {decoded[residual]} in direction "
                        f"{i} at {window.text(m)}")
                if not roots:
                    continue
                tmass, string = _string(window, i, roots, _WIDTH, strings)
                budget += mass * tmass
                if budget >= half:
                    raise InconsistentExpansion(
                        f"coefficient budget {budget} overruns the "
                        f"{_WIDTH}-bit digits at {window.text(m)}")
                for d, x in string:
                    if not d.vdeg:
                        continue
                    ivdeg = vdeg + d.vdeg
                    if ivdeg > bound:
                        raise InconsistentExpansion(
                            f"lowering degree {ivdeg} passes the lowest "
                            f"weight (degree {bound})")
                    layers[ivdeg].setdefault(
                        v + d.v, [0] * datum.rank)[i - 1] += residual * x

    # the expansion ends on the lowest weight Y_{j, orbit shift+h}^{-1},
    # the one monomial of the last layer, with coefficient 1
    lowest = [Monomial(v, bound) for v in layer]
    end = shift + datum.coxeter_number
    if len(lowest) != 1 or terms[lowest[0]] != 1 or [
            (o, n, e) for (o, _j, n), e in window.y(lowest[0]).items()
            ] != [(orbit, end, -1)]:
        raise InconsistentExpansion(
            f"the expansion does not end on one lowest weight "
            f"Y_{{j,{end}}}^-1 with coefficient 1 at degree {bound}")
    chi = Character(window, terms)
    audit_expansion(chi, shapes)
    return chi


def _peel(chi: Character, shapes: list | None = None,
          edges: dict | None = None) -> None:
    """Peel every direction's decomposition off a character, its terms
    sorted stably by lowering degree, ``shapes`` as `audit_expansion` has.

    In each direction i the character must be a sum over i-dominant
    monomials m of c_m(t) times the simple rank-one character of the
    node-i exponents of m, embedded at m, with every c_m nonnegative.
    Residues are packed with the width and lowest exponent the module
    docstring derives from the character.  When ``edges`` is given, the
    lowering steps interior to the embedded strings (`_string_steps`, one
    list per direction and root tuple) are added to it as (from, to, i,
    (orbit, shift)) keys.

    Raises InconsistentExpansion if some direction has no such
    decomposition.
    """
    window = chi.window
    coeffs = chi.terms.values()
    lo, mass = lo_and_mass(coeffs)
    width = (2 * mass).bit_length() + 1
    decoded = Decoded(width, lo)
    packed = pack(coeffs, width, lo)  # aligned with chi.terms
    bound = window.bound
    terms = sorted(chi.terms, key=attrgetter("vdeg"))
    if shapes is None:
        shapes = list(map(window.node_roots, terms))
    strings: dict = {}
    steps: dict = {}  # (i, roots) -> `_string_steps`, for ``edges`` only
    for i in chi.datum.nodes:
        residue = dict(zip(map(attrgetter("v"), chi.terms), packed))
        budget = 0

        def missing(m):
            return InconsistentExpansion(
                f"direction {i}: a string monomial expected below "
                f"{window.text(m)} is missing from the character")

        for m, shape in zip(terms, shapes):
            v, vdeg = m
            c = residue[v]
            if not c:
                continue
            roots = shape.get(i, ())
            if roots is None:
                raise InconsistentExpansion(
                    f"direction {i}: leftover mass {decoded[c]} at "
                    f"non-dominant {window.text(m)}")
            cmass = decoded.positive_mass(c)
            if cmass is None:
                raise InconsistentExpansion(
                    f"direction {i}: negative peel coefficient {decoded[c]} "
                    f"at {window.text(m)}")
            if not roots:
                residue[v] = 0
                continue
            tmass, string = _string(window, i, roots, width, strings)
            budget += cmass * tmass
            if budget > mass:  # only an invalid character gets here
                for d, _x in string:
                    if vdeg + d.vdeg > bound or v + d.v not in residue:
                        raise missing(m)
                raise InconsistentExpansion(
                    f"direction {i}: the peel coefficients at t = 1 "
                    f"outweigh the character's absolute mass {mass}")
            for d, x in string:
                img = v + d.v
                if vdeg + d.vdeg > bound or img not in residue:
                    raise missing(m)
                residue[img] -= c * x
            if edges is not None:
                pairs = steps.get((i, roots))
                if pairs is None:
                    pairs = steps[i, roots] = _string_steps(window, i, string)
                for d1, d2, step in pairs:
                    edges[Monomial(v + d1.v, vdeg + d1.vdeg),
                          Monomial(v + d2.v, vdeg + d2.vdeg), i, step] = None
        if any(residue.values()):
            m = next(m for m in chi.terms if residue[m.v])
            raise InconsistentExpansion(
                f"direction {i}: decomposition does not close; leftover "
                f"mass at {window.text(m)}")


def audit_expansion(chi: Character, shapes: list | None = None) -> None:
    """Verify that every direction's decomposition of the character exists
    with nonnegative coefficients; hard error otherwise.  ``shapes``, when
    the caller has them, are the terms' `Window.node_roots` in the order of
    ``chi.terms``, which must then come by lowering degree, as the layers
    of `fundamental_qt` build them."""
    _peel(chi, shapes)


def string_edges(chi: Character) -> list:
    """All lowering-step edges interior to the per-direction strings of a
    character, deduplicated and canonically sorted.  This is the edge set
    a printed character graph shows."""
    edges: dict = {}  # insertion-ordered set
    _peel(chi, None, edges)
    key = {m: chi.window.label(m)[0] for m in chi.terms}
    return sorted(edges, key=lambda e: (key[e[0]], e[2], key[e[1]]))
