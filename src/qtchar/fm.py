"""Degree-by-degree expansion of q,t-characters of minuscule modules.

Starting from the single dominant monomial, monomials are processed one
lowering degree at a time.  Whenever a direction i still has unexplained
mass at a monomial whose node-i exponents are all nonnegative, that
residual is expanded by the simple rank-one q,t-character of the node-i
exponent multiset, embedded back through the inverse A-variables of node i.

Bookkeeping: layer d maps each monomial of lowering degree d that a string
reached to the coefficient mass each direction generated there.  Images lie
strictly deeper than their host, so a layer is complete when the expansion
reaches it, and it is dropped once read.  A monomial is one integer
(`charalg.Monomial`), so an image is its host plus a lowering monomial
of the string, one add that sums the degrees too, and the layers, the
peel's residues and the mirror key on these integers.  A monomial's
coefficient is pinned by the first direction in which it carries a
negative exponent, and the residual at every other such direction must
vanish.  This converts the unproven bookkeeping assumptions into runtime
checks, and `audit_expansion` re-verifies the finished character by
peeling the per-direction decomposition off it, by the row records the
expansion read (`Window.records`).  On one orbit each node has one y
row, so a record is its node's shape.

Half depth.  Let jbar be the node that -w0 sends j to (`RootDatum.duals`)
and h the Coxeter number.  The duality involution phi: Y_{j,n} ->
Y_{jbar, 2s+h-n}^-1 sends A_{j,n} to A_{jbar, 2s+h-n}^-1, so on the window
of Y_{i,s} it sends the monomial with lowering vector v to the one with
low - sigma(v), where sigma reverses each node's row and moves it to the
row of jbar, and low is the lowering vector of the lowest weight
Y_{ibar, s+h}^-1 = phi(Y_{i,s}).  The window's fields are the support of
low (`RootDatum.lowest_lowering`), which sigma maps onto itself; that
every term lies below low is what `_mirror` checks.  It maps lowering
degree d to bound - d.
That phi maps the q,t-character of V(Y_{i,s}) onto itself, coefficients
included, is a checked property, not a proved one.  At t = 1 it is the
q-character duality of V and V* (Frenkel-Reshetikhin, arXiv:math/9810055).
Term for term it holds on every fundamental the tests compare with the
full-depth expansion: A1-A8, D4-D8, E6, and E7 but node 3.  So
`fundamental_qt` expands the layers 0 .. ceil(bound/2) only, and no string
image goes past them.  The deeper layers are phi of the upper ones.
This module owns phi, with one center 2s+h for both of its maps:
`_mirror` moves a term's monomial, row part by row part through the
window's public `by_rows`, `pack` and `v`, and `_mirror_rows` its row
records.  Each mirrored term shares its source's TPoly and takes the
mirrors of its source's records, each distinct record mirrored once, so
no mirrored term's rows are decoded.  Where the halves meet the property
is checked: the expanded layer ceil(bound/2) must equal phi of the layer
bound // 2, terms and coefficients, by one code path for odd and even
bound.  The lowest weight must lie in the window at degree bound, and the
full audit then runs on the whole character.

One pass.  The peel walks the terms once, by degree, for every direction
at once: a pending image holds what each direction's strings subtracted
there so far, as the expansion's layers do.  A term is peeled only at the
nodes where it has a row.  No string reaches a term in a direction where
it has none, because every image carries its template monomial as its
node-i row and no template contains the monomial 1 (`_string` checks
this).  So its residue there is its coefficient, whose positivity is
checked once per term.  Each direction's first failure is the one a peel
of that direction alone would meet, and the lowest direction's is raised.

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
  character correctly.  It is checked with each string, and a direction's
  residues are not read after its budget passes M, so the digits of every
  residue read stay in [-2M, M], inside the signed range.  This holds for
  each direction on its own, as the one pass keeps a budget per direction.
"""

from __future__ import annotations

from operator import attrgetter

from .charalg import DEG_MASK, HIGHEST, Character, Monomial, Row, Window
from .errors import InconsistentExpansion, NonMinuscule, OutsideWindow
from .gcpause import paused_gc
from .rootdata import RootDatum
from .sl2 import sl2_simple_qt
from .tpoly import Decoded, lo_and_mass, pack

_WIDTH = 32  # digit width of the expansion's packed coefficients


def _string(window: Window, i: int, roots: tuple,
            width: int) -> tuple[int, list]:
    """The rank-one template of ``roots`` embedded in direction i: its mass
    at t = 1 and, by lowering degree, its (lowering monomial, packed
    template coefficient) pairs for every template monomial but the
    highest.  Adding the lowering to a host monomial gives the image of
    that monomial, its degree included; the highest, whose coefficient
    must be 1, maps to the host itself.  An image's node-i row is its
    template monomial's, so a template without the monomial 1, which is
    checked too, gives every image a row at node i.  The template moves
    with its roots, so it is computed with the lowest root at shift 0 and
    embedded back at that shift: a module and its shifts share templates."""
    base = min((n for _o, n in roots), default=0)
    template = sl2_simple_qt(tuple((o, n - base) for o, n in roots))
    tv = template.window.v
    pairs = sorted(zip(template.terms,
                       pack(template.terms.values(), width, 0)),
                   key=lambda pair: pair[0] & DEG_MASK)
    if pairs[0] != (HIGHEST, 1) or not all(
            map(template.window.y, template.terms)):
        raise InconsistentExpansion(
            f"direction {i}: the template of {roots} has a highest "
            f"coefficient other than 1 or the monomial 1")
    try:
        return (template.mass_at_t1(),
                [(window.pack({(o, i, n + base): a for (o, _node, n), a
                               in tv(tm).items()}), x)
                 for tm, x in pairs[1:]])
    except OutsideWindow as err:
        raise InconsistentExpansion(
            f"direction {i}: the string of {roots} leaves the "
            f"window: {err}") from err


def _string_steps(window: Window, i: int, string: list) -> list:
    """The single lowering steps inside a string of `_string`, as
    (d1, d2, (orbit, n)) with d2 = d1 times A_{i, orbit n}^{-1}.

    Such a pair differs by the monomial A_{i, orbit n}^{-1}: one unit in
    the field (orbit, i, n) and one in the degree.  Two degrees of a
    window differ by less than half the degree field's range (see
    `Monomial`), so d2 - d1 is that monomial exactly when d2.v - d1.v is
    the field's unit and d2.vdeg = d1.vdeg + 1.  A difference of one unit
    with a carry out of a field would change the lowering degree by other
    than +1, which leaves no other pair."""
    unit = {window.pack({(o, j, n): 1}): (o, n)
            for o, j, n in window.slots if j == i}
    lowerings = [HIGHEST] + [d for d, _x in string]
    return [(d1, d2, unit[d2 - d1])
            for d1 in lowerings for d2 in lowerings if d2 - d1 in unit]


@paused_gc
def fundamental_qt(datum: RootDatum, node: int, shift: int = 0,
                   orbit: str = "a") -> Character:
    """q,t-character of the fundamental module with highest l-weight
    Y_{node, orbit shift}, audited by `audit_expansion` on the row
    records its computation reads.

    The expansion runs down to the middle layer, degree ceil(bound / 2),
    ``bound`` the lowering degree of the lowest weight; the duality
    involution of the module docstring gives the terms below it.  The
    expanded middle layer must be the involution's image of the layer of
    degree bound // 2, and the lowest weight Y_{jbar, orbit shift+h}^-1
    must be a monomial of the window at degree ``bound``.  Raises
    NonMinuscule if a second dominant monomial appears and
    InconsistentExpansion if the per-direction bookkeeping disagrees, the
    coefficient budget overruns the packed digits, or either check fails.
    """
    window = Window(datum, {(orbit, node, shift): 1})
    bound = window.bound
    mid, mirrored = bound - bound // 2, bound // 2
    rank = datum.rank
    decoded = Decoded(_WIDTH, 0)
    masses = decoded.masses
    half = 1 << _WIDTH - 1
    # layers[d]: monomial of degree d -> the packed coefficient each
    # direction generated there; images lie strictly deeper than their
    # host, so a layer is complete when it is reached
    layers = [{HIGHEST: [0] * rank}] + [{} for _ in range(mid)]
    strings: dict = {}
    budget = 0
    terms: dict = {}
    rows = []  # `Window.records` of each term, aligned with terms
    upper = []  # (m, coefficient, records) of each term mirrored
    starts = []  # where each degree's terms start in terms and upper

    for vdeg in range(mid + 1):
        layer, layers[vdeg] = layers[vdeg], None
        starts.append(len(rows))
        for key, generated in layer.items():
            m = Monomial(key)
            records = window.records(m)
            # one record per node, in node order: the first direction
            # with a negative exponent pins coeff
            for record in records:
                if record.shape is None:
                    pin = record.node
                    coeff = generated[pin - 1]
                    break
            else:
                if m != HIGHEST:
                    raise NonMinuscule(
                        f"second dominant monomial {window.text(m)}; the "
                        f"expansion only applies to modules with a single "
                        f"dominant l-weight")
                pin, coeff = None, 1
            # no zero coeff is kept: some direction generated a nonzero
            # entry at m, which a zero coeff leaves as a nonzero residual
            terms[m] = c = decoded[coeff]
            rows.append(records)
            if vdeg < mirrored:
                upper.append((m, c, records))
            # no string reaches m in a direction where m has no row, so
            # the residual there is coeff: one check for all of them
            if len(records) < rank and decoded.positive_mass(coeff) is None:
                raise InconsistentExpansion(
                    f"negative residual {c} in direction "
                    f"{min(set(datum.nodes) - _nodes(records))} at "
                    f"{window.text(m)}")

            for record in records:
                i = record.node
                residual = coeff - generated[i - 1]
                if not residual:
                    continue
                roots = record.shape
                if roots is None:
                    raise InconsistentExpansion(
                        f"directions {pin} and {i} disagree on the "
                        f"coefficient of {window.text(m)}")
                mass = masses.get(residual) or decoded.positive_mass(residual)
                if mass is None:
                    raise InconsistentExpansion(
                        f"negative residual {decoded[residual]} in direction "
                        f"{i} at {window.text(m)}")
                if vdeg == mid:  # its images lie below the middle layer
                    continue
                made = strings.get((i, roots))
                if made is None:
                    made = strings[i, roots] = _string(window, i, roots,
                                                       _WIDTH)
                tmass, string = made
                budget += mass * tmass
                if budget >= half:
                    raise InconsistentExpansion(
                        f"coefficient budget {budget} overruns the "
                        f"{_WIDTH}-bit digits at {window.text(m)}")
                for d, x in string:
                    image = m + d
                    ivdeg = image & DEG_MASK
                    if ivdeg > mid:
                        break
                    entry = layers[ivdeg].get(image)
                    if entry is None:
                        entry = layers[ivdeg][image] = [0] * rank
                    entry[i - 1] += residual * x
    starts.append(len(rows))

    # the involution maps the highest weight to the lowest weight,
    # Y_{jbar, orbit shift+h}^-1, which must lie at degree bound
    end = shift + datum.coxeter_number
    jbar = datum.duals[node - 1]
    low = window.solve({(orbit, jbar, end): -1})
    if low is None or low.vdeg != bound:
        raise InconsistentExpansion(
            f"no lowest weight Y_{{{jbar or 'jbar'},{end}}}^-1 lies in the "
            f"window at degree {bound}")
    center = 2 * shift + datum.coxeter_number
    phi = _mirror(window, low, center)
    mirror = _mirror_rows(window, center)
    expanded = list(terms.items())
    if {phi(m): c for m, c in expanded[starts[mirrored]:
                                      starts[mirrored + 1]]} != dict(
            expanded[starts[mid]:]):
        raise InconsistentExpansion(
            f"the expanded layer of degree {mid} is not the mirror of the "
            f"layer of degree {mirrored}")
    for d in reversed(range(mirrored)):
        for src, c, records in upper[starts[d]:starts[d + 1]]:
            m = Monomial(phi(src))
            records = mirror(records)
            if all(map(_shape, records)):  # no negative exponent
                raise NonMinuscule(
                    f"second dominant monomial {window.text(m)}; the "
                    f"expansion only applies to modules with a single "
                    f"dominant l-weight")
            terms[m] = c
            rows.append(records)
    chi = Character(window, terms)
    audit_expansion(chi, rows)
    return chi


_shape, _units = attrgetter("shape"), attrgetter("units")


def _mirror(window: Window, low: Monomial, center: int):
    """phi on the monomials of the window of one Y_{i,s}: v -> low.v -
    sigma(v) and vdeg -> low.vdeg - vdeg, ``low`` the lowest weight and
    sigma moving the field (orbit, j, n) to (orbit, jbar, c - n), c =
    ``center`` = 2s+h.  Each row moves through `Window.by_rows`, so a
    part's image, packed with its degree, is built once.  Raises
    InconsistentExpansion if a field of an image leaves the window or
    exceeds ``low``'s."""
    duals, keys, high = window.datum.duals, window.keys, window.v(low)

    def move(k: int, fields: list) -> Monomial:
        image = {}
        for (o, j, n), a in zip(keys[k:], fields):
            if a:
                key = o, duals[j - 1], center - n
                if high.get(key, 0) < a:
                    raise InconsistentExpansion(
                        "the mirror of a term leaves the window")
                image[key] = a
        return window.pack(image)

    parts = window.by_rows(move)
    return lambda m: low - sum(parts(m))


def _mirror_rows(window: Window, center: int):
    """The map of a term's `Window.records` to those of its image under
    phi, with no row of the image decoded.  The mirror of a row reverses
    its shifts, negates its exponents and moves it to the dual node,
    Y_{j,n} -> Y_{jbar,c-n}^-1 with c = ``center`` = 2s+h, and each
    distinct record is mirrored once (`Window.record`).  Where the duals
    permute the nodes, the mirrored records are put back in row order by
    their units, as the y fields are numbered row by row.  Raises
    InconsistentExpansion if a mirrored row leaves the window."""
    duals = window.datum.duals
    moved: dict = {}  # a record's units -> its mirror's record

    def move(record):
        out = moved[record.units] = window.record(tuple(
            ((o, duals[i - 1], center - n), -e) for (o, i, n), e in record.y))
        if out is None:
            raise InconsistentExpansion(
                "the mirror of a term leaves the window")
        return out

    permutes = any(j != i for i, j in enumerate(duals, 1))

    def mirrored(records: tuple) -> tuple:
        # a record is a nonempty tuple, so ``or`` moves a new one
        out = [moved.get(record.units) or move(record) for record in records]
        if permutes:
            out.sort(key=_units)
        return tuple(out)

    return mirrored


def _nodes(records) -> set:
    # the nodes where a term has a row
    return {record.node for record in records}


def _peel(chi: Character, rows=None, edges: dict | None = None) -> None:
    """Peel every direction's decomposition off a character, its terms
    sorted stably by lowering degree, ``rows`` as `audit_expansion` has.

    In each direction i the character must be a sum over i-dominant
    monomials m of c_m(t) times the simple rank-one character of the
    node-i exponents of m, embedded at m, with every c_m nonnegative.
    Residues are packed with the width and lowest exponent the module
    docstring derives from the character.  When ``edges`` is given, the
    lowering steps interior to the embedded strings (`_string_steps`, one
    list per direction and root tuple) are added to it as (from, to, i,
    (orbit, shift)) keys.

    All directions are peeled in one pass (see the module docstring).
    Once a direction fails, it and every direction above it are no longer
    peeled.  At the end a lower direction that does not close is raised
    first, else the lowest failing direction's first failure.

    Raises InconsistentExpansion if some direction has no such
    decomposition.
    """
    window = chi.window
    coeffs = chi.terms.values()
    lo, mass = lo_and_mass(coeffs)
    width = (2 * mass).bit_length() + 1
    decoded = Decoded(width, lo)
    masses = decoded.masses
    coeff = dict(zip(chi.terms, pack(coeffs, width, lo)))
    bound = window.bound
    nodes = chi.datum.nodes
    rank = len(nodes)
    terms = sorted(chi.terms, key=DEG_MASK.__and__)
    if len(window.orbits) > 1:  # a node's rows, one per orbit, fold
        rows = (tuple(Row(None, None, None, i, roots)
                      for i, roots in window.node_roots(m).items())
                for m in terms)
    elif rows is None:
        rows = map(window.records, terms)
    strings: dict = {}
    steps: dict = {}  # (i, roots) -> `_string_steps`, for ``edges`` only
    pending: dict = {}  # monomial -> what each direction subtracted there
    budgets = [0] * rank
    failed, failure = rank + 1, None  # the lowest failing direction

    for m, records in zip(terms, rows):
        c = coeff[m]
        taken = pending.pop(m, None)
        for record in records:
            i = record.node
            if i >= failed:
                continue
            r = c - taken[i - 1] if taken else c
            if not r:
                continue
            roots = record.shape
            if roots is None:
                failed, failure = i, (
                    f"leftover mass {decoded[r]} at non-dominant "
                    f"{window.text(m)}")
                continue
            cmass = masses.get(r) or decoded.positive_mass(r)
            if cmass is None:
                failed, failure = i, (
                    f"negative peel coefficient {decoded[r]} at "
                    f"{window.text(m)}")
                continue
            made = strings.get((i, roots))
            if made is None:
                made = strings[i, roots] = _string(window, i, roots, width)
            tmass, string = made
            budgets[i - 1] += cmass * tmass
            # the deepest image comes last; a pending image is a term
            missing = (m & DEG_MASK) + (string[-1][0] & DEG_MASK) > bound
            for d, x in () if missing else string:
                image = m + d
                entry = pending.get(image)
                if entry is None:
                    if image not in coeff:
                        missing = True
                        break
                    entry = pending[image] = [0] * rank
                entry[i - 1] += r * x
            if missing:
                failed, failure = i, (
                    f"a string monomial expected below {window.text(m)} "
                    f"is missing from the character")
            elif budgets[i - 1] > mass:  # only an invalid character
                failed, failure = i, (
                    "the peel coefficients at t = 1 outweigh the "
                    f"character's absolute mass {mass}")
            elif edges is not None:
                pairs = steps.get((i, roots))
                if pairs is None:
                    pairs = steps[i, roots] = _string_steps(window, i, string)
                for d1, d2, step in pairs:
                    edges[Monomial(m + d1), Monomial(m + d2), i, step] = None
        if c and len(records) < rank and not (
                masses.get(c) or decoded.positive_mass(c)):
            i = min(set(nodes) - _nodes(records))
            if i < failed:
                failed, failure = i, (f"negative peel coefficient "
                                      f"{decoded[c]} at {window.text(m)}")
        if failed == 1:
            break
    # a visited term that a later string reaches keeps a pending image
    for i in range(1, failed):
        if any(entry[i - 1] for entry in pending.values()):
            m = next(m for m in chi.terms
                     if m in pending and pending[m][i - 1])
            raise InconsistentExpansion(
                f"direction {i}: decomposition does not close; leftover "
                f"mass at {window.text(m)}")
    if failure is not None:
        raise InconsistentExpansion(f"direction {failed}: {failure}")


def audit_expansion(chi: Character, rows: list | None = None) -> None:
    """Verify that every direction's decomposition of the character exists
    with nonnegative coefficients; hard error otherwise.  ``rows``, when
    the caller has them, are the terms' `Window.records` in the order of
    ``chi.terms``, which must then come by lowering degree, as the layers
    of `fundamental_qt` build them."""
    _peel(chi, rows)


def string_edges(chi: Character) -> list:
    """All lowering-step edges interior to the per-direction strings of a
    character, deduplicated and canonically sorted.  This is the edge set
    a printed character graph shows."""
    edges: dict = {}  # insertion-ordered set
    _peel(chi, None, edges)
    walk = chi.window.walk()
    key = {m: walk(m)[0] for m in chi.terms}
    return sorted(edges, key=lambda e: (key[e[0]], e[2], key[e[1]]))
