"""Twisted product of q,t-characters.

The product of two characters is not the plain monomial product: each pair
of factor monomials contributes with a shift t^{2p}, where p is the rank of
the positively-weighted attracting block of the tangent space at the
corresponding fixed-point pair.  That rank is an explicit bilinear form in
the (w, v) payloads of the two monomials, pairing entries on the same
spectral orbit only:

    p(m1, m2) = sum over (orbit, i, n) of
        w1[i,n] v2[i,n-1] + v1[i,n] w2[i,n-1]
        - v1[i,n] v2[i,n] - v1[i,n] v2[i,n-2]
        + sum_{j ~ i} v1[j,n] v2[i,n-1]

Cross-orbit pairs contribute nothing, so characters on disjoint orbits
multiply coefficient-by-coefficient.

A product coefficient sums the contributions of every factorization of
its monomial, one per fixed-locus piece.  For generic parameter placement
those pieces assemble into a single connected locus and the sum is a
hard-Lefschetz Poincare polynomial; special interleaving gaps can leave
the locus reducible, in which case the coefficient is still correct but
not palindromic.

Coefficients are summed as packed integers (Kronecker substitution): a
coefficient sum a_e t^e of a factor becomes the integer sum
a_e 2^(W (e - lo)), lo the factor's lowest t-exponent, and t^{2p} is a
shift by 2Wp.  The twist p(m1, .) depends on m1 only through a few fields
of v1 (`twist_rows`), so the terms of the left factor fall into classes
that share one row of twists: each class shifts each packed coefficient
of the right factor once, by its twist.  Both factors' monomials move
into the product's window by one map, `Window.embedding`, as the window alone
owns the layout: a factor's fields are as wide as its own bound needs,
and each of its rows moves by one memoised lookup of the row's part.
There a monomial is one integer and their sum is the product monomial,
degree included (`charalg.Monomial`).  A class has few distinct
coefficients (at most 29 in each of the 23 classes of the D4 node-2
product at shifts 0,2,4,6, whose left factor has 14638 terms), so each
is multiplied by a right term's shifted coefficient once, before the
class's terms meet that term.  A pair then costs one add and one lookup.
A new sum is made a Monomial, which keys the result, and stored; no key
is split or rebuilt after the loop.  A sum seen before (a later
factorization) adds the two packed values, interns the total and stores
it through the plain-int sum, so the dict keeps its Monomial key.  Every
packed value passes through a table local to the call that holds one
TPoly per distinct value, partial sums included (on the D4 node-2
product at shifts 0,2,4,6, 273 for 327892 terms, 118 of them in the
result).  The accumulator refers to that TPoly from the first store; the
TPoly holds its packed value until the loop ends and is then decoded
once, in place, so no pass over the terms follows the loop.

The width W is derived, not set: no digit of any partial sum exceeds
A1 A2 in size, A the absolute mass sum |a| of a factor over all its
terms, so W = (A1 A2).bit_length() + 1 keeps signed digits from carrying
into one another, for Laurent, negative and arbitrarily large
coefficients alike.  Packing and decoding are `tpoly.pack` and
`tpoly.unpack`: each distinct sum is decoded once, so equal coefficients
of a product share one TPoly.
"""

from __future__ import annotations

from collections import namedtuple

from .charalg import DEFAULT_ORBIT, Character, Monomial, Window
from .errors import NegativeTwist, QtCharError
from .gcpause import paused_gc
from .rootdata import RootDatum
from .tpoly import TPoly, lo_and_mass, pack, unpack


class FactorSpec(namedtuple("FactorSpec", "node shift orbit",
                            defaults=(0, DEFAULT_ORBIT))):
    """One fundamental factor of a standard module: the tuple (node,
    shift, orbit), shift 0 and orbit DEFAULT_ORBIT by default."""

    __slots__ = ()

    def sort_key(self):
        return (self.orbit, self.shift, self.node)


def twist_rows(chi1: Character, chi2: Character):
    """The twist p(m1, m2) of every pair of terms, one row per class of
    terms of chi1.

    Both characters move into the window of w1 + w2 by
    `Window.embedding`.  For a fixed m1 the form is affine in v2,
    p = c(m1) + u(m1).v2, with

        c(m1) = sum of v1[j,n] w2[j,n-1]
        u(m1)[i,n] = w1[i,n+1] - v1[i,n] - v1[i,n+2] + sum_{j~i} v1[j,n+1]

    c reads v1 only on the fields where w2 sits one shift below, and
    u.v2 reads u only on the fields some term of chi2 occupies, so u only
    through the v1 fields that pair with those.  Those fields make up the
    mask, and p(m1, .) is a function of v1 restricted to it: terms of
    chi1 with equal restrictions form one class and share one row.  The
    terms are grouped by the mask taken in chi1's own window
    (`Window.mask`), and each is moved only when its class comes up.

    Returns (window, right, classes): ``right`` lists the terms of chi2 as
    monomials of the window, and ``classes`` yields (ps, left) for each
    class in order of first appearance, where ps[k] is the twist of the
    class against right[k] and ``left`` yields (m1, k1) for the class's
    terms in chi1's order, k1 the monomial m1 of the window.  Raises
    NegativeTwist on a pair with p < 0, naming the first such pair in
    chi1's and chi2's order.
    """
    datum = chi1.datum
    w1, w2 = chi1.w, chi2.w
    w = dict(w1)
    for key, a in w2.items():
        w[key] = w.get(key, 0) + a
    window = Window(datum, w)
    slot = window.slots.get
    u0 = [w1.get((o, i, n + 1), 0) for o, i, n in window.keys]
    w2_below = [w2.get((o, i, n - 1), 0) for o, i, n in window.keys]
    pairing = []
    for o, j, n in window.keys:
        row = [(slot((o, j, n)), -1), (slot((o, j, n - 2)), -1)]
        row += [(slot((o, i, n - 1)), 1) for i in datum.adjacency[j - 1]]
        pairing.append(tuple((k, s) for k, s in row if k is not None))

    src = chi1.window
    left = window.embedding(src)
    right = list(map(window.embedding(chi2.window), chi2.terms))
    # fields of v2, each repeated by its exponent
    dots = [tuple(k for k, a in window.pairs(k2) for _ in range(a))
            for k2 in right]
    read = {k for ks in dots for k in ks}
    used = {key for key, k in window.slots.items() if w2_below[k] or
            any(k2 in read for k2, _s in pairing[k])}
    mask = src.mask(used & src.slots.keys())
    members: dict[int, list] = {}  # m1 & mask -> the terms of chi1
    for m1 in chi1.terms:
        members.setdefault(m1 & mask, []).append(m1)

    def classes():
        for key in list(members):
            terms = members.pop(key)  # each class's list goes once it is done
            nz = window.pairs(left(key))
            c = sum(a * w2_below[k] for k, a in nz)
            u = u0[:]
            for k, a in nz:
                for k2, s in pairing[k]:
                    u[k2] += s * a
            ps = [c + sum(map(u.__getitem__, ks)) for ks in dots]
            if min(ps, default=0) < 0:
                m2 = list(chi2.terms)[ps.index(min(ps))]
                raise NegativeTwist(
                    f"negative attracting rank {min(ps)} for pair "
                    f"({src.text(terms[0])}, {chi2.window.text(m2)})")
            yield ps, ((m1, left(m1)) for m1 in terms)

    return window, right, classes()


class _Held(dict):
    """Packed sum -> the one TPoly that its terms hold.  Until `decode`
    that TPoly's ``c`` is the packed sum itself, so a later factorization
    adds to it, and each distinct sum is decoded once, in place."""

    def __missing__(self, x: int) -> TPoly:
        t = self[x] = TPoly.__new__(TPoly)
        t.c = x
        return t

    def decode(self, width: int, lo: int) -> None:
        for t in self.values():
            t.c = unpack(t.c, width, lo)


@paused_gc
def twisted_product(datum: RootDatum, chi1: Character,
                    chi2: Character) -> Character:
    """Fuse two characters: coefficient of a product monomial is the sum
    over factorizations of t^{2p} times the product of factor coefficients,
    summed on packed integers (see the module docstring).  Each distinct
    packed sum is held once, as the TPoly it is decoded into after the
    loop, however many monomials share it, so the accumulator costs a
    reference per term.  A monomial whose coefficient cancels to zero is
    kept.

    The terms come in the order of their first factorization m1 m2: class
    by class of `twist_rows`, then m2 in chi2's order, then the class's m1
    in chi1's order.  So the first term is HIGHEST when it is both
    factors' first.  `annotate_character` names the first monomial in this
    order whose coefficient does not decode, and NegativeTwist the first
    failing pair in it when the product is a factor again."""
    if not chi1.datum == chi2.datum == datum:
        raise QtCharError(
            f"cannot multiply characters of {chi1.datum!r} and "
            f"{chi2.datum!r} over {datum!r}")
    coeffs1, coeffs2 = chi1.terms.values(), chi2.terms.values()
    lo1, mass1 = lo_and_mass(coeffs1)
    lo2, mass2 = lo_and_mass(coeffs2)
    width = (mass1 * mass2).bit_length() + 1
    window, right, classes = twist_rows(chi1, chi2)
    right = list(zip(right, pack(coeffs2, width, lo2)))
    terms1 = chi1.terms
    packed1 = dict(zip(coeffs1, pack(coeffs1, width, lo1)))
    step = 2 * width
    acc: dict[Monomial, TPoly] = {}
    get = acc.get
    held = _Held()
    for ps, left in classes:
        # the class's distinct coefficients, and for each of its terms k1
        # and the index of its coefficient among them, in two lists (a
        # tuple per term would cost 64 bytes)
        index: dict[int, int] = {}
        ks, js = [], []
        for m1, k1 in left:
            ks.append(k1)
            js.append(index.setdefault(packed1[terms1[m1]], len(index)))
        for (k2, x2), p in zip(right, ps):
            x2 <<= step * p  # t^{2p} is a shift by 2Wp
            ts = [held[x1 * x2] for x1 in index]
            for k1, j in zip(ks, js):
                m = k1 + k2
                t = get(m)
                if t is None:
                    acc[Monomial(m)] = ts[j]
                else:  # stored through the int: the Monomial key stays
                    acc[m] = held[t.c + ts[j].c]
    held.decode(width, lo1 + lo2)
    return Character(window, acc)


@paused_gc
def standard_module_qt(datum: RootDatum, factors) -> Character:
    """q,t-character of the standard module with the given fundamental
    factors; independent of the order in which factors are listed.  Each
    factor is computed at its own shift, its window checking its node and
    orbit, and multiplied on in sorted order."""
    from . import fm

    specs = [FactorSpec(*f) for f in factors]
    if not specs:
        raise QtCharError("standard module needs at least one factor")
    specs.sort(key=FactorSpec.sort_key)

    out = None
    for f in specs:
        chi = fm.fundamental_qt(datum, f.node, f.shift, f.orbit)
        out = chi if out is None else twisted_product(datum, out, chi)
    return out
