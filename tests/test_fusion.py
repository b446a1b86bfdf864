import random
import re
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchar import jordan
from qtchar.charalg import DEG_BITS, HIGHEST, Character, Monomial, Window, \
    parse_monomial, render_monomial
from qtchar.errors import NegativeTwist, QtCharError
from qtchar.fm import audit_expansion, fundamental_qt
from qtchar.fusion import FactorSpec, standard_module_qt, twist_rows, \
    twisted_product
from qtchar.jordan import validate_poincare
from qtchar.rootdata import build_root_datum
from qtchar.tpoly import TPoly

A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
D4 = build_root_datum("D", 4)

ONE_PLUS_T2 = TPoly({0: 1, 2: 1})


def texts(chi):
    return {chi.window.text(m): c for m, c in chi.terms.items()}


# -- the twist -------------------------------------------------------------


def bb_twist(datum, w1, v1, w2, v2):
    """Reference: the bilinear form of the fusion module docstring, summed
    over the (w, v) maps of an ordered pair of monomials."""
    p = 0
    for (orbit, i, n), a in w1.items():
        p += a * v2.get((orbit, i, n - 1), 0)
    for (orbit, j, n), a in v1.items():
        p += a * (
            w2.get((orbit, j, n - 1), 0)
            - v2.get((orbit, j, n), 0)
            - v2.get((orbit, j, n - 2), 0)
        )
        for i in datum.adjacency[j - 1]:
            p += a * v2.get((orbit, i, n - 1), 0)
    return p


def kernel_twists(chi1, chi2):
    """p(m1, m2) of every pair, as the product kernel computes it: each
    class's row of twists, expanded back to the class's terms."""
    _window, _right, classes = twist_rows(chi1, chi2)
    return {(m1, m2): p
            for ps, left in classes for m1, _v1 in left
            for m2, p in zip(chi2.terms, ps)}


def highest_term(chi):
    """chi's highest monomial alone, with chi's window and w."""
    return Character(chi.window, {HIGHEST: chi.terms[HIGHEST]})


def monomial(chi, text):
    return next(m for m in chi.terms if chi.window.text(m) == text)


def test_twist_kernel_matches_reference():
    for chi1, chi2 in [
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 1, 0)),
        (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 2)),
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1, orbit="b")),
        (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 7)),
        # a right factor that occupies no field: only c(m1) tells apart
        (fundamental_qt(D4, 2, 0), highest_term(fundamental_qt(D4, 2, 2))),
        # a gapped left factor, then the three-factor product of the cube
        (standard_module_qt(D4, [(2, 0), (2, 8)]), fundamental_qt(D4, 2, 16)),
        (standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)]),
         fundamental_qt(D4, 2, 6)),
    ]:
        got = kernel_twists(chi1, chi2)
        assert len(got) == len(chi1) * len(chi2)
        v1s = {m1: chi1.window.v(m1) for m1 in chi1.terms}
        v2s = {m2: chi2.window.v(m2) for m2 in chi2.terms}
        for (m1, m2), p in got.items():
            assert p == bb_twist(chi1.datum, chi1.w, v1s[m1], chi2.w, v2s[m2])


def per_field_embedding(window, chi, v):
    """Reference: a packed v of chi re-embedded field by field into the
    window of a product."""
    src = chi.window
    return sum(a << window.bits * window.slots[key]
               for key, a in zip(src.keys, src.fields(v)) if a)


def test_left_terms_move_by_masks_as_the_per_field_rebuild():
    # two orbits, gapped and four-factor D4 products, and a factor whose
    # w widens the product's fields to 10 bits, the other factor's 2, on
    # either side; the right factor's terms move by the same embedding
    wide = Character(Window(A2, {("a", 1, 0): 300}), {HIGHEST: TPoly.one()})
    for chi1, chi2 in [
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1, orbit="b")),
        (standard_module_qt(A2, [(1, 0), (2, 1, "b")]),
         standard_module_qt(A2, [(1, 2), (1, 0, "b")])),
        (standard_module_qt(D4, [(2, 0), (2, 8)]), fundamental_qt(D4, 2, 16)),
        (standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)]),
         fundamental_qt(D4, 2, 6)),
        (fundamental_qt(A2, 1, 0), wide),
        (wide, fundamental_qt(A2, 1, 0)),
    ]:
        window, right, classes = twist_rows(chi1, chi2)
        assert (window.bits == 10) == (wide in (chi1, chi2))
        assert right == [per_field_embedding(window, chi2, m2.v) << DEG_BITS
                         | m2.vdeg for m2 in chi2.terms]
        seen = 0
        for _ps, left in classes:
            for m1, k1 in left:
                assert k1 == per_field_embedding(
                    window, chi1, m1.v) << DEG_BITS | m1.vdeg
                seen += 1
        assert seen == len(chi1)


def test_twist_classes_of_the_cube_times_a_fourth_factor():
    # the 14638 left terms of D4 node 2 at 0,2,4 times node 2 at 6 restrict
    # to 23 distinct masks, so 23 rows of twists serve 14638 * 28 pairs
    chi1 = standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)])
    chi2 = fundamental_qt(D4, 2, 6)
    _window, right, classes = twist_rows(chi1, chi2)
    position = {m1: pos for pos, m1 in enumerate(chi1.terms)}
    classes = [[position[m1] for m1, _v1 in left] for _ps, left in classes]
    assert len(classes) == 23
    assert (len(chi1), len(right)) == (14638, 28)
    assert sorted(pos for poss in classes for pos in poss) == \
        list(range(14638))
    # classes come in order of first appearance, terms in chi1's order
    firsts = [poss[0] for poss in classes]
    assert firsts == sorted(firsts) and firsts[0] == 0
    assert all(poss == sorted(poss) for poss in classes)


def test_twist_of_highest_pair_vanishes():
    for chi in (fundamental_qt(A2, 1, 0), fundamental_qt(D4, 2, 0)):
        assert kernel_twists(chi, chi)[HIGHEST, HIGHEST] == 0


def test_twist_a2_fixture_pair():
    chi = fundamental_qt(A2, 1, 0)
    m1, m2 = monomial(chi, "2_3^-1"), monomial(chi, "1_2^-1 2_1")
    twists = kernel_twists(chi, chi)
    assert twists[m1, m2] == 1
    assert twists[m2, m1] == 0


def test_twist_a2_cross_node_pair():
    chi1, chi2 = fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1)
    m1 = monomial(chi1, "2_3^-1")
    assert kernel_twists(chi1, chi2)[m1, HIGHEST] == 1


def test_twist_diagonal_vanishes_on_thin_terms():
    # coefficient 1 on a squared monomial forces a zero diagonal twist;
    # thick monomials are exempt (the D4 one has twist 1, frozen below)
    for chi in (fundamental_qt(D4, 2, 0), fundamental_qt(A3, 2, 0),
                fundamental_qt(A2, 1, 0)):
        twists = kernel_twists(chi, chi)
        for m, c in chi.terms.items():
            if c == 1:
                assert twists[m, m] == 0


def test_twist_diagonal_on_thick_term():
    chi = fundamental_qt(D4, 2, 0)
    thick = next(m for m, c in chi.terms.items() if c != 1)
    assert kernel_twists(chi, chi)[thick, thick] == 1
    # the tensor square stays consistent regardless
    square = twisted_product(D4, chi, chi)
    assert square.mass_at_t1() == 29 * 29
    doubled = square.coefficient("2_2^2 2_4^-2")
    assert doubled == TPoly({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})


def test_negative_twist_raises():
    # a lowering vector no module has: v1.w2 - v1.v2 = 2 - 4 < 0
    window = Window(A2, {("a", 1, 0): 1})
    bad = window.pack({("a", 1, 1): 2})
    chi = Character(window, {bad: TPoly.one()})
    with pytest.raises(NegativeTwist, match=re.escape(
            "negative attracting rank -2 for pair "
            "(1_0^-1 1_2^-2 2_1^2, 1_0^-1 1_2^-2 2_1^2)")):
        twisted_product(A2, chi, chi)


@pytest.mark.parametrize("seed", range(4))
def test_negative_twist_names_the_first_failing_pair(seed):
    # a standard module's terms with a few made-up lowerings mixed in, in
    # shuffled order: the error names the first pair with p < 0 in chi1's
    # order, and in chi2's among that term's twists, as the pair-by-pair
    # reference finds it
    rng = random.Random(seed)
    base = standard_module_qt(A2, [(1, 0), (2, 1)])
    window = base.window
    slots = sorted(window.slots)
    extra = [window.pack({rng.choice(slots): 1, rng.choice(slots): 1})
             for _ in range(4)]
    terms = list(base.terms) + extra
    rng.shuffle(terms)
    chi = Character(window, dict.fromkeys(terms, TPoly.one()))
    for chi1, chi2 in ((chi, base), (base, chi), (chi, chi)):
        v1s = [window.v(m) for m in chi1.terms]
        v2s = [window.v(m) for m in chi2.terms]
        expected = None
        for m1, v1 in zip(chi1.terms, v1s):
            ps = [bb_twist(A2, chi1.w, v1, chi2.w, v2) for v2 in v2s]
            if min(ps) < 0:
                m2 = list(chi2.terms)[ps.index(min(ps))]
                expected = (f"negative attracting rank {min(ps)} for pair "
                            f"({window.text(m1)}, {window.text(m2)})")
                break
        if expected is None:
            twisted_product(A2, chi1, chi2)
        else:
            with pytest.raises(NegativeTwist, match=re.escape(expected)):
                twisted_product(A2, chi1, chi2)


def test_mixed_types_raise():
    chi1, chi2 = fundamental_qt(A2, 1, 0), fundamental_qt(D4, 2, 0)
    for args in ((A2, chi1, chi2), (D4, chi1, chi2), (D4, chi1, chi1)):
        with pytest.raises(QtCharError, match=r"RootDatum\(A2\)") as err:
            twisted_product(*args)
        assert "RootDatum(D4)" in str(err.value)


def test_twist_cross_orbit_pairs_vanish():
    chi1 = fundamental_qt(A2, 1, 0)
    chi2 = fundamental_qt(A2, 1, 0, orbit="b")
    assert set(kernel_twists(chi1, chi2).values()) == {0}
    assert set(kernel_twists(chi2, chi1).values()) == {0}


# -- twisted_product -------------------------------------------------------


def dict_product(chi1, chi2):
    """Reference: the product with one exponent -> coefficient dict per
    product monomial, updated for every exponent pair of every term pair."""
    window, right, classes = twist_rows(chi1, chi2)
    right = list(zip(right, chi2.terms.values()))
    rows = {m1: (Monomial(k1).v, ps) for ps, left in classes
            for m1, k1 in left}
    acc = {}
    for m1, c1 in chi1.terms.items():
        v1, ps = rows[m1]
        vdeg1 = m1.vdeg
        for (k2, c2), p in zip(right, ps):
            m2 = Monomial(k2)
            coeffs = acc.setdefault(v1 + m2.v, (vdeg1 + m2.vdeg, {}))[1]
            for e2, a2 in c2.c.items():
                for e1, a1 in c1.c.items():
                    e = e1 + e2 + 2 * p
                    coeffs[e] = coeffs.get(e, 0) + a1 * a2
    return Character(window, {Monomial(v << DEG_BITS | vdeg): TPoly(coeffs)
                              for v, (vdeg, coeffs) in acc.items()})


def recoefficient(chi, coeffs):
    """chi's monomials with the given coefficients, in term order."""
    return Character(chi.window, dict(zip(chi.terms, coeffs)))


_A2 = (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1))
_D4 = (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 2))
# name -> (left factors, right factors); the D4 product's left factor is
# itself a product, 650 terms in 23 classes, whose 18200 pairs with the
# right factor merge into 14638 monomials, 3562 of them across classes
BASES = {
    "A2": (_A2, _A2),
    "D4": (_D4, _D4),
    "D4 product": ((standard_module_qt(D4, [(2, 0), (2, 2)]),),
                   (fundamental_qt(D4, 2, 4),)),
}

_big = 2 ** 70
coefficients = st.dictionaries(
    st.integers(-5, 6),
    st.one_of(st.integers(-3, 3), st.integers(_big - 3, _big + 3),
              st.integers(-_big - 3, -_big + 3)),
    max_size=3).map(TPoly)


@st.composite
def recoefficiented(draw, chi):
    """chi with drawn coefficients: one per term for a fundamental, and
    for a larger factor a seeded pick from a drawn pool of eight, which
    keeps an example within Hypothesis's data budget."""
    if len(chi) <= 32:
        return recoefficient(chi, [draw(coefficients) for _ in chi.terms])
    pool = draw(st.lists(coefficients, min_size=8, max_size=8))
    pick = draw(st.randoms(use_true_random=True)).choice
    return recoefficient(chi, [pick(pool) for _ in chi.terms])


@st.composite
def factor_pairs(draw):
    lefts, rights = BASES[draw(st.sampled_from(sorted(BASES)))]
    return (draw(recoefficiented(draw(st.sampled_from(lefts)))),
            draw(recoefficiented(draw(st.sampled_from(rights)))))


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
def test_packed_product_matches_dict_reference(pair):
    chi1, chi2 = pair
    prod = twisted_product(chi1.datum, chi1, chi2)
    assert prod.terms == dict_product(chi1, chi2).terms
    # the dict comparison cannot tell a plain int key from a Monomial
    assert {type(m) for m in prod.terms} == {Monomial}


def test_merged_product_keys_stay_monomials():
    # the "D4 product" base merges 3562 pairs across classes; a merge
    # stores through the plain-int sum, and the key must stay a Monomial
    (chi1,), (chi2,) = BASES["D4 product"]
    prod = twisted_product(D4, chi1, chi2)
    assert len(prod) == 14638 == len(chi1) * len(chi2) - 3562
    assert {type(m) for m in prod.terms} == {Monomial}
    assert {m.vdeg for m in prod.terms} == set(range(31))


def test_product_terms_come_in_first_factorization_order():
    # the order of the first factorization m1 m2 of each monomial: class
    # by class, then m2 in chi2's order, then the class's m1 in chi1's
    # order; the factors start at HIGHEST, and so does the product
    for chi1, chi2 in [
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1)),
        (standard_module_qt(D4, [(2, 0), (2, 2)]), fundamental_qt(D4, 1, 3)),
    ]:
        prod = twisted_product(chi1.datum, chi1, chi2)
        assert next(iter(prod.terms)) == HIGHEST
        _window, right, classes = twist_rows(chi1, chi2)
        order = {}
        for _ps, left in classes:
            left = list(left)
            for k2 in right:
                for _m1, k1 in left:
                    order.setdefault(Monomial(k1 + k2))
        assert list(prod.terms) == list(order)


def test_packed_product_keeps_cancelled_monomial():
    # m1 m2 arises twice: c1(m1) c2(m2) t^2 + c1(m2) c2(m1) = 1 - 1
    chi = fundamental_qt(A2, 1, 0)
    m1, m2 = monomial(chi, "2_3^-1"), monomial(chi, "1_2^-1 2_1")
    chi1 = Character(chi.window, {m1: TPoly.one(), m2: TPoly({0: -1})})
    chi2 = Character(chi.window, {m1: TPoly.one(), m2: TPoly({-2: 1})})
    prod = twisted_product(A2, chi1, chi2)
    assert prod.terms == dict_product(chi1, chi2).terms
    cancelled = prod.window.solve(parse_monomial("1_2^-1 2_1 2_3^-1", A2))
    assert prod.terms[cancelled] == 0
    assert len(prod) == 3


@pytest.mark.parametrize("k", [1, 2, 7, 64, 65])
@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_width_boundary(k, offset, sign):
    # A1 A2 = 2^k - 1 or 2^k, all of it on one digit: a width one bit
    # short of (A1 A2).bit_length() + 1 reads that digit wrongly
    a = 2 ** k + offset
    chi = fundamental_qt(A2, 1, 0)
    zeros = [TPoly.zero()] * (len(chi) - 1)
    chi1 = recoefficient(chi, [TPoly({-1: sign * a})] + zeros)
    chi2 = recoefficient(chi, [TPoly({3: 1})] + zeros)
    prod = twisted_product(A2, chi1, chi2)
    assert prod.terms == dict_product(chi1, chi2).terms
    assert prod.terms[HIGHEST] == TPoly({2: sign * a})


def test_a2_square_of_first_fundamental():
    chi = fundamental_qt(A2, 1, 0)
    prod = twisted_product(A2, chi, chi)
    assert texts(prod) == {
        "1_0^2": TPoly.one(),
        "1_0 1_2^-1 2_1": ONE_PLUS_T2,
        "1_2^-2 2_1^2": TPoly.one(),
        "1_0 2_3^-1": ONE_PLUS_T2,
        "1_2^-1 2_1 2_3^-1": ONE_PLUS_T2,
        "2_3^-2": TPoly.one(),
    }


def test_identity_factor():
    from qtchar.charalg import trivial_character

    chi = fundamental_qt(A2, 1, 0)
    assert texts(twisted_product(A2, chi, trivial_character(A2))) == texts(chi)
    assert texts(twisted_product(A2, trivial_character(A2), chi)) == texts(chi)


def test_rank_one_equal_parameters():
    from qtchar.sl2 import RANK_ONE, ladder_character, Segment

    lad = ladder_character(Segment("a", 0, 1))
    prod = twisted_product(RANK_ONE, lad, lad)
    assert texts(prod) == {
        "1_0^2": TPoly.one(),
        "1_0 1_2^-1": ONE_PLUS_T2,
        "1_2^-2": TPoly.one(),
    }


def test_t1_multiplicativity():
    chi1 = fundamental_qt(D4, 2, 0)
    chi2 = fundamental_qt(D4, 1, 3)
    prod = twisted_product(D4, chi1, chi2)
    assert prod.mass_at_t1() == chi1.mass_at_t1() * chi2.mass_at_t1()


def test_cross_orbit_factorization():
    # left factor has thick coefficients; right factor lives on another
    # orbit, so every product coefficient is the plain product
    chi1 = standard_module_qt(A2, [(1, 0, "a"), (1, 0, "a")])
    chi2 = fundamental_qt(A2, 2, 0, orbit="b")
    prod = twisted_product(A2, chi1, chi2)
    expected = {}
    for m1, c1 in chi1.terms.items():
        for m2, c2 in chi2.terms.items():
            text = chi1.window.text(m1) + " " + chi2.window.text(m2)
            expected[render_monomial(parse_monomial(text, A2))] = \
                TPoly.from_pairs((e1 + e2, a1 * a2) for e1, a1 in c1.c.items()
                                 for e2, a2 in c2.c.items())
    assert len(prod.terms) == len(chi1.terms) * len(chi2.terms)
    assert texts(prod) == expected


# -- standard_module_qt ----------------------------------------------------


def test_a2_standard_squared():
    chi = standard_module_qt(A2, [(1, 0), (1, 0)])
    assert len(chi.terms) == 6
    assert chi.coefficient("1_0 1_2^-1 2_1") == ONE_PLUS_T2
    assert chi.coefficient("1_0 2_3^-1") == ONE_PLUS_T2
    assert chi.coefficient("1_2^-1 2_1 2_3^-1") == ONE_PLUS_T2
    assert chi.coefficient("1_0^2") == 1
    assert chi.coefficient("1_2^-2 2_1^2") == 1
    assert chi.coefficient("2_3^-2") == 1


def test_a2_standard_mixed():
    chi = standard_module_qt(A2, [(1, 0), (2, 1)])
    assert len(chi.terms) == 8
    nontrivial = {chi.window.text(m) for m, c in chi.terms.items()
                  if c != 1}
    assert nontrivial == {"2_1 2_3^-1"}
    assert chi.coefficient("2_1 2_3^-1") == ONE_PLUS_T2


def test_single_factor_is_fundamental():
    assert texts(standard_module_qt(D4, [(2, 0)])) == \
        texts(fundamental_qt(D4, 2, 0))


def test_factor_spec_forms():
    a = standard_module_qt(A2, [FactorSpec(1, 0), FactorSpec(2, 1)])
    b = standard_module_qt(A2, [(1, 0), (2, 1)])
    assert texts(a) == texts(b)


def test_empty_factor_list_rejected():
    with pytest.raises(QtCharError):
        standard_module_qt(A2, [])


def test_non_generic_gap_consistent_but_not_lefschetz():
    # Factors whose spectral supports interleave non-generically (here a
    # gap of 3 between adjacent nodes, crossing the trivalent node) can
    # produce a reducible l-weight space: the coefficient below sums the
    # polynomials of two pieces and is not palindromic.  The value is
    # pinned by the direction-decomposition property, which must close in
    # every direction with nonnegative peels; palindromic "fixes" of the
    # coefficient all break that decomposition.
    chi = standard_module_qt(D4, [(1, 0), (2, 3)])
    coeff = chi.coefficient("1_4 2_7^-1")
    assert coeff == TPoly({0: 1, 2: 2})
    assert not validate_poincare(coeff).ok
    audit_expansion(chi)
    assert chi.mass_at_t1() == 8 * 29
    flipped = standard_module_qt(D4, [(2, 3), (1, 0)])
    assert texts(flipped) == texts(chi)


def test_order_invariance_samples():
    rng = random.Random(7)
    for _ in range(6):
        datum = rng.choice([A2, A3, D4])
        factors = [(rng.randint(1, datum.rank), rng.randint(0, 5))
                   for _ in range(rng.randint(2, 3))]
        reference = None
        for order in permutations(factors):
            chi = standard_module_qt(datum, list(order))
            tab = texts(chi)
            if reference is None:
                reference = tab
            else:
                assert tab == reference


def test_products_decompose_in_every_direction():
    # the intrinsic validity property of a q,t-character: restricted to
    # any one Dynkin direction it peels into simple rank-one characters
    # with nonnegative coefficients; holds for non-generic gaps too
    rng = random.Random(31)
    for _ in range(20):
        datum = rng.choice([A2, A3, D4])
        factors = [(rng.randint(1, datum.rank), rng.randint(0, 8))
                   for _ in range(rng.randint(2, 3))]
        audit_expansion(standard_module_qt(datum, factors))


def test_d4_node2_cube_pinned():
    # three interleaved D4 node-2 factors: term count, the t = 1 mass
    # 29^3, the reducible coefficients and the deepest lowering degree
    # (3 x 10) do not depend on the factor order
    for factors in ([(2, 0), (2, 2), (2, 4)], [(2, 4), (2, 0), (2, 2)]):
        chi = standard_module_qt(D4, factors)
        assert len(chi) == 14638
        assert chi.mass_at_t1() == 24389 == 29 ** 3
        assert sum(1 for c in chi.terms.values()
                   if not validate_poincare(c)) == 465
        assert max(m.vdeg for m in chi.terms) == 30


def test_d4_node2_cube_shares_coefficients(monkeypatch):
    # each distinct coefficient of a product is one object and is
    # validated once, however many terms carry it
    chi = standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)])
    coeffs = list(chi.terms.values())
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) == 32
    checked = []
    check = jordan.PoincareReports.__missing__

    def counted(memo, p):
        checked.append(p)
        return check(memo, p)

    monkeypatch.setattr(jordan.PoincareReports, "__missing__", counted)
    validate_poincare.__self__.clear()
    for c in coeffs:
        validate_poincare(c)
    assert len(checked) == len({id(p) for p in checked}) == 32


def test_d4_node2_cube_memory_peak():
    # the traced peak is 1.70 MB with fields of the bound's bit length
    # (1.78 MB with byte-wide fields, 1.93 MB with one object per packed
    # sum); the bound allows 13% over it.  The transient over the result's
    # 1.56 MB is 9.4% (7.1% over 1.66 MB with byte-wide fields), with each
    # distinct sum held as one TPoly from its first store; decoding every
    # sum as it is stored, partial sums included, read 10.5%
    factors = [(2, 0), (2, 2), (2, 4)]
    standard_module_qt(D4, factors)  # the rank-one templates are cached
    tracemalloc.start()
    try:
        chi = standard_module_qt(D4, factors)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chi) == 14638
    assert peak < 1.92e6
    assert peak - retained < 0.10 * retained
