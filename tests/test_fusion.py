import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchar.charalg import HIGHEST, Character, Monomial, Window, \
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
    """p(m1, m2) of every pair, as the product kernel computes it."""
    _window, _right, rows = twist_rows(chi1, chi2)
    return {(m1, m2): p
            for m1, (_v1, _vdeg1, _c1, ps) in zip(chi1.terms, rows)
            for m2, p in zip(chi2.terms, ps)}


def monomial(chi, text):
    return next(m for m in chi.terms if chi.window.text(m) == text)


def test_twist_kernel_matches_reference():
    for chi1, chi2 in [
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 1, 0)),
        (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 2)),
        (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1, orbit="b")),
        (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 7)),
    ]:
        got = kernel_twists(chi1, chi2)
        assert len(got) == len(chi1) * len(chi2)
        for (m1, m2), p in got.items():
            assert p == bb_twist(chi1.datum, chi1.w, chi1.window.v(m1),
                                 chi2.w, chi2.window.v(m2))


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
    with pytest.raises(NegativeTwist):
        twisted_product(A2, chi, chi)


def test_twist_cross_orbit_pairs_vanish():
    chi1 = fundamental_qt(A2, 1, 0)
    chi2 = fundamental_qt(A2, 1, 0, orbit="b")
    assert set(kernel_twists(chi1, chi2).values()) == {0}
    assert set(kernel_twists(chi2, chi1).values()) == {0}


# -- twisted_product -------------------------------------------------------


def dict_product(chi1, chi2):
    """Reference: the product with one exponent -> coefficient dict per
    product monomial, updated for every exponent pair of every term pair."""
    window, right, rows = twist_rows(chi1, chi2)
    acc = {}
    for v1, vdeg1, c1, ps in rows:
        for (v2, vdeg2, c2), p in zip(right, ps):
            coeffs = acc.setdefault(v1 + v2, (vdeg1 + vdeg2, {}))[1]
            for e2, a2 in c2.c.items():
                for e1, a1 in c1.c.items():
                    e = e1 + e2 + 2 * p
                    coeffs[e] = coeffs.get(e, 0) + a1 * a2
    return Character(window, {Monomial(v, vdeg): TPoly(coeffs)
                              for v, (vdeg, coeffs) in acc.items()})


def recoefficient(chi, coeffs):
    """chi's monomials with the given coefficients, in term order."""
    return Character(chi.window, dict(zip(chi.terms, coeffs)))


BASES = {
    "A2": (fundamental_qt(A2, 1, 0), fundamental_qt(A2, 2, 1)),
    "D4": (fundamental_qt(D4, 2, 0), fundamental_qt(D4, 2, 2)),
}

_big = 2 ** 70
coefficients = st.dictionaries(
    st.integers(-5, 6),
    st.one_of(st.integers(-3, 3), st.integers(_big - 3, _big + 3),
              st.integers(-_big - 3, -_big + 3)),
    max_size=3).map(TPoly)


@st.composite
def factor_pairs(draw):
    pair = BASES[draw(st.sampled_from(sorted(BASES)))]
    return tuple(recoefficient(chi, [draw(coefficients) for _ in chi.terms])
                 for chi in (draw(st.sampled_from(pair)),
                             draw(st.sampled_from(pair))))


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
def test_packed_product_matches_dict_reference(pair):
    chi1, chi2 = pair
    prod = twisted_product(chi1.datum, chi1, chi2)
    assert prod.terms == dict_product(chi1, chi2).terms


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
            expected[render_monomial(parse_monomial(text, A2))] = c1 * c2
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


def test_d4_node2_cube_shares_coefficients():
    # each distinct coefficient of a product is one object and is
    # validated once, however many terms carry it
    chi = standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)])
    coeffs = list(chi.terms.values())
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) == 32
    validate_poincare.cache_clear()
    for c in coeffs:
        validate_poincare(c)
    assert validate_poincare.cache_info().misses == 32
