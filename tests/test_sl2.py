from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtchar.errors import QtCharError
from qtchar.fusion import twisted_product
from qtchar.sl2 import (
    RANK_ONE,
    Segment,
    decompose_segments,
    ladder_character,
    sl2_simple_qt,
)
from qtchar.tpoly import TPoly


def seg(head, length, orbit="a"):
    return Segment(orbit, head, length)


def roots(*shifts, orbit="a"):
    return [(orbit, n) for n in shifts]


# -- independent oracle: exhaustive non-linked decompositions ----------


def are_linked(s1, s2):
    """Whether two segments are linked: same orbit, union again a step-2
    chain, and neither contains the other."""
    if s1.orbit != s2.orbit:
        return False
    sa, sb = set(s1.shifts()), set(s2.shifts())
    if sa >= sb or sb >= sa:
        return False
    union = sorted(sa | sb)
    return all(b - a == 2 for a, b in zip(union, union[1:]))


def all_segment_decompositions(shifts):
    """Every way to split a shift multiset into segments (step-2 chains).

    Any chain containing the minimal shift must start there, so recursing
    on the feasible chain lengths at the minimum enumerates everything.
    """
    if not shifts:
        yield []
        return
    counts = {}
    for n in shifts:
        counts[n] = counts.get(n, 0) + 1
    head = min(counts)
    length = 1
    while True:
        rest = dict(counts)
        feasible = True
        for j in range(length):
            n = head + 2 * j
            if rest.get(n, 0) <= 0:
                feasible = False
                break
            rest[n] -= 1
        if not feasible:
            break
        rest_list = [n for n, c in rest.items() for _ in range(c)]
        for tail in all_segment_decompositions(rest_list):
            yield [seg(head, length)] + tail
        length += 1


def non_linked_decompositions(shifts):
    out = []
    for decomp in all_segment_decompositions(shifts):
        if all(not are_linked(s1, s2)
               for k, s1 in enumerate(decomp) for s2 in decomp[k + 1:]):
            out.append(sorted(decomp, key=lambda s: (s.orbit, s.head,
                                                     -s.length)))
    # dedupe
    uniq = []
    for d in out:
        if d not in uniq:
            uniq.append(d)
    return uniq


# -- decompose_segments --------------------------------------------------


def test_single_root():
    assert decompose_segments(roots(0)) == [seg(0, 1)]


def test_two_equal_roots():
    assert decompose_segments(roots(2, 2)) == [seg(2, 1), seg(2, 1)]


def test_derived_chain_case():
    # oracle: {0,2,2,4} admits exactly one non-linked decomposition,
    # and [(0,2),(2,2)] is linked
    oracle = non_linked_decompositions([0, 2, 2, 4])
    assert oracle == [[seg(0, 3), seg(2, 1)]]
    assert are_linked(seg(0, 2), seg(2, 2))
    assert decompose_segments(roots(0, 2, 2, 4)) == [seg(0, 3), seg(2, 1)]


@given(st.lists(st.integers(0, 6), min_size=0, max_size=6))
def test_matches_oracle_and_is_non_linked(shifts):
    got = decompose_segments(roots(*shifts))
    assert sorted(sum((s.shifts() for s in got), [])) == sorted(shifts)
    for k, s1 in enumerate(got):
        for s2 in got[k + 1:]:
            assert not are_linked(s1, s2)
    if shifts:
        oracle = non_linked_decompositions(shifts)
        assert len(oracle) == 1
        assert got == oracle[0]


@given(st.permutations([0, 0, 2, 4, 4, 6]))
def test_input_order_irrelevant(shifts):
    assert decompose_segments(roots(*shifts)) == \
        decompose_segments(roots(0, 0, 2, 4, 4, 6))


def test_orbits_kept_apart():
    got = decompose_segments(roots(0, 2) + roots(0, orbit="b"))
    assert got == [seg(0, 2), seg(0, 1, orbit="b")]


# -- ladder characters ---------------------------------------------------


def texts(chi):
    return {chi.window.text(m): c for m, c in chi.terms.items()}


def test_segment_length_must_be_positive():
    for length in (0, -1):
        with pytest.raises(QtCharError, match=f"segment length {length} "):
            seg(0, length)


def test_ladder_length_one():
    assert texts(ladder_character(seg(0, 1))) == {
        "1_0": TPoly.one(), "1_2^-1": TPoly.one()}


def test_ladder_length_two():
    # hand expansion of the length-2 string
    assert texts(ladder_character(seg(0, 2))) == {
        "1_0 1_2": TPoly.one(),
        "1_0 1_4^-1": TPoly.one(),
        "1_2^-1 1_4^-1": TPoly.one()}


def test_ladder_shifted_head():
    assert texts(ladder_character(seg(1, 1))) == {
        "1_1": TPoly.one(), "1_3^-1": TPoly.one()}


@given(st.integers(-2, 4), st.integers(1, 5))
def test_ladder_shape(head, length):
    chi = ladder_character(seg(head, length))
    assert len(chi.terms) == length + 1
    assert all(c == 1 for c in chi.terms.values())


# -- simple sl2 characters ------------------------------------------------


def test_simple_single_root():
    chi = sl2_simple_qt(roots(0))
    assert list(texts(chi).values()) == [TPoly.one()] * 2


def test_simple_two_equal_roots():
    chi = sl2_simple_qt(roots(0, 0))
    expected = {
        "1_0^2": TPoly.one(),
        "1_0 1_2^-1": TPoly({0: 1, 2: 1}),
        "1_2^-2": TPoly.one(),
    }
    assert texts(chi) == expected


def test_simple_segment_is_thin():
    chi = sl2_simple_qt(roots(0, 2))
    assert len(chi.terms) == 3
    assert all(c == 1 for c in chi.terms.values())


def brute_force_fold(root_list):
    """Oracle: fold the segment ladders in every order; all orders must
    agree.  Returns the common character's text->coeff map."""
    segments = decompose_segments(root_list)
    results = []
    for order in set(permutations(range(len(segments)))):
        chi = ladder_character(segments[order[0]])
        for k in order[1:]:
            chi = twisted_product(RANK_ONE, chi, ladder_character(segments[k]))
        results.append(texts(chi))
    assert all(r == results[0] for r in results)
    return results[0]


@pytest.mark.parametrize("shifts", [
    (0,), (0, 0), (0, 2), (0, 4), (0, 0, 0), (0, 0, 2), (0, 2, 4),
    (0, 0, 4), (0, 4, 4), (2, 2, 6),
])
def test_simple_matches_all_orders_fold(shifts):
    assert texts(sl2_simple_qt(roots(*shifts))) == brute_force_fold(
        roots(*shifts))


def test_binomial_masses_for_equal_roots():
    from math import comb

    for u in range(1, 5):
        chi = sl2_simple_qt(roots(*([0] * u)))
        masses = sorted(c.mass() for c in chi.terms.values())
        assert masses == sorted(comb(u, k) for k in range(u + 1))


def test_non_linked_product_mass():
    for shifts in [(0, 4), (0, 0, 2), (0, 2, 2, 4), (0, 0, 0)]:
        chi = sl2_simple_qt(roots(*shifts))
        expected = 1
        for s in decompose_segments(roots(*shifts)):
            expected *= s.length + 1
        assert chi.mass_at_t1() == expected
