import random
import tracemalloc
from collections import defaultdict
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtchar.charalg import (
    DEG_BITS,
    DEG_MASK,
    HIGHEST,
    Character,
    Monomial,
    Window,
    check_orbit,
    parse_key,
    parse_monomial,
    render_monomial,
)
from qtchar.errors import NodeOutOfRange, OutsideWindow, ParseError
from qtchar.fm import fundamental_qt
from qtchar.fusion import standard_module_qt, twisted_product
from qtchar.rootdata import build_root_datum
from qtchar.serialize import character_from_doc, character_to_doc
from qtchar.sl2 import sl2_simple_qt
from qtchar.tpoly import TPoly

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
D4 = build_root_datum("D", 4)


def y_exponents(datum, w, v):
    """Reference: the Y-exponent map of (w, v), one dict bump per
    A-variable factor."""
    y = defaultdict(int, w)
    for (orbit, i, n), mult in v.items():
        y[orbit, i, n - 1] -= mult
        y[orbit, i, n + 1] -= mult
        for j in datum.adjacency[i - 1]:
            y[orbit, j, n] += mult
    return {key: e for key, e in y.items() if e}


def top(datum, node, shift=0, orbit="a"):
    return Window(datum, {(orbit, node, shift): 1})


# -- Y-exponents of a window -------------------------------------------


def test_y_highest_only():
    assert top(D4, 2).y(HIGHEST) == {("a", 2, 0): 1}


def test_y_d4_first_lowering():
    win = top(D4, 2)
    assert win.y(win.pack({("a", 2, 1): 1})) == \
        parse_monomial("1_1 2_2^-1 3_1 4_1", D4)


def test_y_a2_two_lowerings():
    win = top(A2, 1)
    m = win.pack({("a", 1, 1): 1, ("a", 2, 2): 1})
    assert win.y(m) == parse_monomial("2_3^-1", A2)
    assert m.vdeg == 2 == win.bound


def test_window_layout():
    # v on the support of the lowest weight's lowering vector, shifted by
    # s: the c_ij(u) > 0, which skip node 1's shift 3 on D4 node 1; fields
    # of the bound's bit length
    win = top(D4, 2, 3)
    assert (win.bound, win.bits) == (10, 4)
    assert win.keys == sorted(win.slots) == [
        ("a", 1, 5), ("a", 1, 7), ("a", 2, 4), ("a", 2, 6), ("a", 2, 8),
        ("a", 3, 5), ("a", 3, 7), ("a", 4, 5), ("a", 4, 7)]
    assert win.slots["a", 2, 4] == 2
    assert sorted(top(D4, 1).slots) == [
        ("a", 1, 1), ("a", 1, 5), ("a", 2, 2), ("a", 2, 4), ("a", 3, 3),
        ("a", 4, 3)]
    assert Window(A2, {("a", 1, 0): 200}).bits == 9
    with pytest.raises(OutsideWindow):
        Window(A2, {("a", 1, 0): 2 ** 64})
    # a product's fields are the union of its factors' shifted supports,
    # on both parities of a node when the shifts' parities differ
    for gap, fields in ((1, 18), (2, 13), (6, 18), (7, 18), (1000, 18)):
        both = Window(D4, {("a", 2, 0): 1, ("a", 2, gap): 1})
        assert both.slots.keys() == \
            top(D4, 2).slots.keys() | top(D4, 2, gap).slots.keys()
        assert len(both.keys) == fields
        assert both.keys == sorted(both.keys)


def test_pack_rejects_outside_window():
    win = top(A2, 1)
    for v in ({("a", 1, 0): 1}, {("a", 1, 3): 1}, {("b", 1, 1): 1},
              {("a", 1, 1): -1}, {("a", 1, 1): 3}):
        with pytest.raises(OutsideWindow):
            win.pack(v)


# the eight fundamentals of ROADMAP's used-fields survey, the D4 node-2
# cube, a product with both shift parities at every node, and a product
# on two orbits
USED_FIELDS = [
    ("E", 7, [(1, 0)]), ("E", 7, [(4, 0)]), ("E", 8, [(1, 0)]),
    ("E", 8, [(8, 0)]), ("E", 6, [(3, 0)]), ("D", 4, [(2, 0)]),
    ("D", 5, [(1, 0)]), ("A", 5, [(3, 0)]),
    ("D", 4, [(2, 0), (2, 2), (2, 4)]), ("D", 4, [(2, 0), (2, 1)]),
    ("A", 2, [(1, 0), (2, 1, "b"), (1, 2)]),
]


def built(family, rank, factors):
    datum = build_root_datum(family, rank)
    if len(factors) == 1:
        return fundamental_qt(datum, *factors[0])
    return standard_module_qt(datum, factors)


@pytest.mark.parametrize("family,rank,factors", USED_FIELDS, ids=[
    f"{f}{r}:" + ",".join(":".join(map(str, x)) for x in fs)
    for f, r, fs in USED_FIELDS])
def test_window_slots_are_the_fields_the_terms_use(family, rank, factors):
    # the support derived from w alone is every field some term's v
    # uses, and no other: the bitwise or of the terms has each nonzero
    chi = built(family, rank, factors)
    used = 0
    for m in chi.terms:
        used |= m
    assert chi.window.v(Monomial(used)).keys() == chi.window.slots.keys()


@pytest.mark.parametrize("family,rank,factors,fields", [
    ("D", 4, [(2, 0), (2, 2), (2, 4)], 17), ("E", 7, [(4, 0)], 50),
    ("E", 8, [(8, 0)], 92)], ids=["D4-cube", "E7-node-4", "E8-node-8"])
def test_term_keys_are_as_wide_as_the_support(family, rank, factors,
                                              fields):
    # the bound's bit length per field of the support above the degree:
    # E8 node 8's keys are at most 768 bits, where the window of every
    # shift of each node took 2016
    window = Window(build_root_datum(family, rank),
                    {("a", i, s): 1 for i, s in factors})
    assert window.bits == window.bound.bit_length()
    assert len(window.slots) == fields
    if family != "E" or rank != 8:  # its expansion takes seconds
        chi = built(family, rank, factors)
        assert max(m.bit_length() for m in chi.terms) <= \
            DEG_BITS + window.bits * fields


# -- the integer monomial ------------------------------------------------


def with_node2_depth(depth):
    # D4 with node 2's lowest depth tampered, to size a window's bound
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] = depth
    datum.__dict__["lowest_depths"] = tuple(depths)
    return datum


@pytest.mark.parametrize("w,error,message", [
    ({("a", 0, 0): 1}, NodeOutOfRange, "node 0 not in 1..4"),
    ({("a", 5, 0): 1}, NodeOutOfRange, "node 5 not in 1..4"),
    ({("a", 2, 0): 1, ("a", 1, 3): -1}, ParseError,
     "highest weight '1_3^-1 2_0' is not a product of Y-variables of D4"),
    ({("a b", 2, 0): 1}, ParseError, "bad orbit name 'a b'"),
], ids=["node-0", "node-past-the-rank", "negative-exponent", "bad-orbit"])
def test_window_checks_its_highest_weight(w, error, message):
    # the one check of a highest weight, before any layout
    with pytest.raises(error) as excinfo:
        Window(D4, w)
    assert str(excinfo.value) == message


def test_window_rejects_a_bound_past_the_degree_field():
    # the degree field holds twice the bound; 2000 far-apart factors
    # would allocate some 28000 fields, and a rejected window allocates
    # none of them
    w = {("a", 2, 10 * k): 1 for k in range(2000)}
    for depth in (2 ** (DEG_BITS - 1) // 2000 + 1, 2 ** DEG_BITS):
        tracemalloc.start()
        try:
            with pytest.raises(OutsideWindow, match="degree field"):
                Window(with_node2_depth(depth), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e3
    tracemalloc.start()
    try:
        window = Window(with_node2_depth(2 ** (DEG_BITS - 1) // 2000), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * window.bound < 2 ** DEG_BITS <= 2 * window.bound + 4000
    assert peak > 1e6


# the last four fill their one field to 6, 7, 8 and 9 bits, either side
# of a width boundary
WINDOWS = [top(D4, 2), top(A2, 1), Window(A2, {("a", 1, 0): 300}),
           Window(D4, {("a", 2, 0): 1, ("a", 2, 8): 1, ("b", 1, 3): 2}),
           *(Window(A1, {("a", 1, 0): m}) for m in (63, 64, 255, 256))]


@st.composite
def lowering_pairs(draw):
    """A window and two lowering vectors in it, each of degree at most its
    bound: a degree spread over up to four of its slots."""
    window = draw(st.sampled_from(WINDOWS))

    def lowering():
        keys = draw(st.lists(st.sampled_from(sorted(window.slots)),
                             max_size=4))
        degree = draw(st.integers(0, window.bound)) if keys else 0
        v = {}
        for n, key in enumerate(keys):
            v[key] = v.get(key, 0) + degree // len(keys) + (
                n < degree % len(keys))
        return {key: a for key, a in v.items() if a}

    return window, lowering(), lowering()


@given(lowering_pairs())
def test_monomial_sum_adds_v_and_vdeg(pair):
    # the sum's low bits are the sum of the degrees; within the bound the
    # sum is the monomial of the summed lowering vectors
    window, v1, v2 = pair
    m1, m2 = window.pack(v1), window.pack(v2)
    assert (type(m1), type(m2)) == (Monomial, Monomial)
    assert (m1 + m2) & DEG_MASK == m1.vdeg + m2.vdeg
    if m1.vdeg + m2.vdeg <= window.bound:
        m = Monomial(m1 + m2)
        assert (m.v, m.vdeg) == (m1.v + m2.v, m1.vdeg + m2.vdeg)
        assert m == window.pack({key: v1.get(key, 0) + v2.get(key, 0)
                                 for key in v1.keys() | v2.keys()})


def test_window_widths_are_the_bounds_bit_lengths():
    assert [(w.bound, w.bits) for w in WINDOWS[-4:]] == [
        (63, 6), (64, 7), (255, 8), (256, 9)]
    # the lowest weight of D4 node 2 at shifts 0,2,4,6 is the sum of its
    # factors' lowest weights and fills the bound of its 6-bit fields
    shifts = (0, 2, 4, 6)
    window = Window(D4, {("a", 2, s): 1 for s in shifts})
    low = {}
    for s in shifts:
        chi = fundamental_qt(D4, 2, s)
        lowest = max(chi.terms, key=lambda m: m.vdeg)
        for key, a in chi.window.v(lowest).items():
            low[key] = low.get(key, 0) + a
    m = window.pack(low)
    assert (window.bits, m.vdeg) == (6, window.bound)
    assert window.fields(m.v) == [low.get(key, 0) for key in window.keys]
    assert window.v(m) == low


def test_term_keys_are_monomials():
    chi = fundamental_qt(D4, 2)
    for built in [
        chi,
        twisted_product(D4, chi, fundamental_qt(D4, 2, 2)),
        standard_module_qt(A2, [(1, 0), (2, 1, "b"), (1, 2)]),
        character_from_doc(character_to_doc(chi)),
        sl2_simple_qt([("a", 0), ("a", 0), ("a", 2)]),
    ]:
        assert built.terms
        assert {type(m) for m in built.terms} == {Monomial}


# -- lowering ------------------------------------------------------------


def test_apply_lowering_d4():
    win = top(D4, 2)
    m = win.pack({("a", 2, 1): 1})
    assert win.text(m) == "1_1 2_2^-1 3_1 4_1"


def test_apply_lowering_a2():
    # hand expansion of Y_{1,0} * A_{1,1}^{-1}
    win = top(A2, 1)
    m = win.pack({("a", 1, 1): 1})
    assert win.text(m) == "1_2^-1 2_1"
    assert win.v(m) == {("a", 1, 1): 1}


# -- per-node exponents ----------------------------------------------------


def node10():
    # 1_3^-1 2_2^2 3_3^-1 4_3^-1 with its expansion payload
    win = top(D4, 2)
    return win, win.pack({("a", 2, 1): 1, ("a", 1, 2): 1, ("a", 3, 2): 1,
                          ("a", 4, 2): 1})


def test_i_part():
    win, m = node10()
    assert win.text(m) == "1_3^-1 2_2^2 3_3^-1 4_3^-1"
    assert win.node_roots(m) == {1: None, 2: (("a", 2), ("a", 2)),
                                 3: None, 4: None}
    assert win.node_roots(HIGHEST) == {2: (("a", 0),)}


def test_is_i_dominant():
    win, m = node10()
    assert win.node_roots(HIGHEST)[2] is not None
    assert win.node_roots(m)[1] is None
    thick = win.pack({**win.v(m), ("a", 2, 3): 1})
    assert win.text(thick) == "2_2 2_4^-1"
    assert win.node_roots(thick)[2] is None


def reference_node_roots(y):
    """Reference: node -> None or sorted root multiset, from the y map."""
    per_node: dict = {}
    for (o, i, n), e in y.items():
        per_node.setdefault(i, []).append(((o, n), e))
    return {i: None if min(e for _k, e in part) < 0 else
            tuple(sorted(k for k, e in part for _ in range(e)))
            for i, part in sorted(per_node.items())}


def test_node_roots_merge_blocks_and_orbits():
    # the gapped window of 2_0 2_8 has two blocks per node, and the last
    # character two orbits; each node's rows merge into one root tuple
    gapped = standard_module_qt(D4, [(2, 0), (2, 8)])
    assert gapped.window.node_roots(HIGHEST) == {2: (("a", 0), ("a", 8))}
    for chi in (gapped, standard_module_qt(D4, [(2, 0), (1, 7), (2, 8)]),
                standard_module_qt(D4, [(1, 0), (3, 20, "b"), (4, 3, "b")])):
        for m in chi.terms:
            assert chi.window.node_roots(m) == \
                reference_node_roots(chi.window.y(m))


# -- coefficient lookup ------------------------------------------------------


def test_coefficient_of_absent_monomial():
    chi = fundamental_qt(D4, 2, 0)
    assert chi.coefficient("1_1 2_2^-1 3_1 4_1") == 1
    # the solve for v meets a negative exponent
    assert chi.coefficient("2_0^2 2_2^-1") == TPoly.zero()
    # a lowering vector of the window that is not a term
    win = chi.window
    m = win.pack({("a", 1, 2): 1})
    assert m not in chi.terms
    assert chi.coefficient(win.text(m)) == TPoly.zero()


@pytest.mark.parametrize("datum,node,key", [
    (D4, 2, ("a", 1, 1)), (D4, 1, ("a", 1, 3)), (A2, 1, ("a", 2, 1))])
def test_solve_refuses_a_lowering_off_the_support(datum, node, key):
    # Y^w A^-1 at a field of the y rows' shifts that the lowest weight's
    # lowering vector skips: a valid Y-monomial, whose v the window does
    # not pack, so it is no monomial of the window
    chi = fundamental_qt(datum, node, 0)
    win = chi.window
    assert key not in win.slots
    y = y_exponents(datum, win.w, {key: 1})
    with pytest.raises(OutsideWindow):
        win.pack({key: 1})
    assert win.solve(y) is None
    assert chi.coefficient(render_monomial(y)) == TPoly.zero()


def test_coefficient_outside_window():
    chi = fundamental_qt(D4, 2, 0)
    assert chi.coefficient("2_8^-1") == TPoly.zero()     # shift past s+h
    assert chi.coefficient("2_0@b") == TPoly.zero()     # another orbit
    assert chi.coefficient("1") == TPoly.zero()


def test_solve_inverts_y():
    for chi in (fundamental_qt(D4, 2, 0),
                standard_module_qt(A2, [(1, 0), (2, 1, "b"), (1, 2)]),
                standard_module_qt(D4, [(2, 0), (1, 7), (2, 8)])):
        for m in chi.terms:
            assert chi.window.solve(chi.window.y(m)) == m


# -- parse / render ----------------------------------------------------


def test_parse_examples():
    assert parse_monomial("2_4^-1 3_1 3_3", D4) == {
        ("a", 3, 1): 1, ("a", 3, 3): 1, ("a", 2, 4): -1}
    assert parse_monomial("", D4) == {}
    assert parse_monomial("1_2^-2 2_1^2", A2) == {
        ("a", 1, 2): -2, ("a", 2, 1): 2}


def test_render_examples():
    assert render_monomial({("a", 3, 1): 1, ("a", 3, 3): 1,
                            ("a", 2, 4): -1}) == "2_4^-1 3_1 3_3"
    assert render_monomial({}) == "1"
    assert render_monomial({("a", 1, 2): -2, ("a", 2, 1): 2}) == "1_2^-2 2_1^2"


def test_parse_errors():
    with pytest.raises(ParseError) as excinfo:
        parse_monomial("2_4^-1 bogus", D4)
    assert excinfo.value.position == 7
    with pytest.raises(NodeOutOfRange):
        parse_monomial("9_0", D4)
    with pytest.raises(ParseError):
        parse_monomial("1_", A2)
    # ASCII digits only, and no numeral past int()'s digit limit
    for text in ["\u0661_0", "1_\u0660", "1" * 5000 + "_0"]:
        with pytest.raises(ParseError, match="malformed factor"):
            parse_monomial(text, A2)


def test_one_rule_for_keys_and_orbit_names():
    assert parse_key("2_-3@b7") == ("b7", 2, -3)
    assert parse_key("2_1") == ("a", 2, 1)
    for tag in ["1_0\n", "\u0661_0", "1_0^2", "1_0@", "1_0@9", "1_0@b\u00e9",
                " 1_0"]:
        with pytest.raises(ParseError, match="malformed exponent key"):
            parse_key(tag)
    assert check_orbit("b7") == "b7"
    for name in ["", "x y", "9", "b\u00e9", "b\n", "b^2", "a@b"]:
        with pytest.raises(ParseError, match="bad orbit name"):
            check_orbit(name)


def test_parse_orbit_suffix():
    y = parse_monomial("1_0@b^2 2_1", A2)
    assert y == {("b", 1, 0): 2, ("a", 2, 1): 1}
    assert render_monomial(y) == "2_1 1_0@b^2"


y_maps = st.dictionaries(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(1, 4),
              st.integers(-3, 8)),
    st.integers(-4, 4).filter(bool),
    max_size=6,
)


@given(y_maps)
def test_parse_render_roundtrip(y):
    assert parse_monomial(render_monomial(y), D4) == y


def test_render_parse_canonicalizes():
    assert render_monomial(parse_monomial("3_3 2_4^-1  3_1", D4)) \
        == "2_4^-1 3_1 3_3"


# -- mass ------------------------------------------------------------


def test_mass_at_t1():
    assert fundamental_qt(A2, 1, 0).mass_at_t1() == 3
    assert fundamental_qt(D4, 2, 0).mass_at_t1() == 29
    assert standard_module_qt(A2, [(1, 0), (1, 0)]).mass_at_t1() == 9


# -- consistency invariants ---------------------------------------------


def test_y_regenerates_from_wv_everywhere():
    for chi in (fundamental_qt(D4, 2, 0),
                standard_module_qt(A2, [(1, 0), (2, 1)]),
                standard_module_qt(D4, [(1, 0), (2, 3, "b")]),
                standard_module_qt(D4, [(2, 0), (1, 7), (2, 8)])):
        for m in chi.terms:
            assert y_exponents(chi.datum, chi.w, chi.window.v(m)) == \
                chi.window.y(m)


def assert_order_matches_reference(window, monomials):
    """`Window.label`'s key sorts like the reference tuple: lowering degree,
    then the flattened (key, exponent) pairs of the reference Y-exponents
    in sorted key order; `Window.text` renders those Y-exponents."""
    ys = {m: y_exponents(window.datum, window.w, window.v(m))
          for m in monomials}
    want = sorted(monomials, key=lambda m: (
        m.vdeg, *chain.from_iterable(sorted(ys[m].items()))))
    assert sorted(monomials, key=lambda m: window.label(m)[0]) == want
    assert list(map(window.text, want)) == [render_monomial(ys[m])
                                            for m in want]


GAPPED = [[(2, 0), (2, 8)], [(2, 0), (1, 7), (2, 8)],
          [(1, 0), (3, 20, "b"), (4, 3, "b")]]


def test_term_order_on_gapped_windows():
    # windows with several blocks on one orbit, or two orbits, still order
    # terms by lowering degree, then sorted Y-exponents
    for factors in GAPPED:
        chi = standard_module_qt(D4, factors)
        rows = chi.sorted_terms()
        ys = [chi.window.y(m) for m, _text, _c in rows]
        assert all(list(y) == sorted(y) for y in ys)
        assert [text for _m, text, _c in rows] == \
            list(map(render_monomial, ys))
        keys = [(m.vdeg, tuple(sorted(y.items())))
                for (m, _text, _c), y in zip(rows, ys)]
        assert keys == sorted(keys)
        assert_order_matches_reference(chi.window, list(chi.terms))


# every fundamental of these types but E7 node 3, which takes minutes
FUNDAMENTALS = [("A", rank) for rank in range(1, 9)] + \
    [("D", rank) for rank in range(4, 9)] + [("E", 6), ("E", 7)]


@pytest.mark.parametrize("family,rank", FUNDAMENTALS,
                         ids=[f"{f}{r}" for f, r in FUNDAMENTALS])
def test_order_key_sorts_like_the_tuple_on_fundamentals(family, rank):
    datum = build_root_datum(family, rank)
    for node in datum.nodes:
        if (family, rank, node) != ("E", 7, 3):
            chi = fundamental_qt(datum, node, 0)
            assert_order_matches_reference(chi.window, list(chi.terms))


@pytest.mark.parametrize("datum,w,bits", [
    (A2, {("a", 1, 0): 200}, 9),  # 9-bit fields
    (build_root_datum("A", 3), {("a", 2, 0): 40}, 8),  # 16-bit key units
    (A1, {("a", 1, 0): 22000}, 15),  # 24-bit key units
])
def test_order_key_sorts_like_the_tuple_beyond_a_byte(datum, w, bits):
    window = Window(datum, w)
    assert window.bits == bits
    if window.bound == 22000:
        # vdeg, then the y field and exponent of 1_0^22000: units of the
        # least number of bytes that holds 22000 + 2 * 22000
        assert len(window.label(HIGHEST)[0]) == 9
    rng = random.Random(7)
    slots = sorted(window.slots)
    monomials = {HIGHEST}
    while len(monomials) < 400:
        v = {}
        for key in rng.sample(slots, rng.randint(1, min(3, len(slots)))):
            v[key] = rng.randint(0, window.bound - sum(v.values()))
        monomials.add(window.pack(v))
    exps = [e for m in monomials
            for e in y_exponents(datum, window.w, window.v(m)).values()]
    assert min(exps) < -127 and max(exps) > 127
    assert_order_matches_reference(window, list(monomials))


@pytest.mark.parametrize("factors", [[(3, 0)], [(2, 0), (2, 2), (2, 4)]],
                         ids=["E6-node-3", "D4-cube"])
def test_by_rows_maps_each_nonzero_row_once_per_part(factors):
    datum = build_root_datum("E", 6) if len(factors) == 1 else D4
    chi = built(datum.family, datum.rank, factors)
    window = chi.window
    calls = []

    def image(k, fields):
        assert any(fields)
        calls.append(k)
        return [(t, a) for t, a in enumerate(fields, k) if a]

    rows = window.by_rows(image)
    parts = set()  # (orbit, node) and the row's nonzero pairs, per term
    for m in chi.terms:
        pairs = window.pairs(m)
        by_row = defaultdict(list)
        for k, a in pairs:
            by_row[window.keys[k][:2]].append((k, a))
        parts.update((row, tuple(p)) for row, p in by_row.items())
        assert list(chain.from_iterable(rows(m))) == pairs
    assert len(calls) == len(parts)
    for m in chi.terms:
        assert list(chain.from_iterable(rows(m))) == window.pairs(m)
    assert len(calls) == len(parts)
    if len(factors) == 1:
        assert (len(chi.terms), len(calls)) == (2925, 105)


def test_merge_monomials_sums_payloads():
    win1, win2 = top(A2, 1), top(A2, 2, 1)
    m1 = win1.pack({("a", 1, 1): 1})
    prod = twisted_product(A2, Character(win1, {m1: TPoly.one()}),
                           Character(win2, {HIGHEST: TPoly.one()}))
    (m,) = prod.terms
    assert prod.w == {("a", 1, 0): 1, ("a", 2, 1): 1}
    assert prod.window.v(m) == {("a", 1, 1): 1}
    assert prod.window.text(m) == "1_2^-1 2_1^2"
