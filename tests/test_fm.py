import hashlib

import pytest

from qtchar import fm
from qtchar.charalg import HIGHEST, Character, Window
from qtchar.errors import InconsistentExpansion, NonMinuscule
from qtchar.fixtures import load_fixture
from qtchar.fusion import standard_module_qt
from qtchar.fm import (
    audit_expansion,
    fundamental_qt,
    string_edges,
)
from qtchar.rootdata import RootDatum, build_root_datum
from qtchar.tpoly import TPoly, pack

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
D4 = build_root_datum("D", 4)
E6 = build_root_datum("E", 6)

ONE_PLUS_T2 = TPoly({0: 1, 2: 1})


def texts(chi):
    return {chi.window.text(m): c for m, c in chi.terms.items()}


def test_a1_fundamental():
    assert texts(fundamental_qt(A1, 1, 0)) == {
        "1_0": TPoly.one(), "1_2^-1": TPoly.one()}


def test_a2_fundamental():
    assert texts(fundamental_qt(A2, 1, 0)) == {
        "1_0": TPoly.one(),
        "1_2^-1 2_1": TPoly.one(),
        "2_3^-1": TPoly.one()}


def test_a2_fundamental_shifted():
    chi = fundamental_qt(A2, 2, 1)
    assert set(texts(chi)) == {"2_1", "1_2 2_3^-1", "1_4^-1"}


def test_d4_node2():
    chi = fundamental_qt(D4, 2, 0)
    table = texts(chi)
    assert len(table) == 28
    assert table["2_2 2_4^-1"] == ONE_PLUS_T2
    assert all(c == 1 for text, c in table.items() if text != "2_2 2_4^-1")
    assert chi.mass_at_t1() == 29


def test_d4_terms_match_fixture():
    fixture = load_fixture("d4-fund-2")
    expected = {t["monomial"]: TPoly.from_pairs(t["coeff"])
                for t in fixture["terms"]}
    assert texts(fundamental_qt(D4, 2, 0)) == expected


def test_d4_string_edges_match_fixture():
    fixture = load_fixture("d4-fund-2")
    want = {(a, b, i) for a, b, i in fixture["edges"]}
    chi = fundamental_qt(D4, 2, 0)
    got = {(chi.window.text(s), chi.window.text(d), i)
           for s, d, i, _ in string_edges(chi)}
    assert got == want


def test_fundamental_dimensions_across_types():
    from math import comb

    for rank in (1, 2, 3, 4):
        datum = build_root_datum("A", rank)
        for node in datum.nodes:
            chi = fundamental_qt(datum, node, 0)
            assert chi.mass_at_t1() == comb(rank + 1, node)
            # the window's lowering-degree bound is reached exactly
            assert max(m.vdeg for m in chi.terms) == chi.window.bound
    d5 = build_root_datum("D", 5)
    # vector and the two spinors are thin; nodes 2 and 3 pick up the
    # lower exterior powers (45+1, 120+10)
    assert [fundamental_qt(d5, n, 0).mass_at_t1() for n in d5.nodes] == \
        [10, 46, 130, 16, 16]
    e7 = build_root_datum("E", 7)
    chi = fundamental_qt(e7, 6, 0)
    assert chi.mass_at_t1() == len(chi.terms) == 56
    assert all(c == 1 for c in chi.terms.values())


def test_exceptional_fundamental_dimensions():
    # frozen masses of the fast exceptional-type fundamental modules;
    # the larger ones (E7 node 3: mass 640871; E8 node 8: mass 185877)
    # also close and audit but are too slow for the suite
    e6 = build_root_datum("E", 6)
    assert [fundamental_qt(e6, n, 0).mass_at_t1()
            for n in e6.nodes] == [27, 378, 3732, 378, 27, 79]
    e7 = build_root_datum("E", 7)
    for node, mass in [(1, 134), (5, 1673), (6, 56), (7, 968)]:
        assert fundamental_qt(e7, node, 0).mass_at_t1() == mass
    e8 = build_root_datum("E", 8)
    chi = fundamental_qt(e8, 7, 0)
    assert chi.mass_at_t1() == 249  # adjoint plus trivial
    assert sum(1 for c in chi.terms.values() if c != 1) == 1


def test_all_fundamentals_shift_equivariant():
    base = fundamental_qt(D4, 2, 0)
    moved = fundamental_qt(D4, 2, 5)
    assert texts(base.shifted(5)) == texts(moved)


def test_expansion_must_end_on_the_lowest_weight():
    # a bound one past the lowest weight's degree: the expansion's last
    # monomial lies at degree 10, so the layer of degree 11 is empty
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] += 1
    datum.__dict__["lowest_depths"] = tuple(depths)
    with pytest.raises(InconsistentExpansion, match="lowest weight"):
        fundamental_qt(datum, 2, 0)


def test_audit_passes_on_outputs():
    for datum, node in [(A2, 1), (A2, 2), (D4, 1), (D4, 2)]:
        audit_expansion(fundamental_qt(datum, node, 0))


def test_expansion_hands_the_audit_its_own_rows(monkeypatch):
    # the node shapes the expansion computed are those the audit would
    # compute itself, term by term, and the terms come by lowering degree,
    # the order the audit walks, so every peel check is unchanged
    handed = []
    audit = fm.audit_expansion

    def spy(chi, rows=None):
        handed.append(rows)
        audit(chi, rows)

    monkeypatch.setattr(fm, "audit_expansion", spy)
    for datum, node in [(A2, 1), (D4, 2), (E6, 3)]:
        chi = fundamental_qt(datum, node, 0)
        node_roots = chi.window.node_roots
        assert handed.pop() == [node_roots(m) for m in chi.terms]
        degrees = [m.vdeg for m in chi.terms]
        assert degrees == sorted(degrees)


def test_audit_rejects_tampered_character():
    # each tampering breaks a different check of the peel
    cases = [
        (lambda chi, m: chi.window.text(m) == "2_2 2_4^-1", TPoly.one(),
         r"leftover mass -t\^2 at non-dominant 2_2 2_4\^-1"),
        (lambda chi, m: m.vdeg == 0, TPoly({0: -1}),
         "negative peel coefficient -1 at 2_0"),
        (lambda chi, m: m.vdeg == chi.window.bound, None,
         "a string monomial expected below .* is missing"),
    ]
    for pick, coeff, message in cases:
        chi = fundamental_qt(D4, 2, 0)
        target = next(m for m in chi.terms if pick(chi, m))
        if coeff is None:
            del chi.terms[target]
        else:
            chi.terms[target] = coeff
        with pytest.raises(InconsistentExpansion, match=message):
            audit_expansion(chi)


def test_audit_width_and_lo_follow_the_character():
    # 2^70 t^-3 reads as 64 t^-1 under 32-bit digits from t^-3, so
    # neither may be fixed: both come from the character being peeled
    assert pack([TPoly({-3: 2 ** 70})], 32, -3) == \
        pack([TPoly({-1: 64})], 32, -3)
    chi = fundamental_qt(E6, 3, 0)
    scaled = Character(chi.window, {
        m: TPoly({e - 3: a * 2 ** 70 for e, a in c.c.items()})
        for m, c in chi.terms.items()})
    audit_expansion(scaled)
    assert len(string_edges(scaled)) == len(string_edges(chi)) == 7796
    scaled.terms[HIGHEST] = TPoly({-1: 64})
    with pytest.raises(InconsistentExpansion):
        audit_expansion(scaled)


def test_expansion_budget_overrun_raises(monkeypatch):
    # 4-bit digits hold a budget below 8: A1 node 1 spends 2, D4 node 2
    # overruns long before its ledgers could misread
    monkeypatch.setattr(fm, "_WIDTH", 4)
    assert len(fundamental_qt(A1, 1, 0)) == 2
    with pytest.raises(InconsistentExpansion, match="budget 8 overruns"):
        fundamental_qt(D4, 2, 0)


def test_audit_rejects_an_overdrawn_budget():
    # 2 Y_{1,0} + Y_{1,2}^-1: the peel coefficient 2 times the string's
    # mass 2 outweighs the absolute mass 3
    chi = fundamental_qt(A1, 1, 0)
    chi.terms[HIGHEST] = TPoly({0: 2})
    with pytest.raises(InconsistentExpansion, match="outweigh .* mass 3"):
        audit_expansion(chi)


def test_equal_coefficients_share_one_tpoly():
    chi = fundamental_qt(E6, 3, 0)
    assert len({id(c) for c in chi.terms.values()}) == 7
    assert len(set(chi.terms.values())) == 7


def test_audit_builds_no_edges(monkeypatch):
    class EdgeBuilt(Exception):
        pass

    def no_edges(_window, _i, _string):
        raise EdgeBuilt

    monkeypatch.setattr(fm, "_string_steps", no_edges)
    chi = fundamental_qt(E6, 3, 0)  # audits its result
    audit_expansion(chi)
    with pytest.raises(EdgeBuilt):
        string_edges(chi)


def test_string_edges_of_a2_standard_graphs():
    # the published graphs of both A2 standard modules are exactly the
    # string-interior lowering steps, not the full single-step relation
    chi = standard_module_qt(A2, [(1, 0), (1, 0)])
    got = {(chi.window.text(s), chi.window.text(d), i)
           for s, d, i, _ in string_edges(chi)}
    assert got == {
        ("1_0^2", "1_0 1_2^-1 2_1", 1),
        ("1_0 1_2^-1 2_1", "1_2^-2 2_1^2", 1),
        ("1_0 1_2^-1 2_1", "1_0 2_3^-1", 2),
        ("1_2^-2 2_1^2", "1_2^-1 2_1 2_3^-1", 2),
        ("1_0 2_3^-1", "1_2^-1 2_1 2_3^-1", 1),
        ("1_2^-1 2_1 2_3^-1", "2_3^-2", 2),
    }

    chi = standard_module_qt(A2, [(1, 0), (2, 1)])
    got = {(chi.window.text(s), chi.window.text(d), i)
           for s, d, i, _ in string_edges(chi)}
    assert got == {
        ("1_0 2_1", "1_2^-1 2_1^2", 1),
        ("1_0 2_1", "1_0 1_2 2_3^-1", 2),
        ("1_2^-1 2_1^2", "2_1 2_3^-1", 2),
        ("1_0 1_2 2_3^-1", "1_0 1_4^-1", 1),
        ("2_1 2_3^-1", "1_2 2_3^-2", 2),
        ("1_0 1_4^-1", "1_2^-1 1_4^-1 2_1", 1),
        ("1_2 2_3^-2", "1_4^-1 2_3^-1", 1),
        ("1_2^-1 1_4^-1 2_1", "1_4^-1 2_3^-1", 2),
    }
    # one extra plain single-step pair exists but lies outside every
    # string, so the graph omits it
    src = next(m for m in chi.terms if chi.window.text(m) == "1_0 1_2 2_3^-1")
    stepped = chi.window.pack({**chi.window.v(src), ("a", 1, 1): 1})
    assert chi.window.text(stepped) == "2_1 2_3^-1"
    assert any(m == stepped for m in chi.terms)
    assert ("1_0 1_2 2_3^-1", "2_1 2_3^-1", 1) not in got


# SHA-256 of the edge texts of `edge_modules`, one line per edge and a
# separator per module, pinned from the rank-one-template edge builder
EDGE_DIGEST = \
    "6e6409a85af0f19dad45746c67c5968fb6d853a4dbfc753a3e045c4a65998003"


def edge_modules():
    """Every fundamental of A1-A8, D4-D8 and E6, E7 nodes 1, 2, 5, 6 and
    7, and standard modules with a gap, with a factor in the gap and on
    two orbits."""
    for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)),
                          ("E", (6,))):
        for rank in ranks:
            datum = build_root_datum(family, rank)
            for node in datum.nodes:
                yield fundamental_qt(datum, node, 0)
    e7 = build_root_datum("E", 7)
    for node in (1, 2, 5, 6, 7):
        yield fundamental_qt(e7, node, 0)
    yield standard_module_qt(D4, [(2, 0), (2, 8)])
    yield standard_module_qt(D4, [(2, 0), (1, 7), (2, 8)])
    yield standard_module_qt(A2, [(1, 0), (2, 1, "b"), (1, 2)])


def test_string_edges_are_pinned_single_steps():
    # every edge multiplies its source by one A_{i, orbit n}^-1, and the
    # edge set is the one pinned above
    digest = hashlib.sha256()
    for chi in edge_modules():
        win = chi.window
        for src, dst, i, (o, n) in string_edges(chi):
            v = win.v(src)
            v[o, i, n] = v.get((o, i, n), 0) + 1
            assert win.v(dst) == v
            digest.update(f"{win.text(src)}\t{win.text(dst)}\t{i}\t{o}\t{n}\n"
                          .encode())
        digest.update(b"--\n")
    assert digest.hexdigest() == EDGE_DIGEST


def test_determinism():
    a = [(text, c) for _m, text, c in fundamental_qt(D4, 2, 0).sorted_terms()]
    b = [(text, c) for _m, text, c in fundamental_qt(D4, 2, 0).sorted_terms()]
    assert a == b


def test_coefficients_pass_validators():
    from qtchar.jordan import validate_poincare

    for datum, node in [(A2, 1), (D4, 2), (D4, 3)]:
        chi = fundamental_qt(datum, node, 0)
        for c in chi.terms.values():
            assert validate_poincare(c).ok


def doubled_direction_1(monkeypatch):
    string = fm._string

    def doubled(window, i, roots, width, cache):
        tmass, images = string(window, i, roots, width, cache)
        if i == 1:
            images = [(d, 2 * x) for d, x in images]
        return tmass, images

    monkeypatch.setattr(fm, "_string", doubled)


def test_expansion_checks_directions_agree(monkeypatch):
    doubled_direction_1(monkeypatch)
    with pytest.raises(InconsistentExpansion,
                       match="directions 1 and 2 disagree"):
        fundamental_qt(D4, 2, 0)


def test_expansion_checks_the_degree_bound():
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] -= 1
    datum.__dict__["lowest_depths"] = tuple(depths)
    with pytest.raises(InconsistentExpansion, match=r"lowering degree 10 "
                       r"passes the lowest weight \(degree 9\)"):
        fundamental_qt(datum, 2, 0)


def test_expansion_checks_the_window():
    # a 1-3 edge closes A3's diagram into a cycle, whose strings run on
    # past the shifts of A3's window
    a3 = build_root_datum("A", 3)
    adjacency = ((2, 3), (1, 3), (1, 2))
    cartan = tuple(tuple(2 if i == j else -1 for j in range(3))
                   for i in range(3))
    datum = RootDatum("A", 3, cartan, adjacency)
    datum.__dict__["lowest_depths"] = tuple(
        d + 2 for d in a3.lowest_depths)
    with pytest.raises(InconsistentExpansion,
                       match=r"the string of .* leaves the window"):
        fundamental_qt(datum, 1, 0)


def test_expansion_checks_residuals_are_positive(monkeypatch):
    # negated direction-1 images pin Y_{1,2}^-1 Y_{2,1} at -1, whose
    # direction-2 residual is then negative
    string = fm._string

    def negated(window, i, roots, width, cache):
        tmass, images = string(window, i, roots, width, cache)
        if i == 1:
            images = [(d, -x if d.vdeg else x) for d, x in images]
        return tmass, images

    monkeypatch.setattr(fm, "_string", negated)
    with pytest.raises(InconsistentExpansion,
                       match=r"negative residual -1 in direction 2 "
                       r"at 1_2\^-1 2_1"):
        fundamental_qt(A2, 1, 0)


def test_expansion_checks_for_a_second_dominant_monomial(monkeypatch):
    # a shape without negative exponents below the highest monomial
    node_roots = Window.node_roots

    def dominant(window, m):
        shape = node_roots(window, m)
        return {i: r for i, r in shape.items() if r is not None}

    monkeypatch.setattr(Window, "node_roots", dominant)
    with pytest.raises(NonMinuscule, match=r"second dominant monomial "
                       r"1_2\^-1 2_1"):
        fundamental_qt(A2, 1, 0)
