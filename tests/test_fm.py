import pytest

from qtchar import fm
from qtchar.charalg import render_monomial
from qtchar.errors import InconsistentExpansion
from qtchar.fixtures import load_fixture
from qtchar.fusion import standard_module_qt
from qtchar.fm import (
    audit_expansion,
    fundamental_qt,
    string_edges,
)
from qtchar.rootdata import build_root_datum
from qtchar.tpoly import TPoly

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
    # a bound one past the lowest weight's degree: the expansion empties
    # its worklist at degree 10 and never reaches the claimed end
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] += 1
    datum.__dict__["lowest_depths"] = tuple(depths)
    with pytest.raises(InconsistentExpansion, match="lowest weight"):
        fundamental_qt(datum, 2, 0)


def test_audit_passes_on_outputs():
    for datum, node in [(A2, 1), (A2, 2), (D4, 1), (D4, 2)]:
        audit_expansion(fundamental_qt(datum, node, 0))


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


def test_audit_builds_no_edges(monkeypatch):
    class EdgeBuilt(Exception):
        pass

    def no_edges(_roots):
        raise EdgeBuilt

    monkeypatch.setattr(fm, "_template_step_pairs", no_edges)
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
    stepped = chi.window.lowered(src, 1, {("a", 1): 1})
    assert chi.window.text(stepped) == "2_1 2_3^-1"
    assert any(m == stepped for m in chi.terms)
    assert ("1_0 1_2 2_3^-1", "2_1 2_3^-1", 1) not in got


def test_determinism():
    a = [(render_monomial(y), c) for _m, y, c in
         fundamental_qt(D4, 2, 0).sorted_terms()]
    b = [(render_monomial(y), c) for _m, y, c in
         fundamental_qt(D4, 2, 0).sorted_terms()]
    assert a == b


def test_coefficients_pass_validators():
    from qtchar.jordan import validate_poincare

    for datum, node in [(A2, 1), (D4, 2), (D4, 3)]:
        chi = fundamental_qt(datum, node, 0)
        for c in chi.terms.values():
            assert validate_poincare(c).ok
