import hashlib
import operator
import random
from operator import attrgetter

import pytest

from qtchar import fm
from qtchar.charalg import (
    DEG_BITS,
    HIGHEST,
    Character,
    Monomial,
    Window,
    parse_monomial,
    render_monomial,
)
from qtchar.errors import InconsistentExpansion, NonMinuscule
from qtchar.fixtures import load_fixture
from qtchar.fusion import standard_module_qt
from qtchar.fm import (
    audit_expansion,
    fundamental_qt,
    string_edges,
)
from qtchar.rootdata import RootDatum, build_root_datum
from qtchar.tpoly import Decoded, TPoly, lo_and_mass, pack

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
    # a window's keys move with w and keep their order, so the packed
    # terms at shift 5 are those at shift 0, in the same order
    base = fundamental_qt(D4, 2, 0)
    moved = fundamental_qt(D4, 2, 5)
    assert list(moved.terms.items()) == list(base.terms.items())
    assert texts(moved) == {
        render_monomial({(o, i, n + 5): e for (o, i, n), e
                         in parse_monomial(text, D4).items()}): c
        for text, c in texts(base).items()}


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
    # the row records the expansion read are those the audit would read
    # itself, term by term, and the terms come by lowering degree, the
    # order the audit walks, so every peel check is unchanged
    handed = []
    audit = fm.audit_expansion

    def spy(chi, rows=None):
        handed.append(rows)
        audit(chi, rows)

    monkeypatch.setattr(fm, "audit_expansion", spy)
    for datum, node in [(A2, 1), (D4, 2), (E6, 3)]:
        chi = fundamental_qt(datum, node, 0)
        records = chi.window.records
        assert handed.pop() == [records(m) for m in chi.terms]
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
                       match=r"direction 1: leftover mass -1 at non-dominant "
                       r"1_3\^-1 1_5\^-1 2_2"):
        fundamental_qt(D4, 2, 0)


def test_expansion_checks_the_degree_bound():
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] -= 1
    datum.__dict__["lowest_depths"] = tuple(depths)
    with pytest.raises(InconsistentExpansion, match=r"no lowest weight "
                       r"Y_\{jbar,6\}\^-1 lies in the window at degree 9"):
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
                       match=r"no lowest weight .* at degree 5"):
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


def test_expansion_checks_residuals_in_directions_without_a_row(
        monkeypatch):
    # on A3, negated direction-1 images pin Y_{1,2}^-1 Y_{2,1} at -1,
    # and that monomial has no row at node 3, whose residual is its
    # coefficient
    string = fm._string

    def negated(window, i, roots, width, cache):
        tmass, images = string(window, i, roots, width, cache)
        if i == 1:
            images = [(d, -x) for d, x in images]
        return tmass, images

    monkeypatch.setattr(fm, "_string", negated)
    with pytest.raises(InconsistentExpansion) as excinfo:
        fundamental_qt(build_root_datum("A", 3), 1, 0)
    assert str(excinfo.value) == (
        "negative residual -1 in direction 3 at 1_2^-1 2_1")


def test_expansion_checks_the_template_head(monkeypatch):
    # a template whose highest coefficient is 2 cannot be a string
    simple = fm.sl2_simple_qt

    def doubled(roots):
        template = simple(roots)
        return Character(template.window,
                         {m: TPoly({0: 2}) if m == HIGHEST else c
                          for m, c in template.terms.items()})

    monkeypatch.setattr(fm, "sl2_simple_qt", doubled)
    with pytest.raises(InconsistentExpansion) as excinfo:
        fundamental_qt(A2, 1, 0)
    assert str(excinfo.value) == (
        "direction 1: the template of (('a', 0),) has a highest "
        "coefficient other than 1 or the monomial 1")


def test_expansion_checks_for_a_second_dominant_monomial(monkeypatch):
    # rows that read as without negative exponents below the highest
    # monomial, their text and Y-exponents kept
    records = Window.records

    def dominant(window, m):
        return tuple(r if r.shape else r._replace(shape=())
                     for r in records(window, m))

    monkeypatch.setattr(Window, "records", dominant)
    with pytest.raises(NonMinuscule, match=r"second dominant monomial "
                       r"1_2\^-1 2_1"):
        fundamental_qt(A2, 1, 0)


def test_expansion_checks_directions_agree_above_the_middle(monkeypatch):
    # E6 node 2's doubled direction-1 images disagree with direction 2
    # inside the expanded half
    doubled_direction_1(monkeypatch)
    with pytest.raises(InconsistentExpansion, match=r"directions 1 and 2 "
                       r"disagree on the coefficient of 1_7\^-1 2_4\^-1 "
                       r"3_3 5_3"):
        fundamental_qt(E6, 2, 0)


def test_expansion_checks_the_middle_layer(monkeypatch):
    # D4 node 3 has bound 6: its doubled direction-1 images leave the
    # expanded middle layer unequal to its own mirror
    doubled_direction_1(monkeypatch)
    with pytest.raises(InconsistentExpansion, match=r"the expanded layer of "
                       r"degree 3 is not the mirror of the layer of degree 3"):
        fundamental_qt(D4, 3, 0)


def test_expansion_checks_the_window_above_the_middle():
    # the cyclic "A3" of test_expansion_checks_the_window with a bound of
    # 7: its first string that leaves the window starts above the middle
    a3 = build_root_datum("A", 3)
    adjacency = ((2, 3), (1, 3), (1, 2))
    cartan = tuple(tuple(2 if i == j else -1 for j in range(3))
                   for i in range(3))
    datum = RootDatum("A", 3, cartan, adjacency)
    datum.__dict__["lowest_depths"] = tuple(
        d + 4 for d in a3.lowest_depths)
    assert datum.duals == (None, None, None)
    with pytest.raises(InconsistentExpansion,
                       match=r"the string of .* leaves the window"):
        fundamental_qt(datum, 1, 0)


def test_mirror_checks_that_images_stay_in_the_window():
    # with the degree-1 term of A2 node 1 as a too shallow lowest weight,
    # the highest weight mirrors onto it, and the term onto no monomial
    chi = fundamental_qt(A2, 1, 0)
    shallow = next(m for m in chi.terms if m.vdeg == 1)
    phi = chi.window.mirror(shallow)
    assert phi(HIGHEST) == shallow
    with pytest.raises(InconsistentExpansion,
                       match="the mirror of a term leaves the window"):
        phi(shallow)


def test_expansion_checks_the_mirrored_half_for_dominant_monomials(
        monkeypatch):
    # mirrored rows without negative exponents below the middle layer
    mirror_rows = fm._mirror_rows

    def dominant(window, center):
        mirror = mirror_rows(window, center)
        return lambda records: tuple(
            r for r in mirror(records) if r.shape is not None)

    monkeypatch.setattr(fm, "_mirror_rows", dominant)
    with pytest.raises(NonMinuscule,
                       match=r"second dominant monomial 2_3\^-1"):
        fundamental_qt(A2, 1, 0)


def test_expansion_stops_at_the_middle_layer(monkeypatch):
    # the expansion reads the rows of each term down to degree
    # ceil(bound / 2) once, and of no deeper term but the lowest weight,
    # which `Window.solve` checks: the terms below the middle take the
    # mirrors of the records of the terms above degree bound // 2, in
    # reverse degree order
    hosts, mirrored = [], []
    records, mirror_rows = Window.records, fm._mirror_rows

    def spy_records(window, m):
        hosts.append((window, m))
        return records(window, m)

    def spy_mirror(window, center):
        mirror = mirror_rows(window, center)

        def spy(rows):
            mirrored.append(rows)
            return mirror(rows)
        return spy

    monkeypatch.setattr(Window, "records", spy_records)
    monkeypatch.setattr(fm, "_mirror_rows", spy_mirror)
    monkeypatch.setattr(fm, "audit_expansion", lambda chi, rows: None)
    for datum, node in [(A1, 1), (A2, 1), (D4, 2), (D4, 3), (E6, 1)]:
        hosts.clear(), mirrored.clear()
        chi = fundamental_qt(datum, node, 0)
        bound = chi.window.bound
        mid = bound - bound // 2
        degrees = sorted(m.vdeg for m in chi.terms)
        # the rank-one templates have windows of their own
        assert sorted(m.vdeg for w, m in hosts if w is chi.window) == \
            sorted([d for d in degrees if d <= mid] + [bound])
        monkeypatch.setattr(Window, "records", records)
        sources = sorted((m for m in chi.terms if m.vdeg < bound // 2),
                         key=lambda m: -m.vdeg)
        assert mirrored == [chi.window.records(m) for m in sources]
        monkeypatch.setattr(Window, "records", spy_records)


# -- references for the half-depth expansion and the one-pass peel -------

def full_depth_qt(datum, node, shift=0):
    """Reference: the expansion run layer by layer down to the lowest
    weight, each direction checked at each term, not audited."""
    window = Window(datum, {("a", node, shift): 1})
    bound = window.bound
    decoded = Decoded(32, 0)
    layers = [{0: [0] * datum.rank}] + [{} for _ in range(bound)]
    strings = {}
    terms = {}
    for vdeg in range(bound + 1):
        layer, layers[vdeg] = layers[vdeg], None
        for v, generated in layer.items():
            m = Monomial(v << DEG_BITS | vdeg)
            shape = window.node_roots(m)
            pin = next((j for j, roots in shape.items() if roots is None),
                       None)
            assert (m == HIGHEST) == (pin is None)
            coeff = 1 if pin is None else generated[pin - 1]
            terms[m] = decoded[coeff]
            for i, made in zip(datum.nodes, generated):
                residual = coeff - made
                if not residual:
                    continue
                roots = shape.get(i, ())
                assert roots is not None
                assert decoded.positive_mass(residual) is not None
                if roots:
                    _mass, string = fm._string(window, i, roots, 32, strings)
                    for d, x in string:
                        layers[vdeg + d.vdeg].setdefault(
                            v + d.v, [0] * datum.rank)[i - 1] += residual * x
    assert [terms[Monomial(v << DEG_BITS | bound)] for v in layer] == [1]
    return Character(window, terms)


def direction_major_peel(chi):
    """Reference: the peel of `audit_expansion`, one direction at a time,
    each walking every term; raises the first failure of the lowest
    failing direction."""
    window = chi.window
    coeffs = chi.terms.values()
    lo, mass = lo_and_mass(coeffs)
    width = (2 * mass).bit_length() + 1
    decoded = Decoded(width, lo)
    packed = pack(coeffs, width, lo)
    terms = sorted(chi.terms, key=attrgetter("vdeg"))
    shapes = list(map(window.node_roots, terms))
    strings = {}
    for i in chi.datum.nodes:
        residue = dict(zip(map(attrgetter("v"), chi.terms), packed))
        budget = 0
        for m, shape in zip(terms, shapes):
            v, vdeg = m.v, m.vdeg
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
            residue[v] = 0
            if not roots:
                continue
            tmass, string = fm._string(window, i, roots, width, strings)
            budget += cmass * tmass
            if any(vdeg + d.vdeg > window.bound or v + d.v not in residue
                   for d, _x in string):
                raise InconsistentExpansion(
                    f"direction {i}: a string monomial expected below "
                    f"{window.text(m)} is missing from the character")
            if budget > mass:
                raise InconsistentExpansion(
                    f"direction {i}: the peel coefficients at t = 1 "
                    f"outweigh the character's absolute mass {mass}")
            for d, x in string:
                residue[v + d.v] -= c * x
        if any(residue.values()):
            m = next(m for m in chi.terms if residue[m.v])
            raise InconsistentExpansion(
                f"direction {i}: decomposition does not close; leftover "
                f"mass at {window.text(m)}")


def reference_modules():
    """(datum, node) of every fundamental of A1-A8, D4-D8 and E6, and of
    E7 but node 3."""
    for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)),
                          ("E", (6,))):
        for rank in ranks:
            datum = build_root_datum(family, rank)
            for node in datum.nodes:
                yield datum, node
    e7 = build_root_datum("E", 7)
    for node in (1, 2, 4, 5, 6, 7):
        yield e7, node


def test_half_depth_matches_full_depth(monkeypatch):
    # term for term, coefficient for coefficient and in the same degree
    # order; the handed rows are the terms' own records
    handed = []
    monkeypatch.setattr(fm, "audit_expansion",
                        lambda chi, rows: handed.append(rows))
    for datum, node in reference_modules():
        chi = fundamental_qt(datum, node, 0)
        full = full_depth_qt(datum, node, 0)
        assert chi.terms == full.terms, (datum, node)
        degrees = [m.vdeg for m in chi.terms]
        assert degrees == sorted(degrees)
        assert handed.pop() == list(map(chi.window.records, chi.terms))



def test_mirrored_records_are_the_rows_own_records(monkeypatch):
    # each mirrored term's records, mapped from its source's without
    # decoding its rows, are the window's own walk of its rows, record
    # for record; E6 and D5 dualize nodes, so the rows change order
    handed = []
    monkeypatch.setattr(fm, "audit_expansion",
                        lambda chi, rows: handed.append(rows))
    permuted = set()
    for datum, node in reference_modules():
        chi = fundamental_qt(datum, node, 0)
        bound = chi.window.bound
        mirrored = [(m, rows) for m, rows in zip(chi.terms, handed.pop())
                    if m.vdeg > bound - bound // 2]
        assert len(mirrored) == sum(m.vdeg < bound // 2 for m in chi.terms)
        for m, rows in mirrored:
            own = chi.window.records(m)
            assert rows == own, (datum, node, m)
            assert all(map(operator.is_, rows, own))
        if datum.duals != tuple(datum.nodes):
            permuted.add(f"{datum.family}{datum.rank}")
    assert {"E6", "D5"} <= permuted

def tampered_characters():
    """Characters one or two coefficients away from fundamentals, or one
    term short, in the order of chi.terms."""
    values = [TPoly({0: -1}), TPoly(), TPoly({0: 2}), TPoly({2: 1}),
              TPoly({0: 1, 2: 1}), TPoly({-2: 1}), None]
    rng = random.Random(18)
    for datum, node in [(A2, 1), (D4, 2), (E6, 1),
                        (build_root_datum("A", 4), 2),
                        (build_root_datum("D", 5), 4)]:
        chi = fundamental_qt(datum, node, 0)
        terms = list(chi.terms)
        edits = [[(m, c)] for m in terms for c in values]
        edits += [[(rng.choice(terms), rng.choice(values)),
                   (rng.choice(terms), rng.choice(values))]
                  for _ in range(60)]
        for edit in edits:
            out = dict(chi.terms)
            for m, c in edit:
                if c is None:
                    out.pop(m, None)
                else:
                    out[m] = c
            yield Character(chi.window, out)


def test_one_pass_peel_raises_the_direction_major_error():
    seen = set()
    for chi in tampered_characters():
        try:
            direction_major_peel(chi)
            want = None
        except InconsistentExpansion as err:
            want = str(err)
        try:
            audit_expansion(chi)
            got = None
        except InconsistentExpansion as err:
            got = str(err)
        assert got == want
        seen.add(want.split(":")[1].split()[0] if want else None)
    # leftover, negative, a (string ...) missing, the (peel ...) outweigh
    assert seen >= {"leftover", "negative", "a", "the", None}


def test_peel_checks_positivity_once_per_term(monkeypatch):
    # A200 node 1: a term has rows at about 2 of the 200 nodes, and each
    # row-less direction's residue is the term's coefficient
    calls = []
    positive_mass = Decoded.positive_mass

    def counted(self, x):
        calls.append(x)
        return positive_mass(self, x)

    monkeypatch.setattr(Decoded, "positive_mass", counted)
    chi = fundamental_qt(build_root_datum("A", 200), 1, 0)
    assert len(chi) == 201
    assert len(calls) <= 10 * len(chi)
