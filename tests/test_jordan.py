import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtchar.charalg import HIGHEST
from qtchar.errors import (
    InconsistentProfile,
    NotAPoincarePolynomial,
)
from qtchar.fm import fundamental_qt
from qtchar.fusion import standard_module_qt
from qtchar.jordan import (
    JordanProfile,
    ValidationReport,
    annotate_character,
    decode,
    encode,
    profile_from_blocks,
    sigma,
    validate_poincare,
)
from qtchar.rootdata import build_root_datum
from qtchar.tpoly import TPoly


def poly(*pairs):
    return TPoly.from_pairs(pairs)


# -- sigma ---------------------------------------------------------------


def sigma_permutation(n):
    return tuple(sigma(n, k) for k in range(n + 1))


def test_sigma_values():
    assert sigma_permutation(3) == (1, 2, 0, 3)
    assert sigma_permutation(0) == (0,)
    assert sigma_permutation(2) == (1, 2, 0)


@given(st.integers(0, 40))
def test_sigma_is_permutation(n):
    assert sorted(sigma_permutation(n)) == list(range(n + 1))


def test_sigma_out_of_range():
    with pytest.raises(IndexError):
        sigma(3, 4)
    with pytest.raises(IndexError):
        sigma(3, -1)


# -- validators ------------------------------------------------------------


def test_validate_pass():
    assert validate_poincare(poly((0, 1), (2, 3), (4, 3), (6, 1))).ok


def test_validate_odd_support():
    report = validate_poincare(poly((0, 1), (3, 1)))
    assert not report.ok and "support" in report.violations


def test_validate_gap_fails():
    # oracle: no block multiset of mass <= 2 encodes to 1 + t^4
    target = poly((0, 1), (4, 1))
    seen = set()
    for blocks in [(1,), (2,), (1, 1), (3,), (2, 2), (1, 1, 1)]:
        try:
            seen.add(encode(profile_from_blocks(blocks)))
        except InconsistentProfile:
            pass
    assert target not in seen
    report = validate_poincare(target)
    assert not report.ok and "unimodal" in report.violations


def reference_validate(p):
    """Reference: the checks one after another on the dense coefficients."""
    if not p:
        return ValidationReport(("zero",))
    violations = []
    if p.coeff(0) < 1:
        violations.append("constant-term")
    if not p.is_positive():
        violations.append("positive")
    if any(e < 0 or e % 2 for e in p.c):
        violations.append("support")
    if not violations:
        top = p.max_degree()
        seq = [p.coeff(2 * j) for j in range(top // 2 + 1)]
        if any(p.coeff(d) != p.coeff(top - d) for d in range(0, top + 1, 2)):
            violations.append("palindromic")
        rising = True
        for a, b in zip(seq, seq[1:]):
            if b > a and not rising:
                violations.append("unimodal")
                break
            if b < a:
                rising = False
    return ValidationReport(tuple(violations))


def mirrored(half):
    """The even palindromic polynomial with leading coefficients half."""
    seq = half + half[-2::-1]
    return TPoly({2 * j: a for j, a in enumerate(seq)})


polys = st.one_of(
    st.dictionaries(st.integers(-6, 20), st.integers(-3, 5),
                    max_size=8).map(TPoly),
    st.builds(lambda a0, rest: TPoly({**rest, 0: a0}), st.integers(1, 5),
              st.dictionaries(st.integers(1, 10).map(lambda j: 2 * j),
                              st.integers(1, 5), max_size=6)),
    st.lists(st.integers(0, 5), min_size=1, max_size=6).map(mirrored),
    st.just(TPoly.zero()),
)


@given(polys)
def test_validate_matches_reference(p):
    report, expected = validate_poincare(p), reference_validate(p)
    assert report.violations == expected.violations
    assert bool(report) is report.ok is (not expected.violations)


@pytest.mark.parametrize("violations", [
    (), ("palindromic",), ("zero",), ("constant-term", "positive")])
def test_validation_report_contract(violations):
    # truth is .ok, and equality, hashing, repr, _fields and the rebuilt
    # copies are those of one report type, passing or failing
    report = ValidationReport(violations)
    assert bool(report) is report.ok is (not violations)
    assert report == ValidationReport(violations=violations) == (violations,)
    assert hash(report) == hash((violations,))
    assert type(report)(*report) == report
    assert isinstance(type(report)(*report), ValidationReport)
    assert report._fields == ("violations",)
    assert repr(report) == f"ValidationReport(violations={violations!r})"
    assert type(report)._make([violations]) == report
    other = () if violations else ("palindromic",)
    assert bool(report._replace(violations=other)) is bool(violations)
    copied = pickle.loads(pickle.dumps(report))
    assert copied == report and bool(copied) is report.ok


def test_validation_report_pins():
    failing = ValidationReport(("palindromic",))
    assert repr(failing) == "ValidationReport(violations=('palindromic',))"
    assert failing._replace(violations=())
    assert not ValidationReport(())._replace(violations=("palindromic",))
    assert not validate_poincare(poly((0, 1), (4, 1)))
    assert validate_poincare(poly((0, 1), (2, 1), (4, 1)))


def test_validate_more_failures():
    assert "zero" in validate_poincare(TPoly.zero()).violations
    assert "constant-term" in validate_poincare(poly((2, 1))).violations
    assert "positive" in validate_poincare(poly((0, 1), (2, -1))).violations
    assert "palindromic" in validate_poincare(
        poly((0, 2), (2, 2), (4, 1))).violations
    assert "support" in validate_poincare(poly((-2, 1), (0, 1))).violations


def test_validate_reads_the_support_not_every_degree():
    # a gap between positive values breaks unimodality; the check walks
    # the two stored degrees, not every even degree up to the top
    assert validate_poincare(poly((0, 1), (10 ** 18, 1))).violations == (
        "unimodal",)
    assert validate_poincare(poly((0, 1), (2, 1), (4, 1))).ok
    assert validate_poincare(poly((0, 1), (4, 1))).violations == (
        "unimodal",)


# -- decode / encode -------------------------------------------------------


def test_decode_examples():
    p = decode(poly((0, 1), (2, 1)))
    assert sorted(p.blocks) == [2] and p.graded == (1, 1)

    p = decode(poly((0, 1), (2, 3), (4, 3), (6, 1)))
    assert sorted(p.blocks) == [2, 2, 4] and p.graded == (3, 3, 1, 1)

    p = decode(poly((0, 1), (2, 4), (4, 1)))
    assert sorted(p.blocks) == [1, 1, 1, 3] and p.graded == (4, 1, 1)

    p = decode(poly((0, 1)))
    assert p.blocks == (1,) and p.graded == (1,)


def test_decode_rejects_invalid():
    with pytest.raises(NotAPoincarePolynomial):
        decode(poly((0, 1), (3, 1)))
    with pytest.raises(NotAPoincarePolynomial):
        decode(poly((0, 1), (4, 1)))


def test_encode_examples():
    assert encode(profile_from_blocks([2])) == poly((0, 1), (2, 1))
    assert encode(profile_from_blocks([4, 2, 2])) == \
        poly((0, 1), (2, 3), (4, 3), (6, 1))
    assert encode(profile_from_blocks([1])) == poly((0, 1))


def test_encode_rejects_inconsistent():
    with pytest.raises(InconsistentProfile):
        profile_from_blocks([])
    with pytest.raises(InconsistentProfile):
        profile_from_blocks([3, 2])  # mixed parity
    assert profile_from_blocks([2, 4, 2]) == JordanProfile((4, 2, 2))


@pytest.mark.parametrize("blocks", [(), (0,), (1, -1), (2, 0), (2, 4),
                                    (1, 3, 3), (3, 2), (2, 1)],
                         ids=["empty", "zero", "negative", "even-zero",
                              "rising", "unsorted", "mixed-parity",
                              "mixed-parity-tail"])
def test_profile_rejects_inconsistent_blocks(blocks):
    with pytest.raises(InconsistentProfile):
        JordanProfile(blocks)


def test_profile_is_its_blocks():
    profile = JordanProfile((4, 2, 2))
    assert (profile.n, profile.graded) == (3, (3, 3, 1, 1))
    assert JordanProfile((1,)).graded == (1,)
    assert JordanProfile._fields == ("blocks",)
    assert ValidationReport._fields == ("violations",)


# -- exhaustive round-trips up to mass 12 -----------------------------------


def all_profiles(max_mass):
    """Every consistent profile with total dimension <= max_mass: block
    multisets with a unique parity class containing their maximum."""
    for n in range(max_mass):
        longest = n + 1
        lengths = list(range(longest, 0, -2))
        budget = max_mass - longest
        # multisets over `lengths` with sum <= budget, always >= 1 copy
        # of the longest block
        def rec(idx, left):
            if idx == len(lengths):
                yield ()
                return
            length = lengths[idx]
            for count in range(0, left // length + 1):
                for rest in rec(idx + 1, left - count * length):
                    yield (length,) * count + rest
        for extra in rec(0, budget):
            yield profile_from_blocks((longest,) + extra)


def all_valid_polys(max_mass):
    """Every polynomial passing validation with mass <= max_mass.

    Palindromic + unimodal + positive means the half-degree coefficients
    b_0..b_n are determined by a weakly increasing positive head
    b_0 <= ... <= b_{floor(n/2)}, mirrored.
    """
    out = []
    for n in range(max_mass):
        h = n // 2

        def weight(idx):
            return 1 if (n % 2 == 0 and idx == h) else 2

        def heads(idx, prev, budget):
            if idx > h:
                yield []
                return
            v = prev
            while True:
                cost = weight(idx) * v
                min_rest = sum(weight(j) * v for j in range(idx + 1, h + 1))
                if cost + min_rest > budget:
                    break
                for rest in heads(idx + 1, v, budget - cost):
                    yield [v] + rest
                v += 1

        for head in heads(0, 1, max_mass):
            if n % 2 == 0:
                coeffs = head + head[:-1][::-1]
            else:
                coeffs = head + head[::-1]
            p = TPoly({2 * j: c for j, c in enumerate(coeffs)})
            assert p.mass() <= max_mass and validate_poincare(p).ok
            out.append(p)
    return out


def test_roundtrip_profiles_mass_12():
    count = 0
    for profile in all_profiles(12):
        assert decode(encode(profile)) == profile
        count += 1
    # hand count of palindromic unimodal positive sequences of mass <= 12
    assert count == 98


def test_roundtrip_polys_mass_12():
    polys = all_valid_polys(12)
    seen = set()
    for p in polys:
        assert p not in seen
        seen.add(p)
        assert encode(decode(p)) == p
    # encode/decode is a bijection, so both enumerations have equal size
    assert len(seen) == 98


def test_graded_matches_sigma_relation():
    for profile in itertools.islice(all_profiles(10), 500):
        p = encode(profile)
        n = profile.n
        for k in range(n + 1):
            assert profile.graded[k] == p.coeff(2 * sigma(n, k))
        # graded is weakly decreasing and counts blocks
        for k in range(n):
            assert profile.graded[k] >= profile.graded[k + 1]
            assert profile.graded[k] - profile.graded[k + 1] == \
                sum(1 for b in profile.blocks if b == k + 1)


# -- annotate_character ------------------------------------------------------


def test_annotate_a2_standard():
    A2 = build_root_datum("A", 2)
    chi = standard_module_qt(A2, [(1, 0), (1, 0)])
    notes = annotate_character(chi)
    assert notes[chi.coefficient("1_0 1_2^-1 2_1")].blocks == (2,)
    assert notes[chi.coefficient("2_3^-2")].blocks == (1,)


def test_annotate_d4():
    D4 = build_root_datum("D", 4)
    chi = fundamental_qt(D4, 2, 0)
    notes = annotate_character(chi)
    assert notes == {poly((0, 1)): JordanProfile((1,)),
                     poly((0, 1), (2, 1)): JordanProfile((2,))}
    assert notes[chi.coefficient("2_2 2_4^-1")].blocks == (2,)


def test_annotate_e6_headline():
    E6 = build_root_datum("E", 6)
    chi = fundamental_qt(E6, 3, 0)
    notes = annotate_character(chi)
    thick = notes[chi.coefficient("2_5 2_7^-1 4_5 4_7^-1 6_5 6_7^-1")]
    assert thick.blocks == (4, 2, 2)
    assert thick.graded == (3, 3, 1, 1)
    other = notes[chi.coefficient("3_4 3_8^-1")]
    assert other.blocks == (3, 1, 1, 1)
    assert other.graded == (4, 1, 1)


def test_annotate_rejects_bad_coefficient():
    A2 = build_root_datum("A", 2)
    chi = fundamental_qt(A2, 1, 0)
    m = HIGHEST
    chi.terms[m] = poly((0, 1), (4, 1))
    with pytest.raises(NotAPoincarePolynomial) as excinfo:
        annotate_character(chi)
    assert "1_0" in str(excinfo.value)
    assert excinfo.value.violations == ("unimodal",)


def test_annotate_decodes_each_coefficient_once():
    # one entry per distinct coefficient: E6 node 3 has 7 among its terms
    E6 = build_root_datum("E", 6)
    chi = fundamental_qt(E6, 3, 0)
    notes = annotate_character(chi)
    assert len(notes) == len(set(chi.terms.values())) == 7
    for c in chi.terms.values():
        assert notes[c] == decode(c)


def test_annotate_names_first_failing_monomial():
    A2 = build_root_datum("A", 2)
    chi = fundamental_qt(A2, 1, 0)
    first, second = list(chi.terms)[1:]
    chi.terms[first] = chi.terms[second] = poly((1, 1))
    with pytest.raises(NotAPoincarePolynomial) as excinfo:
        annotate_character(chi)
    assert str(excinfo.value).startswith(
        f"monomial {chi.window.text(first)}: ")
