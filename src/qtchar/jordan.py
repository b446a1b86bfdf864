"""Jordan filtration data of l-weight spaces, decoded from coefficients.

The coefficient polynomial of an l-weight in a q,t-character is the
Poincare polynomial of the fixed-point locus carrying that weight.  For
fundamental modules, and for standard modules whose spectral parameters
are in generic position, that locus is connected and satisfies hard
Lefschetz, so the polynomial is supported in even nonnegative degrees,
palindromic and unimodal with positive coefficients; the decoder refuses
anything else.  Writing 2n for its top degree and
b_d for the coefficient of t^d, the generalized-eigenspace action of the
Heisenberg generators on the corresponding l-weight space has

* Jordan blocks of length l with multiplicity b_{n+l-1} - b_{n+l+1}
  (only lengths with l = n+1 mod 2 occur), and
* graded filtration dimensions dim(F_k/F_{k-1}) = b_{2 sigma(k)}, where
  sigma is the permutation of 0..n with sigma(k) = floor(n/2) - k/2 for
  even k and floor(n/2) + ceil(k/2) for odd k.

The polynomial alone determines this data, so `annotate_character` keys
profiles on coefficients, and a profile is its block multiset, from which
``n`` and ``graded`` are derived.  `decode` and `encode` are mutually
inverse bijections between valid polynomials and profiles.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (
    InconsistentProfile,
    NegativeMultiplicity,
    NotAPoincarePolynomial,
    QtCharError,
)
from .tpoly import TPoly


def sigma(n: int, k: int) -> int:
    """Position of the k-th filtration layer in the degree grading."""
    if not 0 <= k <= n:
        raise IndexError(f"k={k} not in 0..{n}")
    if k % 2 == 0:
        return n // 2 - k // 2
    return n // 2 + (k + 1) // 2


class ValidationReport(namedtuple("ValidationReport", "violations",
                                  defaults=((),))):
    """The hard-Lefschetz checks a coefficient fails; true if none."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    __bool__ = ok.fget


@lru_cache(maxsize=None)
def validate_poincare(p: TPoly) -> ValidationReport:
    """Check the hard-Lefschetz shape constraints on one coefficient.

    Checks: nonzero; constant term >= 1; support contained in the even
    nonnegative integers; palindromic about half the top degree; positive
    and unimodal coefficients.  Returns the list of violated checks; the
    shape checks run only when the first three pass.  Memoised per
    coefficient value: a character has few distinct coefficients, so each
    is checked once however many terms share it.
    """
    c = p.c
    if not c:
        return ValidationReport(("zero",))
    positive = support = True
    for e, a in c.items():
        positive = positive and a > 0
        support = support and e >= 0 and not e & 1
    violations = []
    if c.get(0, 0) < 1:
        violations.append("constant-term")
    if not positive:
        violations.append("positive")
    if not support:
        violations.append("support")
    if violations:
        return ValidationReport(tuple(violations))
    top = max(c)
    if any(c.get(top - e) != a for e, a in c.items()):
        violations.append("palindromic")
    # positive values in even degrees are unimodal iff every even degree
    # up to the top holds one (a gap is a zero between positives) and, in
    # degree order, they never rise after a fall
    seq = [c[e] for e in sorted(c)]
    unimodal = len(seq) > top // 2
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b > a and falling:
            unimodal = False
            break
        falling = falling or b < a
    if not unimodal:
        violations.append("unimodal")
    return ValidationReport(tuple(violations))


class JordanProfile(namedtuple("JordanProfile", "blocks")):
    """Jordan structure of one l-weight space: the chain lengths
    ``blocks``, longest first, positive and of one parity.  The filtration
    length ``n`` (half the top t-degree) and the layer dimensions
    ``graded`` (graded[k] counts the blocks longer than k) derive from
    them."""

    __slots__ = ()

    def __new__(cls, blocks: tuple[int, ...]):
        b = blocks
        if not b or list(b) != sorted(b, reverse=True) or b[-1] < 1 or any(
                (x - b[0]) % 2 for x in b):
            raise InconsistentProfile(
                f"blocks {b} are not a nonempty decreasing sequence of "
                f"positive integers of one parity")
        return super().__new__(cls, blocks)

    @classmethod
    def _make(cls, fields):  # so _replace checks the blocks too
        return cls(*fields)

    @property
    def n(self) -> int:
        return self.blocks[0] - 1

    @property
    def graded(self) -> tuple[int, ...]:
        return tuple(sum(1 for b in self.blocks if b > k)
                     for k in range(self.n + 1))


def profile_from_blocks(blocks) -> JordanProfile:
    """The profile of a block multiset given in any order."""
    return JordanProfile(tuple(sorted(blocks, reverse=True)))


def decode(p: TPoly) -> JordanProfile:
    """Jordan profile of the l-weight space with coefficient polynomial p."""
    report = validate_poincare(p)
    if not report:
        raise NotAPoincarePolynomial(
            f"{p} fails checks: {', '.join(report.violations)}",
            violations=report.violations)
    n = p.max_degree() // 2
    blocks = []
    for length in range(n + 1, 0, -2):
        mult = p.coeff(n + length - 1) - p.coeff(n + length + 1)
        if mult < 0:
            raise NegativeMultiplicity(
                f"length-{length} blocks have multiplicity {mult} in {p}")
        blocks.extend([length] * mult)
    return JordanProfile(tuple(blocks))


def encode(profile: JordanProfile) -> TPoly:
    """Coefficient polynomial of a Jordan profile; inverse of decode: a
    chain of length l adds t^d for d = n-l+1, n-l+3, ..., n+l-1."""
    n = profile.n
    return TPoly.from_pairs((d, 1) for length in profile.blocks
                            for d in range(n - length + 1, n + length, 2))


def annotate_character(chi) -> dict:
    """Each distinct coefficient of a character mapped to its Jordan
    profile, decoded once.  One that does not decode raises, naming the
    first monomial in ``chi.terms`` order that carries it."""
    profiles: dict = {}
    for m, c in chi.terms.items():
        if c not in profiles:
            try:
                profiles[c] = decode(c)
            except QtCharError as err:  # name the monomial, keep the rest
                err.args = (f"monomial {chi.window.text(m)}: {err}",)
                raise
    return profiles
