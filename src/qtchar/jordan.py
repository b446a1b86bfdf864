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

`decode` and `encode` are mutually inverse bijections between valid
polynomials and consistent profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def sigma_permutation(n: int) -> tuple[int, ...]:
    return tuple(sigma(n, k) for k in range(n + 1))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


_VALID = ValidationReport(True)


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
        return ValidationReport(False, ("zero",))
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
        return ValidationReport(False, tuple(violations))
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
    return ValidationReport(False, tuple(violations)) if violations else _VALID


@dataclass(frozen=True)
class JordanProfile:
    """Jordan structure of one l-weight space.

    ``n`` is the filtration length (half the top t-degree), ``blocks`` the
    Jordan chain lengths in decreasing order, ``graded`` the dimensions
    dim(F_k/F_{k-1}) for k = 0..n, and ``sigma`` the layer permutation.
    """

    n: int
    blocks: tuple[int, ...]
    graded: tuple[int, ...]
    sigma: tuple[int, ...] = field(default=())


def profile_from_blocks(blocks) -> JordanProfile:
    """Build a full profile from a block multiset alone."""
    blocks = tuple(sorted(blocks, reverse=True))
    if not blocks or blocks[-1] < 1:
        raise InconsistentProfile("blocks must be a nonempty multiset of "
                                  "positive integers")
    n = blocks[0] - 1
    if any((b - blocks[0]) % 2 for b in blocks):
        raise InconsistentProfile(
            f"block lengths {blocks} are not all congruent mod 2")
    graded = tuple(sum(1 for b in blocks if b > k) for k in range(n + 1))
    return JordanProfile(n, blocks, graded, sigma_permutation(n))


def _check_profile(profile: JordanProfile) -> None:
    want = profile_from_blocks(profile.blocks)
    if (profile.n, tuple(profile.graded)) != (want.n, want.graded) or (
            profile.sigma and tuple(profile.sigma) != want.sigma):
        raise InconsistentProfile(
            f"{profile} does not match its blocks, which give n = {want.n}, "
            f"graded {want.graded} and sigma {want.sigma}")


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
    graded = tuple(p.coeff(2 * sigma(n, k)) for k in range(n + 1))
    return JordanProfile(n, tuple(blocks), graded, sigma_permutation(n))


def encode(profile: JordanProfile) -> TPoly:
    """Coefficient polynomial of a Jordan profile; inverse of decode."""
    _check_profile(profile)
    n = profile.n
    coeffs: dict[int, int] = {}
    for length in profile.blocks:
        base = n - length + 1
        for j in range(length):
            d = base + 2 * j
            coeffs[d] = coeffs.get(d, 0) + 1
    return TPoly(coeffs)


def annotate_character(chi) -> dict:
    """Decode every coefficient of a character; keys are its monomials.
    Each distinct coefficient is decoded once and its profile shared."""
    profiles: dict = {}  # coefficient -> profile
    out = {}
    for m, c in chi.terms.items():
        profile = profiles.get(c)
        if profile is None:
            try:
                profile = profiles[c] = decode(c)
            except QtCharError as err:  # name the monomial, keep the rest
                err.args = (f"monomial {chi.window.text(m)}: {err}",)
                raise
        out[m] = profile
    return out
