"""Sparse Laurent polynomials in t with exact integer coefficients.

These hold the Poincare-polynomial coefficients of characters, exact
big integers throughout; no floats anywhere.  Instances are treated as
immutable values, and the hash is computed once, on first use.

The expansion, the peel and the twisted product do their arithmetic on
Kronecker-packed integers instead, through the one codec here: `pack`
writes a_e t^e as the integer sum a_e 2^(W (e - lo)), `unpack` reads the
signed W-bit digits back, and `Decoded` does so once per distinct value.
`lo_and_mass` gives the lowest exponent and the absolute mass from which
each caller derives, and proves, its width W (see `fm` and `fusion`).
"""

from __future__ import annotations

import os
import resource

from .errors import ExceedsMemory


class TPoly:
    """Map from t-exponent to nonzero integer coefficient."""

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = {}
        else:
            self.c = {e: int(v) for e, v in dict(coeffs).items() if v != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    @classmethod
    def from_dict(cls, coeffs: dict) -> "TPoly":
        """Wrap an exponent -> int map, which the result takes over."""
        out = cls.__new__(cls)
        out.c = coeffs if 0 not in coeffs.values() else {
            e: v for e, v in coeffs.items() if v}
        return out

    @classmethod
    def from_pairs(cls, pairs) -> "TPoly":
        out = {}
        for e, v in pairs:
            out[e] = out.get(e, 0) + v
        return cls(out)

    # -- queries --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self.c
            return self.c == {0: other}
        return isinstance(other, TPoly) and self.c == other.c

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.c.items()))
            return h

    def coeff(self, e: int) -> int:
        return self.c.get(e, 0)

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self.c.items())

    def max_degree(self) -> int:
        return max(self.c)

    def mass(self) -> int:
        """Value at t = 1."""
        return sum(self.c.values())

    def is_positive(self) -> bool:
        """All (stored) coefficients strictly positive."""
        return all(v > 0 for v in self.c.values())

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e, v in self.pairs():
            if e == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else str(v))
                var = "t" if e == 1 else f"t^{e}"
                parts.append(f"{head}{var}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"TPoly({self.c!r})"


# -- packed coefficients ----------------------------------------------------


def lo_and_mass(coeffs) -> tuple[int, int]:
    """The lowest t-exponent (0 if there is none) and the absolute mass,
    the sum of |a_e| over every coefficient of ``coeffs``, a collection
    that is read twice."""
    lo = min((e for c in coeffs for e in c.c), default=0)
    return lo, sum(abs(a) for c in coeffs for a in c.c.values())


def memory_bytes() -> int:
    """The physical memory, or a finite soft RLIMIT_AS if that is lower."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


def pack(coeffs, width: int, lo: int) -> list[int]:
    """Each coefficient sum a_e t^e, in order, as the integer sum
    a_e 2^(width (e - lo)); equal coefficients are packed once.  One of
    more bits than `memory_bytes` raises ExceedsMemory before any shift,
    which leaves room for the few copies of a value `Decoded` holds."""
    packed: dict[TPoly, int] = {}
    room = memory_bytes()
    out = []
    for c in coeffs:
        x = packed.get(c)
        if x is None:
            hi = max(c.c, default=lo)
            if width * (hi - lo + 1) > room:
                raise ExceedsMemory(
                    f"a coefficient spanning t^{lo} to t^{hi} packs into "
                    f"{width * (hi - lo + 1)} bits, more than the {room} "
                    f"bytes of memory")
            x = packed[c] = sum(a << width * (e - lo) for e, a in c.c.items())
        out.append(x)
    return out


def unpack(x: int, width: int, lo: int) -> dict[int, int]:
    """The inverse of `pack` on one value: the exponent -> coefficient map
    of the signed ``width``-bit digits of x, lowest at t^lo, zeros left
    out."""
    # from the lowest digit up: jump past the zero digits below the lowest
    # set bit, read one signed digit, take it off and shift.  A piece of
    # more than 64 digits is first cut in two at a digit, its low half the
    # value of its own signed digits and read first, so the cost follows
    # the nonzero digits, n log n when they are dense
    half, full = 1 << width - 1, (1 << width) - 1
    coeffs = {}
    todo = [(x, lo)]
    while todo:
        y, e = todo.pop()
        while y:
            skip = ((y & -y).bit_length() - 1) // width
            if skip:
                y >>= width * skip
                e += skip
            n = y.bit_length() // width // 2
            if n > 32:
                ones = (1 << width * n) - 1
                halves = ones // full * half  # half in each digit
                low = ((y + halves) & ones) - halves
                todo.append(((y - low) >> width * n, e + n))
                y = low
                continue
            a = y & full
            if a >= half:
                a -= 1 << width
            coeffs[e] = a
            y = (y - a) >> width
            e += 1
    return coeffs


class Decoded(dict):
    """Packed coefficients with signed ``width``-bit digits, lowest at
    t^lo, each decoded on first lookup: maps a packed value to its TPoly,
    so equal values share one."""

    def __init__(self, width: int, lo: int):
        super().__init__()
        self.width, self.lo = width, lo
        self.masses: dict[int, int] = {}

    def __missing__(self, x: int) -> TPoly:
        p = self[x] = TPoly.from_dict(unpack(x, self.width, self.lo))
        return p

    def positive_mass(self, x: int) -> int | None:
        """The value at t = 1 of x if all its coefficients are positive,
        else None; memoised per value."""
        mass = self.masses.get(x)
        if mass is None and self[x].is_positive():
            mass = self.masses[x] = self[x].mass()
        return mass
