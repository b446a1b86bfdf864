"""Sparse Laurent polynomials in t with exact integer coefficients.

These hold the Poincare-polynomial coefficients of characters, exact
big integers throughout; no floats anywhere.  Instances are treated as
immutable values, and the hash is computed once, on first use.  The
expansion, the peel and the twisted product do their arithmetic on
Kronecker-packed integers instead (`fusion._pack`, `fusion._unpack`).
"""

from __future__ import annotations


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
