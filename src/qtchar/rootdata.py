"""Simply laced root data: Cartan matrices and Dynkin diagram adjacency.

Only types A_n (n >= 1), D_n (n >= 4) and E_6, E_7, E_8 are supported.
Nodes are numbered 1..rank with the following conventions, chosen to match
the worked character tables shipped as fixtures:

* A_n is the path 1 - 2 - ... - n.
* D_n is the path 1 - 2 - ... - (n-2) with the two fork leaves n-1 and n
  attached to node n-2.  For D_4 this puts the trivalent node at 2, adjacent
  to 1, 3 and 4.
* E_n is the path 1 - 2 - ... - (n-1) with node n attached to node 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import UnsupportedType

_FAMILIES = ("A", "D", "E")


@dataclass(frozen=True)
class RootDatum:
    """Immutable simply laced Cartan datum.

    ``cartan`` is the rank x rank Cartan matrix (tuple of tuples, 0-indexed
    internally) and ``adjacency`` maps each 1-based node to the sorted tuple
    of its Dynkin neighbours.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    @property
    def coxeter_number(self) -> int:
        """h: every A-variable of V(Y_{i,s}) has its shift in (s, s+h)."""
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 2 * self.rank - 2
        return {6: 12, 7: 18, 8: 30}[self.rank]

    @cached_property
    def lowest_depths(self) -> tuple[int, ...]:
        """Lowering degree of the lowest monomial of each V(Y_{i,s}).

        That is the sum of the simple-root coefficients of omega_i +
        omega_ibar, i.e. twice the height of omega_i: twice the i-th entry
        of C^{-1} (1, ..., 1), solved exactly.  The Dynkin diagram is a
        tree, so C x = (2, ..., 2) is solved along it: each node, leaves
        first, is eliminated into the equation of its parent towards node
        1, then the values are substituted back from node 1 outwards.
        """
        from fractions import Fraction  # only needed once per datum

        c = self.cartan
        parent = {0: None}
        order = [0]  # breadth first from node 1
        for i in order:
            for j in self.adjacency[i]:
                if j - 1 not in parent:
                    parent[j - 1] = i
                    order.append(j - 1)
        # row i reads diag[i] x_i + c[i][parent] x_parent = rhs[i] once
        # its children are eliminated
        diag = [Fraction(c[i][i]) for i in range(self.rank)]
        rhs = [Fraction(2)] * self.rank
        for i in reversed(order[1:]):
            p = parent[i]
            diag[p] -= c[p][i] * c[i][p] / diag[i]
            rhs[p] -= c[p][i] * rhs[i] / diag[i]
        x = [rhs[0] / diag[0]] * self.rank
        for i in order[1:]:
            p = parent[i]
            x[i] = (rhs[i] - c[i][p] * x[p]) / diag[i]
        return tuple(int(v) for v in x)

    def lowest_lowering(self, i: int) -> tuple[tuple[int, int, int], ...]:
        """The lowering vector of the lowest weight of V(Y_{i,0}), as the
        (node j, shift u, c_ij(u)) with c_ij(u) > 0, sorted.

        The lowest weight is Y_{ibar,h}^-1, and Y_{i,0} Y_{ibar,h} is the
        product of the A_{j,u}^{c_ij(u)}, c_ij(u) the entries of the
        inverse quantum Cartan matrix (Hernandez-Leclerc, arXiv:1109.0862).
        Read off the Y-exponents shift by shift, they obey

            c_ij(1) = [i = j],
            c_ij(u+1) = sum over k ~ j of c_ik(u) - c_ij(u-1),

        for 1 <= u < h, with c_ij(0) = 0.  Every term of V(Y_{i,s}) has a
        lowering vector below this one shifted by s (the half-depth mirror
        of `fm` checks it on every term), so these fields are all a term
        can use, and their multiplicities add up to ``lowest_depths[i-1]``.
        Computed once per node.
        """
        return _lowest_lowering(self.adjacency, self.coxeter_number, i)

    @cached_property
    def duals(self) -> tuple[int | None, ...]:
        """j-bar for each node j: -w0 omega_j = omega_{j-bar}, w0 the
        longest element of the Weyl group; all None if the walk below
        does not end as it must.

        The weight lambda = sum of j omega_j, its coordinates all apart, is
        reflected down, by s_k at a node k with a positive coordinate,
        until no coordinate is positive.  That is w0 lambda = -sum of
        j omega_{j-bar}, so the coordinate at j-bar reads -j.  Each step
        lowers lambda by its coordinate times alpha_k, which is that much
        height, and the total is ht(lambda - w0 lambda), the sum of
        j ``lowest_depths[j-1]``: the walk stops there, so it also ends
        on a Cartan matrix whose Weyl group is infinite.  A step changes
        only the neighbours of k, and a regular weight takes one step per
        positive root.
        """
        c = self.cartan
        weight = list(self.nodes)  # fundamental-weight coordinates
        budget = sum(j * d for j, d in zip(self.nodes, self.lowest_depths))
        todo = list(range(self.rank))  # nodes whose coordinate was raised
        while todo and budget >= 0:
            k = todo.pop()
            a = weight[k]
            if a > 0:
                budget -= a
                weight[k] = -a
                for j in self.adjacency[k]:
                    weight[j - 1] -= a * c[k][j - 1]
                    todo.append(j - 1)
        if budget or sorted(weight) != [-j for j in reversed(self.nodes)]:
            return (None,) * self.rank
        return tuple(weight.index(-j) + 1 for j in self.nodes)

    def __repr__(self):
        return f"RootDatum({self.family}{self.rank})"


@lru_cache(maxsize=None)
def _lowest_lowering(adjacency: tuple, h: int, i: int) -> tuple:
    # the recurrence of `RootDatum.lowest_lowering`, one shift at a time
    nodes = range(1, len(adjacency) + 1)
    before, now = [0] * len(adjacency), [int(j == i) for j in nodes]
    out = []
    for u in range(1, h):
        out += [(j, u, c) for j, c in zip(nodes, now) if c > 0]
        before, now = now, [sum(now[k - 1] for k in adjacency[j - 1])
                            - before[j - 1] for j in nodes]
    return tuple(sorted(out))


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        if rank < 1:
            raise UnsupportedType(f"A_n needs n >= 1, got {rank}")
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        if rank < 4:
            raise UnsupportedType(f"D_n needs n >= 4, got {rank}")
        path = [(i, i + 1) for i in range(1, rank - 2)]
        return path + [(rank - 2, rank - 1), (rank - 2, rank)]
    if family == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedType(f"E_n needs n in {{6,7,8}}, got {rank}")
        return [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]
    raise UnsupportedType(f"unknown family {family!r}")


def build_root_datum(family: str, rank: int) -> RootDatum:
    """Construct the root datum for a simply laced pair (family, rank)."""
    family = str(family).upper()
    if family not in _FAMILIES:
        raise UnsupportedType(
            f"family must be one of {_FAMILIES}, got {family!r}")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise UnsupportedType(f"rank must be an integer, got {rank!r}")
    edges = _edges(family, rank)
    adj = [set() for _ in range(rank)]
    for a, b in edges:
        adj[a - 1].add(b)
        adj[b - 1].add(a)
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    cartan = tuple(
        tuple(
            2 if i == j else (-1 if (j + 1) in adjacency[i] else 0)
            for j in range(rank)
        )
        for i in range(rank)
    )
    return RootDatum(family, rank, cartan, adjacency)


def parse_type(text: str) -> RootDatum:
    """Parse a label like ``"D4"`` or ``"e6"`` into a root datum."""
    text = text.strip()
    family, rank = text[:1].upper(), text[1:]
    # ASCII digits, too few for int()'s digit limit and for any buildable rank
    if not (family in _FAMILIES and rank.isascii() and rank.isdigit()
            and len(rank) < 10):
        raise UnsupportedType(f"cannot parse Dynkin type {text!r}")
    return build_root_datum(family, int(rank))

