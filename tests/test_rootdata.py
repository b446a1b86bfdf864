from fractions import Fraction

import pytest

from qtchar.errors import NodeOutOfRange, UnsupportedType
from qtchar.fm import fundamental_qt
from qtchar.rootdata import RootDatum, build_root_datum, parse_type

ALL_SUPPORTED = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_a2_cartan():
    datum = build_root_datum("A", 2)
    assert datum.cartan == ((2, -1), (-1, 2))


def test_d4_trivalent_node():
    datum = build_root_datum("D", 4)
    assert datum.adjacency[2 - 1] == (1, 3, 4)


def test_e6_branch_node():
    datum = build_root_datum("E", 6)
    assert datum.adjacency[3 - 1] == (2, 4, 6)
    assert datum.adjacency[6 - 1] == (3,)


@pytest.mark.parametrize("i,expected", [(1, (2,)), (2, (1, 3)), (3, (2,))])
def test_neighbors_a3(i, expected):
    assert build_root_datum("A", 3).adjacency[i - 1] == expected


def test_neighbors_examples():
    assert build_root_datum("A", 2).adjacency[1 - 1] == (2,)
    assert build_root_datum("D", 4).adjacency[3 - 1] == (2,)
    assert build_root_datum("E", 6).adjacency[2 - 1] == (1, 3)


@pytest.mark.parametrize("family,rank", ALL_SUPPORTED)
def test_tree_edge_count(family, rank):
    datum = build_root_datum(family, rank)
    assert sum(map(len, datum.adjacency)) == 2 * (rank - 1)


@pytest.mark.parametrize("family,rank", ALL_SUPPORTED)
def test_cartan_matches_adjacency(family, rank):
    datum = build_root_datum(family, rank)
    for i in datum.nodes:
        for j in datum.nodes:
            entry = datum.cartan[i - 1][j - 1]
            if i == j:
                assert entry == 2
            elif j in datum.adjacency[i - 1]:
                assert entry == -1
            else:
                assert entry == 0
            assert entry == datum.cartan[j - 1][i - 1]


@pytest.mark.parametrize("family,rank", ALL_SUPPORTED)
def test_connected(family, rank):
    datum = build_root_datum(family, rank)
    seen = {1}
    stack = [1]
    while stack:
        for j in datum.adjacency[stack.pop() - 1]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert seen == set(datum.nodes)


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("C", 3), ("F", 4), ("G", 2),
    ("A", 0), ("D", 3), ("E", 5), ("E", 9),
])
def test_unsupported(family, rank):
    with pytest.raises(UnsupportedType):
        build_root_datum(family, rank)


def test_coxeter_numbers_and_lowest_depths():
    # depth of V(Y_i): simple-root coefficient sum of omega_i + omega_ibar
    cases = {("A", 3): (4, (3, 4, 3)), ("D", 4): (6, (6, 10, 6, 6)),
             ("E", 6): (12, (16, 30, 42, 30, 16, 22)),
             ("E", 8): (30, (92, 182, 270, 220, 168, 114, 58, 136))}
    for (family, rank), (h, depths) in cases.items():
        datum = build_root_datum(family, rank)
        assert (datum.coxeter_number, datum.lowest_depths) == (h, depths)


def gauss_jordan_depths(datum):
    """Reference: C x = (2, ..., 2) by Gauss-Jordan over the rationals."""
    n = datum.rank
    rows = [[Fraction(x) for x in row] + [Fraction(2)]
            for row in datum.cartan]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)


@pytest.mark.parametrize("family,rank", (
    [("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)]))
def test_lowest_depths_match_gauss_jordan(family, rank):
    datum = build_root_datum(family, rank)
    assert datum.lowest_depths == gauss_jordan_depths(datum)


@pytest.mark.parametrize("family,rank", [("A", n) for n in range(1, 13)]
                         + [("D", n) for n in range(4, 13)]
                         + [("E", n) for n in (6, 7, 8)])
def test_lowest_lowering_adds_up_to_the_lowest_depths(family, rank):
    # the quantum recurrence against the classical solve, which share no
    # code: the lowest weight's lowering vector has the depth's degree
    datum = build_root_datum(family, rank)
    for i in datum.nodes:
        support = datum.lowest_lowering(i)
        assert all(0 < u < datum.coxeter_number and c > 0
                   for _j, u, c in support)
        assert sum(c for _j, _u, c in support) == datum.lowest_depths[i - 1]


def test_lowest_lowering_of_d4_node_2():
    # A_{2,1} A_{1,2} A_{3,2} A_{4,2} A_{2,3}^2 A_{1,4} A_{3,4} A_{4,4}
    # A_{2,5}: the product Y_{2,0} Y_{2,6} of the inverse quantum Cartan
    # matrix's column
    assert build_root_datum("D", 4).lowest_lowering(2) == (
        (1, 2, 1), (1, 4, 1), (2, 1, 1), (2, 3, 2), (2, 5, 1), (3, 2, 1),
        (3, 4, 1), (4, 2, 1), (4, 4, 1))


def test_lowest_depths_are_linear_in_the_rank():
    # twice the height of omega_i in A_n is i (n + 1 - i); the elimination
    # along the path takes O(n) steps where Gauss-Jordan takes O(n^3)
    datum = build_root_datum("A", 2000)
    assert datum.lowest_depths == tuple(i * (2001 - i)
                                        for i in range(1, 2001))


def test_duals_are_minus_w0():
    # n + 1 - i on A_n; the fork leaves swap on D_odd and stay on D_even;
    # on E6 nodes 1, 5 and 2, 4 swap, 3 and 6 stay; E7 and E8 fix all
    for n in range(1, 13):
        assert build_root_datum("A", n).duals == tuple(range(n, 0, -1))
    assert build_root_datum("D", 5).duals == (1, 2, 3, 5, 4)
    assert build_root_datum("D", 7).duals == (1, 2, 3, 4, 5, 7, 6)
    assert build_root_datum("E", 6).duals == (5, 4, 3, 2, 1, 6)
    for family, rank in [("D", 4), ("D", 6), ("D", 8), ("E", 7), ("E", 8)]:
        datum = build_root_datum(family, rank)
        assert datum.duals == tuple(datum.nodes)
    # the walk takes one step per positive root, 20100 on A200
    assert build_root_datum("A", 200).duals[:2] == (200, 199)


def test_duals_end_on_an_infinite_weyl_group():
    # a 1-3 edge closes A3's diagram into a cycle (affine A2): reflecting
    # down never ends, but the walk stops at the lowering budget
    a3 = build_root_datum("A", 3)
    cartan = tuple(tuple(2 if i == j else -1 for j in range(3))
                   for i in range(3))
    for extra in (0, 2, 50):
        datum = RootDatum("A", 3, cartan, ((2, 3), (1, 3), (1, 2)))
        datum.__dict__["lowest_depths"] = tuple(
            d + extra for d in a3.lowest_depths)
        assert datum.duals == (None, None, None)
    # a lowering budget off by one finds no lowest weight either
    d4 = build_root_datum("D", 4)
    d4.__dict__["lowest_depths"] = (6, 10, 6, 7)
    assert d4.duals == (None,) * 4


def test_node_out_of_range():
    datum = build_root_datum("A", 2)
    with pytest.raises(NodeOutOfRange):
        fundamental_qt(datum, 3)
    with pytest.raises(NodeOutOfRange):
        fundamental_qt(datum, 0)


def test_parse_type():
    assert parse_type("D4").family == "D"
    assert parse_type("e6").rank == 6
    with pytest.raises(UnsupportedType):
        parse_type("X9")
    with pytest.raises(UnsupportedType):
        parse_type("D")
    # ASCII digits only, and no numeral past int()'s digit limit
    for text in ["A\u00b2", "D\u0664", "A" + "1" * 5000]:
        with pytest.raises(UnsupportedType, match="cannot parse"):
            parse_type(text)
