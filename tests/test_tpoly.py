from hypothesis import given
from hypothesis import strategies as st

from qtchar.tpoly import TPoly

# independent dense reference: polynomials as {exp: coeff} dicts handled
# with plain loops, no TPoly machinery


def dense_add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def dense_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


coeff_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=12),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=6,
)


@given(coeff_dicts, coeff_dicts)
def test_add_matches_dense(a, b):
    assert (TPoly(a) + TPoly(b)).c == dense_add(a, b)


@given(coeff_dicts, coeff_dicts)
def test_mul_matches_dense(a, b):
    assert (TPoly(a) * TPoly(b)).c == dense_mul(a, b)


@given(coeff_dicts, coeff_dicts)
def test_sub_then_add_roundtrips(a, b):
    pa, pb = TPoly(a), TPoly(b)
    assert (pa - pb) + pb == pa


@given(coeff_dicts)
def test_mass_is_value_at_one(a):
    assert TPoly(a).mass() == sum(a.values())


def test_basics():
    one = TPoly.one()
    p = one + TPoly({2: 1})
    assert p.pairs() == [(0, 1), (2, 1)]
    assert p == TPoly({0: 1, 2: 1})
    assert p * p == TPoly({0: 1, 2: 2, 4: 1})
    assert (p - p) == TPoly.zero()
    assert not TPoly.zero()
    assert p.mass() == 2
    assert p.coeff(2) == 1 and p.coeff(1) == 0


def test_zero_coefficients_dropped():
    assert TPoly({0: 1, 2: 0}).c == {0: 1}
    assert (TPoly({0: 1}) - TPoly({0: 1})).c == {}


def test_str():
    assert str(TPoly({0: 1, 2: 1})) == "1 + t^2"
    assert str(TPoly({0: 1, 2: 3, 4: 1})) == "1 + 3t^2 + t^4"
    assert str(TPoly.zero()) == "0"
    assert str(TPoly({1: 1})) == "t"


def test_equality_with_int():
    assert TPoly({0: 1}) == 1
    assert TPoly() == 0
    assert TPoly({2: 1}) != 1
