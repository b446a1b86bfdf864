import random
import resource
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtchar.errors import ExceedsMemory
from qtchar.tpoly import Decoded, TPoly, lo_and_mass, memory_bytes, pack

# independent dense reference: polynomials as {exp: coeff} dicts handled
# with plain loops, no TPoly machinery; the ring operations run on the
# packed integers that the expansion, the peel and the product sum


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


def packed(a, width, lo):
    return pack([TPoly(a)], width, lo)[0]


def unpack(x, width, lo):
    return Decoded(width, lo)[x]


def abs_mass(a):
    return sum(map(abs, a.values()))


coeff_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=12),
    st.integers(min_value=-9, max_value=9).filter(bool),
    max_size=6,
)


@given(coeff_dicts, coeff_dicts)
def test_add_matches_dense(a, b):
    width = (abs_mass(a) + abs_mass(b)).bit_length() + 1
    x = packed(a, width, -6) + packed(b, width, -6)
    assert unpack(x, width, -6).c == dense_add(a, b)


@given(coeff_dicts, coeff_dicts)
def test_mul_matches_dense(a, b):
    # the product's width rule: (A1 A2).bit_length() + 1
    width = (abs_mass(a) * abs_mass(b)).bit_length() + 1
    x = packed(a, width, -6) * packed(b, width, -6)
    assert unpack(x, width, -12).c == dense_mul(a, b)


@given(coeff_dicts, coeff_dicts)
def test_sub_then_add_roundtrips(a, b):
    width = (abs_mass(a) + abs_mass(b)).bit_length() + 1
    pa, pb = packed(a, width, -6), packed(b, width, -6)
    neg_b = {e: -v for e, v in b.items()}
    assert unpack(pa - pb, width, -6).c == dense_add(a, neg_b)
    assert unpack(pa - pb + pb, width, -6) == TPoly(a)


@given(st.lists(coeff_dicts, max_size=4))
def test_lo_and_mass_match_dense(coeffs):
    exps = [e for a in coeffs for e in a]
    assert lo_and_mass([TPoly(a) for a in coeffs]) == \
        (min(exps, default=0), sum(map(abs_mass, coeffs)))


def test_decoded_shares_values_and_checks_positivity():
    width, lo = 8, -2
    decoded = Decoded(width, lo)
    x, y, neg = pack([TPoly({0: 1, 2: 3}), TPoly({-2: 2}),
                      TPoly({0: 1, 1: -1})], width, lo)
    assert decoded[x] is decoded[x] == TPoly({0: 1, 2: 3})
    assert decoded.positive_mass(x) == 4
    assert decoded.positive_mass(y) == 2
    assert decoded.positive_mass(neg) is None
    assert decoded[0] == TPoly.zero()


def digit_loop(x, width, lo):
    """Reference: the signed width-bit digits of x, lowest first, one
    shift of the whole integer per digit."""
    coeffs = {}
    half, mask = 1 << width - 1, (1 << width) - 1
    e, y = lo, x
    while y:
        a = y & mask
        if a >= half:
            a -= 1 << width
        if a:
            coeffs[e] = a
        y = (y - a) >> width
        e += 1
    return coeffs


def test_decoded_matches_the_digit_loop():
    rng = random.Random(7)
    for width in (3, 5, 8, 32, 61):
        half = 1 << width - 1
        values = list(range(-300, 300))
        for _ in range(1500):
            digits = rng.randint(1, 12)
            values.append(sum(rng.randint(-half, half - 1) << width * k
                              for k in range(digits)))
        decoded = Decoded(width, -4)
        for x in values:
            assert decoded[x].c == digit_loop(x, width, -4)


def test_decoded_is_linear_in_the_exponent_span():
    # the digit loop shifts the whole integer once per digit, quadratic
    # in the span; this value took it minutes
    x = 1 + (1 << 3 * 2000000)
    assert Decoded(3, 0)[x] == TPoly({0: 1, 2000000: 1})
    assert Decoded(3, 0)[-x] == TPoly({0: -1, 2000000: -1})


def test_decoded_cuts_long_values_exactly():
    # values past the decoder's run of digits are cut in two, a negative
    # top digit of the low half included; dense, sparse and one-sided
    rng = random.Random(11)
    for width in (3, 5, 32):
        half = 1 << width - 1
        for _ in range(60):
            digits = rng.randint(60, 400)
            density = rng.choice((1.0, 0.5, 0.05))
            x = sum(rng.randint(-half, half - 1) << width * k
                    for k in range(digits) if rng.random() < density)
            for lo in (-5, 0, 5):
                assert Decoded(width, lo)[x].c == digit_loop(x, width, lo)
                assert Decoded(width, lo)[-x].c == digit_loop(-x, width, lo)


def test_decoded_memory_follows_the_value():
    # 1 + t^(10^7) at W = 5 packs into 6.25 MB; reading its two digits
    # holds a few copies of it at most, where a binary string of it
    # took 16 bytes per byte
    x = 1 + (1 << 5 * 10 ** 7)
    tracemalloc.start()
    try:
        p = Decoded(5, 0)[x]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == TPoly({0: 1, 10 ** 7: 1})
    assert peak < 5 * (x.bit_length() + 7) // 8


def test_pack_refuses_a_span_past_memory():
    # 3 (10^18 + 1) bits: the shift itself would run out of memory
    far = TPoly({-10 ** 18: 1, 0: 1})
    with pytest.raises(ExceedsMemory) as excinfo:
        pack([TPoly({0: 1}), far], 3, -10 ** 18)
    assert str(excinfo.value).startswith(
        f"a coefficient spanning t^{-10 ** 18} to t^0 packs into "
        f"{3 * (10 ** 18 + 1)} bits, more than the ")


def test_pack_bounds_the_span_by_the_address_space_limit(monkeypatch):
    # a finite soft limit below the physical memory is the figure; a
    # value of 1200 bits is refused under 1000 bytes, one of 300 is not
    monkeypatch.setattr(resource, "getrlimit",
                        lambda _which: (1000, resource.RLIM_INFINITY))
    assert memory_bytes() == 1000
    assert pack([TPoly({0: 1, 99: 2})], 3, 0) == [1 + (2 << 3 * 99)]
    with pytest.raises(ExceedsMemory):
        pack([TPoly({0: 1, 399: 2})], 3, 0)


@given(coeff_dicts)
def test_mass_is_value_at_one(a):
    assert TPoly(a).mass() == sum(a.values())


def test_basics():
    p = TPoly.from_pairs([(0, 1), (2, 1)])
    assert p.pairs() == [(0, 1), (2, 1)]
    assert p == TPoly({0: 1, 2: 1})
    assert TPoly.from_pairs([(2, 1), (2, -1)]) == TPoly.zero()
    assert not TPoly.zero()
    assert p.mass() == 2
    assert p.coeff(2) == 1 and p.coeff(1) == 0


def test_zero_coefficients_dropped():
    assert TPoly({0: 1, 2: 0}).c == {0: 1}
    assert TPoly.from_dict({0: 1, 2: 0}).c == {0: 1}


def test_str():
    assert str(TPoly({0: 1, 2: 1})) == "1 + t^2"
    assert str(TPoly({0: 1, 2: 3, 4: 1})) == "1 + 3t^2 + t^4"
    assert str(TPoly.zero()) == "0"
    assert str(TPoly({1: 1})) == "t"


def test_equality_with_int():
    assert TPoly({0: 1}) == 1
    assert TPoly() == 0
    assert TPoly({2: 1}) != 1
