import pytest

import qtchar
from qtchar import FactorSpec, JordanProfile, QtCharError, Segment, parse_type
from qtchar.charalg import DEFAULT_ORBIT
from qtchar.errors import InconsistentProfile
from qtchar.jordan import ValidationReport


def test_public_api():
    names = qtchar.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qtchar, name)]
    assert not missing


@pytest.mark.parametrize("make, fields", [
    (lambda: parse_type("D4"), ["family", "rank", "cartan", "adjacency"]),
    (lambda: Segment("a", -1, 3), ["orbit", "head", "length"]),
    (lambda: FactorSpec(2, 4), ["node", "shift", "orbit"]),
    (lambda: ValidationReport(("palindromic",)), ["violations"]),
    (lambda: JordanProfile((3, 1, 1)), ["blocks"]),
], ids=["RootDatum", "Segment", "FactorSpec", "ValidationReport",
        "JordanProfile"])
def test_value_classes_are_frozen_values(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    # the constructor takes the fields in order
    assert type(a)(*(getattr(a, f) for f in fields)) == a
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == b


def test_value_class_behaviour():
    # ordered as (orbit, head, length)
    ordered = [Segment("a", 0, 2), Segment("a", 0, 3), Segment("a", 2, 1),
               Segment("b", 0, 1)]
    assert sorted(reversed(ordered)) == ordered
    with pytest.raises(QtCharError, match="segment length 0 is not >= 1"):
        Segment("a", 0, 0)
    # no copy escapes the checks either
    with pytest.raises(QtCharError, match="segment length 0 is not >= 1"):
        ordered[0]._replace(length=0)
    with pytest.raises(InconsistentProfile):
        JordanProfile((3, 1))._replace(blocks=(1, 3))
    assert FactorSpec(3) == FactorSpec(3, 0, DEFAULT_ORBIT)
    assert bool(ValidationReport(())) and ValidationReport().ok
    assert not ValidationReport(("palindromic",))
    assert repr(parse_type("D4")) == "RootDatum(D4)"
    assert parse_type("D4") != parse_type("A4")
