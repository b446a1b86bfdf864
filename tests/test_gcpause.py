import gc
import io

import pytest

from qtchar import fm, fusion, serialize
from qtchar.charalg import Character, Window
from qtchar.errors import InconsistentExpansion, NegativeTwist
from qtchar.fm import fundamental_qt, string_edges
from qtchar.fusion import standard_module_qt, twisted_product
from qtchar.rootdata import build_root_datum
from qtchar.serialize import write_character
from qtchar.tpoly import TPoly

A2 = build_root_datum("A", 2)
D4 = build_root_datum("D", 4)
E6 = build_root_datum("E", 6)


def tampered_d4():
    # a bound one past the lowest weight's degree (as in test_fm)
    datum = build_root_datum("D", 4)
    depths = list(datum.lowest_depths)
    depths[1] += 1
    datum.__dict__["lowest_depths"] = tuple(depths)
    return datum


def negative_twist_factor():
    # a lowering vector no module has (as in test_fusion)
    window = Window(A2, {("a", 1, 0): 1})
    return Character(window, {window.pack({("a", 1, 1): 2}): TPoly.one()})


# entry point -> (a call that returns, a call that raises, its error,
# the module attribute it calls while paused)
CALLS = {
    "fundamental_qt": (
        lambda: fundamental_qt(D4, 2),
        lambda: fundamental_qt(tampered_d4(), 2),
        InconsistentExpansion, (fm, "audit_expansion")),
    "standard_module_qt": (
        lambda: standard_module_qt(D4, [(2, 0), (2, 2)]),
        lambda: standard_module_qt(tampered_d4(), [(2, 0), (2, 2)]),
        InconsistentExpansion, (fusion, "twist_rows")),
    "twisted_product": (
        lambda: twisted_product(A2, *[fundamental_qt(A2, 1, 0)] * 2),
        lambda: twisted_product(A2, *[negative_twist_factor()] * 2),
        NegativeTwist, (fusion, "twist_rows")),
    "write_character": (
        lambda: write_character(fundamental_qt(D4, 2), None, io.StringIO()),
        lambda: write_character(fundamental_qt(D4, 2), {}, io.StringIO()),
        KeyError, (serialize, "_pieces")),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_paused_entry_points_restore_the_collector(name, enabled,
                                                   monkeypatch):
    # paused inside, nested calls included, and as found after a return
    # and after a raise; a collector the caller disabled stays disabled
    returns, raises, error, (module, attr) = CALLS[name]
    inside = []
    inner = getattr(module, attr)

    def spy(*args):
        inside.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(module, attr, spy)
    after = []
    found = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        returns()
        after.append(gc.isenabled())
        with pytest.raises(error):
            raises()
        after.append(gc.isenabled())
    finally:
        (gc.enable if found else gc.disable)()
    assert after == [enabled, enabled]
    assert inside and not any(inside)


def test_bulk_builders_leave_no_cycles():
    # the premise of the pause: what the paused builders drop, reference
    # counting frees, so a collection after them finds nothing
    gc.collect()
    chi = fundamental_qt(E6, 1)
    cube = standard_module_qt(D4, [(2, 0), (2, 2), (2, 4)])
    string_edges(chi)
    assert gc.collect() == 0
    for built in (cube, standard_module_qt(D4, [(2, 0), (2, 2), (2, 4),
                                                (2, 6)])):
        write_character(built, None, io.StringIO())
        assert gc.collect() == 0
