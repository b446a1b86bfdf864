import copy
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchar import serialize
from qtchar.charalg import Character
from qtchar.errors import ParseError, QtCharError
from qtchar.fm import fundamental_qt
from qtchar.fusion import FactorSpec, standard_module_qt
from qtchar.jordan import annotate_character
from qtchar.rootdata import build_root_datum
from qtchar.serialize import (
    character_from_doc,
    character_to_doc,
    dumps,
    write_character,
)

A2 = build_root_datum("A", 2)
D4 = build_root_datum("D", 4)


def test_roundtrip_fundamental():
    chi = fundamental_qt(D4, 2, 0)
    doc = character_to_doc(chi)
    back = character_from_doc(doc)
    # equal w gives equal windows, so the packed monomials carry over
    assert back.w == chi.w
    assert back.terms == chi.terms
    for m in chi.terms:
        assert back.window.v(m) == chi.window.v(m)
        assert back.window.text(m) == chi.window.text(m)


def test_roundtrip_is_bit_exact():
    chi = standard_module_qt(A2, [(1, 0), (2, 1)])
    text = dumps(character_to_doc(chi))
    again = dumps(character_to_doc(character_from_doc(json.loads(text))))
    assert text == again


def test_doc_shape():
    chi = fundamental_qt(D4, 2, 0)
    doc = character_to_doc(chi)
    assert doc["type"] == "D4"
    assert doc["orbits"] == ["a"]
    assert doc["highest"] == "2_0"
    assert doc["terms"][0] == {
        "monomial": "2_0", "w": {"2_0": 1}, "v": {}, "coeff": [[0, 1]]}
    thick = next(t for t in doc["terms"] if t["monomial"] == "2_2 2_4^-1")
    assert thick["coeff"] == [[0, 1], [2, 1]]
    assert thick["w"] == {"2_0": 1}
    assert thick["v"] == {"1_2": 1, "2_1": 1, "2_3": 1, "3_2": 1, "4_2": 1}


def test_jordan_annotations_serialized():
    chi = standard_module_qt(A2, [(1, 0), (1, 0)])
    doc = character_to_doc(chi, annotate_character(chi))
    thick = next(t for t in doc["terms"]
                 if t["monomial"] == "1_0 1_2^-1 2_1")
    assert thick["jordan"] == {"n": 1, "blocks": [2], "graded": [1, 1]}


def test_term_order_stable():
    chi = fundamental_qt(D4, 2, 0)
    doc = character_to_doc(chi)
    keys = [(m.vdeg, tuple(chi.window.y(m).items()))
            for m, _text, _c in chi.sorted_terms()]
    assert keys == sorted(keys)
    assert doc["terms"][0]["monomial"] == "2_0"
    assert doc["terms"][-1]["monomial"] == "2_6^-1"


def test_rejects_mismatched_payload():
    chi = fundamental_qt(A2, 1, 0)
    doc = character_to_doc(chi)
    doc["terms"][1]["monomial"] = "2_3^-1"  # belongs to a different term
    with pytest.raises(ParseError):
        character_from_doc(doc)


def test_rejects_missing_payload():
    chi = fundamental_qt(A2, 1, 0)
    doc = character_to_doc(chi)
    del doc["terms"][0]["w"]
    with pytest.raises(ParseError):
        character_from_doc(doc)


def test_rejects_lowering_outside_window():
    doc = character_to_doc(fundamental_qt(A2, 1, 0))
    doc["terms"][1]["v"] = {"1_5": 1}
    with pytest.raises(ParseError):
        character_from_doc(doc)


@pytest.mark.parametrize("build", [
    lambda: fundamental_qt(A2, 1, 0, "x y"),
    lambda: standard_module_qt(A2, [(1, 0, "1b"), (2, 1)]),
], ids=["fundamental", "standard"])
def test_no_character_on_an_orbit_a_document_cannot_name(build):
    # the window checks its orbits, so a character is never built that
    # writes a document `character_from_doc` rejects
    with pytest.raises(ParseError, match="bad orbit name"):
        build()


def test_rejects_terms_with_another_w():
    doc = character_to_doc(fundamental_qt(A2, 1, 0))
    doc["terms"][2].update(monomial="1_0 2_3^-1", w={"1_0": 2})
    with pytest.raises(ParseError) as excinfo:
        character_from_doc(doc)
    assert str(excinfo.value) == (
        "term '1_0 2_3^-1': w differs from the highest monomial")


@pytest.mark.parametrize("edit", [
    lambda doc: doc["terms"][0].update(coeff=5),
    lambda doc: doc["terms"][0].update(coeff=[[0, "1"]]),
    lambda doc: doc["terms"][0].update(w={"2_0": "x"}),
    lambda doc: doc["terms"][1].update(v=[1]),
    lambda doc: doc["terms"][1].update(monomial=7),
    lambda doc: doc["terms"][0].update(w={"9_0": 1}),
    lambda doc: doc.pop("terms"),
    lambda doc: doc.update(terms={}),
    lambda doc: doc.update(type=4),
    lambda doc: doc["terms"][0].update(w={"1_0": 2 ** 64}),
])
def test_malformed_documents_raise_parse_error(edit):
    doc = character_to_doc(fundamental_qt(A2, 1, 0))
    edit(doc)
    with pytest.raises(ParseError):
        character_from_doc(doc)
    with pytest.raises(ParseError):
        character_from_doc([doc])


# documents to mutate: one orbit with Jordan data, and two orbits
_DOCUMENTS = [
    character_to_doc(chi, annotate_character(chi))
    for chi in [fundamental_qt(A2, 1, 0),
                standard_module_qt(A2, [FactorSpec(1, 0),
                                        FactorSpec(2, 1, "b")])]]
_TRICKY = st.sampled_from(["_", "@", "^", "-", " ", "\n", "0", "9", "b",
                           "\u0661", "\u00e9", "\u00b2"])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats() | st.text(_TRICKY | st.characters(), max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _edited(draw, text: str) -> str:
    """``text`` with one tricky character inserted, or one deleted."""
    at = draw(st.integers(0, len(text)))
    if text and draw(st.booleans()):
        at = min(at, len(text) - 1)
        return text[:at] + text[at + 1:]
    return text[:at] + draw(_TRICKY) + text[at:]


def _coefficient_pairs(doc) -> list:
    """The [t-exponent, integer] pairs of the terms' coefficients that are
    still well formed in ``doc``."""
    terms = doc.get("terms") if isinstance(doc, dict) else None
    return [pair for term in terms if isinstance(term, dict)
            and isinstance(term.get("coeff"), list)
            for pair in term["coeff"] if isinstance(pair, list)
            and len(pair) == 2 and all(type(x) is int for x in pair)
            ] if isinstance(terms, list) else []


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        # half the edits move an exponent, set a value or flip a sign of
        # one coefficient, so that documents parse and reach the audit
        pairs = _coefficient_pairs(doc)
        if pairs and draw(st.booleans()):
            pair = draw(st.sampled_from(pairs))
            edit = draw(st.sampled_from(["exponent", "value", "sign"]))
            if edit == "exponent":
                pair[0] += draw(st.integers(-4, 4))
            elif edit == "value":
                pair[1] = draw(st.integers(-3, 3))
            else:
                pair[1] = -pair[1]
            continue
        # walk down to a container, then change one of its entries
        node = doc
        while True:
            key = draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child
                    and draw(st.integers(0, 3))):
                break
            node = child
        op = draw(st.sampled_from(["replace", "edit", "delete", "insert",
                                   "copy"]))
        if op == "delete":
            del node[key]
        elif op == "insert" and isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(_VALUES)
        elif op in ("insert", "copy") and isinstance(node, list):
            node.insert(key, copy.deepcopy(child) if op == "copy"
                        else draw(_VALUES))
        elif op == "edit" and isinstance(node, dict):
            node[_edited(draw, key)] = node.pop(key)
        elif op == "edit" and isinstance(child, str):
            node[key] = _edited(draw, child)
        else:
            node[key] = draw(_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_raise_only_typed_errors(doc):
    # a mutated document reads as a character with one term per entry,
    # or raises a QtCharError; never an untyped error, never a merge
    try:
        chi = character_from_doc(doc)
    except QtCharError:
        return
    assert len(chi) == len(doc["terms"])


# -- the writer ----------------------------------------------------------

def _written(chi, annotations=None) -> str:
    fh = io.StringIO()
    write_character(chi, annotations, fh)
    return fh.getvalue()


@pytest.mark.parametrize("case", ["e6-node-3", "a2-standard", "d4-node-2"])
def test_writer_is_json_dumps_and_round_trips(case):
    if case == "e6-node-3":  # decoded, as `fundamental --decode` writes it
        chi = fundamental_qt(build_root_datum("E", 6), 3, 0)
        annotations = annotate_character(chi)
    elif case == "a2-standard":  # two orbits, Jordan blocks of several sizes
        chi = standard_module_qt(A2, [FactorSpec(1, 0), FactorSpec(2, 1, "b"),
                                      FactorSpec(1, 2)])
        annotations = annotate_character(chi)
    else:  # the highest term's empty v, no annotations
        chi, annotations = fundamental_qt(D4, 2, 0), None
    text = _written(chi, annotations)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert [t["v"] for t in doc["terms"]].count({}) == 1
    assert ("jordan" in doc["terms"][0]) == (annotations is not None)
    back = character_from_doc(doc)
    assert back.w == chi.w
    assert back.terms == chi.terms


def test_writer_of_a_character_without_terms():
    chi = fundamental_qt(A2, 1, 0)
    text = _written(Character(chi.window, {}))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert json.loads(text)["terms"] == []


class _Length:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.length = 0

    def write(self, text: str) -> None:
        self.length += len(text)

    def writelines(self, pieces) -> None:
        for text in pieces:
            self.write(text)


def test_writer_holds_less_than_half_its_output():
    # the document tree and its joined text hold more than twice the
    # output; the writer holds one term's text and the memoised pieces
    chi = fundamental_qt(build_root_datum("E", 7), 4, 0)
    annotations = annotate_character(chi)
    sink = _Length()
    tracemalloc.start()
    try:
        write_character(chi, annotations, sink)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.length == 23692597
    assert peak < sink.length / 2


# -- dumps ---------------------------------------------------------

_strings = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028')
                   | st.characters(), max_size=6)
_trees = st.recursive(
    _strings | st.integers() | st.integers(-2 ** 100, 2 ** 100),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=24)


@given(_trees)
def test_dumps_is_json_dumps_with_indent(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


@given(_trees)
def test_nested_blocks_are_json_dumps_with_indent(obj):
    # the writer renders its nested blocks itself, byte for byte, at the
    # head's depth and at a term field's
    text = json.dumps(obj, indent=2)
    assert serialize._nested(obj, "\n") == text
    assert serialize._nested(obj) == text.replace("\n", "\n      ")


def _shared_values():
    lst, dct, empty_list, empty_dict = [1, ["x"]], {"k": [2, 3]}, [], {}
    return [
        # one list object at two depths
        {"a": lst, "b": [lst, {"c": lst}], "d": lst},
        # one dict repeated at the same depth, and under other keys
        [dct, dct, {"x": dct, "y": dct}, dct],
        # shared empty containers
        {"a": empty_list, "b": [empty_list, empty_dict, {"c": empty_dict}],
         "d": empty_dict, "e": [[empty_list]]},
    ]


@pytest.mark.parametrize("obj", _shared_values(),
                         ids=["list-at-two-depths", "dict-at-one-depth",
                              "empty-containers"])
def test_dumps_of_shared_values_is_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_dumps_is_json_dumps_on_documents():
    e6 = fundamental_qt(build_root_datum("E", 6), 3, 0)
    a2 = standard_module_qt(A2, [FactorSpec(1, 0), FactorSpec(2, 1, "b"),
                                 FactorSpec(1, 2)])
    for chi in (e6, a2):
        doc = character_to_doc(chi, annotate_character(chi))
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
