"""Exact JSON round trips, the markdown table emitter and checked loaders."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from schemeforge.reconstruct import all_cliques, reconstruct_gq, \
    recover_hemisystem
from schemeforge.scheme_params import KreinArray, derive_parameters
from schemeforge.serialize import (BadInput, dump_json, gq_from_dict,
                                   gq_to_dict, hemi_from_dict, hemi_to_dict,
                                   load_json, params_markdown,
                                   params_to_dict, parse_rat, rat_str,
                                   reconstruction_to_dict, scheme_from_dict,
                                   scheme_to_dict, triple_to_dict)
from schemeforge.triples import forced_triple_values


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=10 ** 6))
def test_rational_strings_round_trip(x):
    assert parse_rat(rat_str(x)) == x


def test_integer_rationals_have_no_denominator():
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-14, 3)) == "-14/3"
    assert parse_rat(7) == Fraction(7)


def test_params_dict_schema(params_t3):
    data = params_to_dict(params_t3)
    assert set(data) == {"d", "t", "order", "valencies", "multiplicities",
                         "P", "Q", "p", "q"}
    assert data["d"] == 4 and data["t"] == 3
    assert data["order"] == "112"
    assert data["valencies"] == ["1", "20", "10", "36", "45"]
    assert len(data["P"]) == 5 and len(data["P"][0]) == 5
    assert len(data["p"]) == 5 and len(data["p"][2][2]) == 5
    assert data["q"][1][1][2] == "49/3"


def test_params_markdown_conventions(params_t3):
    text = params_markdown(params_t3)
    assert "t q^1_ij (scaled by t = 3)" in text
    assert "q^4_ij (unscaled)" in text
    assert "mix two conventions" in text
    # t * q^1_12 = 3 * 49/3 = 49 must appear in the scaled table
    assert "| 49 |" in text
    assert text.endswith("the first three are scaled by t, the last is not.\n")


def test_params_markdown_off_the_family_has_no_scaling_note():
    params = derive_parameters(KreinArray.make((3, 2, 1), (1, 2, 3)))
    assert params.t is None
    text = params_markdown(params)
    assert "q^1_ij (unscaled)" in text
    assert "scaled by t" not in text
    assert "mix two conventions" not in text
    assert text.endswith("| 3 | 0 | 0 | 0 |\n")


@pytest.mark.parametrize("x", [0, 5, -7, True, False, Fraction(6),
                               Fraction(-3), Fraction(-14, 3),
                               Fraction(12, 8), "3/4", "-6/8", "2"])
def test_rat_str_matches_the_fraction_oracle(x):
    assert rat_str(x) == oracle.rat_str(x)


def test_gq_round_trip(hermitian_gq):
    data = gq_to_dict(hermitian_gq)
    assert data["s"] == 9 and data["t"] == 3
    assert data["points"] == 280
    assert len(data["lines"]) == 112
    again = gq_from_dict(data)
    assert again == hermitian_gq


def test_hemi_round_trip(hemisystem):
    again = hemi_from_dict(hemi_to_dict(hemisystem))
    assert again.lines == hemisystem.lines


def test_scheme_round_trip(scheme_t3):
    data = scheme_to_dict(scheme_t3)
    assert data["size"] == 112 and data["classes"] == 5
    again = scheme_from_dict(data)
    assert (again.rel == scheme_t3.rel).all()


def test_triple_dict_shapes(params_t3):
    assert triple_to_dict(None) == {"forced": {}, "free": [],
                                    "vacuous": True}
    sol = forced_triple_values(params_t3, (2, 1, 1))
    data = triple_to_dict(sol)
    assert data["vacuous"] is False
    assert data["forced"]["[1,1,2]"] == "1"
    assert data["forced"]["[1,3,4]"] == "18"
    assert all(isinstance(k, str) and k.startswith("[")
               for k in data["forced"])
    assert all(isinstance(f, list) and len(f) == 3 for f in data["free"])


def test_reconstruction_dict(scheme_t3, cliques):
    rec = reconstruct_gq(scheme_t3, cliques)
    part = recover_hemisystem(scheme_t3, 0)
    data = reconstruction_to_dict(rec, part)
    assert set(data) == {"cliques", "U", "dual_order", "checks"}
    assert len(data["cliques"]) == 280
    assert set(data["cliques"][0]) == {"C", "Cprime"}
    assert len(data["U"]) == 56
    assert data["dual_order"] == [3, 9]
    assert all(data["checks"].values())


# ------------------------------------------------------------ JSON writer

# Strings JSON escapes, non-ASCII text and the forced map's bracket keys.
json_strings = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['', '"', '\\', '\\"', '\x00\x1f\n\t\r\x7f',
                     'caf\u00e9 \u2211 \u4e2d \U0001f600', '[1,1,2]',
                     '[2,2,2]', 'a, b: c', '{}', '[]', '-14/3', 'null']))
json_leaves = st.one_of(
    st.none(), st.booleans(), json_strings,
    st.integers(-10 ** 40, 10 ** 6), st.integers(-2 ** 70, -2 ** 62))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(json_strings, inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(json_strings, json_values, max_size=6))
def test_dump_json_writes_the_bytes_of_json_dumps(data):
    assert dump_json(data) == json.dumps(data, indent=2)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_dump_json_writes_any_value_as_json_dumps_does(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [{1: "a"}, {None: []}, {"x": 0.5},
                                 {"x": [float("nan")]}, {"x": Fraction(1, 2)},
                                 [object()], {"x": {(1, 2): 0}}])
def test_dump_json_refuses_what_no_document_holds(bad):
    with pytest.raises(TypeError):
        dump_json(bad)


def cli_documents(params_t3, hermitian_gq, hemisystem, scheme_t3, cliques):
    """Every kind of document the command line writes."""
    rec = reconstruct_gq(scheme_t3, cliques)
    off_family = derive_parameters(KreinArray.make((4, 3, Fraction(8, 3), 1),
                                                   (1, Fraction(4, 3), 3, 4)))
    yield params_to_dict(params_t3)
    yield params_to_dict(off_family)
    yield triple_to_dict(forced_triple_values(params_t3, (2, 1, 1)))
    yield triple_to_dict(None)
    yield gq_to_dict(hermitian_gq)
    yield hemi_to_dict(hemisystem)
    yield scheme_to_dict(scheme_t3)
    yield reconstruction_to_dict(rec, recover_hemisystem(scheme_t3, 0))


def test_dump_json_writes_every_cli_document_as_json_dumps_does(
        params_t3, hermitian_gq, hemisystem, scheme_t3, cliques):
    docs = list(cli_documents(params_t3, hermitian_gq, hemisystem, scheme_t3,
                              cliques))
    assert len(docs) == 8
    for data in docs:
        assert dump_json(data) == json.dumps(data, indent=2)


def test_json_file_round_trip(tmp_path, hemisystem):
    path = tmp_path / "hemi.json"
    path.write_text(dump_json(hemi_to_dict(hemisystem)))
    assert load_json(path) == hemi_to_dict(hemisystem)


@pytest.mark.parametrize("text", ["[" * 100_000, "[" + "7" * 5000 + "]"],
                         ids=["deep-nesting", "5000-digit-literal"])
def test_json_files_past_the_decoder_limits_are_bad_input(tmp_path, text):
    """Nesting past the recursion limit and an integer past Python's
    int-string limit are malformed input, not internal errors."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(BadInput, match="not a JSON document"):
        load_json(path)


# ------------------------------------------------------------ loader checks

GRID_GQ = {"s": 2, "t": 1, "points": 9,
           "lines": [[0, 1, 2], [3, 4, 5], [6, 7, 8],
                     [0, 3, 6], [1, 4, 7], [2, 5, 8]]}
HEMI = {"lines": [0, 2, 4]}
SCHEME = {"size": 3, "classes": 2, "rel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
LOADERS = ((gq_from_dict, GRID_GQ), (hemi_from_dict, HEMI),
           (scheme_from_dict, SCHEME))


def test_small_documents_load():
    assert len(gq_from_dict(GRID_GQ).lines) == 6
    assert hemi_from_dict(HEMI).lines == (0, 2, 4)
    assert scheme_from_dict(SCHEME).rel.tolist() == SCHEME["rel"]


@pytest.mark.parametrize("entry", [1.9, 1.0, True, 2, 260, -1, None, "1"])
def test_relation_entries_must_be_labels(entry):
    data = copy.deepcopy(SCHEME)
    data["rel"][0][1] = entry
    with pytest.raises(BadInput, match=r"rel\[0\]\[1\]"):
        scheme_from_dict(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d["lines"][0].__setitem__(2, 9),      # no such point
    lambda d: d["lines"][0].reverse(),              # not increasing
    lambda d: d.__setitem__("points", 10 ** 12),    # points on no line
    lambda d: d.__delitem__("s"),
])
def test_gq_loader_checks_shape_and_range(mutate):
    data = copy.deepcopy(GRID_GQ)
    mutate(data)
    with pytest.raises(BadInput):
        gq_from_dict(data)


def test_hemisystem_loader_rejects_repeats():
    with pytest.raises(BadInput):
        hemi_from_dict({"lines": [0, 2, 2]})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10)


def mutated(draw, doc):
    """doc with one entry somewhere inside it deleted or replaced."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LOADERS), st.integers(1, 3), st.data())
def test_mutated_documents_load_or_raise_bad_input(loader_doc, rounds, data):
    loader, doc = loader_doc
    for _ in range(rounds):
        doc = mutated(data.draw, doc)
        if not isinstance(doc, (dict, list)):
            break
    try:
        loader(doc)
    except BadInput:
        pass
