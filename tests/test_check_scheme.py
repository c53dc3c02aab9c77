"""`cli.check_scheme` off the family: the Hamming schemes H(d, q).

H(d, q) has the words of length d over q letters as elements, two words
in class i when they differ in i places. It is self-dual, so its Krein
array is its intersection array {(d-i)(q-1); i}, and `derive_parameters`
gives its tables in the distance order. These are d = 3 and d = 4 tables
that no geometry made, with no family t.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import schemeforge.cli as cli
from schemeforge.cli import MathFailure, check_scheme
from schemeforge.relation_scheme import RelationScheme
from schemeforge.scheme_params import (KreinArray, closed_form_parameters,
                                       derive_parameters)


def hamming(d, q) -> RelationScheme:
    """H(d, q): words in product(range(q), repeat=d), classed by the
    number of places in which they differ."""
    words = np.array(list(itertools.product(range(q), repeat=d)))
    rel = (words[:, None] != words[None, :]).sum(axis=2)
    return RelationScheme(size=q ** d, classes=d + 1, rel=rel.astype(np.int8))


def hamming_params(d, q):
    return derive_parameters(KreinArray.make(
        [(d - i) * (q - 1) for i in range(d)], range(1, d + 1)))


def stages(sch, params, exhaustive=False):
    """(the notes check_scheme yielded, its failure text or None)."""
    notes = []
    try:
        for note in check_scheme(sch, params, exhaustive):
            notes.append(note)
    except MathFailure as exc:
        return notes, str(exc)
    return notes, None


@pytest.mark.parametrize("d, q, exhaustive, triples", [
    (3, 2, True, 8 * 7 * 6), (4, 2, True, 16 * 15 * 14),
    (3, 3, True, 27 * 26 * 25), (4, 3, False, 300)])
def test_hamming_schemes_pass(d, q, exhaustive, triples):
    params = hamming_params(d, q)
    assert params.d == d and params.t is None
    notes, failure = stages(hamming(d, q), params, exhaustive)
    assert failure is None
    assert notes == [f"valencies {params.valencies}",
                     "counted p matches the exact tables",
                     f"{triples} triples consistent"]


def test_a_changed_symmetric_entry_fails_in_the_scheme_stage():
    """Words 0 and 1 of H(3,3) differ in one place; calling them 2 apart
    leaves rows 0 and 1 alike, so row 2 is the first whose valencies
    differ from row 0's."""
    sch = hamming(3, 3)
    rel = sch.rel.copy()
    assert rel[0, 1] == 1
    rel[0, 1] = rel[1, 0] = 2
    doctored = RelationScheme(size=sch.size, classes=sch.classes, rel=rel)
    assert stages(doctored, hamming_params(3, 3)) == (
        [], "valency row of 2 differs from row of 0")


def test_swapped_classes_fail_in_the_parameters_stage():
    """With classes 1 and 2 of H(3,3) swapped the table is still a scheme,
    with valencies 1, 12, 6, 8; the tables have k_1 = p^0_11 = 6."""
    sch = hamming(3, 3)
    swap = np.array([0, 2, 1, 3], dtype=np.int8)
    swapped = RelationScheme(size=sch.size, classes=sch.classes,
                             rel=swap[sch.rel])
    assert stages(swapped, hamming_params(3, 3)) == (
        ["valencies (1, 12, 6, 8)"], "p^0_11: counted 12, table 6")


def test_a_table_with_other_classes_is_refused_before_any_product(
        monkeypatch):
    def no_products(sch):
        raise AssertionError("verify_scheme reached")

    monkeypatch.setattr(cli, "verify_scheme", no_products)
    assert stages(hamming(3, 3), closed_form_parameters(3)) == (
        [], "the table has 4 classes, the parameters 5")


def test_the_family_lemma_is_read_from_t(scheme_t3, params_t3):
    """[1 1 2] = (t-1)/2 and [2 2 1] = (t-3)/2 come from params.t: the
    t = 3 tables labelled t = 5 pass every row, and the first (2,1,1)
    triple of the exhaustive walk, (0, 1, 2), fails the lemma."""
    notes, failure = stages(scheme_t3, replace(params_t3, t=5), True)
    assert len(notes) == 2
    assert failure == ("triple (0, 1, 2): [1 1 2] = 1, [2 2 1] = 0, "
                       "expected 2 and 1")
