"""One test per acceptance criterion, each with its stated budget.

Run with `pytest -v tests/test_acceptance.py` for one verdict line per
criterion; add -s to also see the printed ACCEPTANCE n: PASS/FAIL lines.
All value checks are exact (Fraction or int equality); the only
tolerances here are wall-clock budgets.
"""

import dataclasses
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from schemeforge.geometry import (Hemisystem, build_hermitian_gq,
                                  find_hemisystem, verify_gq,
                                  verify_hemisystem)
from schemeforge.reconstruct import (all_cliques, reconstruct_gq,
                                     recover_hemisystem,
                                     verify_dual_hemisystem)
from schemeforge.relation_scheme import (NotHemisystem, RelationScheme,
                                         scheme_from_hemisystem,
                                         verify_scheme)
from schemeforge.scheme_params import (closed_form_parameters,
                                       derive_parameters,
                                       hemisystem_krein_array, validate)
from schemeforge.triples import (TripleConfig, direct_triple_counts,
                                 forced_triple_values,
                                 integer_residual_checker, triple_pattern,
                                 widened_system)

ODD_T = tuple(range(3, 20, 2))


@contextmanager
def report(n):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    print(f"ACCEPTANCE {n}: PASS")


def test_criterion_1_pipeline_equals_closed_form():
    with report(1):
        start = time.perf_counter()
        for t in ODD_T:
            generic = derive_parameters(hemisystem_krein_array(t), t)
            table = closed_form_parameters(t)
            assert generic.order == table.order
            assert generic.valencies == table.valencies
            assert generic.multiplicities == table.multiplicities
            assert generic.P == table.P
            assert generic.Q == table.Q
            assert generic.p == table.p
            assert generic.q == table.q
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parameter sweep took {elapsed:.2f} s"


def test_criterion_2_forced_222_values():
    with report(2):
        for t in ODD_T[1:]:
            start = time.perf_counter()
            sol = forced_triple_values(closed_form_parameters(t),
                                       (2, 2, 2))
            elapsed = time.perf_counter() - start
            assert sol.forced[(2, 2, 2)] == Fraction(t - 5, 2), t
            for i in (1, 3, 4):
                assert sol.forced[(2, 2, i)] == 0, (t, i)
            assert elapsed < 5.0, f"t={t} took {elapsed:.2f} s"


def test_criterion_3_forced_211_values():
    with report(3):
        for t in ODD_T:
            start = time.perf_counter()
            sol = forced_triple_values(closed_form_parameters(t),
                                       (2, 1, 1))
            elapsed = time.perf_counter() - start
            assert sol.forced[(1, 1, 2)] == Fraction(t - 1, 2), t
            assert sol.forced[(2, 2, 1)] == Fraction(t - 3, 2), t
            for i in (1, 3, 4):
                assert sol.forced[(1, 1, i)] == 0, (t, i)
                assert sol.forced[(2, i, 1)] == 0, (t, i)
            assert sol.forced[(1, 3, 4)] == Fraction(t * t * (t + 1), 2), t
            assert elapsed < 5.0, f"t={t} took {elapsed:.2f} s"


def test_criterion_4_concrete_instance():
    with report(4):
        start = time.perf_counter()
        gq = build_hermitian_gq()
        assert len(gq.points) == 280
        assert len(gq.lines) == 112
        assert (gq.s, gq.t) == (9, 3)
        assert verify_gq(gq).overall
        hemi = find_hemisystem(gq)
        assert len(hemi.lines) == 56
        assert verify_hemisystem(gq, hemi)
        assert verify_hemisystem(gq, hemi.complement(gq))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"instance run took {elapsed:.2f} s"


def test_criterion_5_scheme_oracle(hermitian_gq, hemisystem, params_t3):
    with report(5):
        start = time.perf_counter()
        sch = scheme_from_hemisystem(hermitian_gq, hemisystem)
        counted = verify_scheme(sch)
        assert counted.consistency, counted.witness
        assert counted.p == params_t3.p
        assert counted.p[1][1][4] == 18
        assert counted.p[2][2][2] == 0
        assert counted.p[4][4][4] == 36
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"scheme verification took {elapsed:.2f} s"


@pytest.mark.parametrize("sample_size", [10 ** 4])
def test_criterion_6_triple_oracle_consistency(scheme_t3, params_t3,
                                               sample_size):
    with report(6):
        checkers = {}
        rng = Random(12345)
        n = scheme_t3.size
        for _ in range(sample_size):
            x, y, u = rng.sample(range(n), 3)
            abc = triple_pattern(scheme_t3, x, y, u)
            tensor = direct_triple_counts(scheme_t3, x, y, u)
            if abc not in checkers:
                sys_ = widened_system(TripleConfig(params_t3, abc))
                checkers[abc] = (sys_.kinds, integer_residual_checker(sys_))
            kinds, check = checkers[abc]
            bad = check(tensor)
            assert bad is None, (
                f"triple ({x},{y},{u}) pattern {abc} violates "
                f"{kinds[bad]} row {bad}")

        # every (2,1,1) triple, exhaustively
        seen = 0
        rel = scheme_t3.rel
        for x in range(n):
            for y in np.flatnonzero(rel[x] == 2):
                for u in np.flatnonzero((rel[x] == 1) & (rel[y] == 1)):
                    tensor = direct_triple_counts(scheme_t3, x, y, u)
                    assert tensor[1][1][2] == 1, (x, y, u)
                    assert tensor[2][2][1] == 0, (x, y, u)
                    seen += 1
        assert seen == 112 * 10 * 2


def test_criterion_7_reconstruction(scheme_t3, hemisystem):
    with report(7):
        start = time.perf_counter()
        cliques = all_cliques(scheme_t3)
        assert len(cliques) == 280
        on_count = {x: 0 for x in range(scheme_t3.size)}
        for cl in cliques:
            assert len(cl.elements) == 4
            assert len(cl.half_C) == 2 and len(cl.half_Cprime) == 2
            for x in cl.elements:
                on_count[x] += 1
        assert set(on_count.values()) == {10}

        rec = reconstruct_gq(scheme_t3, cliques)
        assert rec.dual_order == (3, 9)
        assert rec.report.overall

        parts = {frozenset(recover_hemisystem(scheme_t3, x))
                 for x in range(scheme_t3.size)}
        assert all(len(p) == 56 for p in parts)
        assert len(parts) == 2
        a, b = parts
        assert a | b == frozenset(range(scheme_t3.size)) and not (a & b)
        assert frozenset(hemisystem.lines) in parts
        assert verify_dual_hemisystem(scheme_t3, cliques,
                                      recover_hemisystem(scheme_t3, 0))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"reconstruction took {elapsed:.2f} s"


def test_criterion_8_negative_controls(hermitian_gq, hemisystem,
                                       scheme_t3, params_t3):
    with report(8):
        # one flipped relation entry
        rel = scheme_t3.rel.copy()
        rel[3][7] = rel[7][3] = 1 if rel[3][7] != 1 else 3
        broken = RelationScheme(size=112, classes=5, rel=rel)
        counted = verify_scheme(broken)
        assert not counted.consistency
        assert counted.witness

        # one deleted hemisystem line
        damaged = Hemisystem(hemisystem.lines[:-1])
        with pytest.raises(NotHemisystem) as exc:
            scheme_from_hemisystem(hermitian_gq, damaged)
        assert "55" in str(exc.value)

        # one corrupted parameter-table entry
        p = [list(map(list, plane)) for plane in params_t3.p]
        p[2][3][3] += 1
        corrupt = dataclasses.replace(
            params_t3,
            p=tuple(tuple(map(tuple, plane)) for plane in p))
        rep = validate(corrupt)
        assert not rep.overall
        failures = rep.failed()
        assert failures and all(w for _, _, w in failures)
