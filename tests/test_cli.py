"""Exercising the command line front end in process through main(), and
in a child process where a real pipe is needed."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import schemeforge
from schemeforge.cli import MAX_ENTRY_BITS, main, parse_krein
from schemeforge.relation_scheme import CountedParameters
from schemeforge.scheme_params import (IrrationalEigenvalue, ValidationReport,
                                       derive_parameters)
from schemeforge.serialize import gq_to_dict, scheme_to_dict


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_json(tmp_path, capsys):
    out = tmp_path / "params.json"
    code, _, _ = run(["params", "--t", "3", "--format", "json",
                      "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["valencies"] == ["1", "20", "10", "36", "45"]
    assert data["multiplicities"] == ["1", "20", "70", "20", "1"]


def test_params_markdown_to_stdout(capsys):
    code, out, _ = run(["params", "--t", "3", "--format", "md"], capsys)
    assert code == 0
    assert "Valencies" in out
    assert "| 49 |" in out


def test_params_rejects_even_t(capsys):
    code, _, err = run(["params", "--t", "4"], capsys)
    assert code == 1
    assert err.strip()


def test_params_from_krein_matches_t(tmp_path, capsys):
    by_t = tmp_path / "t.json"
    by_k = tmp_path / "k.json"
    run(["params", "--t", "3", "--format", "json", "--out", str(by_t)],
        capsys)
    code, _, _ = run(["params", "--krein", "20,49/3,14/3,1;1,14/3,49/3,20",
                      "--format", "json", "--out", str(by_k)], capsys)
    assert code == 0
    assert json.loads(by_t.read_text()) == json.loads(by_k.read_text())


@pytest.mark.parametrize("array, witness", [
    # a 10^12-sized d = 1 array, once stalled in factoring its coefficients
    ("1000000000039;1000000000061",
     "order 2000000000100/1000000000061 is not a positive integer"),
    # an irrational eigenvalue within 1 of the rational eigenvalue b*_0
    ("1000000000000000000000000000000,1,1,1;1,1,1,1",
     "only 1 of 5 dual eigenvalues are rational"),
    ("3,2;1,2", "only 1 of 3 dual eigenvalues are rational"),
    # order 7 and valencies 1, 5, 1, but multiplicities 1, 7/2, 5/2
    ("7/2,5/2;1,7/2", "multiplicity 7/2 is not a positive integer"),
])
def test_params_rejects_an_infeasible_array_at_once(array, witness, capsys):
    start = time.perf_counter()
    code, _, err = run(["params", "--krein", array], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert witness in err


@pytest.mark.parametrize("array, position", [
    ("1e20000,1;1,1", 1), ("1,1;1,1e-4000", 4), ("1,1e78;1,1", 2),
    ("1e10000000,1;1,1", 1), ("1,1;1,1e-10000000", 4)])
def test_params_refuses_an_entry_with_too_many_bits_at_once(array, position,
                                                            capsys):
    """A short entry with a huge exponent once stalled the bisection, and
    before that the forming of 10^exponent."""
    start = time.perf_counter()
    code, _, err = run(["params", "--krein", array], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert f"entry {position} has more than {MAX_ENTRY_BITS} bits" in err


def test_the_widest_entries_that_fit_are_kept():
    """10^77 and 10^-77 have 256 bits; 10^78 and 10^-78 have 260."""
    k = parse_krein("1e77,1;1,1e-77")
    assert k.bstar[0] == 10 ** 77 and k.cstar[1] == Fraction(1, 10 ** 77)


def test_params_reads_a_zero_mantissa_as_zero_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(["params", "--krein", "0e-100000000,1;1,1"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "Krein array entries must be positive" in err


def test_params_names_an_irrational_eigenvalue(capsys):
    """The pentagon's Krein array {2, 1; 1, 1} has the dual eigenvalues 2
    and (-1 +- sqrt 5) / 2."""
    with pytest.raises(IrrationalEigenvalue,
                       match="only 1 of 3 dual eigenvalues are rational"):
        derive_parameters(parse_krein("2,1;1,1"))
    code, out, err = run(["params", "--krein", "2,1;1,1"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("validation failure: only 1 of 3 dual eigenvalues are "
                   "rational\n")


def test_params_applies_the_absolute_bound(capsys):
    """The real-MUB arrays at m = 16: w = 9 is kept, w = 10 breaks the
    absolute bound at the pair (1, 1) and exits 2 after printing."""
    code, out, err = run(["params", "--krein", "16,15,128/9,1;1,16/9,15,16"],
                         capsys)
    assert code == 0 and err == ""
    code, out, err = run(["params", "--krein", "16,15,72/5,1;1,8/5,15,16"],
                         capsys)
    assert code == 2
    assert json.loads(out)["multiplicities"] == ["1", "16", "150", "144",
                                                 "9"]
    assert err == ("validation failed: absolute_bound: sum of m_k over "
                   "q^k_11 != 0 is 151 > m_1(m_1 + 1)/2 = 136\n")


def test_params_needs_exactly_one_source(capsys):
    assert run(["params"], capsys)[0] == 1
    assert run(["params", "--t", "3",
                "--krein", "20,49/3,14/3,1;1,14/3,49/3,20"],
               capsys)[0] == 1


def test_triple_forced_values(tmp_path, capsys):
    out = tmp_path / "triple.json"
    code, _, _ = run(["triple", "--t", "7", "--abc", "2,2,2",
                      "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["vacuous"] is False
    assert data["forced"]["[2,2,2]"] == "1"
    assert data["forced"]["[2,2,1]"] == "0"
    assert data["free"] == []


def test_triple_vacuous_exits_zero(tmp_path, capsys):
    out = tmp_path / "triple.json"
    code, _, _ = run(["triple", "--t", "3", "--abc", "2,2,2",
                      "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["vacuous"] is True


def test_triple_rejects_bad_classes(capsys):
    assert run(["triple", "--t", "7", "--abc", "2,2"], capsys)[0] == 1
    assert run(["triple", "--t", "7", "--abc", "0,1,9"], capsys)[0] == 1


def test_file_chain(tmp_path, capsys):
    gq = tmp_path / "gq.json"
    hemi = tmp_path / "hemi.json"
    scheme = tmp_path / "scheme.json"
    recon = tmp_path / "recon.json"

    assert run(["build-gq", "--out", str(gq)], capsys)[0] == 0
    data = json.loads(gq.read_text())
    assert data["points"] == 280 and len(data["lines"]) == 112

    assert run(["hemisystem", "--in", str(gq), "--out", str(hemi)],
               capsys)[0] == 0
    assert len(json.loads(hemi.read_text())["lines"]) == 56

    assert run(["scheme", "--in", str(gq), str(hemi),
                "--out", str(scheme)], capsys)[0] == 0
    assert json.loads(scheme.read_text())["classes"] == 5

    assert run(["reconstruct", "--in", str(scheme),
                "--out", str(recon)], capsys)[0] == 0
    data = json.loads(recon.read_text())
    assert data["dual_order"] == [3, 9]
    assert len(data["U"]) == 56


def test_scheme_needs_two_inputs(tmp_path, capsys):
    gq = tmp_path / "gq.json"
    run(["build-gq", "--out", str(gq)], capsys)
    code, out, err = run(["scheme", "--in", str(gq)], capsys)
    assert (code, out) == (1, "")
    assert "expected 2 arguments" in err


@pytest.mark.parametrize("command", ["hemisystem", "reconstruct"])
def test_in_needs_a_path(command, capsys):
    code, out, err = run([command, "--in"], capsys)
    assert (code, out) == (1, "")
    assert "expected 1 argument" in err


@pytest.mark.parametrize("command", ["hemisystem", "reconstruct"])
def test_in_takes_one_path(command, tmp_path, capsys):
    gq = tmp_path / "gq.json"
    run(["build-gq", "--out", str(gq)], capsys)
    code, out, err = run([command, "--in", str(gq), str(gq)], capsys)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def test_reconstruct_rejects_corrupt_scheme(tmp_path, capsys):
    gq = tmp_path / "gq.json"
    hemi = tmp_path / "hemi.json"
    scheme = tmp_path / "scheme.json"
    run(["build-gq", "--out", str(gq)], capsys)
    run(["hemisystem", "--in", str(gq), "--out", str(hemi)], capsys)
    run(["scheme", "--in", str(gq), str(hemi), "--out", str(scheme)],
        capsys)

    data = json.loads(scheme.read_text())
    data["rel"][0][1] = data["rel"][1][0] = 4
    scheme.write_text(json.dumps(data))

    code, _, err = run(["reconstruct", "--in", str(scheme)], capsys)
    assert code == 2
    assert err.strip()


def test_scheme_rejects_an_out_of_range_hemisystem_line(tmp_path, capsys):
    gq = tmp_path / "gq.json"
    hemi = tmp_path / "hemi.json"
    run(["build-gq", "--out", str(gq)], capsys)
    run(["hemisystem", "--in", str(gq), "--out", str(hemi)], capsys)
    data = json.loads(hemi.read_text())
    data["lines"][0] = 112
    hemi.write_text(json.dumps(data))
    code, _, err = run(["scheme", "--in", str(gq), str(hemi)], capsys)
    assert code == 2
    assert "point 0 lies on 1 chosen lines, quota 2" in err


def test_pipeline_all_stages_pass(capsys):
    code, out, _ = run(["pipeline", "--t", "3"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if ": PASS" in l]
    assert len(lines) == 7


def test_pipeline_rejects_other_t(capsys):
    assert run(["pipeline", "--t", "5"], capsys)[0] == 1


def test_unknown_command(capsys):
    assert run(["frobnicate"], capsys)[0] == 1


def test_a_reader_that_closes_early_is_not_an_error():
    """The read end of stdout is closed before the command writes, as in
    `schemeforge triple ... | true`: exit 0, and nothing on stderr, not
    even the interpreter's "Exception ignored" at exit."""
    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schemeforge.cli", "triple", "--t", "51",
             "--abc", "1,1,2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_internal_errors_surface_as_tracebacks(monkeypatch):
    import schemeforge.cli as cli

    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "closed_form_parameters", broken)
    monkeypatch.setattr(cli, "build_hermitian_gq", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["triple", "--t", "7", "--abc", "2,2,2"])
    with pytest.raises(ValueError, match="internal bug"):
        main(["pipeline", "--t", "3"])


def test_reconstruct_verifies_the_loaded_table(tmp_path, capsys, scheme_t3):
    data = scheme_to_dict(scheme_t3)
    assert data["rel"][77][60] == data["rel"][60][77] == 4
    data["rel"][77][60] = 3
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["reconstruct", "--in", str(path)], capsys)
    assert code == 2
    assert "rel(60,77)=4 != rel(77,60)=3" in err


@pytest.mark.parametrize("entry", [1.9, 260])
def test_reconstruct_rejects_malformed_relation_entries(tmp_path, capsys,
                                                        scheme_t3, entry):
    data = scheme_to_dict(scheme_t3)
    data["rel"][0][1] = entry
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["reconstruct", "--in", str(path)], capsys)
    assert code == 1
    assert "rel[0][1]" in err


def test_loaders_reject_bad_files(tmp_path, capsys, hermitian_gq):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["reconstruct", "--in", str(garbled)], capsys)[0] == 1

    data = gq_to_dict(hermitian_gq)
    data["lines"][-1][-1] = 280
    gq = tmp_path / "gq.json"
    gq.write_text(json.dumps(data))
    code, _, err = run(["hemisystem", "--in", str(gq)], capsys)
    assert code == 1
    assert "lines[111][9]" in err


def test_a_file_nested_past_the_recursion_limit_is_a_usage_error(
        tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "schemeforge.cli", "hemisystem", "--in",
         str(deep)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert "usage error:" in proc.stderr
    assert "Traceback" not in proc.stderr


PASSED_BUILD_AND_HEMISYSTEM = [
    "build-gq: PASS (280 points, 112 lines)",
    "hemisystem: PASS (56 lines, complement verified)",
]


def test_pipeline_reports_the_failing_stage(monkeypatch, capsys):
    import schemeforge.cli as cli
    from schemeforge.relation_scheme import CountedParameters

    monkeypatch.setattr(cli, "verify_scheme", lambda sch: CountedParameters(
        (), (), False, "planted witness"))
    code, out, err = run(["pipeline", "--t", "3"], capsys)
    assert code == 2
    assert out.splitlines() == PASSED_BUILD_AND_HEMISYSTEM + [
        "scheme: FAIL (planted witness)"]
    assert err == "pipeline failed at stage scheme\n"


def test_pipeline_names_the_first_p_entry_off_the_tables(monkeypatch, capsys,
                                                        params_t3):
    """The tables are doctored at p^1_12 alone; the parameters stage names
    that entry with both values."""
    import dataclasses

    import schemeforge.cli as cli

    p = np.array(params_t3.p)
    p[1, 1, 2] += 1
    doctored = dataclasses.replace(params_t3, p=tuple(
        tuple(tuple(map(int, row)) for row in plane) for plane in p))
    monkeypatch.setattr(cli, "closed_form_parameters", lambda t: doctored)
    code, out, err = run(["pipeline", "--t", "3"], capsys)
    assert code == 2
    counted = params_t3.p[1][1][2]
    assert out.splitlines() == PASSED_BUILD_AND_HEMISYSTEM + [
        "scheme: PASS (valencies (1, 20, 10, 36, 45))",
        f"parameters: FAIL (p^1_12: counted {counted}, table {counted + 1})"]
    assert err == "pipeline failed at stage parameters\n"


def test_pipeline_reports_a_failing_last_stage(monkeypatch, capsys,
                                               tmp_path):
    import schemeforge.cli as cli

    monkeypatch.setattr(cli, "verify_dual_hemisystem", lambda *args: False)
    out_file = tmp_path / "rec.json"
    code, out, err = run(["pipeline", "--t", "3", "--out", str(out_file)],
                         capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[:2] == PASSED_BUILD_AND_HEMISYSTEM
    assert [line.split(":")[0] for line in lines[2:6]] == [
        "scheme", "parameters", "triples", "reconstruct"]
    assert all(": PASS (" in line for line in lines[:6])
    assert lines[6:] == ["recover: FAIL (a clique does not split cleanly)"]
    assert err == "pipeline failed at stage recover\n"
    assert not out_file.exists()


def test_pipeline_counts_the_parts_of_the_even_mask(monkeypatch, capsys,
                                                    scheme_t3):
    """The even-relation mask is doctored into three parts: base 0's part
    U stays whole, so |U| and the clique split pass, and the other 56
    elements fall into two parts of 28. The recover stage counts three
    distinct parts and fails."""
    from schemeforge.relation_scheme import RelationScheme

    part = scheme_t3.even[0]
    rest = np.flatnonzero(~part)
    labels = np.where(part, 0, 1)
    labels[rest[28:]] = 2
    three = labels[:, None] == labels[None, :]
    monkeypatch.setattr(RelationScheme, "even", three)
    code, out, err = run(["pipeline", "--t", "3"], capsys)
    assert code == 2
    lines = out.splitlines()
    assert all(": PASS (" in line for line in lines[:6])
    assert lines[6:] == ["recover: FAIL (3 distinct parts from 112 bases)"]
    assert err == "pipeline failed at stage recover\n"


def test_reconstruct_counts_the_parts_of_the_even_mask(monkeypatch, capsys,
                                                       scheme_t3):
    """The reconstruct command runs the recover stage's checks: with the
    mask doctored into three parts as above, it writes U, then fails."""
    from schemeforge.relation_scheme import RelationScheme

    part = scheme_t3.even[0]
    labels = np.where(part, 0, 1)
    labels[np.flatnonzero(~part)[28:]] = 2
    monkeypatch.setattr(RelationScheme, "even",
                        labels[:, None] == labels[None, :])
    code, out, err = run(["reconstruct"], capsys)
    assert code == 2
    assert len(json.loads(out)["U"]) == 56
    assert err == "validation failure: 3 distinct parts from 112 bases\n"


@pytest.mark.parametrize("command, key, check, verdict, failure", [
    ("build-gq", "points", "verify_gq", ValidationReport.from_checks(
        [("axiom", False, "planted witness")]), "axiom: planted witness"),
    ("scheme", "rel", "verify_scheme", CountedParameters(
        (), (), False, "planted witness"), "planted witness")])
def test_artifact_commands_write_then_fail_as_the_pipeline_stage(
        monkeypatch, capsys, command, key, check, verdict, failure):
    """Each artifact is written before its check, and a failed check is
    reported with the pipeline stage's text."""
    import schemeforge.cli as cli

    monkeypatch.setattr(cli, check, lambda artifact: verdict)
    code, out, err = run([command], capsys)
    assert code == 2
    assert key in json.loads(out)
    assert err == f"validation failure: {failure}\n"


def test_hemisystem_checks_the_complement(monkeypatch, capsys):
    """The hemisystem command runs the pipeline stage's checks; a
    complement that fails the quota is reported after the lines."""
    from schemeforge.geometry import Hemisystem

    monkeypatch.setattr(Hemisystem, "complement",
                        lambda self, gq: Hemisystem(self.lines[1:]))
    code, out, err = run(["hemisystem"], capsys)
    assert code == 2
    assert len(json.loads(out)["lines"]) == 56
    assert err == "validation failure: complement fails the quota\n"


def test_pipeline_names_a_bad_base_outside_the_first_part(monkeypatch,
                                                          capsys, scheme_t3):
    """Base 0's part U stays whole, but one element a outside it loses
    another element b of the rest from its row. The recover stage checks
    every base: the first outside U holds a, whose row differs."""
    from schemeforge.relation_scheme import RelationScheme

    part = scheme_t3.even[0]
    a, b = np.flatnonzero(~part)[[1, 2]]
    mask = part[:, None] == part[None, :]
    mask[a, b] = False
    monkeypatch.setattr(RelationScheme, "even", mask)
    code, out, err = run(["pipeline", "--t", "3"], capsys)
    assert code == 2
    lines = out.splitlines()
    assert all(": PASS (" in line for line in lines[:6])
    x = np.flatnonzero(~part)[0]
    assert lines[6:] == [f"recover: FAIL (base {x} gives a 56-set but "
                         f"base {a} inside it gives a different 55-set)"]
    assert err == "pipeline failed at stage recover\n"


def test_pipeline_prints_the_boundary_witness_of_a_doctored_count(
        monkeypatch, capsys):
    """Two boundary entries of every count are off; the FAIL line names
    the first in the order [0 m n], [l 0 n], [l m 0], in Python ints."""
    import schemeforge.cli as cli

    real = cli.direct_triple_counts

    def doctored(sch, x, y, u):
        counts = real(sch, x, y, u).copy()
        counts[0, 0, 1] += 2
        counts[1, 0, 0] += 1
        return counts

    monkeypatch.setattr(cli, "direct_triple_counts", doctored)
    code, out, err = run(["pipeline", "--t", "3"], capsys)
    assert code == 2
    assert out.splitlines() == PASSED_BUILD_AND_HEMISYSTEM + [
        "scheme: PASS (valencies (1, 20, 10, 36, 45))",
        "parameters: PASS (counted p matches the exact tables)",
        "triples: FAIL (triple (53, 93, 1): boundary: ((0, 0, 1), 2, 0))"]
    assert err == "pipeline failed at stage triples\n"


def test_pipeline_names_the_pattern_of_a_violated_row(monkeypatch, capsys):
    """One inner entry of every (2,1,1) count is off by one. The sampled
    triples hold no (2,1,1); the exhaustive walk starts at (0, 1, 2),
    which is one. The boundary passes and the FAIL line names the
    pattern in Python ints, as (2, 1, 1), not as numpy scalars."""
    import schemeforge.cli as cli

    real = cli.direct_triple_counts

    def doctored(sch, x, y, u):
        counts = real(sch, x, y, u)
        if cli.triple_pattern(sch, x, y, u) != (2, 1, 1):
            return counts
        counts = counts.copy()
        counts[3, 1, 2] += 1
        return counts

    monkeypatch.setattr(cli, "direct_triple_counts", doctored)
    code, out, err = run(["pipeline", "--t", "3", "--exhaustive"], capsys)
    assert code == 2
    assert out.splitlines()[-1] == (
        "triples: FAIL (triple (0, 1, 2) pattern (2, 1, 1): sum row 1 violated)")
    assert err == "pipeline failed at stage triples\n"


class _Enough(Exception):
    pass


def recorded_triples(monkeypatch, scheme, exhaustive, limit=2000):
    """The triples the triples stage visits, stopped after `limit` of
    them, and the count that its note reports."""
    import schemeforge.cli as cli
    from schemeforge.scheme_params import closed_form_parameters

    seen = []
    real = cli.triple_pattern

    def recording(sch, x, y, u):
        seen.append((x, y, u))
        if len(seen) == limit:
            raise _Enough
        return real(sch, x, y, u)

    monkeypatch.setattr(cli, "triple_pattern", recording)
    try:
        *_, note = cli.check_scheme(scheme, closed_form_parameters(3),
                                    exhaustive)
        checked = int(note.split()[0])
    except _Enough:
        checked = None
    return seen, checked


def test_exhaustive_triples_run_in_lexicographic_order(monkeypatch,
                                                       scheme_t3):
    seen, checked = recorded_triples(monkeypatch, scheme_t3, True)
    assert checked is None
    assert seen == list(itertools.islice(
        itertools.permutations(range(112), 3), 2000))


def test_sampled_triples_come_from_the_fixed_generator(monkeypatch,
                                                       scheme_t3):
    seen, checked = recorded_triples(monkeypatch, scheme_t3, False)
    rng = random.Random(12345)
    assert checked == 300
    assert seen == [tuple(rng.sample(range(112), 3)) for _ in range(300)]
