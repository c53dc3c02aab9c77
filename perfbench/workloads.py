"""The four benchmark workloads: seeded inputs, set-up, one op and its checks.

Each op mirrors the body of one ``schemeforge`` command and calls only
functions that ``schemeforge.cli`` calls or that ``schemeforge.__all__``
exports. Every call into the package goes through ``tracer.call`` with a
span named after the module it enters (``triples.solve``), so a traced run
can split an op's wall time by layer. The benchmark's own checks run
outside any span; what an op spends outside its spans is ``bench.check``.

A failed check raises ``Mismatch``; the op loop in ``worker.py`` counts it
as a failed op and prints the op's input as the witness.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from schemeforge import (TripleConfig, all_cliques, build_hermitian_gq,
                         closed_form_parameters, derive_parameters,
                         find_hemisystem, hemisystem_krein_array,
                         nonneg_force, reconstruct_gq, recover_hemisystem,
                         scheme_from_hemisystem, solve, validate,
                         verify_dual_hemisystem, verify_gq, verify_hemisystem,
                         verify_scheme, widened_system)
from schemeforge.serialize import (dump_json, params_markdown, params_to_dict,
                                   triple_to_dict)
from schemeforge.triples import (boundary_violations, direct_triple_counts,
                                 integer_residual_checker, triple_pattern)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
ODD_T = tuple(range(3, 52, 2))
PATTERNS = tuple((a, b, c) for a in range(1, 5) for b in range(1, 5)
                 for c in range(1, 5))
PIPELINE_SEEDS = tuple(range(64))
PIPELINE_T = 3
SPOT_CHECKS = 300          # sampled triples per pipeline op, as the CLI does
SPOT_CHECK_SEED = 12345    # the CLI's fixed sampling seed
CENSUS_STRATA = 16


class Mismatch(Exception):
    """An op's output differs from the paper's closed forms or the record."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Tracer:
    """Per-op span time totals (seconds) and counts.

    ``begin_op`` clears the totals; the loop reads ``spans`` and
    ``counts`` after each op.
    """

    enabled = True

    def __init__(self):
        self.spans = {}
        self.counts = {}

    def begin_op(self):
        self.spans = {}
        self.counts = {}

    def call(self, name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans[name] = self.spans.get(name, 0.0) + perf_counter() - start
        return out

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


class NullTracer(Tracer):
    """Tracing off: spans and counts cost one Python call each."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


# ------------------------------------------------------------ params-sweep

def params_outputs(t, tr):
    """The body of ``schemeforge params --t T`` plus the closed-form check.

    Returns the JSON text and the Markdown text the command would print.
    """
    k = tr.call("scheme_params.krein_array", hemisystem_krein_array, t)
    params = tr.call("scheme_params.derive", derive_parameters, k, t)
    table = tr.call("scheme_params.closed_form", closed_form_parameters, t)
    for field in ("order", "valencies", "multiplicities", "P", "Q", "p", "q"):
        if getattr(params, field) != getattr(table, field):
            raise Mismatch(f"derived {field} differs from the closed form")
    text = tr.call("serialize.emit",
                   lambda: dump_json(params_to_dict(params)))
    md = tr.call("serialize.emit", params_markdown, params)
    report = tr.call("scheme_params.validate", validate, params, k)
    if not report.overall:
        raise Mismatch(f"validation failed: {report.failed()[0]}")
    return text, md


class ParamsSweep:
    name = "params-sweep"
    warmup_input = 3
    count_ops = 1
    batch = 1

    def __init__(self, expected=None):
        self.expected = load_expected("params") if expected is None \
            else expected

    def setup(self, tr):
        pass

    def inputs(self, seed):
        """Seeded passes over every t, so each run sees an even mix."""
        rng = random.Random(seed)
        while True:
            yield from rng.sample(ODD_T, len(ODD_T))

    def op(self, t, tr):
        text, md = params_outputs(t, tr)
        want = self.expected[str(t)]
        if digest(text) != want["json"]:
            raise Mismatch("parameter JSON differs from the record")
        if digest(md) != want["md"]:
            raise Mismatch("parameter Markdown differs from the record")


# ------------------------------------------------------------ triple-census

def nonvacuous_patterns(t) -> list:
    params = closed_form_parameters(t)
    return [abc for abc in PATTERNS
            if not TripleConfig(params, abc).is_vacuous]


def census_key(t, abc) -> str:
    return f"{t}:{abc[0]},{abc[1]},{abc[2]}"


def closed_form_violations(t, abc, forced) -> list:
    """The paper's closed forms for the (2,2,2) and (2,1,1) patterns."""
    if abc == (2, 2, 2):
        want = {(2, 2, 2): Fraction(t - 5, 2)}
        want.update({(2, 2, i): Fraction(0) for i in (1, 3, 4)})
    elif abc == (2, 1, 1):
        want = {(1, 1, 2): Fraction(t - 1, 2), (2, 2, 1): Fraction(t - 3, 2),
                (1, 3, 4): Fraction(t * t * (t + 1), 2)}
    else:
        return []
    return [(lmn, forced.get(lmn), v) for lmn, v in want.items()
            if forced.get(lmn) != v]


def triple_output(t, abc, tr):
    """The body of ``schemeforge triple --t T --abc A,B,C``.

    The three calls are those ``forced_triple_values`` makes; they are
    spelled out so that each gets its own span.
    """
    params = tr.call("scheme_params.closed_form", closed_form_parameters, t)
    sys_ = tr.call("triples.widened_system", widened_system,
                   TripleConfig(params, abc))
    sol = tr.call("triples.solve", solve, sys_)
    sol = tr.call("triples.nonneg_force", nonneg_force, sys_, sol)
    if tr.enabled:
        tr.count("triples.rows", len(sys_.rows))
        for kind in ("sum", "zero", "symmetry", "krein"):
            tr.count(f"triples.rows_{kind}", sys_.kinds.count(kind))
        tr.count("triples.unknowns", len(sys_.names))
        tr.count("triples.nullity", sol.space.dimension)
        tr.count("triples.forced", len(sol.forced))
        tr.count("triples.residual_free", len(sol.residual_free))
    text = tr.call("serialize.emit", lambda: dump_json(triple_to_dict(sol)))
    return sol, text


def interleaved(n) -> list:
    """0, n-1, 1, n-2, ...: every prefix mixes cheap and dear strata."""
    lo, hi = list(range(n // 2)), list(range(n - 1, (n - 1) // 2, -1))
    out = [i for pair in zip(lo, hi) for i in pair]
    return out + ([n // 2] if n % 2 else [])


def census_strata(domain) -> list:
    """Split the (t, pattern) domain into CENSUS_STRATA equal-size bins.

    The rank is a function of the input alone: symmetry class first (a
    pattern with all classes distinct has no symmetry rows to merge, one
    with all three equal has the most, and its ops are the dearest), then
    t, then the pattern. So the bins never change when the program does.
    """
    ranked = sorted(domain, key=lambda key: (-len(set(key[1])),) + key)
    n = len(ranked)
    return [ranked[i * n // CENSUS_STRATA:(i + 1) * n // CENSUS_STRATA]
            for i in range(CENSUS_STRATA)]


class TripleCensus:
    name = "triple-census"
    warmup_input = (3, (2, 1, 1))
    count_ops = 4
    batch = 1

    def __init__(self, expected=None):
        self.expected = load_expected("triples") if expected is None \
            else expected
        self.strata = None

    def setup(self, tr):
        """Check the draw domain against the record and split it into strata.

        Each pass of the input sequence takes one draw from every stratum,
        in the fixed ``interleaved`` order, so every run sees the same
        cost mix while the seed picks the (t, pattern) inside each stratum.
        """
        domain = [(t, abc) for t in ODD_T for abc in nonvacuous_patterns(t)]
        if {census_key(t, abc) for t, abc in domain} != set(self.expected):
            raise Mismatch("non-vacuous (t, pattern) set differs from the "
                           "record")
        self.strata = census_strata(domain)

    def inputs(self, seed):
        rng = random.Random(seed)
        order = interleaved(len(self.strata))
        while True:
            for s in order:
                yield rng.choice(self.strata[s])

    def op(self, inp, tr):
        t, abc = inp
        sol, text = triple_output(t, abc, tr)
        bad = closed_form_violations(t, abc, sol.forced)
        if bad:
            lmn, got, want = bad[0]
            raise Mismatch(f"{list(lmn)} = {got}, closed form {want}")
        if digest(text) != self.expected[census_key(t, abc)]:
            raise Mismatch("forced map differs from the record")


# ----------------------------------------------------------- geometry-pipeline

class SpotChecker:
    """The CLI's per-triple checks, with the checker cache it keeps.

    ``cmd_pipeline`` builds one residual checker per pattern it meets;
    the cache lives as long as this object.
    """

    def __init__(self, params):
        self.params = params
        self.checkers = {}

    def build(self, abc):
        sys_ = widened_system(TripleConfig(self.params, abc))
        return sys_, integer_residual_checker(sys_)

    def check(self, sch, x, y, u, tr):
        abc = tr.call("triples.count", triple_pattern, sch, x, y, u)
        tensor = tr.call("triples.count", direct_triple_counts, sch, x, y, u)
        bad = tr.call("triples.check", boundary_violations, abc, tensor)
        if bad:
            raise Mismatch(f"triple {(x, y, u)}: boundary: {bad[0]}")
        if abc not in self.checkers:
            self.checkers[abc] = tr.call("triples.checker_build",
                                         self.build, abc)
            tr.count("triples.checkers_built", 1)
        sys_, checker = self.checkers[abc]
        bad_row = tr.call("triples.check", checker, tensor)
        if bad_row is not None:
            raise Mismatch(f"triple {(x, y, u)} pattern {abc}: "
                           f"{sys_.kinds[bad_row]} row {bad_row} violated")
        if abc == (2, 1, 1):
            v112, v221 = tensor[1][1][2], tensor[2][2][1]
            if v112 != 1 or v221 != 0:
                raise Mismatch(f"triple {(x, y, u)}: [1 1 2] = {v112}, "
                               f"[2 2 1] = {v221}, expected 1 and 0")
        tr.count("triples.checked", 1)


def pipeline_outputs(seed, tr):
    """The stages of ``schemeforge pipeline --t 3 --seed S``, every check kept.

    Returns the stage lines the command prints and the reconstruction
    (cliques, U, dual order) it would write with --out.
    """
    lines = []
    gq = tr.call("geometry.build", build_hermitian_gq)
    report = tr.call("geometry.verify_gq", verify_gq, gq)
    if not report.overall:
        raise Mismatch(f"GQ check failed: {report.failed()[0]}")
    lines.append(f"build-gq: PASS ({len(gq.points)} points, "
                 f"{len(gq.lines)} lines)")

    hemi = tr.call("geometry.find_hemisystem", find_hemisystem, gq, seed)
    if not tr.call("geometry.verify_hemisystem", verify_hemisystem, gq, hemi):
        raise Mismatch("quota check failed")
    if not tr.call("geometry.verify_hemisystem",
                   lambda: verify_hemisystem(gq, hemi.complement(gq))):
        raise Mismatch("complement fails the quota")
    lines.append(f"hemisystem: PASS ({len(hemi.lines)} lines, "
                 f"complement verified)")

    sch = tr.call("relation_scheme.build", scheme_from_hemisystem, gq, hemi)
    counted = tr.call("relation_scheme.verify", verify_scheme, sch)
    if not counted.consistency:
        raise Mismatch(str(counted.witness))
    lines.append(f"scheme: PASS (valencies {counted.valencies})")

    params = tr.call("scheme_params.closed_form", closed_form_parameters,
                     PIPELINE_T)
    if tuple(counted.valencies) != tuple(int(x) for x in params.valencies):
        raise Mismatch(f"valencies {counted.valencies} != {params.valencies}")
    if counted.p != params.p:
        raise Mismatch("counted p differs from the exact tables")
    lines.append("parameters: PASS (counted p matches the exact tables)")

    spot = SpotChecker(params)
    rng = random.Random(SPOT_CHECK_SEED)
    for _ in range(SPOT_CHECKS):
        x, y, u = rng.sample(range(sch.size), 3)
        spot.check(sch, x, y, u, tr)
    lines.append(f"triples: PASS ({SPOT_CHECKS} triples consistent)")

    cliques = tr.call("reconstruct.cliques", all_cliques, sch)
    tr.count("reconstruct.cliques", len(cliques))
    rec = tr.call("reconstruct.gq", reconstruct_gq, sch, cliques)
    lines.append(f"reconstruct: PASS ({len(cliques)} cliques, "
                 f"dual order {rec.dual_order})")

    part = tr.call("reconstruct.recover", recover_hemisystem, sch, 0)
    if len(part) != sch.size // 2:
        raise Mismatch(f"|U| = {len(part)}, expected {sch.size // 2}")
    if not tr.call("reconstruct.dual_check", verify_dual_hemisystem, sch,
                   cliques, part):
        raise Mismatch("a clique does not split cleanly")
    parts = tr.call("reconstruct.recover",
                    lambda: {recover_hemisystem(sch, x)
                             for x in range(sch.size)})
    if len(parts) != 2:
        raise Mismatch(f"{len(parts)} distinct parts from {sch.size} bases")
    lines.append(f"recover: PASS (|U| = {len(part)}, partition consistent "
                 f"from every base)")

    reconstruction = {
        "cliques": [{"C": list(c.half_C), "Cprime": list(c.half_Cprime)}
                    for c in rec.lines],
        "U": list(part),
        "dual_order": list(rec.dual_order),
    }
    return lines, list(hemi.lines), reconstruction


def pipeline_summary(lines, hemi_lines, reconstruction) -> dict:
    return {"stages": lines,
            "hemisystem": digest(json.dumps(hemi_lines)),
            "reconstruction": digest(json.dumps(reconstruction,
                                                sort_keys=True))}


class GeometryPipeline:
    name = "geometry-pipeline"
    warmup_input = 0
    count_ops = 1
    batch = 1

    def __init__(self, expected=None):
        self.expected = load_expected("pipeline") if expected is None \
            else expected

    def setup(self, tr):
        pass

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield rng.choice(PIPELINE_SEEDS)

    def op(self, seed, tr):
        summary = pipeline_summary(*pipeline_outputs(seed, tr))
        want = self.expected[str(seed)]
        for key in ("stages", "hemisystem", "reconstruction"):
            if summary[key] != want[key]:
                raise Mismatch(f"pipeline {key} differs from the record")


# ------------------------------------------------------------ triple-oracle

def rel_digest(sch) -> str:
    """Digest of the relation table's entries, whatever their dtype."""
    return digest(json.dumps(sch.rel.tolist()))


def oracle_scheme(tr):
    gq = tr.call("geometry.build", build_hermitian_gq)
    hemi = tr.call("geometry.find_hemisystem", find_hemisystem, gq, None)
    return tr.call("relation_scheme.build", scheme_from_hemisystem, gq, hemi)


class TripleOracle:
    name = "triple-oracle"
    warmup_input = (0, 1, 2)
    count_ops = 1
    batch = 200    # ops of about 0.1 ms, timed 200 at a time

    def __init__(self, expected=None):
        self.expected = load_expected("oracle") if expected is None \
            else expected
        self.sch = None
        self.spot = None

    def setup(self, tr):
        self.sch = oracle_scheme(tr)
        if rel_digest(self.sch) != self.expected["rel"]:
            raise Mismatch("t = 3 relation table differs from the record")
        params = tr.call("scheme_params.closed_form", closed_form_parameters,
                         PIPELINE_T)
        self.spot = SpotChecker(params)
        for abc in nonvacuous_patterns(PIPELINE_T):
            self.spot.checkers[abc] = tr.call("triples.checker_build",
                                              self.spot.build, abc)
            tr.count("triples.checkers_built", 1)

    def inputs(self, seed):
        rng = random.Random(seed)
        n = self.expected["size"]
        while True:
            yield tuple(rng.sample(range(n), 3))

    def op(self, xyu, tr):
        self.spot.check(self.sch, *xyu, tr)


WORKLOADS = {w.name: w for w in (ParamsSweep, TripleCensus, GeometryPipeline,
                                 TripleOracle)}
