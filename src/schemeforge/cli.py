"""Command line surface tying the pipeline together.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a
mathematical validation fails.  All output is deterministic by default;
--seed only shuffles the line order tried by the hemisystem search.
"""

import argparse
import itertools
import os
import random
import re
import sys

import numpy as np

from .errors import SchemeforgeError
from .geometry import (build_hermitian_gq, find_hemisystem, first_true,
                       verify_gq, verify_hemisystem)
from .reconstruct import (all_cliques, recover_hemisystem, reconstruct_gq,
                          verify_dual_hemisystem)
from .relation_scheme import scheme_from_hemisystem, verify_scheme
from .scheme_params import (BadParameter, KreinArray, closed_form_parameters,
                            derive_parameters, hemisystem_krein_array,
                            validate)
from .serialize import (BadInput, dump_json, gq_from_dict, gq_to_dict,
                        hemi_from_dict, hemi_to_dict, load_json,
                        params_markdown, params_to_dict, parse_rat,
                        reconstruction_to_dict, scheme_from_dict,
                        scheme_to_dict, triple_to_dict)
from .triples import (TripleConfig, VacuousConfig, boundary_violations,
                      direct_triple_counts, forced_triple_values,
                      integer_residual_checker, triple_pattern,
                      widened_system)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

# A Krein-array entry whose numerator or denominator has more bits than
# this is refused: the dual-eigenvalue bisection runs over a range as wide
# as the entries, so a short entry such as 1e4000 would stall it. Family
# entries for odd t <= 51 have at most 23 bits.
MAX_ENTRY_BITS = 256
_EXP_FORM = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*(?:_\d+)*)"
                       r"(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*")


class UsageError(Exception):
    pass


class MathFailure(SchemeforgeError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 instead of 2."""

    def error(self, message):
        raise UsageError(message)


def _parse_entry(text: str):
    """parse_rat(text), or None when text in Fraction's decimal form with
    an exponent has more than MAX_ENTRY_BITS bits, seen before 10^E is
    formed: with E the exponent less the digits after the point, a nonzero
    mantissa M makes the numerator at least 10^78 > 2^256 if E >= 78, and
    the denominator above 10^78 if E <= -(len(M) + 78)."""
    m = _EXP_FORM.fullmatch(text)
    if m is None:
        return parse_rat(text)
    whole, frac, exp = (g.replace("_", "") for g in m.groups(""))
    # int() on the parts in Fraction's order: an over-long one fails alike
    mantissa = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
    e = int(exp) - len(frac)
    if mantissa and (e >= 78 or e <= -(len(whole) + len(frac) + 78)):
        return None
    return parse_rat(text if mantissa else 0)


def parse_krein(text: str) -> KreinArray:
    try:
        bs_text, cs_text = text.split(";")
        bs = tuple(_parse_entry(x) for x in bs_text.split(","))
        cs = tuple(_parse_entry(x) for x in cs_text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse Krein array {text!r}: {exc}")
    for i, x in enumerate(bs + cs, 1):
        if x is None or max(x.numerator.bit_length(),
                            x.denominator.bit_length()) > MAX_ENTRY_BITS:
            raise UsageError(f"Krein array entry {i} has more than "
                             f"{MAX_ENTRY_BITS} bits")
    return KreinArray.make(bs, cs)


def parse_abc(text: str) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse pattern {text!r}: {exc}")
    if len(parts) != 3 or not all(1 <= x <= 4 for x in parts):
        raise UsageError(f"pattern must be three classes in 1..4, "
                         f"got {text!r}")
    return parts


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# ------------------------------------------------------------ commands

def cmd_params(args) -> int:
    if (args.t is None) == (args.krein is None):
        raise UsageError("give exactly one of --t or --krein")
    if args.t is not None:
        k = hemisystem_krein_array(args.t)
        params = derive_parameters(k, args.t)
    else:
        k = parse_krein(args.krein)
        params = derive_parameters(k)

    if args.format == "md":
        _emit(params_markdown(params), args.out)
    else:
        _emit(dump_json(params_to_dict(params)), args.out)

    report = validate(params, k)
    if not report.overall:
        for name, _, witness in report.failed():
            print(f"validation failed: {name}: {witness}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_triple(args) -> int:
    if args.t is None:
        raise UsageError("--t is required")
    if args.abc is None:
        raise UsageError("--abc is required")
    abc = parse_abc(args.abc)
    params = closed_form_parameters(args.t)
    try:
        sol = forced_triple_values(params, abc)
    except VacuousConfig:
        sol = None
    _emit(dump_json(triple_to_dict(sol)), args.out)
    return EXIT_OK


def cmd_build_gq(args) -> int:
    gq = build_hermitian_gq()
    _emit(dump_json(gq_to_dict(gq)), args.out)
    _check_gq(gq)
    return EXIT_OK


def cmd_hemisystem(args) -> int:
    gq = (gq_from_dict(load_json(args.infile[0])) if args.infile
          else build_hermitian_gq())
    hemi = find_hemisystem(gq, args.seed)
    _emit(dump_json(hemi_to_dict(hemi)), args.out)
    _check_hemisystem(gq, hemi)
    return EXIT_OK


def _built_scheme(seed):
    gq = build_hermitian_gq()
    return scheme_from_hemisystem(gq, find_hemisystem(gq, seed))


def cmd_scheme(args) -> int:
    if args.infile:
        sch = scheme_from_hemisystem(gq_from_dict(load_json(args.infile[0])),
                                     hemi_from_dict(load_json(args.infile[1])))
    else:
        sch = _built_scheme(args.seed)
    _emit(dump_json(scheme_to_dict(sch)), args.out)
    _consistent(sch)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    sch = (scheme_from_dict(load_json(args.infile[0])) if args.infile
           else _built_scheme(args.seed))
    _consistent(sch)
    cliques = all_cliques(sch)
    rec = reconstruct_gq(sch, cliques)
    part = recover_hemisystem(sch, 0)
    _emit(dump_json(reconstruction_to_dict(rec, part)), args.out)
    _check_partition(sch, cliques, part)
    return EXIT_OK


# ------------------------------------------------------------ checks
# Each artifact's check, shared by its command and `pipeline`: it returns
# the stage's PASS note, or raises MathFailure with the witness.

def _check_gq(gq) -> str:
    report = verify_gq(gq)
    if not report.overall:
        name, _, wit = report.failed()[0]
        raise MathFailure(f"{name}: {wit}")
    return f"{len(gq.points)} points, {len(gq.lines)} lines"


def _check_hemisystem(gq, hemi) -> str:
    if not verify_hemisystem(gq, hemi):
        raise MathFailure("quota check failed")
    if not verify_hemisystem(gq, hemi.complement(gq)):
        raise MathFailure("complement fails the quota")
    return f"{len(hemi.lines)} lines, complement verified"


def _consistent(sch):
    """verify_scheme's counts, or MathFailure with its witness."""
    counted = verify_scheme(sch)
    if not counted.consistency:
        raise MathFailure(str(counted.witness))
    return counted


def check_scheme(sch, params, exhaustive: bool = False):
    """Yield the PASS notes of the scheme, parameters and triples stages:
    the table is a scheme, its counted p is params.p (so its valencies are
    p^0_ii = k_i), and its counted triples meet the boundary and every
    equation family of their pattern: 300 triples from a fixed generator,
    or every ordered triple with `exhaustive`. In the family (params.t
    set), each (2,1,1) triple has [1 1 2] = (t-1)/2 and [2 2 1] = (t-3)/2.
    Raises MathFailure at the first witness; reads no geometry."""
    if sch.classes != params.d + 1:
        raise MathFailure(f"the table has {sch.classes} classes, the "
                          f"parameters {params.d + 1}")
    counted = _consistent(sch)
    yield f"valencies {counted.valencies}"

    bad = first_true(np.not_equal(counted.p, params.p))
    if bad:
        k, i, j = bad
        raise MathFailure(f"p^{k}_{i}{j}: counted {counted.p[k][i][j]}, "
                          f"table {params.p[k][i][j]}")
    yield "counted p matches the exact tables"

    lemma = None if params.t is None else ((params.t - 1) // 2,
                                           (params.t - 3) // 2)
    checkers = {}
    if exhaustive:
        triples = itertools.permutations(range(sch.size), 3)
    else:
        rng = random.Random(12345)
        triples = (rng.sample(range(sch.size), 3) for _ in range(300))
    checked = 0
    for checked, (x, y, u) in enumerate(triples, 1):
        abc = triple_pattern(sch, x, y, u)
        tensor = direct_triple_counts(sch, x, y, u)
        bad = boundary_violations(abc, tensor)
        if bad:
            raise MathFailure(f"triple {(x, y, u)}: boundary: {bad[0]}")
        if abc not in checkers:
            sys_ = widened_system(TripleConfig(params, abc))
            checkers[abc] = (sys_.kinds, integer_residual_checker(sys_))
        kinds, checker = checkers[abc]
        bad_row = checker(tensor)
        if bad_row is not None:
            raise MathFailure(f"triple {(x, y, u)} pattern {abc}: "
                              f"{kinds[bad_row]} row {bad_row} "
                              f"violated")
        if abc == (2, 1, 1) and lemma is not None:
            got = int(tensor[1, 1, 2]), int(tensor[2, 2, 1])
            if got != lemma:
                raise MathFailure(f"triple {(x, y, u)}: [1 1 2] = {got[0]}, "
                                  f"[2 2 1] = {got[1]}, expected "
                                  f"{lemma[0]} and {lemma[1]}")
    yield f"{checked} triples consistent"


def _check_partition(sch, cliques, part) -> str:
    if len(part) != sch.size // 2:
        raise MathFailure(f"|U| = {len(part)}, expected {sch.size // 2}")
    if not verify_dual_hemisystem(sch, cliques, part):
        raise MathFailure("a clique does not split cleanly")
    # every base reproduces its own part, so the parts split the
    # elements; a base that does not fails with its witness
    parts = len({recover_hemisystem(sch, x) for x in range(sch.size)})
    if parts != 2:
        raise MathFailure(f"{parts} distinct parts from {sch.size} bases")
    return f"|U| = {len(part)}, partition consistent from every base"


# ------------------------------------------------------------ pipeline

STAGES = ("build-gq", "hemisystem", "scheme", "parameters", "triples",
          "reconstruct", "recover")


def _stage_notes(t: int, args):
    """The PASS note of each of STAGES in turn; raises at the first
    failure. The reconstruction goes to --out once every stage passed."""
    gq = build_hermitian_gq()
    yield _check_gq(gq)
    hemi = find_hemisystem(gq, args.seed)
    yield _check_hemisystem(gq, hemi)
    sch = scheme_from_hemisystem(gq, hemi)
    yield from check_scheme(sch, closed_form_parameters(t), args.exhaustive)
    cliques = all_cliques(sch)
    rec = reconstruct_gq(sch, cliques)
    yield f"{len(cliques)} cliques, dual order {rec.dual_order}"
    part = recover_hemisystem(sch, 0)
    yield _check_partition(sch, cliques, part)
    if args.out:
        _emit(dump_json(reconstruction_to_dict(rec, part)), args.out)


def cmd_pipeline(args) -> int:
    t = args.t if args.t is not None else 3
    if t != 3:
        raise UsageError("the concrete pipeline is built at t = 3; "
                         "use params/triple for other t")
    passed = 0
    try:
        for note in _stage_notes(t, args):
            print(f"{STAGES[passed]}: PASS ({note})")
            passed += 1
    except SchemeforgeError as exc:
        print(f"{STAGES[passed]}: FAIL ({exc})")
        print(f"pipeline failed at stage {STAGES[passed]}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


# ------------------------------------------------------------ entry point

def build_parser() -> _Parser:
    parser = _Parser(prog="schemeforge",
                     description="Exact tools for the four-class "
                                 "hemisystem schemes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", metavar="PATH", default=None)
        return p

    p = add("params", cmd_params, help="derive and print parameter tables")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--krein", metavar="B0,B1,B2,B3;C1,C2,C3,C4",
                   default=None)
    p.add_argument("--format", choices=("json", "md"), default="json")

    p = add("triple", cmd_triple,
            help="solve a triple system and report forced values")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--abc", metavar="A,B,C", default=None)

    add("build-gq", cmd_build_gq, help="construct and verify the "
                                       "280-point quadrangle")

    p = add("hemisystem", cmd_hemisystem, help="search for a hemisystem")
    p.add_argument("--in", dest="infile", nargs=1, metavar="GQ.json",
                   default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("scheme", cmd_scheme, help="build the relation scheme oracle")
    p.add_argument("--in", dest="infile", nargs=2,
                   metavar=("GQ.json", "HEMI.json"), default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("reconstruct", cmd_reconstruct,
            help="recover the quadrangle and half-partition from a scheme")
    p.add_argument("--in", dest="infile", nargs=1, metavar="SCHEME.json",
                   default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("pipeline", cmd_pipeline, help="run every stage end to end")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early, which is not an error. Point stdout at
        # devnull so that the interpreter's last flush does not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (UsageError, BadInput, BadParameter, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemeforgeError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
