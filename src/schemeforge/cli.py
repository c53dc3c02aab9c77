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

from .errors import SchemeforgeError
from .geometry import (NotFound, build_hermitian_gq, find_hemisystem,
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
    try:
        return KreinArray.make(bs, cs)
    except BadParameter as exc:
        raise UsageError(str(exc))


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
    try:
        if args.t is not None:
            k = hemisystem_krein_array(args.t)
            params = derive_parameters(k, args.t)
        else:
            k = parse_krein(args.krein)
            params = derive_parameters(k)
    except BadParameter as exc:
        raise UsageError(str(exc))

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
    try:
        params = closed_form_parameters(args.t)
    except BadParameter as exc:
        raise UsageError(str(exc))
    try:
        sol = forced_triple_values(params, abc)
    except VacuousConfig:
        sol = None
    _emit(dump_json(triple_to_dict(sol)), args.out)
    return EXIT_OK


def cmd_build_gq(args) -> int:
    gq = build_hermitian_gq()
    report = verify_gq(gq)
    _emit(dump_json(gq_to_dict(gq)), args.out)
    if not report.overall:
        name, _, witness = report.failed()[0]
        raise MathFailure(f"GQ verification failed: {name}: {witness}")
    return EXIT_OK


def cmd_hemisystem(args) -> int:
    gq = (gq_from_dict(load_json(args.infile[0])) if args.infile
          else build_hermitian_gq())
    try:
        hemi = find_hemisystem(gq, args.seed)
    except NotFound as exc:
        raise MathFailure(str(exc))
    _emit(dump_json(hemi_to_dict(hemi)), args.out)
    if not verify_hemisystem(gq, hemi):
        raise MathFailure("search result fails the per-point quota")
    return EXIT_OK


def cmd_scheme(args) -> int:
    if args.infile:
        gq = gq_from_dict(load_json(args.infile[0]))
        hemi = hemi_from_dict(load_json(args.infile[1]))
    else:
        gq = build_hermitian_gq()
        hemi = find_hemisystem(gq, args.seed)
    sch = scheme_from_hemisystem(gq, hemi)
    counted = verify_scheme(sch)
    _emit(dump_json(scheme_to_dict(sch)), args.out)
    if not counted.consistency:
        raise MathFailure(f"scheme inconsistency: {counted.witness}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if args.infile:
        sch = scheme_from_dict(load_json(args.infile[0]))
        counted = verify_scheme(sch)
        if not counted.consistency:
            raise MathFailure(f"scheme inconsistency: {counted.witness}")
    else:
        gq = build_hermitian_gq()
        sch = scheme_from_hemisystem(gq, find_hemisystem(gq, args.seed))
    cliques = all_cliques(sch)
    rec = reconstruct_gq(sch, cliques)
    part = recover_hemisystem(sch, 0)
    _emit(dump_json(reconstruction_to_dict(rec, part)), args.out)
    if not verify_dual_hemisystem(sch, cliques, part):
        raise MathFailure("recovered set does not split every clique")
    return EXIT_OK


# ------------------------------------------------------------ pipeline

def _triple_spot_checks(sch, params, exhaustive: bool) -> int:
    """Check counted triples against every equation family of `params`.

    The default samples 300 element triples with a fixed generator; the
    exhaustive path walks every ordered triple of distinct elements.
    Raises MathFailure at the first inconsistent triple. Each pattern's
    row kinds and checker are built once; its system is not kept.
    """
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
        if abc == (2, 1, 1):
            v112, v221 = int(tensor[1, 1, 2]), int(tensor[2, 2, 1])
            if v112 != 1 or v221 != 0:
                raise MathFailure(f"triple {(x, y, u)}: [1 1 2] = {v112}, "
                                  f"[2 2 1] = {v221}, expected 1 and 0")
    return checked


def cmd_pipeline(args) -> int:
    t = args.t if args.t is not None else 3
    if t != 3:
        raise UsageError("the concrete pipeline is built at t = 3; "
                         "use params/triple for other t")

    stage = "build-gq"

    def passed(note, next_stage):
        nonlocal stage
        print(f"{stage}: PASS ({note})")
        stage = next_stage

    try:
        gq = build_hermitian_gq()
        report = verify_gq(gq)
        if not report.overall:
            name, _, wit = report.failed()[0]
            raise MathFailure(f"{name}: {wit}")
        passed(f"{len(gq.points)} points, {len(gq.lines)} lines",
               "hemisystem")

        hemi = find_hemisystem(gq, args.seed)
        if not verify_hemisystem(gq, hemi):
            raise MathFailure("quota check failed")
        if not verify_hemisystem(gq, hemi.complement(gq)):
            raise MathFailure("complement fails the quota")
        passed(f"{len(hemi.lines)} lines, complement verified", "scheme")

        sch = scheme_from_hemisystem(gq, hemi)
        counted = verify_scheme(sch)
        if not counted.consistency:
            raise MathFailure(str(counted.witness))
        passed(f"valencies {counted.valencies}", "parameters")

        params = closed_form_parameters(t)
        if counted.valencies != params.valencies:
            raise MathFailure(f"valencies {counted.valencies} != "
                              f"{params.valencies}")
        if counted.p != params.p:
            k, i, j = next((k, i, j) for k, plane in enumerate(params.p)
                           for i, row in enumerate(plane)
                           for j, v in enumerate(row)
                           if counted.p[k][i][j] != v)
            raise MathFailure(f"p^{k}_{i}{j}: counted {counted.p[k][i][j]}, "
                              f"table {params.p[k][i][j]}")
        passed("counted p matches the exact tables", "triples")

        checked = _triple_spot_checks(sch, params, args.exhaustive)
        passed(f"{checked} triples consistent", "reconstruct")

        cliques = all_cliques(sch)
        rec = reconstruct_gq(sch, cliques)
        passed(f"{len(cliques)} cliques, dual order {rec.dual_order}",
               "recover")

        part = recover_hemisystem(sch, 0)
        if len(part) != sch.size // 2:
            raise MathFailure(f"|U| = {len(part)}, "
                              f"expected {sch.size // 2}")
        if not verify_dual_hemisystem(sch, cliques, part):
            raise MathFailure("a clique does not split cleanly")
        # every base reproduces its own part, so the parts split the
        # elements; a base that does not fails with its witness
        parts = len({recover_hemisystem(sch, x) for x in range(sch.size)})
        if parts != 2:
            raise MathFailure(f"{parts} distinct parts "
                              f"from {sch.size} bases")
        passed(f"|U| = {len(part)}, partition consistent from every base",
               None)
    except SchemeforgeError as exc:
        print(f"{stage}: FAIL ({exc})")
        print(f"pipeline failed at stage {stage}", file=sys.stderr)
        return EXIT_MATH

    if args.out:
        _emit(dump_json(reconstruction_to_dict(rec, part)), args.out)
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
    except (UsageError, BadInput, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemeforgeError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
