"""JSON and markdown emitters for the pipeline's file formats.

Rationals travel as exact "p/q" strings, shortened to "p" when the
denominator is 1; nothing in this module rounds.  The artifact loaders
check keys, types (JSON integers only), shape and range before building
anything, and raise BadInput on the first violation.
"""

import json
import math
from fractions import Fraction

from .errors import SchemeforgeError
from .geometry import GQ, Hemisystem
from .reconstruct import ReconstructedGQ
from .relation_scheme import RelationScheme
from .scheme_params import SchemeParameters
from .triples import TripleSolution

import numpy as np


class BadInput(SchemeforgeError, ValueError):
    """A loaded document lacks a key or holds a value of the wrong type,
    shape or range."""


def _field(data, key):
    if not isinstance(data, dict):
        raise BadInput(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise BadInput(f"missing key {key!r}")
    return data[key]


def _bad_int(x, lo, hi) -> bool:
    """Not an int in [lo, hi); bools and floats are refused."""
    return type(x) is not int or not lo <= x < hi


def _int(data, key, lo=0, hi=math.inf) -> int:
    x = _field(data, key)
    if _bad_int(x, lo, hi):
        raise BadInput(f"{key} = {x!r} is not an integer in [{lo}, {hi})")
    return x


def _ints(value, what, lo=0, hi=math.inf) -> list:
    """value itself, once it is known to be a list of ints in [lo, hi)."""
    if not isinstance(value, list):
        raise BadInput(f"{what} must be a list, got {type(value).__name__}")
    for i, x in enumerate(value):
        if _bad_int(x, lo, hi):
            raise BadInput(f"{what}[{i}] = {x!r} is not an integer in "
                           f"[{lo}, {hi})")
    return value


def rat_str(x) -> str:
    """x as "p/q" in lowest terms, or "p"; ints and Fractions read as is."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def parse_rat(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def _rat_rows(mat) -> list:
    return [[rat_str(x) for x in row] for row in mat]


def _rat_tensor(tensor) -> list:
    return [[[rat_str(x) for x in row] for row in plane] for plane in tensor]


# ------------------------------------------------------------ params

def params_to_dict(sp: SchemeParameters) -> dict:
    return {
        "d": sp.d,
        "t": sp.t,
        "order": rat_str(sp.order),
        "valencies": [rat_str(x) for x in sp.valencies],
        "multiplicities": [rat_str(x) for x in sp.multiplicities],
        "P": _rat_rows(sp.P),
        "Q": _rat_rows(sp.Q),
        "p": _rat_tensor(sp.p),
        "q": _rat_tensor(sp.q),
    }


def _md_table(title: str, rows, row_labels, col_labels) -> list:
    out = [f"**{title}**", ""]
    out.append("| | " + " | ".join(str(c) for c in col_labels) + " |")
    out.append("|" + "---|" * (len(col_labels) + 1))
    for lbl, row in zip(row_labels, rows):
        out.append(f"| {lbl} | " + " | ".join(rat_str(x) for x in row) + " |")
    out.append("")
    return out


def params_markdown(sp: SchemeParameters) -> str:
    """Parameter tables in the layout the source tables use.

    The dual tables follow the source's mixed convention: for k in
    1..3 the displayed entries are t * q^k_ij, while the k = 4 table is
    printed unscaled.  Both are labeled accordingly, and a closing note
    says so; off the family (no t) nothing is scaled and there is no note.
    """
    d = sp.d
    idx = list(range(1, d + 1))
    head = f"# Scheme parameters (d = {d}"
    head += f", t = {sp.t})" if sp.t is not None else ")"
    lines = [head, "", f"Order: {rat_str(sp.order)}", ""]
    lines += _md_table("Valencies n_i", [sp.valencies], ["n"],
                       list(range(d + 1)))
    lines += _md_table("Multiplicities m_i", [sp.multiplicities], ["m"],
                       list(range(d + 1)))
    lines += _md_table("First eigenmatrix P", sp.P,
                       list(range(d + 1)), list(range(d + 1)))
    lines += _md_table("Second eigenmatrix Q", sp.Q,
                       list(range(d + 1)), list(range(d + 1)))
    for k in idx:
        rows = [[sp.p[k][i][j] for j in idx] for i in idx]
        lines += _md_table(f"p^{k}_ij", rows, idx, idx)
    scaled = sp.t is not None and d > 1
    for k in idx:
        if k < d and scaled:
            rows = [[sp.t * sp.q[k][i][j] for j in idx] for i in idx]
            lines += _md_table(f"t q^{k}_ij (scaled by t = {sp.t})",
                               rows, idx, idx)
        else:
            rows = [[sp.q[k][i][j] for j in idx] for i in idx]
            lines += _md_table(f"q^{k}_ij (unscaled)", rows, idx, idx)
    if scaled:
        lines.append("Note: the dual tables mix two conventions on purpose; "
                     "the first three are scaled by t, the last is not.")
        lines.append("")
    return "\n".join(lines)


# ------------------------------------------------------------ geometry

def gq_to_dict(gq: GQ) -> dict:
    return {"s": gq.s, "t": gq.t, "points": len(gq.points),
            "lines": [list(line) for line in gq.lines]}


def gq_from_dict(data: dict) -> GQ:
    """Lines are strictly increasing point ids, and every point is on one."""
    s, t = _int(data, "s", 1), _int(data, "t", 1)
    n_points = _int(data, "points")
    lines = _field(data, "lines")
    if not isinstance(lines, list):
        raise BadInput(f"lines must be a list, got {type(lines).__name__}")
    for li, line in enumerate(lines):
        _ints(line, f"lines[{li}]", 0, n_points)
        if any(a >= b for a, b in zip(line, line[1:])):
            raise BadInput(f"lines[{li}] is not strictly increasing")
    covered = len({p for line in lines for p in line})
    if covered != n_points:
        raise BadInput(f"lines cover {covered} of {n_points} points")
    return GQ(s=s, t=t, points=tuple(range(n_points)),
              lines=tuple(tuple(line) for line in lines))


def hemi_to_dict(hemi: Hemisystem) -> dict:
    return {"lines": list(hemi.lines)}


def hemi_from_dict(data: dict) -> Hemisystem:
    lines = _ints(_field(data, "lines"), "lines")
    if len(set(lines)) != len(lines):
        raise BadInput("lines repeats a line id")
    return Hemisystem(tuple(lines))


# ------------------------------------------------------------ scheme

def scheme_to_dict(sch: RelationScheme) -> dict:
    return {"size": sch.size, "classes": sch.classes,
            "rel": [[int(x) for x in row] for row in sch.rel]}


def scheme_from_dict(data: dict) -> RelationScheme:
    """rel is size x size with labels in 0..classes-1, stored as int8."""
    size = _int(data, "size", 1)
    classes = _int(data, "classes", 1, 129)
    rel = _field(data, "rel")
    if not isinstance(rel, list) or len(rel) != size:
        raise BadInput(f"rel must be a list of {size} rows")
    for x, row in enumerate(rel):
        if len(_ints(row, f"rel[{x}]", 0, classes)) != size:
            raise BadInput(f"rel[{x}] has {len(row)} entries, expected {size}")
    return RelationScheme(size=size, classes=classes,
                          rel=np.array(rel, dtype=np.int8))


# ------------------------------------------------------------ triples

def triple_to_dict(sol: TripleSolution | None) -> dict:
    """Forced values and leftover unknowns; None means a vacuous pattern."""
    if sol is None:
        return {"forced": {}, "free": [], "vacuous": True}
    forced = {f"[{l},{m},{n}]": rat_str(v)
              for (l, m, n), v in sorted(sol.forced.items())}
    free = [list(name) for name in sorted(sol.residual_free)]
    return {"forced": forced, "free": free, "vacuous": False}


# ------------------------------------------------------------ reconstruction

def reconstruction_to_dict(rec: ReconstructedGQ, part) -> dict:
    return {
        "cliques": [{"C": list(c.half_C), "Cprime": list(c.half_Cprime)}
                    for c in rec.lines],
        "U": list(part),
        "dual_order": list(rec.dual_order),
        "checks": {name: ok for name, ok, _ in rec.report.checks},
    }


# ------------------------------------------------------------ files

def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2)


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadInput(f"{path}: not a JSON document: {exc}")
