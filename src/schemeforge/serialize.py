"""JSON and markdown emitters for the pipeline's file formats.

Rationals travel as exact "p/q" strings, shortened to "p" when the
denominator is 1; nothing in this module rounds.  An int or a Fraction
is printed by its own str(), and the markdown tables scale q by t on the
numerator and denominator, with no Fraction arithmetic.  `dump_json`
writes the bytes of `json.dumps(data, indent=2)` with a small writer that
dispatches on type and quotes strings with the standard library's C
encoder; with an indent, `json.dumps` would run its pure-Python encoder.
It knows only what the documents hold: str-keyed dicts, lists, strings,
ints, bools and None.
The artifact loaders check keys, types (JSON integers only), shape and
range before building anything, and raise BadInput on the first
violation.
"""

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
    """x as "p/q" in lowest terms, or "p"; ints and Fractions read as is.

    str() of an int or a Fraction is already that text; anything else
    (a bool, a string, a float) is read as a Fraction first.
    """
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    return str(x)


def _times_str(t: int, x) -> str:
    """rat_str(t * x) for an int t and an int or Fraction x = a / b.

    With g = gcd(t, b), t x = (a t/g) / (b/g) is in lowest terms.
    """
    g = math.gcd(t, x.denominator)
    num, den = x.numerator * (t // g), x.denominator // g
    return f"{num}/{den}" if den != 1 else str(num)


def parse_rat(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def _rat_rows(mat) -> list:
    return [list(map(rat_str, row)) for row in mat]


def _rat_tensor(tensor) -> list:
    return [_rat_rows(plane) for plane in tensor]


# ------------------------------------------------------------ params

def params_to_dict(sp: SchemeParameters) -> dict:
    return {
        "d": sp.d,
        "t": sp.t,
        "order": rat_str(sp.order),
        "valencies": list(map(rat_str, sp.valencies)),
        "multiplicities": list(map(rat_str, sp.multiplicities)),
        "P": _rat_rows(sp.P),
        "Q": _rat_rows(sp.Q),
        "p": _rat_tensor(sp.p),
        "q": _rat_tensor(sp.q),
    }


def _md_table(title: str, rows, row_labels, col_labels) -> list:
    """A titled table; rows hold the cells' text."""
    out = [f"**{title}**", ""]
    out.append("| | " + " | ".join(map(str, col_labels)) + " |")
    out.append("|" + "---|" * (len(col_labels) + 1))
    for lbl, row in zip(row_labels, rows):
        out.append(f"| {lbl} | " + " | ".join(row) + " |")
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
    full = list(range(d + 1))
    lines = [head, "", f"Order: {rat_str(sp.order)}", ""]
    lines += _md_table("Valencies n_i", _rat_rows([sp.valencies]), ["n"],
                       full)
    lines += _md_table("Multiplicities m_i", _rat_rows([sp.multiplicities]),
                       ["m"], full)
    lines += _md_table("First eigenmatrix P", _rat_rows(sp.P), full, full)
    lines += _md_table("Second eigenmatrix Q", _rat_rows(sp.Q), full, full)
    for k in idx:
        rows = _rat_rows(row[1:] for row in sp.p[k][1:])
        lines += _md_table(f"p^{k}_ij", rows, idx, idx)
    scaled = sp.t is not None and d > 1
    for k in idx:
        if k < d and scaled:
            rows = [[_times_str(sp.t, x) for x in row[1:]]
                    for row in sp.q[k][1:]]
            lines += _md_table(f"t q^{k}_ij (scaled by t = {sp.t})",
                               rows, idx, idx)
        else:
            rows = _rat_rows(row[1:] for row in sp.q[k][1:])
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
            "rel": sch.rel.tolist()}


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

def _text(x, pad: str) -> str:
    """The indent=2 JSON text of x; pad is the newline and indent of x's
    own line."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, x))   # lists of str or of int in one call
        if kinds == {str}:
            items = map(_quote, x)
        elif kinds == {int}:
            items = map(int.__repr__, x)
        else:
            items = [_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        # _quote raises TypeError on a key that is not a str
        items = [_quote(key) + ": " + _text(v, inner) for key, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(x).__name__} "
                    "is not JSON serializable")


def dump_json(data: dict) -> str:
    """The text of json.dumps(data, indent=2) for the values the documents
    hold: str-keyed dicts, lists and tuples, str, int, bool and None.
    Anything else, a float or a non-str key too, raises TypeError."""
    return _text(data, "\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise BadInput(f"{path}: not a JSON document: {exc}")
