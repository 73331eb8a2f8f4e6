"""JSON and CSV encodings of the domain objects.

Rationals travel as the strings "a" or "a/b" of `scalars.frac_to_str` (a
JSON integer is read too, a boolean never); the bottom value is the string
"-inf".

Reading: every rational goes through `scalars._ratio`, the one reader of
rational text, and `parse_frac` makes its (num, den) pair a Fraction
(`scalars._fraction`).
`polygon_from_json` keeps the pairs and builds Fractions only for the
vertices the hull keeps.  `_expect` is the one rule for the JSON type of a
field (lists and objects), `_pair` for a two-item vertex or domain;
`function_from_json` is plot's reader.

Writing: `dumps` is one recursive emitter over exactly the types the
payload builders produce: str, int, bool, None, dict with str keys and
list or tuple.  Any other value raises TypeError.  It writes the bytes of
json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) plus a
newline: keys sorted, one value per line, one space of indent per level,
non-ASCII characters escaped.  So a given object always serializes to the
same bytes.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .circle import CircleFunction, Divisor, circle_function, divisor
from .piecewise import PiecewiseAffine, SlopeGroup, piecewise_affine
from .polygons import NewtonPolygon, _polygon_of_ratios
from .riemann_roch import FiltrationReport, RiemannRochReport
from .scalars import _fraction, _ratio, frac_to_str, require_prime

__all__ = [
    "dumps",
    "parse_frac",
    "parse_rmax",
    "rmax_to_str",
    "polygon_to_json", "polygon_from_json",
    "pa_to_json", "pa_from_json",
    "circle_to_json", "circle_from_json",
    "function_from_json",
    "divisor_to_json", "divisor_from_json",
    "report_to_json", "report_to_csv",
    "rr_to_json",
]


def parse_frac(s) -> Fraction:
    """Read a rational from an int or a string, as `_ratio` reads it."""
    return _fraction(*_ratio(s))


def rmax_to_str(v: Fraction | None) -> str:
    return "-inf" if v is None else frac_to_str(v)


def parse_rmax(s) -> Fraction | None:
    if s == "-inf":
        return None
    return parse_frac(s)


def dumps(obj) -> str:
    """obj as indented JSON text with sorted keys and a final newline."""
    parts = []
    _emit(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _emit(obj, newline: str, out) -> None:
    """Pass the JSON text of obj to out, piece by piece; `newline` is the
    line break plus the indent of obj's own line.  A string item of a list
    or value of a dict goes out in one piece with the separator before it."""
    kind = type(obj)
    if kind is str:
        out(encode_basestring_ascii(obj))
    elif kind is dict:
        if not obj:
            out("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if type(value) is str:
                out(sep + encode_basestring_ascii(key) + ": " + encode_basestring_ascii(value))
            else:
                out(sep + encode_basestring_ascii(key) + ": ")
                _emit(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for item in obj:
            if type(item) is str:
                out(sep + encode_basestring_ascii(item))
            else:
                out(sep)
                _emit(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif kind is int:
        out(str(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _expect(d: dict, key: str, kind=None):
    """d[key], refused when missing or, given kind list or dict, of another JSON type."""
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    return d[key] if kind is None else _typed(d[key], key, kind)


def _typed(value, name: str, kind, index=None):
    """value, refused naming it unless a JSON list (kind list) or object
    (kind dict).  An entry of a list is named name[index], a string built
    only for the refusal."""
    if not isinstance(value, kind):
        raise ValueError(f"{_name(name, index)} must be {'a list' if kind is list else 'an object'}")
    return value


def _pair(value, name: str, index=None) -> list:
    """value when it is a JSON list of exactly two items; a vertex or a
    domain of any other shape is refused, naming it as `_typed` does."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{_name(name, index)} must be a list of two items")
    return value


def _name(name: str, index) -> str:
    """name, or name[index] for an entry of a list."""
    return name if index is None else f"{name}[{index}]"


# ---------------------------------------------------------------- polygons

def polygon_to_json(n: NewtonPolygon) -> dict:
    return {
        "p": n.group.p,
        "scale": frac_to_str(n.group.scale),
        "vertices": [[frac_to_str(x), frac_to_str(y)] for x, y in n.vertices],
    }


def polygon_from_json(d: dict) -> NewtonPolygon:
    group = SlopeGroup(_expect(d, "p"), parse_frac(d.get("scale", "1")))
    xs, ys = [], []
    for i, vertex in enumerate(_expect(d, "vertices", list)):
        x, y = _pair(vertex, "vertices", i)
        xs.append(_ratio(x))
        ys.append(_ratio(y))
    return _polygon_of_ratios(group, xs, ys)


# --------------------------------------------------------------- functions

def pa_to_json(f: PiecewiseAffine) -> dict:
    return {
        "p": f.group.p,
        "scale": frac_to_str(f.group.scale),
        "domain": [frac_to_str(f.lo), None if f.hi is None else frac_to_str(f.hi)],
        "anchor": rmax_to_str(f.anchor),
        "kinks": [frac_to_str(k) for k in f.kinks],
        "slopes": [frac_to_str(s) for s in f.slopes],
        "convex": f.convex,
    }


def _domain(d: dict) -> tuple[Fraction, Fraction | None]:
    """The parsed domain (lo, hi) of a function file; hi is None for [lo, inf)."""
    lo, hi = _pair(_expect(d, "domain"), "domain")
    return parse_frac(lo), None if hi is None else parse_frac(hi)


def _body(d: dict) -> tuple:
    """(anchor, kinks, slopes) of a function file; "-inf" reads no kinks or slopes."""
    anchor = parse_rmax(_expect(d, "anchor"))
    if anchor is None:
        return None, (), None
    kinks = [parse_frac(k) for k in _expect(d, "kinks", list)] if "kinks" in d else []
    return anchor, kinks, [parse_frac(s) for s in _expect(d, "slopes", list)]


def pa_from_json(d: dict) -> PiecewiseAffine:
    group = SlopeGroup(d.get("p"), parse_frac(d.get("scale", "1")))
    lo, hi = _domain(d)
    return piecewise_affine(group, lo, hi, *_body(d))


def circle_to_json(f: CircleFunction) -> dict:
    d = pa_to_json(f.pa)
    d["p"] = f.p
    del d["scale"]
    return d


def circle_from_json(d: dict) -> CircleFunction:
    p = _expect(d, "p")
    if p is None:
        raise ValueError("a circle function needs a prime p")
    require_prime(p)  # before the domain message, which echoes p whole
    if _domain(d) != (1, p):
        raise ValueError(f"circle functions live on the domain [1, {p}]")
    anchor, kinks, slopes = _body(d)
    return circle_function(p, kinks, slopes, anchor)


def function_from_json(d: dict) -> PiecewiseAffine:
    """The function of a plot file: a circle function, closure checked, when
    the file carries a p and its domain is [1, p]; else a plain function."""
    p = d.get("p")
    if p is not None and "domain" in d and _domain(d) == (1, p):
        return circle_from_json(d).pa
    return pa_from_json(d)


# ---------------------------------------------------------------- divisors

def divisor_to_json(d: Divisor) -> dict:
    return {
        "p": d.p,
        "support": [{"point": frac_to_str(rep), "coeff": frac_to_str(c)}
                    for rep, c in d.entries],
    }


def divisor_from_json(d: dict) -> Divisor:
    p = _expect(d, "p")
    pairs = []
    for i, item in enumerate(_expect(d, "support", list)):
        item = _typed(item, "support", dict, i)
        pairs.append((parse_frac(_expect(item, "point")), parse_frac(_expect(item, "coeff"))))
    return divisor(p, pairs)


# ----------------------------------------------------------------- reports

def report_to_json(r: FiltrationReport) -> dict:
    return {
        "divisor": divisor_to_json(r.divisor),
        "levels": [{"n": n, "dim": dim, "normalized": frac_to_str(norm)}
                   for n, dim, norm in r.levels],
        "limitEstimate": frac_to_str(r.limit_estimate),
    }


def report_to_csv(r: FiltrationReport) -> str:
    lines = ["n,dim,normalized"]
    for n, dim, norm in r.levels:
        lines.append(f"{n},{dim},{frac_to_str(norm)}")
    return "\n".join(lines) + "\n"


def rr_to_json(r: RiemannRochReport) -> dict:
    return {
        "divisor": divisor_to_json(r.divisor),
        "report": report_to_json(r.report),
        "reportNegated": report_to_json(r.report_neg),
        "degree": frac_to_str(r.degree),
        "difference": frac_to_str(r.difference),
        "tolerance": frac_to_str(r.tolerance),
        "verdict": "PASS" if r.ok else "FAIL",
    }
