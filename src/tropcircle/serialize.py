"""JSON and CSV encodings of the domain objects.

Rationals travel as the strings "a" or "a/b" of `scalars.frac_to_str` (a
JSON integer is read too, a boolean never); the bottom value is the string
"-inf".

Reading: `_ratio` is the one reader of rationals, and `parse_frac` makes
its (num, den) pair a Fraction.  An ASCII string of the form -?digits or
-?digits/digits, the only forms the emitters write, takes the plain path:
int() of its parts.  Every other string (a decimal, an exponent, a sign
"+", surrounding whitespace, "_" separators, non-ASCII digits, malformed
text) takes the general path: the exponent check, then Fraction(str), then
the digit-limit test `scalars._fits_digits`; on the plain path int()
already makes that check.  `polygon_from_json` keeps the pairs and builds
Fractions only for the vertices the hull keeps.  `_expect` is the one rule
for the JSON type of a field (lists and objects), `_pair` for a two-item
vertex or domain; `function_from_json` is plot's reader.

Writing: `dumps` is one recursive emitter over exactly the types the
payload builders produce: str, int, bool, None, dict with str keys and
list or tuple.  Any other value raises TypeError.  It writes the bytes of
json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) plus a
newline: keys sorted, one value per line, one space of indent per level,
non-ASCII characters escaped.  So a given object always serializes to the
same bytes.
"""

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .circle import CircleFunction, Divisor, circle_function, divisor
from .piecewise import PiecewiseAffine, SlopeGroup, piecewise_affine
from .polygons import NewtonPolygon, _polygon_of_ratios
from .riemann_roch import FiltrationReport, RiemannRochReport
from .scalars import _fits_digits, _quote, frac_to_str, require_prime

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


# the exponent of a decimal string such as "1.5e3"
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_frac(s) -> Fraction:
    """Read a rational from an int or a string, as `_ratio` reads it."""
    return Fraction(*_ratio(s))


def _ratio(s) -> tuple[int, int]:
    """(num, den) with den > 0, not necessarily in lowest terms, of the
    rational an int or a string names.

    A rational whose numerator or denominator has more decimal digits than
    sys.get_int_max_str_digits() (0 sets no bound) is refused here, since
    it could not be printed.  So is a string whose exponent passes that
    limit in magnitude, before the power of ten it asks for is built, which
    would take unbounded time and memory.  An error quotes at most 40
    characters of the input.

    The plain path builds no Fraction and needs no digit-limit test: int()
    itself refuses a digit string longer than the limit, which sends the
    string down the general path, where _refusal words it as the test
    would.  An int argument and the general path, whose decimals and
    exponents can build parts longer than the string, keep the test.
    """
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            try:
                num, den = int(num), int(den) if slash else 1
            except ValueError:
                pass  # digits past the limit: the general path words the refusal
            else:
                if den:
                    return num, den
        try:
            exponent = _EXPONENT.search(s)
            if exponent:
                limit = sys.get_int_max_str_digits()
                if limit and abs(int(exponent[1])) > limit:
                    raise ValueError
            num, den = Fraction(s.strip()).as_integer_ratio()
        except ZeroDivisionError:
            raise ValueError(f"malformed rational {_quote(s)}: zero denominator") from None
        except ValueError:
            raise ValueError(_refusal(s)) from None
    elif isinstance(s, int) and not isinstance(s, bool):
        num, den = s, 1
    else:
        raise ValueError(f"expected a rational string, got {_quote(s)}")
    if not (_fits_digits(num) and _fits_digits(den)):
        name = f"rational {_quote(s)}" if isinstance(s, str) else "integer"
        raise ValueError(f"{name} has more than {sys.get_int_max_str_digits()} digits")
    return num, den


def _refusal(s: str) -> str:
    """Why Fraction(s) or the exponent check refused s, in one short line;
    Python's own message repeats the whole string."""
    limit = sys.get_int_max_str_digits()
    if limit and sum(c.isdigit() for c in s) > limit:
        # int() refuses a digit string longer than the limit
        return f"rational {_quote(s)} has more than {limit} digits"
    exponent = _EXPONENT.search(s)
    if limit and exponent and abs(int(exponent[1])) > limit:
        return f"malformed rational {_quote(s)}: exponent beyond the {limit}-digit limit"
    return f"malformed rational {_quote(s)}"


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
    line break plus the indent of obj's own line."""
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
            out(sep + encode_basestring_ascii(key) + ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for item in obj:
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
