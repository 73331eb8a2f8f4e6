"""Command-line front end.

Commands: legendre, divisor, jacobian, rr, verify, plot.  File arguments
accept "-" for stdin.  Exit codes: 0 success, 1 property failure, 2 input
error (a ValueError or OSError, printed as one `error:` line), the same in
every format of a command.  Output for a fixed (input, seed, flags) triple
is byte-identical across runs.  `main` can be called repeatedly in one
process: the argument parser is built on the first call and reused, since
parsing reads it without changing it.  Each call parses its arguments once,
with the parser of the command its first argument names; the top-level
parser runs only when that argument is not a command (no arguments, `-h`,
an unknown command), to print the top-level help or usage error.
"""

import argparse
import json
import sys
from functools import cache
from math import ceil, inf

from . import serialize as ser
from .circle import divisor_of, is_principal, jacobian_class
from .piecewise import PiecewiseAffine
from .polygons import from_function, legendre
from .riemann_roch import rr_check
from .scalars import _fits_digits, frac_to_str
from .verify import format_report, run as run_verify

__all__ = ["main"]


def _read_json(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError:
        # int() refuses a literal longer than the int to str digit limit
        raise ValueError(f"{path}: integer literal with more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _load(args, path, parse):
    """Parse a file and, when `--p` is given, require its prime."""
    data = _read_json(path)
    obj = parse(data)
    if args.p is not None and args.p != data["p"]:
        raise ValueError(f"input carries p={data['p']}, but --p {args.p} was requested")
    return obj


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_float(q) -> str:
    return "%.6g" % float(q)


_WIDTH, _HEIGHT, _MARGIN = 640, 400, 40


def _svg(title, *body) -> str:
    """White canvas with a title line, then the body elements."""
    return "".join((f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
                    f'width="{_WIDTH}" height="{_HEIGHT}">\n'
                    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
                    f'<text x="{_MARGIN}" y="20" font-size="14">{title}</text>\n',
                    *body, "</svg>\n"))


_OUT_OF_RANGE = "cannot plot: values beyond the float range or precision"


def _floats(values) -> list[float]:
    """values as floats for drawing; a value past the float range is refused."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(_OUT_OF_RANGE) from None


def _scale(size, lo, hi) -> float:
    """Pixels per unit on an axis of `size` pixels drawn from lo to hi.
    Refuses a range that floats cannot draw: empty once rounded (the +-1
    padding of a flat plot is lost at 1e300), infinitely long, or so short
    that the scale overflows."""
    span = hi - lo
    scale = (size - 2 * _MARGIN) / span if span > 0 else inf
    if not 0 < scale < inf:  # an infinite span gives 0, a tiny one inf
        raise ValueError(_OUT_OF_RANGE)
    return scale


def _polyline(points, x0, x1, y0, y1, color) -> str:
    """Float points drawn in the frame [x0, x1] x [y0, y1], for both plots."""
    sx, sy = _scale(_WIDTH, x0, x1), _scale(_HEIGHT, y0, y1)
    pts = " ".join(f"{_fmt_float(_MARGIN + (x - x0) * sx)},"
                   f"{_fmt_float(_HEIGHT - _MARGIN - (y - y0) * sy)}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>\n'


def function_svg(f: PiecewiseAffine, title: str) -> str:
    """Rational data is mapped to floats only here, at render time; a domain
    whose ends round to one float is refused, like any span `_scale` refuses."""
    if f.is_bottom:
        return _svg(title, f'<text x="{_MARGIN}" y="{_HEIGHT // 2}" font-size="14">'
                           'constant -inf (empty plot)</text>\n')
    hi = f.hi if f.hi is not None else (f.kinks[-1] + 1 if f.kinks else f.lo + 1)
    xs = [f.lo, *f.kinks, hi]
    xs, ys = _floats(xs), _floats([f.eval_at(x) for x in xs])
    x0, x1 = xs[0], xs[-1]
    y0, y1 = min(ys), max(ys)  # float() keeps order, so these are float(min) and float(max)
    if y0 == y1:
        y0, y1 = y0 - 1, y1 + 1
    return _svg(title, _polyline(zip(xs, ys), x0, x1, y0, y1, "steelblue"),
                f'<text x="{_MARGIN}" y="{_HEIGHT - 10}" font-size="11">'
                f'x in [{_fmt_float(x0)}, {_fmt_float(x1)}]; '
                f'y in [{_fmt_float(y0)}, {_fmt_float(y1)}]</text>\n')


def convergence_svg(report, title: str) -> str:
    levels = report.levels
    norms = _floats(norm for _, _, norm in levels)
    top = max(norms + [1e-9])  # an all-zero report still has a frame
    return _svg(title, _polyline(zip((n for n, _, _ in levels), norms),
                                 0, levels[-1][0], 0, top, "darkorange"))


# Each cmd_* returns (output text, exit code); main writes the text to --out.

def cmd_legendre(args) -> tuple[str, int]:
    poly = _load(args, args.polygon, ser.polygon_from_json)
    f = legendre(poly)
    roundtrip = from_function(f) == poly
    code = 0 if roundtrip else 1
    if args.format == "svg":
        return function_svg(f, "support function"), code
    if args.format == "json":
        return ser.dumps({
            "function": ser.pa_to_json(f),
            "polygon": ser.polygon_to_json(poly),
            "roundtrip": roundtrip,
        }), code
    lines = [f"polygon: {poly!r}", f"function: {f!r}", f"roundtrip: {'ok' if roundtrip else 'MISMATCH'}"]
    if f.is_bottom:
        lines.append("constant -inf; nothing to plot")
    return "\n".join(lines) + "\n", code


def cmd_divisor(args) -> tuple[str, int]:
    d = divisor_of(_load(args, args.function, ser.circle_from_json))
    degree = d.degree()  # the orders rep * coeff summed over the support
    code = 0 if degree == 0 else 1
    if args.format == "json":
        return ser.dumps({
            "divisor": ser.divisor_to_json(d),
            "degree": frac_to_str(degree),
            "chi": d.chi(),
            "ordersSumZero": degree == 0,
        }), code
    lines = [f"divisor: {d!r}",
             f"degree: {frac_to_str(degree)}",
             f"chi: {d.chi()}",
             f"orders sum zero: {'ok' if degree == 0 else 'VIOLATED'}"]
    return "\n".join(lines) + "\n", code


def cmd_jacobian(args) -> tuple[str, int]:
    d = _load(args, args.divisor, ser.divisor_from_json)
    deg, chi = jacobian_class(d)
    rep = is_principal(d)
    payload = {
        "degree": frac_to_str(deg),
        "chi": chi,
        "principal": rep.principal,
        "obstructions": list(rep.obstructions),
    }
    if rep.principal:
        payload["witness"] = ser.circle_to_json(rep.witness)
        if args.witness_out:
            _write_out(ser.dumps(payload["witness"]), args.witness_out)
    if args.format == "json":
        return ser.dumps(payload), 0
    lines = [f"class: (degree={frac_to_str(deg)}, chi={chi})"]
    if rep.principal:
        lines.append(f"principal: witness {rep.witness!r}")
    else:
        lines.append("not principal: obstruction " + ", ".join(rep.obstructions))
    return "\n".join(lines) + "\n", 0


def _check_n_max(d, n_max) -> None:
    """Every dimension rr prints is below bound = (1 + sum rep*|coeff|) *
    p**n_max; refuse an n_max at which bound - 1 passes the digit limit of
    int to str conversion (`_fits_digits`)."""
    limit = sys.get_int_max_str_digits()
    if not limit or n_max < 2:  # dim_r refuses n_max < 2
        return
    # p**n_max >= 16**limit > 10**limit needs no power of p
    if n_max * (d.p.bit_length() - 1) < 4 * limit:
        bound = ceil(1 + sum(rep * abs(c) for rep, c in d.entries)) * d.p ** n_max
        if _fits_digits(bound - 1):
            return
    raise ValueError(f"--n-max {n_max} is too large for p={d.p}: the level "
                     f"dimensions could exceed {limit} decimal digits")


def cmd_rr(args) -> tuple[str, int]:
    d = _load(args, args.divisor, ser.divisor_from_json)
    _check_n_max(d, args.n_max)
    report = rr_check(d, args.n_max)
    verdict = "PASS" if report.ok else "FAIL"
    code = 0 if report.ok else 1
    if args.format == "json":
        return ser.dumps(ser.rr_to_json(report)), code
    if args.format == "csv":
        return ("# divisor D\n" + ser.report_to_csv(report.report)
                + "# divisor -D\n" + ser.report_to_csv(report.report_neg)
                + f"# verdict,{verdict}\n"), code
    if args.format == "svg":
        return convergence_svg(report.report, f"normalized dimensions ({verdict})"), code
    lines = [f"divisor: {d!r}", f"degree: {frac_to_str(report.degree)}",
             "n dim(D) dim(-D)"]
    for (n, dim, _), (_, dim_n, _) in zip(report.report.levels, report.report_neg.levels):
        lines.append(f"{n} {dim} {dim_n}")
    lines.append(f"difference: {frac_to_str(report.difference)}")
    lines.append(f"tolerance: {frac_to_str(report.tolerance)}")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n", code


def cmd_verify(args) -> tuple[str, int]:
    lines, ok = run_verify(args.seed, args.count)
    return format_report(lines), 0 if ok else 1


def cmd_plot(args) -> tuple[str, int]:
    f = ser.function_from_json(_read_json(args.function))
    return function_svg(f, "piecewise-affine function"), 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: ...` line, like every other
    input error, and exits 2; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The one parser of the process and its {command name: command parser}
    map, built on the first call."""
    top = _Parser(prog="tropcircle",
                  description="Exact tropical algebra on Newton polygons "
                              "and the circle R*+/p^Z")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=(), prime_flag=True):
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="output path; default stdout")
        if prime_flag:
            p.add_argument("--p", type=int, default=None,
                           help="require the input to carry this prime")

    p = sub.add_parser("legendre", help="support function of a polygon file")
    p.add_argument("polygon", help="polygon JSON file or -")
    common(p, ("text", "json", "svg"))
    p.set_defaults(func=cmd_legendre)

    p = sub.add_parser("divisor", help="divisor, degree and chi of a circle function")
    p.add_argument("function", help="circle-function JSON file or -")
    common(p, ("text", "json"))
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("jacobian", help="divisor class and principality witness")
    p.add_argument("divisor", help="divisor JSON file or -")
    p.add_argument("--witness-out", default=None,
                   help="also write the witness function file when principal")
    common(p, ("text", "json"))
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("rr", help="filtration dimensions and the Riemann-Roch verdict")
    p.add_argument("divisor", help="divisor JSON file or -")
    p.add_argument("--n-max", type=int, default=6)
    common(p, ("text", "json", "csv", "svg"))
    p.set_defaults(func=cmd_rr)

    p = sub.add_parser("verify", help="run the randomized law checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10000)
    common(p, prime_flag=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="SVG plot of a function file")
    p.add_argument("function", help="function JSON file or -")
    common(p, prime_flag=False)
    p.set_defaults(func=cmd_plot)

    return top, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top, commands = build_parser()
    if len(argv) > 1 and argv[0] == "--" and argv[1] in commands:
        argv = argv[1:]  # "--" only ends the top-level options
    if argv and argv[0] in commands:
        # the namespace the top-level parser would pass down: command set first
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = top.parse_args(argv)
    try:
        text, code = args.func(args)
        _write_out(text, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
