"""Command-line front end.

Commands: legendre, divisor, jacobian, rr, verify, plot.  File arguments
accept "-" for stdin.  Exit codes: 0 success, 1 property failure, 2 input
error.  Output for a fixed (input, seed, flags) triple is byte-identical
across runs.
"""

import argparse
import json
import sys

from . import serialize as ser
from .circle import divisor_of, is_principal, jacobian_class
from .piecewise import PiecewiseAffine
from .polygons import from_function, legendre
from .riemann_roch import rr_check
from .verify import format_report, run as run_verify

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_float(q) -> str:
    return "%.6g" % float(q)


def _svg_header(width=640, height=400):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _svg_polyline(points, color="steelblue"):
    pts = " ".join(f"{_fmt_float(x)},{_fmt_float(y)}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>\n'


def function_svg(f: PiecewiseAffine, title: str) -> str:
    """Rational data is mapped to floats only here, at render time."""
    width, height, margin = 640, 400, 40
    out = [_svg_header(width, height)]
    out.append(f'<text x="{margin}" y="20" font-size="14">{title}</text>\n')
    if f.is_bottom:
        out.append(f'<text x="{margin}" y="{height // 2}" font-size="14">'
                   'constant -inf (empty plot)</text>\n</svg>\n')
        return "".join(out)
    hi = f.hi if f.hi is not None else (f.kinks[-1] + 1 if f.kinks else f.lo + 1)
    xs = [f.lo, *f.kinks, hi]
    ys = [f.eval_at(x) for x in xs]
    x0, x1 = float(f.lo), float(hi)
    y0, y1 = float(min(ys)), float(max(ys))
    if y0 == y1:
        y0, y1 = y0 - 1, y1 + 1
    if x0 == x1:
        x1 = x0 + 1
    sx = (width - 2 * margin) / (x1 - x0)
    sy = (height - 2 * margin) / (y1 - y0)
    pts = [(margin + (float(x) - x0) * sx, height - margin - (float(y) - y0) * sy)
           for x, y in zip(xs, ys)]
    out.append(_svg_polyline(pts))
    out.append(f'<text x="{margin}" y="{height - 10}" font-size="11">'
               f'x in [{_fmt_float(x0)}, {_fmt_float(x1)}]; '
               f'y in [{_fmt_float(y0)}, {_fmt_float(y1)}]</text>\n')
    out.append("</svg>\n")
    return "".join(out)


def convergence_svg(report, title: str) -> str:
    width, height, margin = 640, 400, 40
    out = [_svg_header(width, height)]
    out.append(f'<text x="{margin}" y="20" font-size="14">{title}</text>\n')
    levels = report.levels
    top = max([float(norm) for _, _, norm in levels] + [1e-9])
    n_max = levels[-1][0] if levels else 1
    sx = (width - 2 * margin) / max(n_max, 1)
    sy = (height - 2 * margin) / top if top else 1.0
    pts = [(margin + n * sx, height - margin - float(norm) * sy)
           for n, _, norm in levels]
    out.append(_svg_polyline(pts, "darkorange"))
    out.append("</svg>\n")
    return "".join(out)


def _check_prime(args, p) -> None:
    if getattr(args, "p", None) is not None and args.p != p:
        raise ValueError(f"input carries p={p}, but --p {args.p} was requested")


def cmd_legendre(args) -> int:
    poly = ser.polygon_from_json(_read_json(args.polygon))
    _check_prime(args, poly.group.p)
    f = legendre(poly)
    roundtrip = from_function(f) == poly
    if args.format == "svg":
        _write_out(function_svg(f, "support function"), args.out)
        return 0
    payload = {
        "function": ser.pa_to_json(f),
        "polygon": ser.polygon_to_json(poly),
        "roundtrip": roundtrip,
    }
    if args.format == "json":
        _write_out(ser.dumps(payload), args.out)
    else:
        lines = [f"polygon: {poly!r}", f"function: {f!r}", f"roundtrip: {'ok' if roundtrip else 'MISMATCH'}"]
        if f.is_bottom:
            lines.append("constant -inf; nothing to plot")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if roundtrip else 1


def cmd_divisor(args) -> int:
    f = ser.circle_from_json(_read_json(args.function))
    _check_prime(args, f.p)
    if f.is_bottom:
        raise ValueError("the bottom function has no divisor")
    d = divisor_of(f)
    degree = d.degree()  # the orders rep * coeff summed over the support
    payload = {
        "divisor": ser.divisor_to_json(d),
        "degree": ser.frac_to_str(degree),
        "chi": d.chi(),
        "ordersSumZero": degree == 0,
    }
    if args.format == "json":
        _write_out(ser.dumps(payload), args.out)
    else:
        lines = [f"divisor: {d!r}",
                 f"degree: {ser.frac_to_str(degree)}",
                 f"chi: {d.chi()}",
                 f"orders sum zero: {'ok' if degree == 0 else 'VIOLATED'}"]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if degree == 0 else 1


def cmd_jacobian(args) -> int:
    d = ser.divisor_from_json(_read_json(args.divisor))
    _check_prime(args, d.p)
    deg, chi = jacobian_class(d)
    rep = is_principal(d)
    payload = {
        "degree": ser.frac_to_str(deg),
        "chi": chi,
        "principal": rep.principal,
        "obstructions": list(rep.obstructions),
    }
    if rep.principal:
        payload["witness"] = ser.circle_to_json(rep.witness)
        if args.witness_out:
            _write_out(ser.dumps(ser.circle_to_json(rep.witness)), args.witness_out)
    if args.format == "json":
        _write_out(ser.dumps(payload), args.out)
    else:
        lines = [f"class: (degree={ser.frac_to_str(deg)}, chi={chi})"]
        if rep.principal:
            lines.append(f"principal: witness {rep.witness!r}")
        else:
            lines.append("not principal: obstruction " + ", ".join(rep.obstructions))
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rr(args) -> int:
    d = ser.divisor_from_json(_read_json(args.divisor))
    _check_prime(args, d.p)
    report = rr_check(d, args.n_max)
    verdict = "PASS" if report.ok else "FAIL"
    if args.format == "json":
        _write_out(ser.dumps(ser.rr_to_json(report)), args.out)
    elif args.format == "csv":
        text = "# divisor D\n" + ser.report_to_csv(report.report)
        text += "# divisor -D\n" + ser.report_to_csv(report.report_neg)
        text += f"# verdict,{verdict}\n"
        _write_out(text, args.out)
    elif args.format == "svg":
        _write_out(convergence_svg(report.report,
                                   f"normalized dimensions ({verdict})"), args.out)
    else:
        lines = [f"divisor: {d!r}", f"degree: {ser.frac_to_str(report.degree)}",
                 "n dim(D) dim(-D)"]
        for (n, dim, _), (_, dim_n, _) in zip(report.report.levels, report.report_neg.levels):
            lines.append(f"{n} {dim} {dim_n}")
        lines.append(f"difference: {ser.frac_to_str(report.difference)}")
        lines.append(f"tolerance: {ser.frac_to_str(report.tolerance)}")
        lines.append(f"verdict: {'PASS' if report.ok else 'FAIL'}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    lines, ok = run_verify(args.seed, args.count)
    _write_out(format_report(lines), args.out)
    return 0 if ok else 1


def _is_circle_file(data) -> bool:
    """A function file holds a circle function when it carries a prime p
    and its domain is exactly [1, p]; anything else is a plain PA file."""
    p = data.get("p")
    lo, hi = data.get("domain", (None, None))
    return (p is not None and hi is not None
            and ser.parse_frac(lo) == 1 and ser.parse_frac(hi) == p)


def cmd_plot(args) -> int:
    data = _read_json(args.function)
    if _is_circle_file(data):
        f = ser.circle_from_json(data).pa
    else:
        f = ser.pa_from_json(data)
    _write_out(function_svg(f, "piecewise-affine function"), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: ...` line, like every other
    input error, and exits 2; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
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

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
