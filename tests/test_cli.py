import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli_golden import GOLDEN, INPUTS, _sha, run_case, write_inputs
from test_riemann_roch import thousand_point_divisor
from tropcircle import cli, germs, polygons, scalars, verify
from tropcircle.circle import circle_function, divisor, divisor_of
from tropcircle.cli import main
from tropcircle.serialize import (
    circle_from_json, circle_to_json, divisor_from_json, divisor_to_json, dumps,
    pa_from_json, pa_to_json, polygon_from_json, polygon_to_json, parse_frac,
)
from tropcircle.piecewise import ZZ, SlopeGroup, piecewise_affine
from tropcircle.polygons import newton_polygon
from tropcircle.verify import gen_circle, gen_divisor_deg0_chi0


@pytest.fixture
def polygon_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(dumps(polygon_to_json(newton_polygon(ZZ, [(0, 0), (1, -1)]))))
    return str(path)


@pytest.fixture
def function_file(tmp_path):
    f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
    path = tmp_path / "fn.json"
    path.write_text(dumps(circle_to_json(f)))
    return str(path)


def divisor_file(tmp_path, d, name="div.json"):
    path = tmp_path / name
    path.write_text(dumps(divisor_to_json(d)))
    return str(path)


@pytest.fixture
def digit_limit_4300():
    """Python's default limit on int <-> str conversion, whatever the host sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def write_json(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_line_error(capsys, needle):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


# how an error message quotes a string of 4301 ones: cut to 40 characters
LONG_ONES = "rational '" + "1" * 36 + "..."


class TestRoundTrips:
    def test_polygon(self):
        n = newton_polygon(SlopeGroup(3, F(1, 2)), [(F(1, 6), 0), (F(1, 2), -1)])
        assert polygon_from_json(polygon_to_json(n)) == n

    def test_pa_bounded_and_unbounded(self):
        f = piecewise_affine(ZZ, 0, None, 0, [F(1)], [F(0), F(2)])
        assert pa_from_json(pa_to_json(f)) == f
        g = piecewise_affine(SlopeGroup(2), 1, 2, None)
        assert pa_from_json(pa_to_json(g)) == g

    def test_circle(self):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], -2)
        assert circle_from_json(circle_to_json(f)) == f

    def test_divisor(self):
        d = divisor(5, {F(2): F(7, 5), F(1): F(-3)})
        assert divisor_from_json(divisor_to_json(d)) == d

    def test_malformed_rational(self):
        with pytest.raises(ValueError):
            parse_frac("3/4/5")

    @pytest.mark.parametrize("text, value", [("3", F(3)), ("1/2", F(1, 2)),
                                             ("1.5", F(3, 2)), ("1e3", F(1000)),
                                             ("-0", F(0)), ("007/014", F(1, 2)), ("+3", F(3)),
                                             (" 3 ", F(3)), ("1_0", F(10)), ("١٢", F(12))])
    def test_decimal_strings(self, text, value):
        assert parse_frac(text) == value

    @pytest.mark.parametrize("text, message", [
        ("1/0", "malformed rational '1/0': zero denominator"),
        ("-", "malformed rational '-'"),
        ("1/", "malformed rational '1/'"),
        ("/2", "malformed rational '/2'"),
        ("1/-2", "malformed rational '1/-2'"),
        ("3/4/5", "malformed rational '3/4/5'"),
        ("--3", "malformed rational '--3'"),
        ("", "malformed rational ''"),
        # the digit test comes before the exponent test, whatever the string ends in
        pytest.param("1" * 4301, LONG_ONES + " has more than 4300 digits", id="4301 digits"),
        ("9e4301", "malformed rational '9e4301': exponent beyond the 4300-digit limit"),
        pytest.param("1" * 4301 + "e4301", LONG_ONES + " has more than 4300 digits",
                     id="4301 digits and exponent"),
        ("1e4300", "rational '1e4300' has more than 4300 digits"),
        ("1e-4300", "rational '1e-4300' has more than 4300 digits"),
    ])
    def test_malformed_rational_message(self, text, message, digit_limit_4300):
        with pytest.raises(ValueError) as exc:
            parse_frac(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value, message", [
        pytest.param(10 ** 4300, "integer has more than 4300 digits", id="4301-digit int"),
        (True, "expected a rational string, got True"),
        (1.5, "expected a rational string, got 1.5"),
        (None, "expected a rational string, got None"),
    ])
    def test_non_string_message(self, value, message, digit_limit_4300):
        with pytest.raises(ValueError) as exc:
            parse_frac(value)
        assert str(exc.value) == message

    def test_circle_needs_a_prime(self):
        doc = {"p": None, "domain": ["1", "3"], "anchor": "0", "kinks": [], "slopes": ["0"]}
        with pytest.raises(ValueError, match="a circle function needs a prime p"):
            circle_from_json(doc)

    @pytest.mark.parametrize("domain", [["1", "5"], ["0", "3"], ["1", None]])
    def test_circle_domain_must_be_one_to_p(self, domain):
        doc = {"p": 3, "domain": domain, "anchor": "0", "kinks": [], "slopes": ["0"]}
        with pytest.raises(ValueError, match=r"domain \[1, 3\]"):
            circle_from_json(doc)


class TestLegendreCommand:
    def test_text(self, polygon_file, capsys):
        assert main(["legendre", polygon_file]) == 0
        out = capsys.readouterr().out
        assert "roundtrip: ok" in out

    def test_json_roundtrip_flag(self, polygon_file, capsys):
        assert main(["legendre", polygon_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["roundtrip"] is True
        assert payload["function"]["slopes"] == ["0", "1"]

    def test_zero_polygon(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(dumps({"p": None, "scale": "1", "vertices": []}))
        assert main(["legendre", str(path)]) == 0
        assert "-inf" in capsys.readouterr().out

    def test_malformed_rational_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dumps({"p": None, "scale": "1", "vertices": [["1/x", "0"]]}))
        assert main(["legendre", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_svg(self, polygon_file, capsys):
        assert main(["legendre", polygon_file, "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_svg_of_many_vertices_reads_each_value_once(self, tmp_path, capsys):
        # function_svg evaluates at every kink; with the kink values kept by
        # PiecewiseAffine._values, integers over one denominator, this is
        # linear, summing the rises anew on each evaluation would make 3,000
        # vertices take seconds
        path = tmp_path / "parabola.json"
        poly = newton_polygon(ZZ, [(i, F(-i * i, 2)) for i in range(3000)])
        path.write_text(dumps(polygon_to_json(poly)))
        start = time.perf_counter()
        assert main(["legendre", str(path), "--format", "svg"]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().out.startswith("<svg")

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    def test_roundtrip_mismatch_exits_1_in_every_format(self, polygon_file, monkeypatch, fmt):
        monkeypatch.setattr(cli, "from_function", lambda f: None)
        assert main(["legendre", polygon_file, "--format", fmt]) == 1


class TestDivisorCommand:
    def test_constant(self, tmp_path, capsys):
        f = circle_function(2, [], [0], 1)
        path = tmp_path / "const.json"
        path.write_text(dumps(circle_to_json(f)))
        assert main(["divisor", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divisor"]["support"] == []
        assert payload["degree"] == "0" and payload["chi"] == 0

    def test_two_arc_example(self, function_file, capsys):
        assert main(["divisor", function_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ordersSumZero"] is True
        assert {e["point"]: e["coeff"] for e in payload["divisor"]["support"]} == \
            {"1": "4/3", "2": "-2/3"}

    def test_invalid_closure_exits_2(self, tmp_path, capsys):
        bad = {"p": 3, "domain": ["1", "3"], "anchor": "0",
               "kinks": ["2"], "slopes": ["1/3", "1/3"], "convex": False}
        path = tmp_path / "bad.json"
        path.write_text(dumps(bad))
        assert main(["divisor", str(path)]) == 2

    def test_text(self, function_file, capsys):
        assert main(["divisor", function_file, "--format", "text"]) == 0
        assert capsys.readouterr().out == ("divisor: Divisor(p=3, 1 -> 4/3, 2 -> -2/3)\n"
                                           "degree: 0\nchi: 0\norders sum zero: ok\n")

    def test_bottom_anchor_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 3, "domain": ["1", "3"], "anchor": "-inf",
                                     "kinks": [], "slopes": ["0"], "convex": False})
        assert main(["divisor", path]) == 2
        assert_one_line_error(capsys, "the bottom function has no divisor")

    def test_csv_format_rejected(self, function_file, capsys):
        # divisor writes only text and json; argparse refuses the rest
        with pytest.raises(SystemExit) as exc:
            main(["divisor", function_file, "--format", "csv"])
        assert exc.value.code == 2
        assert_one_line_error(capsys, "invalid choice: 'csv'")


class TestJacobianCommand:
    def test_principal_witness(self, tmp_path, capsys):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        path = divisor_file(tmp_path, divisor_of(f))
        assert main(["jacobian", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["principal"] is True
        witness = circle_from_json(payload["witness"])
        assert divisor_of(witness) == divisor_of(f)

    def test_obstruction(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(3, {F(1): F(2), F(2): F(-1)}))
        assert main(["jacobian", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["principal"] is False
        assert payload["obstructions"] == ["chi"]

    def test_witness_out_file(self, tmp_path, capsys):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        path = divisor_file(tmp_path, divisor_of(f))
        wpath = tmp_path / "witness.json"
        assert main(["jacobian", path, "--witness-out", str(wpath)]) == 0
        witness = circle_from_json(json.loads(wpath.read_text()))
        assert divisor_of(witness) == divisor_of(f)

    def test_prime_flag_mismatch(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(3, {F(2): F(1)}))
        assert main(["jacobian", path, "--p", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obstruction_text(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(3, {F(1): F(2), F(2): F(-1)}))
        assert main(["jacobian", path]) == 0
        assert capsys.readouterr().out == ("class: (degree=0, chi=1)\n"
                                           "not principal: obstruction chi\n")

    def test_witness_to_stdout_comes_first(self, tmp_path, capsys):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        path = divisor_file(tmp_path, divisor_of(f))
        assert main(["jacobian", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["jacobian", path, "--format", "json", "--witness-out", "-"]) == 0
        assert capsys.readouterr().out == dumps(payload["witness"]) + dumps(payload)


class TestRRCommand:
    def test_zero_divisor(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(2, {}))
        assert main(["rr", path, "--n-max", "4"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_wrap_one(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(2, {F(1): F(1)}))
        assert main(["rr", path, "--n-max", "6", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "n,dim,normalized" in out
        assert "6,63,63/64" in out

    def test_negative_degree(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(2, {F(1): F(-1)}))
        assert main(["rr", path, "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_svg(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(2, {F(1): F(1)}))
        assert main(["rr", path, "--n-max", "3", "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_json(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(2, {F(1): F(1)}))
        assert main(["rr", path, "--n-max", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PASS"
        assert (payload["degree"], payload["difference"], payload["tolerance"]) == ("1", "7/8", "1/2")
        assert [lv["dim"] for lv in payload["report"]["levels"]] == [1, 1, 3, 7]
        assert payload["report"]["limitEstimate"] == "7/8"
        assert [lv["normalized"] for lv in payload["reportNegated"]["levels"]] == ["0"] * 4
        assert payload["reportNegated"]["divisor"]["support"] == [{"coeff": "-1", "point": "1"}]

    def test_n_max_beyond_the_digit_limit_exits_2_fast(self, tmp_path, capsys):
        import time
        path = divisor_file(tmp_path, divisor(2, {F(1): F(1)}))
        start = time.perf_counter()
        assert main(["rr", path, "--n-max", "20000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(capsys, "--n-max 20000")

    def test_large_prime_below_the_digit_limit_passes(self, tmp_path, capsys):
        path = divisor_file(tmp_path, divisor(1000000007, {F(1): F(1)}))
        assert main(["rr", path, "--n-max", "400"]) == 0
        assert capsys.readouterr().out.endswith("verdict: PASS\n")


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [["-h"], ["legendre", "--help"],
                                      ["legendre", "poly-3.json", "--format", "json"]])
    def test_argv_from_the_command_line(self, argv, tmp_path, monkeypatch):
        """`python -m tropcircle.cli ...` reads sys.argv through main(None)
        and prints what main(argv) prints in process."""
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "tropcircle.cli", *argv], env=env,
                              capture_output=True, encoding="utf-8", check=False)
        assert (done.returncode, _sha(done.stdout), _sha(done.stderr)) == run_case(argv)

    def test_double_dash_before_a_command(self, tmp_path, monkeypatch):
        """"--" before a command name is dropped; before anything else the
        top-level parser still refuses it."""
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run_case(["--", "legendre", "poly-3.json"]) == GOLDEN["legendre poly-3 text"]
        assert run_case(["--"]) == (2, "e3b0c44298fc1c14", "398a71844e12cf11")
        for argv in (["--", "bogus"], ["--", "-h"]):
            assert run_case(argv) == (2, "e3b0c44298fc1c14", "4044e52f7d481206")

    def test_no_state_leaks_between_calls(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)

        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        assert run_case(["verify", "--count", "x"]) == (
            2, digest(b""), digest(b"error: argument --count: invalid int value: 'x'\n"))
        assert run_case(["jacobian", "div-3.json", "--p", "5"]) == GOLDEN["jacobian wrong --p"]
        assert run_case(["jacobian", "div-3.json"]) == GOLDEN["jacobian div-3 text"]
        assert run_case(["verify", "--count", "0"]) == GOLDEN["verify zero count"]


class TestVerifyCommand:
    def test_ok_run(self, capsys):
        assert main(["verify", "--seed", "3", "--count", "25"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verify seed=3 count=25")
        assert "PASS" in out

    def test_zero_count_warns(self, capsys):
        assert main(["verify", "--count", "0"]) == 0
        assert "no cases requested" in capsys.readouterr().out

    def test_negative_count_exits_2(self, capsys):
        assert main(["verify", "--count", "-3"]) == 2
        assert_one_line_error(capsys, "count must be nonnegative")

    def test_non_integer_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--count", "x"])
        assert exc.value.code == 2
        assert_one_line_error(capsys, "invalid int value: 'x'")

    def test_deterministic_reports(self, capsys):
        assert main(["verify", "--seed", "11", "--count", "40"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "11", "--count", "40"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_injected_bug_caught(self, capsys, monkeypatch):
        def broken_join(g, h):
            if g.is_bottom:
                return h
            if h.is_bottom:
                return g
            if g.x > h.x:
                return g
            if h.x > g.x:
                return h
            # accumulates the right slopes instead of joining them
            return germs.Germ(g.x, g.hplus + h.hplus, min(g.hminus, h.hminus))

        monkeypatch.setattr(germs, "germ_join", broken_join)
        assert main(["verify", "--seed", "0", "--count", "300"]) == 1
        out = capsys.readouterr().out
        assert "FAIL germ-axioms" in out
        assert "reproduce:" in out and "shrunk:" in out

    # each breaks commutativity, one of whose sides, join(a, b) or
    # times(a, b), the semiring laws compute once and compare in several
    # laws; the idempotence, unit and bottom laws still hold for each
    BROKEN_SEMIRING_OPS = {
        # the right operand's left slope dropped
        "germ_mul": (germs, "germ-axioms", lambda g, h, mul=germs.germ_mul:
                     mul(g, h) if g.is_bottom or h.is_bottom
                     else germs.Germ(g.x + h.x, g.hplus + h.hplus, g.hminus)),
        # a tie keeps the left operand
        "lex_join": (germs, "lex-axioms", lambda a, b, join=germs.lex_join:
                     a if not (a.is_bottom or b.is_bottom) and a.x == b.x else join(a, b)),
        # the right operand's h dropped
        "lex_mul": (germs, "lex-axioms", lambda a, b, mul=germs.lex_mul:
                    mul(a, b) if a.is_bottom or b.is_bottom
                    else germs.LexElement(a.x + b.x, a.h)),
        # the right operand dropped unless the left is zero
        "poly_join": (polygons, "polygon-axioms", lambda n, m: m if n.is_zero else n),
        # the right operand taken twice
        "poly_times": (polygons, "polygon-axioms", lambda n, m, times=polygons.poly_times:
                       times(n, times(m, m))),
    }

    @pytest.mark.parametrize("name", sorted(BROKEN_SEMIRING_OPS))
    def test_broken_semiring_operation_is_caught(self, capsys, monkeypatch, name):
        module, suite, broken = self.BROKEN_SEMIRING_OPS[name]
        monkeypatch.setattr(module, name, broken)
        assert main(["verify", "--seed", "0", "--count", "300"]) == 1
        assert f"\nFAIL {suite} " in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["rmax-axioms", "germ-axioms", "lex-axioms", "polygon-axioms"])
    def test_semiring_laws_compute_each_term_once(self, name):
        """8 joins and 9 times per case, on cases where every law holds."""
        join, times, units = {  # units: case -> (one, bottom)
            "rmax-axioms": (scalars.rmax_join, scalars.rmax_times,
                            lambda case: (F(0), scalars.BOTTOM)),
            "germ-axioms": (germs.germ_join, germs.germ_mul,
                            lambda case: (germs.GERM_ONE, germs.GERM_BOTTOM)),
            "lex-axioms": (germs.lex_join, germs.lex_mul,
                           lambda case: (germs.LEX_ONE, germs.LEX_BOTTOM)),
            "polygon-axioms": (polygons.poly_join, polygons.poly_times,
                               lambda case: (newton_polygon(case[0].group, [(0, 0)]),
                                             polygons.NewtonPolygon(case[0].group, ()))),
        }[name]
        calls = {"join": 0, "times": 0}

        def counted(key, op):
            def call(x, y):
                calls[key] += 1
                return op(x, y)
            return call

        suite = next(s for s in verify.SUITES if s.name == name)
        rng = random.Random(5)
        for _ in range(50):
            case = suite.gen(rng)
            assert verify._semiring_laws(counted("join", join), counted("times", times),
                                         *units(case), case)
        assert calls == {"join": 8 * 50, "times": 9 * 50}

    # each breaks a law that a suite checks: commutativity, the unit 0,
    # the ultrametric inequality and additivity mod p - 1
    BROKEN_SCALARS = {
        "rmax_join": lambda a, b: b if a is None else a,
        "rmax_times": lambda a, b: None if a is None or b is None else a + b + 1,
        "padic_abs": lambda q, p: abs(F(q)),
        "chi": lambda q, p: 1,
    }

    @pytest.mark.parametrize("name", sorted(BROKEN_SCALARS))
    def test_patched_scalar_operation_is_caught(self, capsys, monkeypatch, name):
        monkeypatch.setattr(scalars, name, self.BROKEN_SCALARS[name])
        assert main(["verify", "--seed", "0", "--count", "300"]) == 1
        out = capsys.readouterr().out
        assert "\nFAIL " in out and "Fraction(" not in out


class TestPlotCommand:
    def test_circle_function_plot(self, function_file, capsys):
        assert main(["plot", function_file]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_stdin(self, polygon_file, capsys, monkeypatch):
        import io
        payload = dumps(pa_to_json(piecewise_affine(ZZ, 0, 2, 0, [F(1)], [F(0), F(1)])))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["plot", "-"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_missing_file_exits_2(self, capsys):
        assert main(["plot", "/nonexistent/nope.json"]) == 2

    def test_format_flag_rejected(self, function_file, capsys):
        # plot always writes SVG and takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["plot", function_file, "--format", "json"])
        assert exc.value.code == 2
        assert_one_line_error(capsys, "unrecognized arguments: --format json")

    def test_pa_file_on_one_to_five(self, tmp_path, capsys):
        # starts at 1 and carries a prime, but [1, 5] is not the domain [1, 2]
        path = write_json(tmp_path, {"p": 2, "scale": "1", "domain": ["1", "5"], "anchor": "0",
                                     "kinks": ["2"], "slopes": ["0", "1"], "convex": True})
        assert main(["plot", path]) == 0
        assert capsys.readouterr().out.startswith("<svg")


class TestBadInput:
    @pytest.mark.parametrize("command, payload", [
        # float() overflows
        ("plot", {"p": None, "scale": "1", "domain": ["0", "1"], "anchor": "1e400",
                  "kinks": [], "slopes": ["0"]}),
        # in the float range, but the +-1 padding of a flat plot is lost
        ("plot", {"p": None, "scale": "1", "domain": ["0", "1"], "anchor": "1e300",
                  "kinks": [], "slopes": ["0"]}),
        ("legendre", {"p": None, "scale": "1", "vertices": [["0", "1e300"], ["1", "0"]]}),
        # a domain too short for a finite scale
        ("plot", {"p": None, "scale": "1", "domain": ["0", "1e-307"], "anchor": "0",
                  "kinks": [], "slopes": ["1"]}),
        # exact ends 1/2 < 1/2 + 1e-33 that round to one float
        ("plot", {"p": None, "scale": "1",
                  "domain": ["1/2", "500000000000000000000000000000001/"
                                    "1000000000000000000000000000000000"],
                  "anchor": "0", "kinks": [], "slopes": ["1"]}),
    ], ids=["plot 1e400", "plot 1e300", "legendre 1e300", "plot short domain",
            "plot domain within one float"])
    def test_svg_beyond_the_float_range_exits_2(self, tmp_path, capsys, command, payload):
        flags = ["--format", "svg"] if command == "legendre" else []
        assert main([command, write_json(tmp_path, payload), *flags]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot plot: values beyond the float range or precision\n")

    @pytest.mark.parametrize("command", ["jacobian", "rr"])
    def test_float_p_divisor_exits_2(self, tmp_path, capsys, command):
        path = write_json(tmp_path, {"p": 3.0, "support": [{"point": "2", "coeff": "1"}]})
        assert main([command, path]) == 2
        assert_one_line_error(capsys, "prime integer")

    def test_float_p_function_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 3.0, "domain": ["1", "3"], "anchor": "0",
                                     "kinks": [], "slopes": ["0"], "convex": False})
        assert main(["divisor", path]) == 2
        assert_one_line_error(capsys, "prime integer")

    def test_long_string_p_function_quoted_short(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": "3" * 5000, "domain": ["1", "3"], "anchor": "0",
                                     "kinks": [], "slopes": ["0"], "convex": False})
        assert main(["divisor", path]) == 2
        assert_one_line_error(capsys, "prime integer, got '333")

    @pytest.mark.parametrize("build", [
        lambda big: piecewise_affine(ZZ, 0, 3, big),
        lambda big: newton_polygon(ZZ, [(F(1), big)]),
        lambda big: circle_function(3, [], [0], big),
        lambda big: divisor(3, {2: big}),
    ])
    def test_text_forms_refuse_past_the_digit_limit(self, digit_limit_4300, build):
        with pytest.raises(ValueError) as exc:
            repr(build(F(10) ** 4300))
        assert str(exc.value) == "result has more than 4300 digits"

    def test_p_beyond_two_to_the_64_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 2 ** 89 - 1,
                                     "support": [{"point": "2", "coeff": "1"}]})
        assert main(["jacobian", path]) == 2
        assert_one_line_error(capsys, "2**64")

    def test_coefficient_outside_ring_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "2", "coeff": "1/6"}]})
        assert main(["jacobian", path]) == 2
        assert_one_line_error(capsys, "Z[1/3]")

    @pytest.mark.parametrize("command", ["plot", "jacobian"])
    def test_non_object_file_exits_2(self, tmp_path, capsys, command):
        path = write_json(tmp_path, [1, 2])
        assert main([command, path]) == 2
        assert_one_line_error(capsys, "expected a JSON object")

    def test_boolean_coefficient_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "2", "coeff": True}]})
        assert main(["jacobian", path]) == 2
        assert_one_line_error(capsys, "True")

    def test_boolean_vertex_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": None, "scale": "1", "vertices": [["0", "0"], [False, "1"]]})
        assert main(["legendre", path]) == 2
        assert_one_line_error(capsys, "False")

    # a two-character string once passed as a pair, other shapes ended with
    # Python's unpacking message, and a string or an object given for a list
    # was read one character or one key at a time
    SHAPES = [
        ("legendre", {"p": None, "vertices": ["12", "34"]}, "vertices[0]", "a list"),
        ("legendre", {"p": None, "vertices": [["0", "0"], ["1"]]}, "vertices[1]", "a list"),
        ("legendre", {"p": 2, "vertices": [["0", "0"], ["1", "2", "3"]]}, "vertices[1]", "a list"),
        ("legendre", {"p": None, "vertices": "00"}, "vertices", "a list"),
        ("plot", {"p": None, "domain": "01", "anchor": "0", "slopes": ["0"]}, "domain", "a list"),
        ("plot", {"p": 3, "domain": ["1", "3", "5"], "anchor": "0", "slopes": ["0"]}, "domain",
         "a list"),
        ("plot", {"p": None, "domain": None, "anchor": "0", "slopes": ["0"]}, "domain", "a list"),
        ("divisor", {"p": 3, "domain": "13", "anchor": "0", "slopes": ["0"]}, "domain", "a list"),
        *[(command, {"p": p, "domain": domain, "anchor": "0", "kinks": kinks, "slopes": ["0"]},
           "kinks", "a list")
          for command, p, domain in [("divisor", 3, ["1", "3"]), ("plot", None, ["0", "1"])]
          for kinks in ["", "12", None]],
        ("plot", {"p": None, "domain": ["0", "1"], "anchor": "0", "kinks": ["1/2"], "slopes": "01"},
         "slopes", "a list"),
        *[(command, {"p": 3, "support": support}, "support", "a list")
          for command in ["rr", "jacobian"] for support in [{}, "", None]],
        ("jacobian", {"p": 3, "support": [True]}, "support[0]", "an object"),
        ("jacobian", {"p": 3, "support": [["2", "1"]]}, "support[0]", "an object"),
    ]

    # the ids leave out the suffix, so the first eight keep their names
    @pytest.mark.parametrize("command, payload, name, suffix", SHAPES,
                             ids=[f"{row[0]}-payload{i}-{row[2]}" for i, row in enumerate(SHAPES)])
    def test_wrong_shape_exits_2_naming_it(self, tmp_path, capsys, command, payload, name, suffix):
        path = write_json(tmp_path, payload)
        assert main([command, path]) == 2
        assert_one_line_error(capsys, f"error: {name} must be {suffix}")

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 3,\n "support": [\n')
        assert main(["rr", str(path)]) == 2
        assert_one_line_error(capsys, f"{path}:3:1: Expecting value")

    def test_out_file_holds_the_stdout_bytes(self, polygon_file, tmp_path, capsys):
        assert main(["legendre", polygon_file, "--format", "json"]) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main(["legendre", polygon_file, "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == expected

    def test_unwritable_out_exits_2(self, function_file, tmp_path, capsys):
        assert main(["divisor", function_file, "--out", str(tmp_path)]) == 2
        assert_one_line_error(capsys, str(tmp_path))

    def test_enumeration_cap_exits_2_fast(self, tmp_path, capsys):
        import time
        path = divisor_file(tmp_path, divisor(2, {F(5, 4): F(4096), F(3, 2): F(4096),
                                                  F(7, 4): F(-4096)}))
        start = time.perf_counter()
        assert main(["rr", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(capsys, "support enumeration too large")

    def test_thousand_point_cap_exits_2_fast(self, tmp_path, capsys):
        # the level set-up is linear in the support, so the cap is met at once
        path = divisor_file(tmp_path, thousand_point_divisor())
        start = time.perf_counter()
        assert main(["rr", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(capsys, "support enumeration too large")

    @pytest.mark.parametrize("payload, n_max", [
        # a side of the forced-jump box beyond sys.maxsize at n=1
        ({"p": 10 ** 18 + 3, "support": [{"point": "2", "coeff": "100"}]}, "2"),
        # every level from n=14 to n=40 is over the cap
        ({"p": 3, "support": [{"point": "2", "coeff": "1"}]}, "40"),
    ])
    def test_oversized_search_exits_2_fast(self, tmp_path, capsys, payload, n_max):
        import time
        path = write_json(tmp_path, payload)
        start = time.perf_counter()
        assert main(["rr", path, "--n-max", n_max]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(capsys, "support enumeration too large")

    @pytest.mark.parametrize("coeff", ["1e999999999", "1e-999999999"])
    def test_huge_exponent_exits_2_fast(self, tmp_path, capsys, coeff):
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "2", "coeff": coeff}]})
        start = time.perf_counter()
        assert main(["jacobian", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(capsys, "exponent beyond the")

    @pytest.mark.parametrize("literal", ["1e4300", "1e-4300", "1" * 4301, "1/" + "1" * 4301],
                             ids=["1e4300", "1e-4300", "4301 digits", "4301-digit denominator"])
    @pytest.mark.parametrize("command, payload", [
        ("jacobian", lambda x: {"p": 3, "support": [{"point": "2", "coeff": x}]}),
        ("divisor", lambda x: {"p": 3, "domain": ["1", "3"], "anchor": x,
                               "kinks": [], "slopes": ["0"]}),
        ("legendre", lambda x: {"p": None, "scale": "1", "vertices": [["0", x], ["1", "0"]]}),
    ], ids=["jacobian", "divisor", "legendre"])
    def test_literal_beyond_the_digit_limit_exits_2(self, tmp_path, capsys, digit_limit_4300,
                                                    command, payload, literal):
        # a numerator or denominator of 4301 digits could not be printed
        path = write_json(tmp_path, payload(literal))
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: rational '1")
        assert err.endswith(" has more than 4300 digits\n") and len(err) < 100

    def test_literal_at_the_digit_limit_is_read(self, tmp_path, capsys, digit_limit_4300):
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "2", "coeff": "1e4299"}]})
        assert main(["jacobian", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["degree"] == "2" + "0" * 4299

    def test_malformed_long_literal_is_quoted_short(self, tmp_path, capsys):
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "2", "coeff": "x" * 5000}]})
        assert main(["jacobian", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed rational 'xxx") and len(err) < 100

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_result_beyond_the_digit_limit_exits_2(self, tmp_path, capsys, digit_limit_4300, fmt):
        # each coefficient prints, but the degree 1*9e4299 + 2*9e4299 has 4,301 digits
        path = write_json(tmp_path, {"p": 3, "support": [{"point": "1", "coeff": "9e4299"},
                                                         {"point": "2", "coeff": "9e4299"}]})
        assert main(["jacobian", path, "--format", fmt]) == 2
        assert capsys.readouterr() == ("", "error: result has more than 4300 digits\n")

    # a value past the digit limit is named by the limit, not printed; a long
    # one is cut to 40 characters
    NOT_IN_Z3 = "coefficient 1/1" + "0" * 34 + "... is not in Z[1/3]"
    OPEN = "slopes do not close up: value(p) - value(1) = <more than 4300 digits>"

    @pytest.mark.parametrize("command, name, message", [
        ("legendre", "poly-long-x", "slope " + "1" * 37 + "... is not in Z"),
        ("jacobian", "div-sum-past-the-limit", NOT_IN_Z3),
        ("rr", "div-sum-past-the-limit", NOT_IN_Z3),
        ("divisor", "fn-remainder-past-the-limit", OPEN),
        ("plot", "fn-remainder-past-the-limit", OPEN),
    ], ids=["legendre", "jacobian", "rr", "divisor", "plot"])
    def test_long_value_in_a_message_is_quoted_short(self, tmp_path, capsys, digit_limit_4300,
                                                     command, name, message):
        path = write_json(tmp_path, INPUTS[f"{name}.json"])
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["jacobian", "rr"])
    def test_repeated_point_is_checked_entry_by_entry(self, tmp_path, capsys, command):
        """Each support entry is checked as the file writes it, before the
        coefficients at one point are summed: 1/2 + 1/2 = 1 is in Z[1/3]."""
        path = write_json(tmp_path, INPUTS["div-repeated-outside.json"])
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", "error: coefficient 1/2 is not in Z[1/3]\n")

    def test_json_integer_literal_beyond_the_digit_limit_exits_2(self, tmp_path, capsys,
                                                                 digit_limit_4300):
        path = tmp_path / "in.json"
        path.write_text('{"p": 3, "support": [{"point": "2", "coeff": ' + "1" * 4301 + "}]}")
        assert main(["jacobian", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: integer literal with more than 4300 digits\n")

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        assert main(["jacobian", str(path)]) == 2
        assert_one_line_error(capsys, f"{path}: JSON nested too deeply")

    def test_large_prime_is_fast(self, tmp_path, capsys):
        import time
        path = write_json(tmp_path, {"p": 10 ** 18 + 3,
                                     "support": [{"point": "2", "coeff": "1"}]})
        start = time.perf_counter()
        assert main(["jacobian", path, "--format", "json"]) == 0
        assert time.perf_counter() - start < 1.0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chi"] == 1 and payload["obstructions"] == ["degree", "chi"]


# Generated input for the CLI: a file of valid rationals, some huge
# or tiny, in which up to two parts are then spoiled with the values that
# broke earlier releases ("-inf" where it means nothing, JSON floats,
# booleans, empty and digit strings, lists and objects) or removed;
# `verify` gets odd flags.
VALID = st.sampled_from(["0", "1", "-3", "1/2", "-7/4", "5/9", "3/2", "1.5", "١٢", 7,
                         "1e300", "-1e300", "1e400", "-1e400", "1e-400"])
ODD = st.sampled_from(["-inf", "", "x", "12", None, True, [], {}, 1.5, 0.0, 1e308,
                       float("inf"), float("nan")])


def slots(node):
    """(container, key) for every value inside a JSON document, at any depth."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


def spoil(draw, doc):
    """A copy of doc with up to two values swapped for odd ones or, in an
    object, removed."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(slots(doc))))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(ODD)
    return doc


@st.composite
def polygon_docs(draw):
    return spoil(draw, {"p": draw(st.sampled_from([None, 2, 3, 5])),
                        "scale": draw(st.sampled_from(["1", "1/2", "3/2"])),
                        "vertices": draw(st.lists(st.lists(VALID, min_size=2, max_size=2),
                                                  max_size=5))})


@st.composite
def function_docs(draw):
    p = draw(st.sampled_from([None, 2, 3]))
    domain = draw(st.sampled_from([["0", None], ["0", "1"], ["0", "1e400"], ["1", "5"],
                                   ["1", str(p)]]))
    kinks = sorted(draw(st.lists(VALID, max_size=2)), key=parse_frac)
    return spoil(draw, {"p": p, "scale": "1", "domain": domain, "anchor": draw(VALID),
                        "kinks": kinks,
                        "slopes": draw(st.lists(VALID, min_size=len(kinks) + 1,
                                                max_size=len(kinks) + 1))})


@st.composite
def circle_docs(draw):
    """A circle-function file: a valid one from verify.gen_circle, or one
    built from VALID on the domain [1, p], which mostly fails the closure."""
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        doc = circle_to_json(gen_circle(random.Random(draw(st.integers(0, 2 ** 32))), p))
    else:
        kinks = sorted(draw(st.lists(VALID, max_size=2)), key=parse_frac)
        doc = {"p": p, "domain": ["1", str(p)], "anchor": draw(VALID), "kinks": kinks,
               "slopes": draw(st.lists(VALID, min_size=len(kinks) + 1, max_size=len(kinks) + 1))}
    return spoil(draw, doc)


@st.composite
def divisor_docs(draw):
    """A divisor file of up to three (point, coeff) entries drawn from VALID."""
    return spoil(draw, {"p": draw(st.sampled_from([2, 3, 5, 1000000007])),
                        "support": draw(st.lists(st.fixed_dictionaries({"point": VALID,
                                                                        "coeff": VALID}),
                                                 max_size=3))})


@st.composite
def principal_docs(draw):
    """A principal divisor file from verify.gen_divisor_deg0_chi0, whose
    witness `jacobian` writes."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    d = gen_divisor_deg0_chi0(rng, draw(st.sampled_from([2, 3, 5])))
    return spoil(draw, divisor_to_json(d))


def run_on_stdin(argv, text):
    """(exit code, stderr) of one in-process call reading its file from stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


class TestGeneratedInput:
    """Every generated file ends with exit 0 or 1 and no stderr, or with one
    short `error:` line and exit 2; an escaping exception fails the test."""

    def assert_total(self, argv, doc):
        start = time.perf_counter()
        code, err = run_on_stdin(argv, json.dumps(doc))
        assert time.perf_counter() - start < 5.0
        assert code in (0, 1, 2)
        assert (code == 2) == bool(err)
        assert not err or (err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200)

    @settings(max_examples=300, deadline=None)
    @given(polygon_docs(), st.sampled_from(["text", "json", "svg"]))
    def test_legendre(self, doc, fmt):
        self.assert_total(["legendre", "-", "--format", fmt], doc)

    @settings(max_examples=300, deadline=None)
    @given(function_docs())
    def test_plot(self, doc):
        self.assert_total(["plot", "-"], doc)

    @settings(max_examples=300, deadline=None)
    @given(circle_docs(), st.sampled_from(["text", "json"]))
    def test_divisor(self, doc, fmt):
        self.assert_total(["divisor", "-", "--format", fmt], doc)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(divisor_docs(), principal_docs()), st.sampled_from(["text", "json"]),
           st.sampled_from([None, "witness.json", "."]))
    def test_jacobian(self, tmp_path, doc, fmt, witness):
        # "." is the directory itself, which cannot be opened for writing
        extra = [] if witness is None else ["--witness-out", str(tmp_path / witness)]
        self.assert_total(["jacobian", "-", "--format", fmt, *extra], doc)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["0", "-1", str(2 ** 70), "x"]),
           st.sampled_from(["-1", "0", "1", "2", "x"]))
    def test_verify(self, seed, count):
        self.assert_total(["verify", "--seed", seed, "--count", count], {})
