import json
from fractions import Fraction as F

import pytest

from tropcircle.circle import circle_function, divisor, divisor_of
from tropcircle.cli import main
from tropcircle.serialize import (
    circle_from_json, circle_to_json, divisor_from_json, divisor_to_json, dumps,
    pa_from_json, pa_to_json, polygon_from_json, polygon_to_json, parse_frac,
)
from tropcircle.piecewise import ZZ, bottom_pa, hp_group, piecewise_affine
from tropcircle.polygons import newton_polygon


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


def write_json(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


class TestRoundTrips:
    def test_polygon(self):
        n = newton_polygon(hp_group(3, F(1, 2)), [(F(1, 6), 0), (F(1, 2), -1)])
        assert polygon_from_json(polygon_to_json(n)) == n

    def test_pa_bounded_and_unbounded(self):
        f = piecewise_affine(ZZ, 0, None, 0, [F(1)], [F(0), F(2)])
        assert pa_from_json(pa_to_json(f)) == f
        g = bottom_pa(hp_group(2), 1, 2)
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

    def test_csv_format_rejected(self, function_file, capsys):
        # divisor writes only text and json; argparse refuses the rest
        with pytest.raises(SystemExit) as exc:
            main(["divisor", function_file, "--format", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'csv'" in err


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

    def test_deterministic_reports(self, capsys):
        assert main(["verify", "--seed", "11", "--count", "40"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "11", "--count", "40"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_injected_bug_caught(self, capsys, monkeypatch):
        from tropcircle import germs as germs_mod

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
            return germs_mod.Germ(g.x, g.hplus + h.hplus, min(g.hminus, h.hminus))

        monkeypatch.setattr(germs_mod, "germ_join", broken_join)
        assert main(["verify", "--seed", "0", "--count", "300"]) == 1
        out = capsys.readouterr().out
        assert "FAIL germ-axioms" in out
        assert "reproduce:" in out and "shrunk:" in out


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
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --format json" in err

    def test_pa_file_on_one_to_five(self, tmp_path, capsys):
        # starts at 1 and carries a prime, but [1, 5] is not the domain [1, 2]
        path = write_json(tmp_path, {"p": 2, "scale": "1", "domain": ["1", "5"], "anchor": "0",
                                     "kinks": ["2"], "slopes": ["0", "1"], "convex": True})
        assert main(["plot", path]) == 0
        assert capsys.readouterr().out.startswith("<svg")


class TestBadInput:
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

    def test_large_prime_is_fast(self, tmp_path, capsys):
        import time
        path = write_json(tmp_path, {"p": 10 ** 18 + 3,
                                     "support": [{"point": "2", "coeff": "1"}]})
        start = time.perf_counter()
        assert main(["jacobian", path, "--format", "json"]) == 0
        assert time.perf_counter() - start < 1.0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chi"] == 1 and payload["obstructions"] == ["degree", "chi"]
