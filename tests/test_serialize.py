"""The rational reader and the JSON writer of `serialize`, against the
standard library as the reference: `Fraction(str)` for `parse_frac` and
`json.dumps` for `dumps`.  The polygon reader, which builds no Fraction
for the vertices its hull drops, against `parse_frac` and
`newton_polygon`.  The shape rule of every reader: a field that holds a
list refuses any other JSON type, naming the field."""

import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tropcircle.piecewise import SlopeGroup
from tropcircle.polygons import newton_polygon
from tropcircle.scalars import _quote
from tropcircle.serialize import (
    circle_from_json, divisor_from_json, dumps, function_from_json, pa_from_json, parse_frac,
    polygon_from_json,
)


# the plain forms "-?digits" and "-?digits/digits", leading zeros included
PLAIN_FORMS = st.from_regex(r"-?[0-9]{1,40}(/0*[1-9][0-9]{0,40})?", fullmatch=True)


class TestReader:
    @given(PLAIN_FORMS)
    @example("0")
    @example("-0/7")
    def test_plain_strings_read_as_fraction_does(self, text):
        assert parse_frac(text) == F(text)


def outcome(func, arg):
    """func(arg), or the type and message of the ValueError it raises."""
    try:
        return func(arg)
    except ValueError as exc:
        return type(exc), str(exc)


def checked_polygon(doc):
    """The polygon reader's reference: every coordinate through parse_frac,
    the vertex list through newton_polygon."""
    group = SlopeGroup(doc["p"], parse_frac(doc["scale"]))
    return newton_polygon(group, [(parse_frac(x), parse_frac(y)) for x, y in doc["vertices"]])


# every form parse_frac reads or refuses: unreduced and signed zeros,
# decimals, exponents, the forms only Fraction(str) takes, zero
# denominators, strings past the digit limit, JSON ints, floats, booleans
DIGITS = sys.get_int_max_str_digits() or 4300
ODD_VALUES = ["6/4", "-0", "-0/3", "0/0", "3/0", "-5/0", "1.5", "-2.25", "1e3", "3e-2", "5E+1",
              "+5", " 5", "5 ", "5_0", "1/3 ", "x", "", "1//2", "١٢", "1" * (DIGITS + 1),
              "1/" + "3" * (DIGITS + 1), "2" * (DIGITS + 1) + "/0", "9e" + str(DIGITS + 1),
              "1" * DIGITS + "/7", 0, 7, -12, True, 1.5, None]


@st.composite
def polygon_docs(draw):
    """A polygon file whose abscissae mostly lie in its group, written in
    lowest terms or not, with odd values mixed in."""
    p = draw(st.sampled_from([None, 2, 3]))
    scale = draw(st.sampled_from([F(1), F(1, 2), F(3, 2), F(6)]))

    def in_group(k, e, m):
        # x as (m*num)/(m*den), so m > 1 writes it unreduced
        x = scale * F(k, 1 if p is None else p ** e)
        if m == 1 and x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator * m}/{x.denominator * m}"

    xs = st.builds(in_group, st.integers(-9, 9), st.integers(0, 2), st.integers(1, 3))
    ys = st.builds(lambda a, b: f"{a}/{b}", st.integers(-40, 40), st.integers(1, 12))
    odd = st.sampled_from(ODD_VALUES)
    coordinate_x = st.one_of(xs, xs, xs, odd)
    coordinate_y = st.one_of(ys, ys, ys, odd, st.integers(-40, 40))
    vertices = draw(st.lists(st.tuples(coordinate_x, coordinate_y).map(list), max_size=12))
    return {"p": p, "scale": str(scale), "vertices": vertices}


class TestPolygonReader:
    @settings(max_examples=300, deadline=None)
    @given(polygon_docs())
    @example({"p": None, "scale": "1", "vertices": [["6/4", "0"], ["-0", "1"]]})
    @example({"p": 3, "scale": "3/2", "vertices": [["3/6", "-0"], ["9/6", "1"], ["1/4", "0"]]})
    def test_reads_as_parse_frac_and_newton_polygon(self, doc):
        # the same polygon, or the same refusal
        assert outcome(polygon_from_json, doc) == outcome(checked_polygon, doc)


POLYGON = {"p": None, "scale": "1", "vertices": [["0", "0"], ["1", "-1"]]}
PA = {"p": None, "scale": "1", "domain": ["0", None], "anchor": "0",
      "kinks": ["1"], "slopes": ["0", "1"]}
CIRCLE = {"p": 3, "domain": ["1", "3"], "anchor": "0", "kinks": ["2"], "slopes": ["1/3", "-1/3"]}
DIVISOR = {"p": 3, "support": [{"point": "2", "coeff": "1"}]}
LIST_FIELDS = [(polygon_from_json, POLYGON, "vertices"), (divisor_from_json, DIVISOR, "support"),
               *[(reader, doc, field)
                 for reader, doc in [(pa_from_json, PA), (circle_from_json, CIRCLE),
                                     (function_from_json, PA), (function_from_json, CIRCLE)]
                 for field in ["kinks", "slopes"]]]
# every JSON type but a list: strings (a digit string too), an object,
# numbers, booleans and null
NOT_LISTS = ["", "x", "12", {}, {"0": "1"}, 0, 7, 1.5, True, False, None]


class TestShapeRule:
    @pytest.mark.parametrize("value", NOT_LISTS, ids=repr)
    @pytest.mark.parametrize("reader, doc, field", LIST_FIELDS,
                             ids=[f"{r.__name__}-{d['p']}-{f}" for r, d, f in LIST_FIELDS])
    def test_list_fields_refuse_every_other_type(self, reader, doc, field, value):
        reader(doc)  # the document is valid before the field is replaced
        with pytest.raises(ValueError) as exc:
            reader({**doc, field: value})
        assert str(exc.value) == f"{field} must be a list"

    @pytest.mark.parametrize("entry", [["2", "1"], *[v for v in NOT_LISTS if type(v) is not dict]],
                             ids=repr)
    def test_support_entries_must_be_objects(self, entry):
        with pytest.raises(ValueError) as exc:
            divisor_from_json({"p": 3, "support": [DIVISOR["support"][0], entry]})
        assert str(exc.value) == "support[1] must be an object"


class TestWriter:
    @staticmethod
    def reference(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    leaves = (st.none() | st.booleans() | st.integers()
              | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
              | st.text() | st.sampled_from(["", "\"\\/\n\t\x00", "é", " ", "\U0001f600"]))
    @staticmethod
    def containers(inner):
        """Lists, tuples and dicts of inner, and ones that mix strings, which
        `_emit` writes with their separator, with every other kind of item:
        int, bool, None, lists and dicts."""
        strings = st.lists(st.text(), min_size=1, max_size=3)
        others = st.lists(inner.filter(lambda v: type(v) is not str), min_size=1, max_size=3)
        mixed_list = st.tuples(strings, others).flatmap(lambda t: st.permutations(t[0] + t[1]))
        mixed_dict = st.tuples(st.dictionaries(st.text(), st.text(), min_size=1, max_size=3),
                               st.dictionaries(st.text(), inner.filter(lambda v: type(v) is not str),
                                               min_size=1, max_size=3)
                               ).map(lambda t: {**t[1], **t[0]})
        return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                | st.dictionaries(st.text(), inner, max_size=4) | mixed_list | mixed_dict)

    payloads = st.recursive(leaves, containers, max_leaves=24)

    @settings(max_examples=300)
    @given(payloads)
    @example({"b": [], "a": {}, "c": ((), [[]], {"é": None})})
    @example({"s": "x", "n": 1, "l": ["a", 0, True, None, ["b"], {"c": "d"}, "é"], "d": {}})
    def test_bytes_match_json_dumps(self, obj):
        assert dumps(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [1.5, {"x": [0.5]}, {1: "one"}])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)


class TestQuote:
    def test_short_values_print_as_before(self):
        assert _quote(F(-5, 2)) == "-5/2"
        assert _quote("1/x") == "'1/x'"
        assert _quote(SlopeGroup(3, F(3, 2))) == "3/2*Z[1/3]"
        assert _quote(None) == "None"

    def test_long_values_cut_to_40_characters(self):
        text = _quote(F(int("1" * 4000), 7))
        assert len(text) == 40 and text.endswith("...")

    def test_values_past_the_digit_limit_name_the_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            # 1/q1 + 1/q2 has a denominator of about 8,600 digits
            q1, q2 = 10 ** 4299 + 1, 10 ** 4299 + 3
            assert _quote(F(1, q1) + F(1, q2)) == "<more than 4300 digits>"
            assert _quote(SlopeGroup(3, F(10 ** 4300))) == "<more than 4300 digits>"
        finally:
            sys.set_int_max_str_digits(old)
