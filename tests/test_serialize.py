"""The rational reader and the JSON writer of `serialize`, against the
standard library as the reference: `Fraction(str)` for `parse_frac` and
`json.dumps` for `dumps`."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from tropcircle.piecewise import SlopeGroup
from tropcircle.scalars import _quote
from tropcircle.serialize import dumps, parse_frac


class TestReader:
    # the plain forms "-?digits" and "-?digits/digits", leading zeros included
    @given(st.from_regex(r"-?[0-9]{1,40}(/0*[1-9][0-9]{0,40})?", fullmatch=True))
    @example("0")
    @example("-0/7")
    def test_plain_strings_read_as_fraction_does(self, text):
        assert parse_frac(text) == F(text)


class TestWriter:
    @staticmethod
    def reference(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    leaves = (st.none() | st.booleans() | st.integers()
              | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
              | st.text() | st.sampled_from(["", "\"\\/\n\t\x00", "é", " ", "\U0001f600"]))
    payloads = st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=24)

    @given(payloads)
    @example({"b": [], "a": {}, "c": ((), [[]], {"é": None})})
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
