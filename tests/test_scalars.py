import ast
import dataclasses
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropcircle import scalars
from tropcircle.circle import CircleFunction, divisor, from_cut, normalize_point
from tropcircle.germs import Germ, LexElement
from tropcircle.piecewise import ZZ, PiecewiseAffine, SlopeGroup, germ_at, piecewise_affine
from tropcircle.polygons import NewtonPolygon, ell, newton_polygon
from tropcircle.scalars import (
    BOTTOM, _fits_digits, chi, frac_to_str, in_zp, is_prime, padic_abs, require_prime, rmax_join,
    rmax_times,
)
from tropcircle.serialize import divisor_to_json
from tropcircle.verify import (
    gen_circle, gen_divisor, gen_germ, gen_group, gen_lex, gen_pa, gen_polygon,
)


def factorization_valuation(n, p):
    """Independent oracle: read off v_p from the full prime factorization."""
    n = abs(n)
    factors = {}
    d = 2
    while n > 1:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    return factors.get(p, 0)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def zp_elements(p):
    """Hypothesis strategy for num / p**k with small num and k."""
    return st.builds(lambda a, i: F(a, p ** i), st.integers(-40, 40), st.integers(0, 3))


class TestPadicAbs:
    def test_third_at_three(self):
        assert padic_abs(F(1, 3), 3) == 3

    def test_zero(self):
        assert padic_abs(F(0), 5) == 0

    def test_twelve_at_two_against_factorization(self):
        v = factorization_valuation(12, 2)
        assert v == 2
        assert padic_abs(F(12), 2) == F(1, 2 ** v)

    def test_multiplicative(self):
        a, b = F(5, 9), F(18)
        assert padic_abs(a * b, 3) == padic_abs(a, 3) * padic_abs(b, 3)


class TestChi:
    def test_seven_fifths(self):
        h = F(7, 5)
        r = chi(h, 5)
        assert r == 3
        # independent check: h - r must be 4 times an element of Z[1/5]
        q = (h - r) / 4
        den = q.denominator
        while den % 5 == 0:
            den //= 5
        assert den == 1

    def test_zero(self):
        assert chi(F(0), 7) == 0

    def test_p_two_trivial(self):
        assert chi(F(11, 8), 2) == 0

    def test_invariant_under_p_scaling(self):
        h = F(9, 5)
        assert chi(h * 5, 5) == chi(h, 5)
        assert chi(h / 25, 5) == chi(h, 5)


class TestRmax:
    def test_join_neutral(self):
        assert rmax_join(F(3), BOTTOM) == F(3)

    def test_times_absorbing(self):
        assert rmax_times(F(3), BOTTOM) is None

    def test_distributivity_instance(self):
        assert rmax_times(rmax_join(F(1), F(2)), F(5)) == F(7)
        assert rmax_join(rmax_times(F(1), F(5)), rmax_times(F(2), F(5))) == F(7)


class TestHpArithmetic:
    def test_zero_normal_form(self):
        assert in_zp(F(0), 3) and padic_abs(F(0), 3) == 0 and chi(F(0), 3) == 0
        assert divisor(3, {F(2): F(0)}).is_empty
        assert (divisor(3, {F(2): F(4, 9)}) + divisor(3, {F(2): F(-4, 9)})).is_empty

    def test_foreign_denominator_rejected(self):
        assert not in_zp(F(1, 6), 3)
        assert in_zp(F(4, 9), 3) and in_zp(F(-5), 7)
        with pytest.raises(ValueError):
            divisor(3, {F(2): F(1, 6)})

    @given(zp_elements(3), zp_elements(3))
    def test_addition_matches_fractions(self, x, y):
        assert in_zp(x + y, 3) and in_zp(x - y, 3) and in_zp(x * y, 3)
        total = divisor(3, {F(2): x}) + divisor(3, {F(2): y})
        assert total.coeff(2) == x + y

    @given(zp_elements(5), zp_elements(5))
    def test_ultrametric(self, x, y):
        assert padic_abs(x + y, 5) <= max(padic_abs(x, 5), padic_abs(y, 5))

    @given(zp_elements(5), zp_elements(5))
    def test_chi_additive(self, x, y):
        assert chi(x + y, 5) == (chi(x, 5) + chi(y, 5)) % 4

    @given(zp_elements(5), zp_elements(5))
    def test_padic_abs_multiplicative(self, x, y):
        assert padic_abs(x * y, 5) == padic_abs(x, 5) * padic_abs(y, 5)

    @given(zp_elements(5), st.integers(-3, 3))
    def test_chi_invariant_under_p(self, x, j):
        assert chi(x * F(5) ** j, 5) == chi(x, 5)

    def test_serialization_form(self):
        d = divisor(3, {F(2): F(4, 9), F(1): F(-5)})
        assert [e["coeff"] for e in divisor_to_json(d)["support"]] == ["-5", "4/9"]
        assert repr(d) == "Divisor(p=3, 1 -> -5, 2 -> 4/9)"


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(20000) if is_prime(n)] == \
            [n for n in range(20000) if trial_division_is_prime(n)]

    def test_strong_pseudoprime_to_small_bases(self):
        # strong pseudoprime to the bases 2, 3, 5 and 7
        assert not is_prime(3215031751)

    def test_large_primes(self):
        assert is_prime(10 ** 9 + 7)
        assert is_prime(2 ** 61 - 1)
        assert is_prime(10 ** 18 + 3)
        assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))

    def test_refuses_beyond_exact_range(self):
        with pytest.raises(ValueError):
            is_prime(10 ** 30)


class TestRequirePrime:
    def test_accepts_primes(self):
        assert require_prime(2) == 2
        assert require_prime(2 ** 64 - 59) == 2 ** 64 - 59

    @pytest.mark.parametrize("p", [3.0, True, "3", F(3), None])
    def test_rejects_non_int(self, p):
        with pytest.raises(ValueError, match="prime integer"):
            require_prime(p)

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 3215031751])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError, match="must be prime"):
            require_prime(p)

    def test_rejects_beyond_two_to_the_64(self):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            require_prime(2 ** 89 - 1)

    def test_each_prime_is_tested_once(self, monkeypatch):
        tested = []
        monkeypatch.setattr(scalars, "is_prime", lambda n: tested.append(n) or is_prime(n))
        scalars._checked_prime.cache_clear()
        for _ in range(100):
            SlopeGroup(2 ** 61 - 1)
        assert tested == [2 ** 61 - 1]
        for _ in range(2):
            with pytest.raises(ValueError, match="must be prime"):
                require_prime(4)
        assert tested == [2 ** 61 - 1, 4, 4]


# a rational as a repr prints it: an integer or a fraction
NUMBER = re.compile(r"-?\d+(?:/\d+)?")


def printed_values(obj):
    """The numbers of obj in the order its repr prints them."""
    if isinstance(obj, NewtonPolygon):
        return [q for vertex in obj.vertices for q in vertex]
    if isinstance(obj, PiecewiseAffine):
        domain = [obj.lo] if obj.hi is None else [obj.lo, obj.hi]
        return domain if obj.is_bottom else [*domain, obj.anchor, *obj.kinks, *obj.slopes]
    if isinstance(obj, CircleFunction):
        return [obj.p] if obj.is_bottom else [obj.p, obj.anchor, *obj.kinks, *obj.slopes]
    if isinstance(obj, Germ):
        return [] if obj.is_bottom else [obj.x, obj.hplus, obj.hminus]
    if isinstance(obj, LexElement):
        return [] if obj.is_bottom else [obj.x, obj.h]
    return [obj.p, *(q for entry in obj.entries for q in entry)] if obj.entries else [obj.p, 0]


@st.composite
def printable_objects(draw):
    """A polygon, a function, a germ, a lex element, a circle function or a
    divisor from the verify generators, seeded by hypothesis."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["polygon", "function", "germ", "lex", "circle", "divisor"]))
    if kind == "polygon":
        return gen_polygon(rng, gen_group(rng))
    if kind == "function":
        return gen_pa(rng, gen_group(rng))
    if kind == "germ":
        return gen_germ(rng)
    if kind == "lex":
        return gen_lex(rng)
    p = draw(st.sampled_from([2, 3, 5]))
    return gen_circle(rng, p) if kind == "circle" else gen_divisor(rng, p)


class TestPrinter:
    """frac_to_str is the one printer of rationals: the JSON writers and
    the reprs that the text formats show."""

    @settings(max_examples=300, deadline=None)
    @given(printable_objects())
    def test_reprs_print_rationals_as_frac_to_str(self, obj):
        text = repr(obj)
        assert "Fraction(" not in text
        assert NUMBER.findall(text) == [frac_to_str(q) for q in printed_values(obj)]

    def test_function_lists(self):
        f = PiecewiseAffine(SlopeGroup(None), F(0), None, F(1, 2), (F(1), F(5, 2)),
                            (F(-1), F(0), F(2)))
        assert repr(f) == "PA([0, None], anchor=1/2, kinks=[1, 5/2], slopes=[-1, 0, 2])"


@pytest.fixture
def restore_digit_limit():
    old = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(old)


class TestFitsDigits:
    """_fits_digits(n) decides len(str(abs(n))) <= limit from the bit
    length, at the edges of its bands: 10**L - 1 and 10**L on both sides
    of the limit, and 2**(3L), 2**(4L) - 1 and 2**(4L) + 1, where the
    bands meet."""

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    def test_agrees_with_str(self, restore_digit_limit, limit):
        values = [v for size in (640, 4300)
                  for v in (10 ** size - 1, 10 ** size, 2 ** (3 * size),
                            2 ** (4 * size) - 1, 2 ** (4 * size) + 1)]
        sys.set_int_max_str_digits(0)
        lengths = [len(str(v)) for v in values]
        sys.set_int_max_str_digits(limit)
        for v, length in zip(values, lengths):
            expected = not limit or length <= limit
            assert _fits_digits(v) == expected
            assert _fits_digits(-v) == expected


# ------------------------------------------- the one coercion of an argument

def typed(value):
    """value with every dataclass and sequence opened up and each leaf
    paired with its type name, so that 3/2 and 1.5 compare unequal."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(typed(getattr(value, field.name))
                                           for field in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(typed(v) for v in value)
    return type(value).__name__, value


def outcome(entry, x):
    """entry(x) as `typed` shows it, or the message of the ValueError it raises."""
    try:
        return typed(entry(x))
    except ValueError as exc:
        return "ValueError", str(exc)


_HINGE = piecewise_affine(ZZ, 0, 4, 1, [F(1)], [F(0), F(1)])

# each public entry of the value layers that takes a rational argument x
COERCING_ENTRIES = {
    "frac_to_str": frac_to_str,
    "in_zp": lambda x: in_zp(x, 2),
    "padic_abs": lambda x: padic_abs(x, 3),
    "chi": lambda x: chi(x, 5),
    "contains": lambda x: (SlopeGroup(2).contains(x), ZZ.contains(x)),
    "require": lambda x: SlopeGroup(2).require(x),
    "require outside": lambda x: ZZ.require(x),
    "scale": lambda x: SlopeGroup(3, x),
    "eval_at": _HINGE.eval_at,
    "germ_at": lambda x: germ_at(_HINGE, x),
    "domain lo": lambda x: piecewise_affine(ZZ, x, 4, 0),
    "domain hi": lambda x: piecewise_affine(ZZ, 0, x, 0),
    "anchor": lambda x: piecewise_affine(ZZ, 0, 4, x),
    "kinks": lambda x: piecewise_affine(ZZ, 0, 4, 0, [x], [0, 1]),
    "newton_polygon": lambda x: newton_polygon(SlopeGroup(2), [(x, x), (0, 2), (3, -5)]),
    "ell": lambda x: ell(newton_polygon(ZZ, [(0, 0), (1, -1)]), x),
    "normalize_point": lambda x: normalize_point(3, x),
    "divisor coefficient": lambda x: divisor(2, {1: x}),
    "from_cut start": lambda x: from_cut(3, x, [], [0], 0),
}


class FractionTypeTests(ast.NodeVisitor):
    """The place, as module.Class.function, of every `type(...) is Fraction`
    and `type(...) is not Fraction` in one module."""

    def __init__(self, module):
        self.stack, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        left = node.left
        if (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                and left.func.id == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(c, ast.Name) and c.id == "Fraction" for c in node.comparators)):
            self.found.append(".".join(self.stack))
        self.generic_visit(node)


class TestOneCoercion:
    @pytest.mark.parametrize("x", [2, 1.5, "3/2"])
    @pytest.mark.parametrize("name", sorted(COERCING_ENTRIES))
    def test_argument_reads_as_its_fraction(self, name, x):
        entry = COERCING_ENTRIES[name]
        assert outcome(entry, x) == outcome(entry, F(x))

    def test_type_tests_only_in_rational(self):
        """`type(...) is Fraction` and `type(...) is not Fraction` appear in
        the package only inside scalars._rational, the one coercion."""
        found = []
        for path in sorted(Path(scalars.__file__).parent.glob("*.py")):
            finder = FractionTypeTests(path.stem)
            finder.visit(ast.parse(path.read_text()))
            found += finder.found
        assert found == ["scalars._rational"]

    @pytest.mark.parametrize("x, message", [
        (float("inf"), "cannot convert Infinity to integer ratio"),
        (float("-inf"), "cannot convert Infinity to integer ratio"),
        (float("nan"), "cannot convert NaN to integer ratio"),
    ])
    @pytest.mark.parametrize("name", sorted(COERCING_ENTRIES))
    def test_non_finite_float_refused_with_value_error(self, name, x, message):
        """Fraction(inf) raises OverflowError; the one coercion refuses every
        non-finite float with ValueError, the error cli.main catches."""
        assert outcome(COERCING_ENTRIES[name], x) == ("ValueError", message)

    def test_scaled_defined_only_in_scalars(self):
        """`_scaled`, the one common-denominator rule, is defined in scalars
        alone; polygons and circle import it."""
        found = [path.stem for path in sorted(Path(scalars.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "_scaled"]
        assert found == ["scalars"]
