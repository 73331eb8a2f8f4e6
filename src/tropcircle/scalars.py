"""Exact scalar arithmetic: the max-plus line and the ring Z[1/p].

Values of the functions handled by this package live on the max-plus line
R ∪ {-inf}, whose semiring addition is max and whose multiplication is
ordinary +.  Slopes and divisor coefficients live in Z[1/p], the subring of
rationals whose denominator is a power of a fixed prime p.  They are plain
Fractions: membership, the p-adic absolute value and the residue in
Z/(p-1)Z all read off the reduced numerator and denominator.

Every rational the package prints goes through `frac_to_str`, as "a" or
"a/b": the JSON and CSV writers, the reprs that the text formats and the
`verify` report show, and the values error messages quote (`_quote`).
Python refuses to convert an int of more than sys.get_int_max_str_digits()
decimal digits to str (0 sets no bound); `frac_to_str` words that refusal
as one line, and `_fits_digits` is the one test of an int against the
limit, for the reader that refuses such a value before it is printed.
`_ratio` is the one reader of rational text, read by the JSON readers of
`serialize` and by `_rational`.  An ASCII "-?digits" or "-?digits/digits",
the only forms `frac_to_str` writes, takes the plain path, int() of its
parts; every other string (a decimal, an exponent, a sign "+", whitespace,
"_" separators, non-ASCII digits, malformed text) the general path: the
exponent check, Fraction(str), then `_fits_digits`.

`_rational` is the one coercion of a rational argument, a slope group's
scale included: every value layer reads a string or an int as `_ratio`
reads it, takes a Fraction as built and reads any other value as
Fraction(x) reads it, and a value it cannot read, an infinite float
included, is refused with ValueError.  `_scaled` is the one
common-denominator rule, and each value type lays out its integers with it
once, in its own `_form`: a function's positions and slopes, a divisor's
reps and coefficients, a polygon's vertices (`pointwise_join` alone lays
out two functions' cuts together).
The exact sums and order tests of the value layers and the level set-up
of the filtration search (`riemann_roch._level_box`) read those integers;
the value layers build one Fraction per result, and the level set-up none.

The package makes a Fraction in three ways only.  `_fraction` builds
every Fraction made from integers: a result of the value layers, a
reader's rational, a drawn `verify` case, and the constants `_ZERO` and
`_ONE`, built once here for every function that needs 0 or 1.
`_rational`'s Fraction(x) reads a foreign value such as a float, and
`_ratio`'s Fraction(str) reads text; a lint test finds no other
Fraction(...) call in the package.  `_fraction` returns what
Fraction(num, den) returns for two ints, in lowest terms with the sign on
the numerator, but builds the instance as CPython 3.12's own
`Fraction._from_coprime_ints` does, by setting its two slots, with none
of the type dispatch of Fraction.__new__.  The tests pin the slot layout
(`Fraction.__slots__`) and agreement with Fraction(num, den) on type,
value, hash and repr, so a Python that changes the layout fails there,
not silently.

`_cached` is the one cache rule: a value computed from an instance on its
first read (an integer form, a function's values, a divisor's degree and
residue) is kept in the instance `__dict__`, which later reads find first,
as Python 3.12's `functools.cached_property` keeps it, without the
per-instance lock that 3.11's takes on every first read.  A constructor
that already holds the value may store it there itself.
"""

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "BOTTOM",
    "chi",
    "frac_to_str",
    "in_zp",
    "is_prime",
    "padic_abs",
    "padic_valuation",
    "require_prime",
    "rmax_join",
    "rmax_times",
]

# An element of the max-plus line is a Fraction, or None for -inf.  None is
# neutral for rmax_join and absorbing for rmax_times.
BOTTOM = None

# an error message quotes at most this many characters of a value
_QUOTE_LEN = 40

# the exponent of a decimal string such as "1.5e3"
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


# bound once: a global name read is cheaper than object.__new__'s attribute read
_new = object.__new__


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for two ints: in lowest terms, the sign on the
    numerator, and ZeroDivisionError for den == 0.  The two slots are set
    directly, as Fraction._from_coprime_ints does on Python 3.12."""
    if den <= 0:
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        num, den = -num, -den
    g = gcd(num, den)
    q = _new(Fraction)
    q._numerator, q._denominator = num // g, den // g
    return q


# 0 and 1, built once
_ZERO, _ONE = _fraction(0, 1), _fraction(1, 1)


def _rational(x) -> Fraction:
    """x itself when it is a Fraction, taken as built, with no digit-limit
    test; the rational `_ratio` reads from a string or an int (not a
    bool), refused past the digit limit; else Fraction(x).  Fraction(x)
    refuses an infinite float (or Decimal) with OverflowError, NaN with
    ValueError and a value of another type, None or a list, with TypeError;
    each is refused here with ValueError, Python's message kept."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return _fraction(*_ratio(x))
    try:
        return Fraction(x)
    except (OverflowError, TypeError) as exc:
        raise ValueError(str(exc)) from None


class _cached:
    """A method of no arguments read as an attribute, computed on the first
    read and stored under its own name in the instance `__dict__`.  The
    descriptor defines no __set__, so the stored value shadows it and later
    reads never call it; a frozen dataclass accepts the store, which does
    not go through __setattr__."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _scaled(pairs):
    """(d, [num*(d // den) for num, den in pairs]): the rationals given as
    (num, den) pairs with den > 0, not necessarily in lowest terms, scaled
    to integers by d, the least common multiple of the dens (1 when pairs
    is empty).

    Sums and order tests on the scaled integers are exact: num/den is
    num*(d // den)/d, and scaling by the one d > 0 keeps every value's
    ratio to the others and their order."""
    d = lcm(*[den for _, den in pairs])
    return d, [num * (d // den) for num, den in pairs]


def _quote(value) -> str:
    """value as an error message shows it, cut to at most 40 characters:
    repr of a string, frac_to_str of a rational, str() of anything else,
    and <more than N digits> for a value past the digit limit."""
    show = repr if isinstance(value, str) else frac_to_str if isinstance(value, Fraction) else str
    try:
        text = show(value)
    except ValueError:
        text = f"<more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= _QUOTE_LEN else text[:_QUOTE_LEN - 3] + "..."


def frac_to_str(q: Fraction) -> str:
    """"a" or "a/b"; a numerator or denominator with more decimal digits
    than sys.get_int_max_str_digits() is refused in one line."""
    num, den = _rational(q).as_integer_ratio()
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise ValueError(f"result has more than {sys.get_int_max_str_digits()} digits") from None


def _fracs(qs) -> str:
    """A sequence of rationals as the reprs print it: [a, b/c, ...]."""
    return f"[{', '.join(map(frac_to_str, qs))}]"


def _fits_digits(n: int) -> bool:
    """True when str(n) has at most sys.get_int_max_str_digits() digits,
    the sign aside (0 sets no bound).

    Decided by bit length, as 2**(3*limit) < 10**limit < 2**(4*limit):
    10**limit is built only for an n between those powers of 2.
    """
    limit = sys.get_int_max_str_digits()
    bits = n.bit_length()
    return not limit or bits <= 3 * limit or (bits <= 4 * limit and abs(n) < 10 ** limit)


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
    exponents can build parts longer than the string, keep the test, which
    skips a denominator of 1.
    """
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        if s.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
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
    if not (_fits_digits(num) and (den == 1 or _fits_digits(den))):
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


def rmax_join(a, b):
    """Tropical addition max(a, b); -inf is the neutral element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def rmax_times(a, b):
    """Tropical multiplication a + b; -inf is absorbing."""
    if a is None or b is None:
        return None
    return a + b


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all of the bases above (Sorenson and
# Webster, 2015): Miller-Rabin over them is exact below it.
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality for n < 3.18e23: a small-prime screen, then
    deterministic Miller-Rabin over the prime bases 2..37."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> int:
    """Return p when it is a prime int below 2**64; raise ValueError otherwise.

    Every entry that takes a prime reads it through this: divisor() and
    SlopeGroup, and normalize_point, padic_valuation, in_zp, padic_abs and
    chi, which would otherwise loop forever or divide by zero on p <= 1.
    The primality test runs once per prime: accepted primes are remembered
    (see _checked_prime).
    """
    if type(p) is not int:
        raise ValueError(f"p must be a prime integer, got {_quote(p)}")
    if p >= 2 ** 64:
        raise ValueError(f"p must be below 2**64, got {_quote(p)}")
    return _checked_prime(p)


@lru_cache(maxsize=1024)
def _checked_prime(p: int) -> int:
    """p, when is_prime(p); a composite raises, so it is never remembered
    and is refused again on every call.  The cache holds at most 1024 of
    the most recently used primes."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


def padic_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n."""
    require_prime(p)
    if n == 0:
        raise ValueError("zero has no finite valuation")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_power_of(den: int, p: int) -> bool:
    """True when the positive integer den is a power of p (p**0 = 1 included)."""
    while den % p == 0:
        den //= p
    return den == 1


def in_zp(q, p: int) -> bool:
    """True when the reduced denominator of q is a power of p."""
    return _is_power_of(_rational(q).denominator, require_prime(p))


def padic_abs(q, p: int) -> Fraction:
    """p-adic absolute value p**(v_p(den) - v_p(num)); 0 maps to 0."""
    require_prime(p)
    q = _rational(q)
    if q == 0:
        return _ZERO
    e = padic_valuation(q.denominator, p) - padic_valuation(q.numerator, p)
    return _fraction(p ** e, 1) if e >= 0 else _fraction(1, p ** -e)


def chi(q, p: int) -> int:
    """Residue of q in Z[1/p] modulo (p-1)Z[1/p], as an int in [0, p-1).

    Because p = 1 mod (p-1), the denominator p**k acts trivially, so the
    reduced numerator alone represents the class.  For p = 2 the group is
    trivial: every numerator is 0 mod 1.
    """
    return _rational(q).numerator % (require_prime(p) - 1)
