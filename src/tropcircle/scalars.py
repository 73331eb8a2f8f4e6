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
limit, for the readers that refuse such a value before it is printed.
`_rational` is the one coercion of a rational argument, a slope group's
scale included: every value layer reads one as Fraction(x) reads it, and a
value Fraction(x) cannot read, an infinite float included, is refused with
ValueError.  `_scaled` is the one common-denominator rule: the exact sums
and order tests of `polygons` and `circle` run on integers over one least
common denominator and build one Fraction per result.
"""

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

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


def _rational(x) -> Fraction:
    """Fraction(x), or x itself when it is a Fraction.  Fraction(x) refuses
    an infinite float (or Decimal) with OverflowError and NaN with
    ValueError; both are refused here with ValueError, Python's message kept."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


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
    q = _rational(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
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

    divisor() and SlopeGroup, the two constructors that take a prime, call
    this; the arithmetic downstream never re-checks p.  The primality test
    runs once per prime: accepted primes are remembered (see _checked_prime).
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
    return _is_power_of(_rational(q).denominator, p)


def padic_abs(q, p: int) -> Fraction:
    """p-adic absolute value p**(v_p(den) - v_p(num)); 0 maps to 0."""
    q = _rational(q)
    if q == 0:
        return Fraction(0)
    e = padic_valuation(q.denominator, p) - padic_valuation(q.numerator, p)
    return Fraction(p) ** e


def chi(q, p: int) -> int:
    """Residue of q in Z[1/p] modulo (p-1)Z[1/p], as an int in [0, p-1).

    Because p = 1 mod (p-1), the denominator p**k acts trivially, so the
    reduced numerator alone represents the class.  For p = 2 the group is
    trivial: every numerator is 0 mod 1.
    """
    return _rational(q).numerator % (p - 1)
