"""The multiplicative circle R*+/p^Z and its divisor theory.

Points are classes of positive reals under scaling by p, represented here by
rational class representatives in [1, p).  Global piecewise-affine functions
on the circle are stored on the fundamental domain [1, p] with slopes in
Z[1/p]; periodicity f(p t) = f(t) forces the closure condition
value(p) = value(1) and, by the chain rule, makes the slope just left of the
wrap class equal to p times the stored last slope.

A divisor assigns to finitely many points a nonzero coefficient in Z[1/p];
its real value at a point with representative b is b times the coefficient.
The divisor of a function records the jump of its slopes at every kink, with
the wrap-class jump s_0 - p*s_m.  Degree and the residue invariant chi
classify divisors up to divisors of functions: the degree-zero classes form
a cyclic group of order p - 1.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .piecewise import PiecewiseAffine, SlopeGroup, piecewise_affine, pointwise_join, pointwise_times
from .scalars import (
    _ONE, _ZERO, _cached, _fraction, _fracs, _quote, _rational, _scaled, chi, frac_to_str, in_zp,
    require_prime,
)

__all__ = [
    "CircleFunction",
    "ClosureError",
    "Divisor",
    "PrincipalityReport",
    "circle_function",
    "circle_join",
    "circle_times",
    "divisor",
    "divisor_of",
    "from_cut",
    "is_principal",
    "jacobian_class",
    "normalize_point",
]


class ClosureError(ValueError):
    """The slope data does not close up around the circle."""


def normalize_point(p: int, lam) -> Fraction:
    """Canonical representative lam * p**k in [1, p) of a positive rational.

    Runs on lam = num/den: num*p**k and den*p**k stand for the same
    rational scaled by p**k, and 1 <= num/den < p is den <= num < p*den, as
    den > 0.  lam itself is returned when it already lies in [1, p), and
    otherwise one Fraction is built (`_fraction`)."""
    require_prime(p)
    lam = _rational(lam)
    num, den = lam.as_integer_ratio()
    if num <= 0:
        raise ValueError("points of the circle have positive representatives")
    if den <= num < p * den:
        return lam
    while num < den:
        num *= p
    while num >= p * den:
        den *= p
    return _fraction(num, den)


@dataclass(frozen=True)
class Divisor:
    """Finitely supported map from circle points to nonzero Z[1/p] coefficients."""

    p: int
    entries: tuple  # sorted ((rep, Fraction)) with rep in [1, p), coeff nonzero

    @property
    def support(self):
        return tuple(rep for rep, _ in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def coeff(self, lam) -> Fraction:
        rep = normalize_point(self.p, lam)
        for r, c in self.entries:
            if r == rep:
                return c
        return _ZERO

    @_cached
    def _form(self) -> tuple:
        """(dr, R, dc, C): the entries on integers, kept out of equality,
        hash and repr.  R are the reps times dr and C the coefficients times
        dc, with dr and dc the least common multiples of their denominators
        (`_scaled`).  As every rep lies in [1, p), R_i == dr exactly at the
        wrap point, rep 1.

        Sums and order tests on R, and on C, are exact, as each is its
        rationals scaled by the one positive integer; a real order
        rep_i*c_i is R_i*C_i over dr*dc, and so is a sum of them."""
        dr, big_r = _scaled([rep.as_integer_ratio() for rep, _ in self.entries])
        dc, big_c = _scaled([c.as_integer_ratio() for _, c in self.entries])
        return dr, big_r, dc, big_c

    @_cached
    def _degree(self) -> Fraction:
        dr, big_r, dc, big_c = self._form
        return _fraction(sum(r * c for r, c in zip(big_r, big_c)), dr * dc)

    @_cached
    def _chi(self) -> int:
        return sum(chi(c, self.p) for _, c in self.entries) % (self.p - 1)

    def degree(self) -> Fraction:
        """Sum over the support of rep * coefficient (the real value),
        computed once per divisor."""
        return self._degree

    def chi(self) -> int:
        """Sum of the coefficient residues in Z/(p-1)Z, computed once per divisor."""
        return self._chi

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.p != other.p:
            raise ValueError("mixed primes")
        table = dict(self.entries)
        for rep, c in other.entries:
            table[rep] = table[rep] + c if rep in table else c
        return _collect(self.p, table)

    def __neg__(self) -> "Divisor":
        return Divisor(self.p, tuple((rep, -c) for rep, c in self.entries))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Divisor(p={self.p}, 0)"
        body = ", ".join(f"{frac_to_str(rep)} -> {frac_to_str(c)}" for rep, c in self.entries)
        return f"Divisor(p={self.p}, {body})"


def divisor(p: int, table) -> Divisor:
    """Build a divisor from a mapping {representative: coefficient} or from
    (point, coefficient) pairs, where a point may repeat; points are
    normalized, each coefficient is checked to lie in Z[1/p] as given, then
    the coefficients at one point are summed and zeros dropped."""
    require_prime(p)
    merged: dict = {}
    for lam, c in table.items() if isinstance(table, Mapping) else table:
        rep = normalize_point(p, lam)
        c = _rational(c)
        if not in_zp(c, p):
            raise ValueError(f"coefficient {_quote(c)} is not in Z[1/{p}]")
        merged[rep] = merged[rep] + c if rep in merged else c
    return _collect(p, merged)


def _collect(p: int, table: dict) -> Divisor:
    """Divisor from {rep in [1, p): coefficient in Z[1/p]} with p already
    checked, as in sums of divisors and divisors of functions; zeros dropped."""
    return Divisor(p, tuple(sorted((rep, c) for rep, c in table.items() if c)))


@dataclass(frozen=True)
class CircleFunction:
    """Global piecewise-affine function on the circle, stored on [1, p]."""

    p: int
    pa: PiecewiseAffine

    @property
    def is_bottom(self) -> bool:
        return self.pa.is_bottom

    @property
    def kinks(self):
        return self.pa.kinks

    @property
    def slopes(self):
        return self.pa.slopes

    @property
    def anchor(self):
        return self.pa.anchor

    @property
    def is_constant(self) -> bool:
        return not self.is_bottom and not self.kinks and self.slopes[0] == 0

    def eval_at(self, lam) -> Fraction | None:
        """Value at any positive rational, via the canonical representative."""
        return self.pa.eval_at(normalize_point(self.p, lam))

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"CircleFunction(p={self.p}, bottom)"
        return (f"CircleFunction(p={self.p}, anchor={frac_to_str(self.anchor)}, "
                f"kinks={_fracs(self.kinks)}, slopes={_fracs(self.slopes)})")


def circle_function(p: int, kinks, slopes, anchor) -> CircleFunction:
    """Validating constructor: kinks sorted in the open interval (1, p),
    slopes in Z[1/p], and the closure sum(s_i * arc_i) = 0.  An anchor of
    None gives the bottom function; SlopeGroup rejects a p that is not prime.
    The closure compares the values at 1 and at p (`PiecewiseAffine._values`),
    which `eval_at` reads afterwards."""
    pa = piecewise_affine(SlopeGroup(p), 1, p, anchor, kinks, slopes)
    if not pa.is_bottom:
        _, den, values = pa._values
        if values[-1] != values[0]:
            raise ClosureError("slopes do not close up: value(p) - value(1) = "
                               f"{_quote(_fraction(values[-1] - values[0], den))}")
    return CircleFunction(p, pa)


def from_cut(p: int, start, kinks, slopes, anchor) -> CircleFunction:
    """Build the same circle function from data laid out on the fundamental
    domain [start, p*start] with 1 <= start < p.

    Arc positions at or beyond p fold back by one p-power, which multiplies
    their slopes by p (chain rule for f(t) = g(p t)); the result is anchored
    at the class of 1 with the cut's value at p, and start = 1 reproduces
    circle_function.  Closure is checked once, on the folded function, which
    keeps the cut's remainder: f(p) - f(1) = cut(p*start) - cut(start).
    """
    start = _rational(start)
    if not 1 <= start < p:
        raise ValueError("the cut point must lie in [1, p)")
    if anchor is None:
        raise ValueError("re-cutting the bottom function is pointless; build it directly")
    cut = piecewise_affine(SlopeGroup(p), start, p * start, anchor, kinks, slopes)
    # right-slope of the folded function at each of its arc starts in [1, p)
    bounds = [start, *cut.kinks, p * start]
    breaks: dict = {}
    for a, b, t in zip(bounds, bounds[1:], cut.slopes):
        if b <= p:
            breaks[a] = t
        elif a >= p:
            breaks[a / p] = p * t
        else:
            breaks[a] = t
            breaks[1] = p * t
    reps = sorted(breaks)
    return circle_function(p, reps[1:], [breaks[r] for r in reps], cut.eval_at(p))


def circle_join(f: CircleFunction, g: CircleFunction) -> CircleFunction:
    return CircleFunction(f.p, pointwise_join(f.pa, g.pa))


def circle_times(f: CircleFunction, g: CircleFunction) -> CircleFunction:
    return CircleFunction(f.p, pointwise_times(f.pa, g.pa))


def divisor_of(f: CircleFunction) -> Divisor:
    """Divisor of slope jumps: s_i+1 - s_i at kink k_i and, at the wrap
    class 1, s_0 - p*s_m (the slope just left of it is p times the last
    stored slope), zeros dropped.  Its degree and chi always vanish.
    Each jump is one `_fraction` of the slopes' integers
    (`PiecewiseAffine._form`) over ds."""
    if f.is_bottom:
        raise ValueError("the bottom function has no divisor")
    _, _, ds, s = f.pa._form
    table = {k: _fraction(right - left, ds) for k, left, right in zip(f.kinks, s, s[1:])}
    table[_ONE] = _fraction(s[0] - f.p * s[-1], ds)
    return _collect(f.p, table)


@dataclass(frozen=True)
class PrincipalityReport:
    divisor: Divisor
    witness: CircleFunction | None
    obstructions: tuple  # subset of ("degree", "chi")

    @property
    def principal(self) -> bool:
        return self.witness is not None


def is_principal(d: Divisor) -> PrincipalityReport:
    """Decide whether d is the divisor of a function; if so return a witness
    anchored at 0, otherwise report which of (degree, chi) obstructs.

    The witness slopes are s_i = s_0 + partial jump sums with the base slope
    solved from the wrap equation s_0 * (1 - p) = d_wrap + p * sum(interior);
    the division by (p - 1) is exact precisely when chi(d) vanishes, and the
    closure condition then follows from degree zero.  On the coefficients'
    integers C over dc (`Divisor._form`), every slope times dc*(p - 1) is an
    integer: the base one -(C_wrap + p*sum(C_interior)), and each next one
    the last plus C_i*(p - 1).
    """
    obstructions = []
    if d.degree() != 0:
        obstructions.append("degree")
    if d.chi() != 0:
        obstructions.append("chi")
    if obstructions:
        return PrincipalityReport(d, None, tuple(obstructions))
    p = d.p
    reps = d.support
    dr, big_r, dc, big_c = d._form
    wrap = 0
    if big_r and big_r[0] == dr:
        wrap, reps, big_c = big_c[0], reps[1:], big_c[1:]
    den = dc * (p - 1)
    s = -(wrap + p * sum(big_c))
    slopes = [_fraction(s, den)]
    for c in big_c:
        s += c * (p - 1)
        slopes.append(_fraction(s, den))
    witness = circle_function(p, reps, slopes, 0)
    return PrincipalityReport(d, witness, ())


def jacobian_class(d: Divisor):
    """Class of a divisor modulo divisors of functions: the pair (degree, chi).

    Two divisors differ by the divisor of a function exactly when their
    classes agree; degree-zero classes form a cyclic group of order p - 1.
    """
    return (d.degree(), d.chi())
