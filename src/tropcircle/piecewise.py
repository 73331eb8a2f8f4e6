"""Continuous piecewise-affine functions on sub-intervals of [0, inf).

A function is stored as its domain, its anchor value at the left endpoint,
a sorted tuple of interior kinks, and one slope per piece; the value
anywhere is recovered by integrating the slopes from the anchor, so
continuity is structural.  Each function keeps its positions and slopes
as integers over common denominators (`PiecewiseAffine._form`), and the
values at lo, the kinks and hi summed once from them (`_values`), both
computed on first read and kept out of equality, hash and repr; evaluation
and the pointwise join run on such integers and build one Fraction per
result (`scalars._fraction`).
Slopes are constrained to a rank-one group: either Z, or a fixed rational
multiple of Z[1/p].

The bottom function (constant -inf) is encoded with anchor None and no
pieces.  Degenerate pieces with equal adjacent slopes are merged eagerly,
so structural equality is semantic equality.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .germs import GERM_BOTTOM, Germ
from .scalars import (
    _ONE, _ZERO, _cached, _fraction, _fracs, _is_power_of, _quote, _rational, _scaled, frac_to_str,
    require_prime,
)

__all__ = [
    "GroupMismatchError",
    "PiecewiseAffine",
    "SlopeGroup",
    "ZZ",
    "gamma",
    "germ_at",
    "order_at",
    "piecewise_affine",
    "pointwise_join",
    "pointwise_times",
]


class GroupMismatchError(ValueError):
    """Operands carry different slope groups."""


@dataclass(frozen=True)
class SlopeGroup:
    """Rank-one subgroup of (R, +): Z when p is None, else scale * Z[1/p]."""

    p: int | None = None
    scale: Fraction = _ONE

    def __post_init__(self):
        if self.p is not None:
            require_prime(self.p)
        object.__setattr__(self, "scale", _rational(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def contains(self, q) -> bool:
        """True when q / scale lies in Z (p None) or in Z[1/p]."""
        return self._contains_ratio(*_rational(q).as_integer_ratio())

    def _contains_ratio(self, a: int, b: int) -> bool:
        """contains(a/b) for integers a and b > 0, not necessarily coprime.

        With scale = s/t in lowest terms, (a/b) / scale is (a*t) / (b*s),
        and its reduced denominator is b*s // gcd(a*t, b*s), whatever common
        factor a and b share.  That is the denominator Fraction(a, b) / scale
        would carry, so the test is exact; it reads four integers and builds
        no quotient.  For a = 0 the gcd is b*s and the denominator 1.
        """
        scale = self.scale
        bs = b * scale.numerator
        den = bs // gcd(a * scale.denominator, bs)
        return den == 1 or (self.p is not None and _is_power_of(den, self.p))

    def require(self, q) -> Fraction:
        q = _rational(q)
        if not self._contains_ratio(q.numerator, q.denominator):
            raise ValueError(f"slope {_quote(q)} is not in {_quote(self)}")
        return q

    def __str__(self) -> str:
        base = "Z" if self.p is None else f"Z[1/{self.p}]"
        return base if self.scale == 1 else f"{frac_to_str(self.scale)}*{base}"


ZZ = SlopeGroup(None)


@dataclass(frozen=True)
class PiecewiseAffine:
    group: SlopeGroup
    lo: Fraction
    hi: Fraction | None          # None means the domain extends to +inf
    anchor: Fraction | None      # value at lo; None means the bottom function
    kinks: tuple
    slopes: tuple

    @property
    def is_bottom(self) -> bool:
        return self.anchor is None

    @property
    def convex(self) -> bool:
        """True when the slopes strictly increase across the kinks."""
        ss = self._form[3]
        return all(a < b for a, b in zip(ss, ss[1:]))

    @_cached
    def _form(self) -> tuple:
        """(dx, xs, ds, ss): the function's positions and slopes on integers,
        kept out of equality, hash and repr.  xs are lo, the kinks and hi
        (when finite) times dx, and ss the slopes times ds, with dx and ds
        the least common multiples of their denominators (`_scaled`).

        Sums and order tests on xs, and on ss, are exact: each is its
        rationals scaled by the one positive integer, so a sum of them is
        that integer times the rationals' sum, and their order is the
        rationals' order."""
        ends = (self.lo, *self.kinks) if self.hi is None else (self.lo, *self.kinks, self.hi)
        dx, xs = _scaled([q.as_integer_ratio() for q in ends])
        ds, ss = _scaled([s.as_integer_ratio() for s in self.slopes])
        return dx, xs, ds, ss

    @_cached
    def _values(self) -> tuple:
        """(step, den, values): values[i]/den is the value at xs[i]/dx of
        `_form`, with den = lcm(anchor denominator, ds*dx) and
        step = den // (ds*dx).  Read by eval_at (cli.function_svg calls it at
        every kink), the circle closure and polygons.from_function.

        The values are exact integer sums: the value at xs[0] is the anchor,
        and piece i rises by (ss[i]/ds)*(xs[i+1] - xs[i])/dx, that is by
        ss[i]*(xs[i+1] - xs[i])*step/den, an integer over den.
        """
        dx, xs, ds, ss = self._form
        num, ad = self.anchor.as_integer_ratio()
        den = lcm(ad, ds * dx)
        step, value = den // (ds * dx), num * (den // ad)
        values = [value]
        for s, a, b in zip(ss, xs, xs[1:]):
            value += s * (b - a) * step
            values.append(value)
        return step, den, values

    def eval_at(self, lam) -> Fraction | None:
        """Value at the start of lam's piece plus its slope times the distance.

        With lam = a/b and the integers of `_form` and `_values`, lam lies
        on piece i, where i + 1 is the first index j >= 1 with
        xs[j]*b >= a*dx (so a kink belongs to the piece on its left), or on
        the last piece.  The value is
        values[i]/den + (ss[i]/ds)*(a/b - xs[i]/dx), the one
        `_fraction(values[i]*b + ss[i]*step*(a*dx - xs[i]*b), b*den)`.  The
        domain test compares lam with lo and hi by cross-multiplying.
        """
        lam = _rational(lam)
        a, b = lam.as_integer_ratio()
        lo, hi = self.lo, self.hi
        if a * lo.denominator < lo.numerator * b or (
                hi is not None and a * hi.denominator > hi.numerator * b):
            raise ValueError(f"{_quote(lam)} outside domain [{_quote(lo)}, {_quote(hi)}]")
        if self.is_bottom:
            return None
        dx, xs, _, ss = self._form
        step, den, values = self._values
        ax = a * dx
        i = bisect_left(xs, ax, 1, key=b.__mul__) - 1
        return _fraction(values[i] * b + ss[i] * step * (ax - xs[i] * b), b * den)

    def __repr__(self) -> str:
        hi = "None" if self.hi is None else frac_to_str(self.hi)
        domain = f"[{frac_to_str(self.lo)}, {hi}]"
        if self.is_bottom:
            return f"PA(bottom on {domain})"
        return (f"PA({domain}, anchor={frac_to_str(self.anchor)}, "
                f"kinks={_fracs(self.kinks)}, slopes={_fracs(self.slopes)})")


def piecewise_affine(group, lo, hi, anchor, kinks=(), slopes=None) -> PiecewiseAffine:
    """Validating, canonicalizing constructor.

    Merges pieces with equal adjacent slopes so that every stored kink is a
    genuine kink; a bottom function may not carry kinks.
    """
    lo, hi = _rational(lo), None if hi is None else _rational(hi)
    if lo < 0:
        raise ValueError("domain must sit inside [0, inf)")
    if hi is not None and hi <= lo:
        raise ValueError("empty domain")
    if anchor is None:
        if kinks:
            raise ValueError("the bottom function has no kinks")
        return PiecewiseAffine(group, lo, hi, None, (), ())
    anchor, kinks = _rational(anchor), tuple(map(_rational, kinks))
    if slopes is None:
        slopes = (_ZERO,)
    slopes = tuple(group.require(s) for s in slopes)
    if len(slopes) != len(kinks) + 1:
        raise ValueError("need exactly one slope per piece")
    if not _increasing(kinks):
        raise ValueError("kinks must be strictly increasing")
    if kinks and (kinks[0] <= lo or (hi is not None and kinks[-1] >= hi)):
        raise ValueError("kinks must be interior to the domain")
    return _merged(group, lo, hi, anchor, kinks, slopes)


def _increasing(qs) -> bool:
    """True when the Fractions qs strictly increase, tested on integers:
    with a/b and c/d in lowest terms, b, d > 0, a/b < c/d is a*d < c*b."""
    ratios = [q.as_integer_ratio() for q in qs]
    return all(a * d < c * b for (a, b), (c, d) in zip(ratios, ratios[1:]))


def _merged(group, lo, hi, anchor, kinks, slopes) -> PiecewiseAffine:
    """These pieces with equal neighbouring slopes merged, checking nothing:
    the caller's data meets every check of `piecewise_affine` by construction."""
    mk, ms = [], [slopes[0]]
    for k, s in zip(kinks, slopes[1:]):
        if s == ms[-1]:
            continue
        mk.append(k)
        ms.append(s)
    return PiecewiseAffine(group, lo, hi, anchor, tuple(mk), tuple(ms))


def _require_same_group(a, b) -> None:
    """Refuse two operands, functions or polygons, of different slope groups.
    Operands built from one group object share it, and pass on `is` alone."""
    if a.group is not b.group and a.group != b.group:
        raise GroupMismatchError(f"slope groups differ: {_quote(a.group)} vs {_quote(b.group)}")


def _require_compatible(f: PiecewiseAffine, g: PiecewiseAffine) -> None:
    _require_same_group(f, g)
    if f.lo != g.lo or f.hi != g.hi:
        raise ValueError(f"domain mismatch: [{_quote(f.lo)}, {_quote(f.hi)}] "
                         f"vs [{_quote(g.lo)}, {_quote(g.hi)}]")


def _pieces(f: PiecewiseAffine, g: PiecewiseAffine) -> tuple:
    """(cuts, fs, gs): the sorted union of f's and g's kinks, one cut per
    point, and f's and g's slopes on the len(cuts) + 1 pieces it makes of
    the common domain: one sweep over both kink tuples, one index each."""
    fk, fsl, gk, gsl = f.kinks, f.slopes, g.kinks, g.slopes
    nf, ng = len(fk), len(gk)
    i = j = 0
    cuts, fs, gs = [], [fsl[0]], [gsl[0]]
    while i < nf or j < ng:
        b = fk[i] if i < nf and (j == ng or fk[i] <= gk[j]) else gk[j]
        if i < nf and fk[i] == b:
            i += 1
        if j < ng and gk[j] == b:
            j += 1
        cuts.append(b)
        fs.append(fsl[i])
        gs.append(gsl[j])
    return cuts, fs, gs


def pointwise_join(f: PiecewiseAffine, g: PiecewiseAffine) -> PiecewiseAffine:
    """Exact pointwise max.  Kinks of the result are kinks of the operands
    plus the crossing points of their graphs.

    One walk over the pieces of `_pieces`: a piece [a, b] runs from one cut
    to the next (or to the domain's end), so both operands are affine on
    it.  The walk carries the two values at a: fa and ga, stepped by
    fs*(b-a) and gs*(b-a) to the next cut.  On the piece the larger value
    at a wins; on a tie the larger slope does.  When the loser has the
    larger slope the graphs cross at t = a + (wa-la)/(ls-ws), a kink when
    it lies strictly inside the piece; after it the larger slope wins.
    `_merged` drops the cuts where the winning slope does not change.

    The walk runs on integers over common denominators (`_scaled`): the
    positions lo, the cuts and hi as A = a*dx, the slopes as S = s*ds, and
    the values over dv*ds*dx, with dv the least common multiple of the two
    anchors' denominators, so a piece's rise s*(b-a) is S*(B-A)*dv over the
    same denominator.  The winner test and the slope comparisons are exact
    on these integers, as the scaling is by positive numbers, and so is the
    crossing test: with the values and slopes scaled, t - a is
    (WA-LA)/(dv*dx*(LS-WS)), so t < b is WA-LA < (B-A)*dv*(LS-WS).  A
    Fraction is built (`_fraction`) only for a crossing, (A*dv*(LS-WS) +
    WA-LA) over dv*dx*(LS-WS); the cuts and slopes of the result are the
    operands'.
    """
    _require_compatible(f, g)
    if f.is_bottom or g.is_bottom:
        return g if f.is_bottom else f
    cuts, fss, gss = _pieces(f, g)
    n = len(cuts)
    ends = (f.lo, *cuts) if f.hi is None else (f.lo, *cuts, f.hi)
    dx, xs = _scaled([q.as_integer_ratio() for q in ends])
    ds, ss = _scaled([q.as_integer_ratio() for q in (*fss, *gss)])
    (fn, fd), (gn, gd) = f.anchor.as_integer_ratio(), g.anchor.as_integer_ratio()
    dv = lcm(fd, gd)
    fa, ga = fn * (dv // fd) * ds * dx, gn * (dv // gd) * ds * dx
    anchor = f.anchor if fa >= ga else g.anchor
    kinks, slopes = [], []
    for k in range(n + 1):
        fs, gs = ss[k], ss[n + 1 + k]
        if (fa, fs) > (ga, gs):
            wa, ws, la, ls, win, lose = fa, fs, ga, gs, fss[k], gss[k]
        else:
            wa, ws, la, ls, win, lose = ga, gs, fa, fs, gss[k], fss[k]
        slopes.append(win)
        if ls > ws:
            gap = (ls - ws) * dv
            if k + 1 == len(xs) or wa - la < (xs[k + 1] - xs[k]) * gap:
                kinks.append(_fraction(xs[k] * gap + wa - la, dx * gap))
                slopes.append(lose)
        if k == n:
            break
        rise = (xs[k + 1] - xs[k]) * dv
        fa += fs * rise
        ga += gs * rise
        kinks.append(cuts[k])
    return _merged(f.group, f.lo, f.hi, anchor, kinks, slopes)


def pointwise_times(f: PiecewiseAffine, g: PiecewiseAffine) -> PiecewiseAffine:
    """Exact pointwise sum; bottom is absorbing.  Each piece of `_pieces`
    gets the sum of the two slopes there."""
    _require_compatible(f, g)
    if f.is_bottom or g.is_bottom:
        return f if f.is_bottom else g
    cuts, fs, gs = _pieces(f, g)
    return _merged(f.group, f.lo, f.hi, f.anchor + g.anchor, cuts, list(map(add, fs, gs)))


def gamma(n: int, f: PiecewiseAffine) -> PiecewiseAffine:
    """Precomposition with multiplication by n: (gamma_n f)(t) = f(n t).

    The domain shrinks by 1/n, kinks divide by n and slopes multiply by n, so
    nothing needs checking: the slopes stay in the group, the kinks in order.
    Each is one `_fraction` of its integer ratio a/b: a over b*n, or a*n
    over b.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")

    def shrunk(q):
        a, b = q.as_integer_ratio()
        return _fraction(a, b * n)

    slopes = tuple(_fraction(a * n, b) for a, b in (s.as_integer_ratio() for s in f.slopes))
    return PiecewiseAffine(f.group, shrunk(f.lo), None if f.hi is None else shrunk(f.hi), f.anchor,
                           tuple(map(shrunk, f.kinks)), slopes)


def germ_at(f: PiecewiseAffine, lam) -> Germ:
    """Germ (value, scaled right slope, scaled left slope) at an interior point.

    The one-sided slopes are scaled by the point itself, so they land in the
    group attached to the point rather than the ambient slope group; each
    is one `_fraction` of the integer ratios of the point and the slope.
    """
    lam = _rational(lam)
    if lam <= f.lo or (f.hi is not None and lam >= f.hi):
        raise ValueError(f"{_quote(lam)} is not interior to [{_quote(f.lo)}, {_quote(f.hi)}]")
    if f.is_bottom:
        return GERM_BOTTOM
    a, b = lam.as_integer_ratio()
    c, d = f.slopes[bisect_right(f.kinks, lam)].as_integer_ratio()
    e, g = f.slopes[bisect_left(f.kinks, lam)].as_integer_ratio()
    return Germ(f.eval_at(lam), _fraction(a * c, b * d), _fraction(a * e, b * g))


def order_at(f: PiecewiseAffine, lam) -> Fraction:
    """Jump of the scaled one-sided slopes at an interior point; nonnegative
    wherever the function is convex."""
    g = germ_at(f, lam)
    if g.is_bottom:
        raise ValueError("the bottom function has no order")
    return g.hplus - g.hminus
