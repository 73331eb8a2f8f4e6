"""The p-adic norm on circle functions, the solution spaces H0(D), their
filtration dimensions, and the real-valued Riemann-Roch check.

For a divisor D, H0(D) is the set of circle functions f with D + (f) >= 0,
together with the bottom function.  Filtering by the norm ||f|| <= p**n is
the same as requiring every slope of f to lie in the lattice p**(-n) Z,
because a p-adic absolute value is a power of p and the representatives sit
in [1, p).

The topological dimension of a filtration level is computed by stratifying
the space by combinatorial type: a member is determined by the jumps forced
at the support of D, the jumps at k freely movable kinks, a base slope, and
an additive constant.  Within a stratum the movable positions sweep an open
polytope cut by the single linear closure equation (whose coefficients on
the positions are the strictly positive jumps), so a nonempty stratum with
k movable kinks has dimension k + 1 - 1 = k, while a nonempty stratum with
no movable kinks contributes the one-dimensional family of constants shifts.
The reported dimension is the maximum over feasible strata, and 0 when the
level contains only the bottom function.

Three facts bound and simplify the search.  First, the real orders of a
member sum to zero, each forced order is at least -rep * d, and each
movable kink contributes more than p**(-n), so the number of movable kinks
is under B * p**n with B the positive part of the divisor.  Second,
splitting a movable jump 2c into two nearby kinks c, c preserves
feasibility, so the maximal stratum may be assumed to have all movable
jumps equal to the minimal lattice step; feasibility then depends only on
the number of kinks m and the base slope.  Third, with m >= 2 kinks the
closure window for the base slope is wide enough to hold a lattice value,
so only the wrap inequality binds, and its slack does not grow with m:
the feasible m >= 2 form an initial segment, and the largest one is a
closed form in the forced jumps.  Each assignment of forced jumps thus
costs O(1) exact operations, and the search cost is the number of
assignments enumerated.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor

from .circle import CircleFunction, Divisor, divisor_of
from .scalars import padic_abs

__all__ = [
    "FiltrationReport",
    "RiemannRochReport",
    "dim_filtration",
    "dim_r",
    "member_h0",
    "norm_p",
    "rr_tolerance",
    "rr_check",
]


def norm_p(f: CircleFunction) -> Fraction:
    """max over the circle of |slope|_p / representative.

    On each arc the supremum sits at the left endpoint; at a kink both
    one-sided values compete, which the arc maxima already cover.  The value
    does not depend on the choice of fundamental domain, since moving an arc
    by one p-power multiplies both the p-adic absolute value of its slope
    and its representative by p.
    """
    if f.is_bottom:
        raise ValueError("the bottom function has no norm")
    lefts = (Fraction(1), *f.kinks)
    return max(padic_abs(s, f.p) / b for s, b in zip(f.slopes, lefts))


def member_h0(f: CircleFunction, d: Divisor) -> bool:
    """True when D + (f) >= 0 pointwise; the bottom function always belongs."""
    if f.is_bottom:
        return True
    if f.p != d.p:
        raise ValueError("mixed primes")
    total = divisor_of(f) + d
    return all(c > 0 for _, c in total.entries)


def _floor_lattice(x: Fraction, eps: Fraction) -> Fraction:
    """Largest multiple of eps that is <= x."""
    return floor(x / eps) * eps


def _int_below(x: Fraction) -> int:
    """Largest integer strictly below x."""
    n = floor(x)
    return n - 1 if n == x else n


def _assignment_best(p, eps, wrap_floor, interior, u_values):
    """Maximal stratum dimension for one assignment of forced interior jumps.

    Movable feasibility at m minimal kinks needs a base slope a * eps with
        a > alpha - m             (closure window, strict)
        a < alpha                 (strict)
        a <= hB(m)                (wrap inequality)
    where alpha = -U / ((p-1) eps), U = sum(u * (p - rep)) = p su - sbu, and
    hB(m) = (W - p (m eps + su)) / ((p-1) eps).  The movable real order caps
    m strictly below (W - sbu) / eps.  For m >= 2 the strict window
    alpha - m < a < alpha holds an integer, so m is feasible exactly when
    floor(hB(m)) + m > alpha; as floor(hB(m)) + m = floor(hB(0) - m/(p-1))
    does not increase with m, the feasible m >= 2 are exactly those up to
    min(m_top, floor((p-1) hB(0)) - (p-1) (floor(alpha) + 1)).  A single
    kink leaves one base slope and one forced position, which must avoid
    the support of D.
    """
    su = sum(u_values, Fraction(0))
    sbu = sum((rep * u for (rep, _), u in zip(interior, u_values)), Fraction(0))
    U = p * su - sbu
    alpha = -U / ((p - 1) * eps)
    wrap_room = (wrap_floor - p * su) / eps     # (p-1) * hB(0)
    m_top = _int_below((wrap_floor - sbu) / eps)

    if m_top >= 2:
        best = min(m_top, floor(wrap_room) - (p - 1) * (floor(alpha) + 1))
        if best >= 2:
            return best
    if m_top >= 1:
        # the single kink sits at the forced position x = p + (p-1) a + U/eps
        a = min(_int_below(alpha), floor((wrap_room - p) / (p - 1)))
        x = p + (p - 1) * a + U / eps
        if a + 1 > alpha and x not in [rep for rep, _ in interior]:
            return 1
    # no movable kinks: the closure forces the base slope exactly
    s0 = -U / (p - 1)
    if s0 % eps == 0 and (1 - p) * s0 - p * su >= -wrap_floor:
        return 1
    return 0


def dim_filtration(d: Divisor, n: int) -> int:
    """Maximal stratum dimension of the level {f in H0(D) : ||f|| <= p**n}.

    Returns 0 when the level holds only the bottom function.  The search
    enumerates lattice values for the forced jumps at the support of D
    (ranges bounded by the order-sum budget) and maximizes over assignments.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = d.p
    if d.degree() < 0:
        return 0
    eps = Fraction(1, p ** n)
    wrap_d = d.coeff(1)
    interior = [(rep, c) for rep, c in d.entries if rep != 1]
    wrap_floor = _floor_lattice(wrap_d, eps)
    ranges = []
    total = 1
    for rep, dv in interior:
        u_lo = -_floor_lattice(dv, eps)
        cap = sum(r * max(v, 0) for r, v in interior if r != rep) + max(wrap_d, 0)
        u_hi = _floor_lattice(cap / rep, eps)
        if u_hi < u_lo:
            return 0  # the forced jump cannot fit inside the order budget
        count = int((u_hi - u_lo) / eps) + 1
        total *= count
        if total > 2_000_000:
            raise ValueError("support enumeration too large for desk scale")
        ranges.append([u_lo + k * eps for k in range(count)])

    return max((_assignment_best(p, eps, wrap_floor, interior, assign)
                for assign in product(*ranges)), default=0)


@dataclass(frozen=True)
class FiltrationReport:
    divisor: Divisor
    levels: tuple  # ((n, dim, normalized)) with normalized = dim / p**n
    limit_estimate: Fraction

    @property
    def dims(self):
        return tuple(dim for _, dim, _ in self.levels)


def dim_r(d: Divisor, n_max: int) -> FiltrationReport:
    """Normalized dimensions p**(-n) * dim for n = 0..n_max; the last value
    estimates the continuous dimension, which equals max(deg D, 0)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    levels = []
    prev = -1
    for n in range(n_max + 1):
        dim = dim_filtration(d, n)
        if dim < prev:
            raise AssertionError("filtration dimensions must be nondecreasing")
        prev = dim
        levels.append((n, dim, Fraction(dim, d.p ** n)))
    return FiltrationReport(d, tuple(levels), levels[-1][2])


def rr_tolerance(deg: Fraction, p: int, n_max: int) -> Fraction:
    """Acceptance window (1 + |deg|) * p**(1 - n_max) for the limit estimate."""
    return (1 + abs(deg)) * Fraction(1, p ** (n_max - 1))


@dataclass(frozen=True)
class RiemannRochReport:
    divisor: Divisor
    report: FiltrationReport
    report_neg: FiltrationReport
    degree: Fraction
    difference: Fraction
    tolerance: Fraction
    ok: bool


def rr_check(d: Divisor, n_max: int) -> RiemannRochReport:
    """Verify Dim(H0(D)) - Dim(H0(-D)) = deg(D) within the stated tolerance,
    using the level-n_max estimates of both continuous dimensions."""
    rep_d = dim_r(d, n_max)
    rep_n = dim_r(-d, n_max)
    deg = d.degree()
    diff = rep_d.limit_estimate - rep_n.limit_estimate
    tol = rr_tolerance(deg, d.p, n_max)
    return RiemannRochReport(d, rep_d, rep_n, deg, diff, tol, abs(diff - deg) <= tol)
