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
the number of kinks m and the base slope.  Third, in lattice steps
p**(-n) an assignment of forced jumps k_i at rep_i enters only through
k = sum(k_i) and r = sum(rep_i * k_i), so the best stratum of one
assignment is a closed form (`_assignment_best`).

The level law, the evidence for a closed-form search, is tested, not
proved (tests/test_riemann_roch.py::TestLevelLaw).  With dim_n the
dimension of level n: for deg D < 0, dim_n = 0; for deg D = 0, dim_n is 1
exactly when D is principal and its witness has norm_p <= p**n, else 0;
for deg D > 0, 0 <= deg D * p**n - dim_n <= p - 1 from n = 2 on.  The gap
fails below n = 2: at p = 5, {123/25: 4/25} has dim_0 = 1 > deg D = 492/625.

A level costs an O(k) integer set-up over the k support points (the
forced-jump box of `_level_box`, which reads the divisor's integers,
computed once per divisor), plus O(1) exact operations per assignment in
that box.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .circle import CircleFunction, Divisor, divisor_of
from .scalars import _ONE, _fraction, _quote, padic_abs

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
    lefts = (_ONE, *f.kinks)
    return max(padic_abs(s, f.p) / b for s, b in zip(f.slopes, lefts))


def member_h0(f: CircleFunction, d: Divisor) -> bool:
    """True when D + (f) >= 0 pointwise; the bottom function always belongs."""
    if f.is_bottom:
        return True
    total = divisor_of(f) + d
    return all(c > 0 for _, c in total.entries)


def _assignment_best(p, w, k, r):
    """Maximal stratum dimension for one assignment of forced interior jumps.

    In lattice steps eps = p**(-n): w = floor(d_wrap / eps), and the forced
    jumps k_i * eps at rep_i give k = sum(k_i) and r = sum(rep_i * k_i).
    With alpha = (r - p k) / (p-1), m minimal kinks need a base slope a * eps
    with alpha - m < a < alpha (closure window) and (p-1) a <= w - p k - p m
    (wrap), and m < w - r (movable real order).  For m >= 2 the window holds
    an integer and the wrap bound on a, plus m, does not grow with m, so the
    largest feasible m is
        min(ceil(w - r) - 1, w - p k - (p-1) (floor(alpha) + 1)).
    Otherwise one inequality gives 1 or 0: for non-integer alpha the single
    kink's base slope ceil(alpha) - 1 meets the wrap bound, and for integer
    alpha, where no single kink fits, the constants need
    (p-1) alpha + p k <= w, the same test with w + 1 on the right.  A single
    kink at a support point rep_j (it sits at p - (p-1) frac(alpha)) is not
    movable, but one more step at rep_j gives an integer alpha with
    r + rep_j <= w: a kink-free member whose assignment lies in the
    enumerated box, as its bounds are necessary for membership.

    All of it runs on integers.  With r = a/b (b > 0) and w an int,
    alpha = (a - p k b) / (b (p-1)), so divmod(a - p k b, b (p-1)) gives
    q = floor(alpha) and a remainder rem that is 0 exactly when alpha is an
    integer: ceil(alpha) - 1 is q - (not rem), and ceil(w - r) - 1 is
    w - a // b - 1.
    """
    a, b = r.as_integer_ratio()
    q, rem = divmod(a - p * k * b, b * (p - 1))
    best = min(w - a // b - 1, w - p * k - (p - 1) * (q + 1))
    if best >= 2:
        return best
    return int((p - 1) * (q - (not rem)) + p * k + p <= w + (not rem))


def _level_box(d: Divisor, n: int):
    """(w, interior, ranges) of level n: the wrap bound
    w = floor(d_wrap * p**n), the support entries (rep_i, d_i) off the wrap
    point, and the range of each one's forced jump in lattice steps
    p**(-n), from -floor(d_i * p**n) to floor(cap_i / rep_i * p**n).  The
    cap is the order budget B = max(d_wrap, 0) + sum(rep_j * max(d_j, 0))
    less the point's own share rep_i * max(d_i, 0).  A range may be empty.

    One pass over the divisor's integers R over dr and C over dc
    (`Divisor._form`): B is budget/(dr*dc), with the budget
    sum(R_j * max(C_j, 0)) summed once, and floor(x/y) = x // y for
    integers x and y > 0, so the three floors are C_wrap * p**n // dc,
    -(C_i * p**n // dc) and (budget - R_i * max(C_i, 0)) * p**n // (dc * R_i).
    """
    scale = d.p ** n
    dr, big_r, dc, big_c = d._form
    budget = sum(r * c for r, c in zip(big_r, big_c) if c > 0)
    w, interior, ranges = 0, [], []
    for entry, r, c in zip(d.entries, big_r, big_c):
        if r == dr:
            w = c * scale // dc
            continue
        interior.append(entry)
        ranges.append(range(-(c * scale // dc), (budget - r * max(c, 0)) * scale // (dc * r) + 1))
    return w, interior, ranges


def dim_filtration(d: Divisor, n: int) -> int:
    """Maximal stratum dimension of the level {f in H0(D) : ||f|| <= p**n}.

    Returns 0 when the level holds only the bottom function.  The search
    enumerates the forced jumps at the support of D in lattice steps p**(-n)
    (ranges bounded by the order-sum budget, `_level_box`) and maximizes
    over assignments.  A level n that is not an int, a float or a bool
    included, is refused: p**n would not be exact.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {_quote(n)}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = d.p
    if d.degree() < 0:
        return 0
    w, interior, ranges = _level_box(d, n)
    if not all(ranges):
        return 0  # some forced jump cannot fit inside the order budget
    # len() overflows past sys.maxsize; the cap counts only nonempty boxes
    if prod(steps.stop - steps.start for steps in ranges) > 2_000_000:
        raise ValueError(f"support enumeration too large: level n={n} has more "
                         "than 2,000,000 forced-jump assignments")

    return max((_assignment_best(p, w, sum(ks), sum(rep * k for (rep, _), k in zip(interior, ks)))
                for ks in product(*ranges)), default=0)


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
    estimates the continuous dimension, which equals max(deg D, 0).

    Levels are computed from n_max down, so a search too large to run fails
    on its largest level before any smaller level is enumerated.
    """
    if type(n_max) is not int:
        raise ValueError(f"n_max must be an integer, got {_quote(n_max)}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    dims = [dim_filtration(d, n) for n in range(n_max, -1, -1)][::-1]
    if any(a > b for a, b in zip(dims, dims[1:])):
        raise AssertionError("filtration dimensions must be nondecreasing")
    levels = tuple((n, dim, _fraction(dim, d.p ** n)) for n, dim in enumerate(dims))
    return FiltrationReport(d, levels, levels[-1][2])


def rr_tolerance(deg: Fraction, p: int, n_max: int) -> Fraction:
    """Acceptance window (1 + |deg|) * p**(1 - n_max) for the limit estimate."""
    return (1 + abs(deg)) * _fraction(1, p ** (n_max - 1))


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
