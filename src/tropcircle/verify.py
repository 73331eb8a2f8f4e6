"""Seeded randomized verification of the algebraic laws.

Every suite pairs a generator with a predicate; the runner draws cases from
a seeded PRNG, so a (seed, count) pair always produces the identical report
byte for byte.  On a failure the offending case is greedily shrunk before
being printed, and the runner exits nonzero.  A passing report prints only
each suite's verdict and case count, so its bytes pin those, not the
cases; `tests/test_verify_cases.py` pins the case stream of every suite.

The generators' contract: each makes the rng calls that table was
recorded with, in the same order, so a seed draws the same cases from one
version to the next.  Every integer draw, and every pick from a sequence,
goes through `_draw`, which makes the same `getrandbits` calls as
`Random.randint` and returns the same int; besides it the generators call
only `rng.random()` and `rng.sample`.  Each generator builds every value
once, through the validating constructor of its type
(`polygons._polygon_of_ratios`, `piecewise.piecewise_affine`,
`circle.circle_function`, `circle.divisor`), from the drawn integers, with
no Fraction arithmetic on the way; a rational is built from its integer
pair by `scalars._fraction`.  No case is kept from one call to the
next.

The suites here are also what the acceptance tests call with their own
counts.  Every check looks its operations up through their module at call
time (`scalars.rmax_join`, `polygons.poly_times`, `circle.divisor_of`, ...),
so monkeypatching any one of them is caught; only constants, types and
`scalars._fraction` are imported by value.  A term that several laws
compare, such as join(a, b) in the semiring laws' commutativity,
associativity and distributivity, or `ell` of a polygon at one lambda in
the Legendre duality, is computed once and its result compared in each of
them; the germ and lex checks hand their own laws the join(a, b) and
times(a, b) that `_semiring_laws` computed.
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import circle, germs, piecewise, polygons, riemann_roch, scalars
from .germs import GERM_BOTTOM, GERM_ONE, Germ, LEX_BOTTOM, LEX_ONE, LexElement
from .piecewise import ZZ, SlopeGroup
from .scalars import BOTTOM, _ONE, _ZERO, _fraction

__all__ = ["SUITES", "format_report", "run", "run_suite"]

PRIMES = (2, 3, 5)
_PRIMES_TO_7 = PRIMES + (7,)


# -------------------------------------------------------------- generators

def _draw(rng, lo, hi):
    """The int rng.randint(lo, hi) returns, from the same getrandbits calls:
    those of Random._randbelow_with_getrandbits below n = hi - lo + 1,
    n.bit_length() bits at a time until a draw is below n.  It leaves out
    the three Python frames and the argument checks randint puts around
    them."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r

def gen_fraction(rng):
    return _fraction(_draw(rng, -12, 12), _draw(rng, 1, 8))

def gen_rmax(rng):
    return None if rng.random() < 0.15 else gen_fraction(rng)

def _hp_draw(rng, span):
    """(num, e) of a random element num / p**e of Z[1/p], |num| <= span and
    e <= 2, drawn in that order."""
    return _draw(rng, -span, span), _draw(rng, 0, 2)

def gen_hp(rng, p, span=9):
    num, e = _hp_draw(rng, span)
    return _fraction(num, p ** e)

def gen_group(rng):
    if rng.random() < 0.4:
        return ZZ
    p = PRIMES[_draw(rng, 0, len(PRIMES) - 1)]
    scale = _fraction(_draw(rng, 1, 3), (1, p)[_draw(rng, 0, 1)])
    return SlopeGroup(p, scale)

def _group_ratio(rng, group):
    """A random element of group as a (num, den) pair, den > 0, not always
    in lowest terms: the scale s/t times k, |k| <= 6, over Z or, as
    `_hp_draw` draws (k, e), over p**e."""
    s, t = group.scale.as_integer_ratio()
    if group.p is None:
        return s * _draw(rng, -6, 6), t
    k, e = _hp_draw(rng, 6)
    return s * k, t * group.p ** e

def gen_group_element(rng, group):
    return _fraction(*_group_ratio(rng, group))

def gen_polygon(rng, group):
    """0 to 4 points (x, y), x in group and y as gen_fraction draws it,
    reduced by the one validating path that reads (num, den) pairs."""
    xs, ys = [], []
    for _ in range(_draw(rng, 0, 4)):
        xs.append(_group_ratio(rng, group))
        ys.append((_draw(rng, -12, 12), _draw(rng, 1, 8)))
    return polygons._polygon_of_ratios(group, xs, ys)

_PA_KINKS = tuple(_fraction(4 * i, 7) for i in range(1, 7))

def gen_pa(rng, group, convex=False, allow_bottom=True):
    """Random function on [0, 4] with kinks among the multiples of 4/7."""
    if allow_bottom and rng.random() < 0.08:
        return piecewise.piecewise_affine(group, 0, 4, None)
    nk = _draw(rng, 0, 3)
    kinks = sorted(rng.sample(_PA_KINKS, nk))
    slopes = [gen_group_element(rng, group) for _ in range(nk + 1)]
    if convex:
        slopes.sort()
    return piecewise.piecewise_affine(group, 0, 4, gen_fraction(rng), kinks, slopes)

def gen_germ(rng):
    if rng.random() < 0.12:
        return GERM_BOTTOM
    return Germ(gen_fraction(rng), gen_fraction(rng), gen_fraction(rng))

def gen_lex(rng):
    if rng.random() < 0.12:
        return LEX_BOTTOM
    return LexElement(gen_fraction(rng), gen_fraction(rng))

def _sample_range(rng, lo, hi, k):
    """k distinct ints of [lo, hi], as rng.sample(range(lo, hi + 1), k)
    draws them.  sample takes len() of its population, which overflows past
    sys.maxsize.  Drawing k <= 5 from more than 21 ints, sample draws
    uniform indices and draws a repeat again, so a range past sys.maxsize is
    drawn that way here, each index as rng.randrange(lo, hi + 1) draws it."""
    if hi - lo < sys.maxsize:
        return rng.sample(range(lo, hi + 1), k)
    picks = []
    while len(picks) < k:
        j = _draw(rng, lo, hi)
        if j not in picks:
            picks.append(j)
    return picks

def gen_circle(rng, p):
    """Random global circle function with at most 3 kinks, never bottom.

    Kinks are drawn from p-power-denominator rationals in (1, p) with the
    last kink of the form p - p**-a, so that solving the final slope from
    the closure condition stays inside Z[1/p].

    The closure is summed as integers over the grid p**2: the arc bounds are
    p**2, the drawn cells, p**3 - p**(2 - a) and p**3, and a slope num/p**e
    is num*p**(2 - e).  The drawn slopes times their arcs sum to
    closure/p**4, and the last arc is p**(2 - a)/p**2, so the final slope,
    which closes the sum, is the one Fraction -closure/(p**2 * p**(2 - a)).
    """
    m = _draw(rng, 0, 3)
    anchor = gen_fraction(rng)
    if m == 0:
        return circle.circle_function(p, [], [0], anchor)
    a = _draw(rng, 2 // p, 2)  # the least a with p - p**-a > 1: 1 at p = 2, else 0
    grid = p * p
    last_arc = p ** (2 - a)
    last = grid * p - last_arc
    lo_i, hi_i = grid + 1, last - 1
    if hi_i - lo_i + 1 < m - 1:
        others = []
    else:
        others = sorted(_sample_range(rng, lo_i, hi_i, m - 1))
    bounds = [grid, *others, last]
    slopes, closure = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        num, e = _hp_draw(rng, 6)
        slopes.append(_fraction(num, p ** e))
        closure += num * p ** (2 - e) * (hi - lo)
    slopes.append(_fraction(-closure, grid * last_arc))
    return circle.circle_function(p, [_fraction(i, grid) for i in bounds[1:]], slopes, anchor)

def gen_divisor(rng, p, max_pts=3):
    """Up to max_pts points r/p**2 in [1, p), each with a coefficient as
    gen_hp draws it; the coefficients at one point are summed as integers
    over p**2, num/p**e as num*p**(2 - e)."""
    grid = p * p
    table = {}
    for _ in range(_draw(rng, 0, max_pts)):
        r = _draw(rng, grid, grid * p - 1)
        num, e = _hp_draw(rng, 9)
        table[r] = table.get(r, 0) + num * p ** (2 - e)
    return circle.divisor(p, {_fraction(r, grid): _fraction(c, grid) for r, c in table.items()})

def class_representative(p, c):
    """Degree-zero divisor with chi class c: c jumps at 2 balanced at the wrap."""
    if c % (p - 1) == 0:
        return circle.divisor(p, {})
    return circle.divisor(p, {2: -c, 1: 2 * c})

def gen_divisor_deg0_chi0(rng, p):
    return circle.divisor_of(gen_circle(rng, p))

def gen_divisor_chi_nonzero(rng, p):
    if p == 2:
        raise ValueError("the residue group at p = 2 is trivial")
    c = _draw(rng, 1, p - 2)
    return gen_divisor_deg0_chi0(rng, p) + class_representative(p, c)


# ------------------------------------------------------------------ shrink

def _shrink_fraction(q):
    if q is None or q == 0:
        return
    yield _ZERO
    if q.denominator != 1:
        yield _fraction(q.numerator // q.denominator, 1)
    if abs(q.numerator) > 1:
        yield _fraction(q.numerator // 2, q.denominator)

def _shrink_value(v):
    if isinstance(v, Fraction):
        yield from _shrink_fraction(v)
    elif isinstance(v, Germ) and not v.is_bottom:
        yield GERM_BOTTOM
        for q in _shrink_fraction(v.x):
            yield Germ(q, v.hplus, v.hminus)
    elif isinstance(v, LexElement) and not v.is_bottom:
        yield LEX_BOTTOM
        for q in _shrink_fraction(v.x):
            yield LexElement(q, v.h)
    elif isinstance(v, polygons.NewtonPolygon) and not v.is_zero:
        yield polygons.NewtonPolygon(v.group, ())
        for i in range(len(v.vertices)):
            yield polygons.NewtonPolygon(v.group, v.vertices[:i] + v.vertices[i + 1:])

def shrink_case(case, failing):
    """Greedy elementwise shrink of a tuple case while it keeps failing."""
    if not isinstance(case, tuple):
        return case
    improved = True
    budget = 200
    while improved and budget > 0:
        improved = False
        for i, v in enumerate(case):
            for cand in _shrink_value(v):
                budget -= 1
                trial = case[:i] + (cand,) + case[i + 1:]
                if failing(trial):
                    case = trial
                    improved = True
                    break
            if improved or budget <= 0:
                break
    return case


# ------------------------------------------------------------------ suites

@dataclass(frozen=True)
class Suite:
    name: str
    gen: callable          # rng -> case tuple
    check: callable        # case tuple -> bool (True means pass)
    scale: Fraction = _ONE   # fraction of the requested count to run


def _semiring_laws(join, times, one, bottom, case, more=None):
    """The semiring laws on case = (a, b, c), then more(a, b, join(a, b),
    times(a, b)) when given: the laws a check adds on the same two terms.
    join(a, b), join(b, c), times(a, b) and times(b, c), which several laws
    compare, are computed once: 8 joins and 9 times per case."""
    a, b, c = case
    ab, bc = join(a, b), join(b, c)
    tab, tbc = times(a, b), times(b, c)
    return (
        join(a, a) == a
        and ab == join(b, a)
        and join(ab, c) == join(a, bc)
        and tab == times(b, a)
        and times(tab, c) == times(a, tbc)
        and times(a, bc) == join(tab, times(a, c))
        and join(a, bottom) == a
        and times(a, bottom) == bottom
        and times(a, one) == a
        and (more is None or more(a, b, ab, tab))
    )

def _carries(ea, eb, ej, et, join, times):
    """A map that takes two values to ea and eb and their join and times to
    ej and et carries both operations: ej is the join of the images and et
    their times."""
    return ej == join(ea, eb) and et == times(ea, eb)

def _triple(gen):
    """Case generator: three independent draws of gen."""
    return lambda rng: (gen(rng), gen(rng), gen(rng))

def _check_rmax(case):
    return _semiring_laws(scalars.rmax_join, scalars.rmax_times, _ZERO, BOTTOM, case)

def _hp_case(rng):
    p = _PRIMES_TO_7[_draw(rng, 0, len(_PRIMES_TO_7) - 1)]
    return (p, gen_hp(rng, p), gen_hp(rng, p))

def _check_hp(case):
    """|.|_p is multiplicative and ultrametric; chi is additive mod p - 1 (x % 1 == 0 at p = 2)."""
    p, a, b = case
    v, chi = (lambda q: scalars.padic_abs(q, p)), (lambda q: scalars.chi(q, p))
    return (v(a * b) == v(a) * v(b)
            and v(a + b) <= max(v(a), v(b))
            and chi(a + b) == (chi(a) + chi(b)) % (p - 1)
            and chi(a * p) == chi(a))

def _germ_laws(a, b, j, m):
    """Convex germs join and multiply to convex germs; eval_char carries
    both operations."""
    convex = germs.germ_is_convex
    return ((not (convex(a) and convex(b)) or (convex(j) and convex(m)))
            and _carries(*map(germs.eval_char, (a, b, j, m)), scalars.rmax_join, scalars.rmax_times))

def _check_germ(case):
    return _semiring_laws(germs.germ_join, germs.germ_mul, GERM_ONE, GERM_BOTTOM, case, _germ_laws)

def _lex_laws(a, b, j, m):
    """eval_char_lex carries both operations."""
    return _carries(*map(germs.eval_char_lex, (a, b, j, m)), scalars.rmax_join, scalars.rmax_times)

def _check_lex(case):
    return _semiring_laws(germs.lex_join, germs.lex_mul, LEX_ONE, LEX_BOTTOM, case, _lex_laws)

def _polygon_case(rng):
    group = gen_group(rng)
    return (gen_polygon(rng, group), gen_polygon(rng, group), gen_polygon(rng, group))

def _check_polygon_semiring(case):
    group = case[0].group
    return _semiring_laws(polygons.poly_join, polygons.poly_times,
                          polygons.newton_polygon(group, [(0, 0)]),
                          polygons.NewtonPolygon(group, ()), case)

def _check_polygon_cancel(case):
    """A nonzero n cancels: n m = n m2 exactly when m = m2."""
    n, m, m2 = case
    return n.is_zero or (polygons.poly_times(n, m) == polygons.poly_times(n, m2)) == (m == m2)

def _check_legendre_roundtrip(case):
    n, _, _ = case
    f = polygons.legendre(n)
    return polygons.from_function(f) == n

def _polygon_lambda_case(rng):
    group = gen_group(rng)
    lams = tuple(_fraction(_draw(rng, 0, 40), _draw(rng, 1, 6)) for _ in range(4))
    return (gen_polygon(rng, group), gen_polygon(rng, group), lams)

def _check_legendre_duality(case):
    n, m, lams = case
    j, t = polygons.poly_join(n, m), polygons.poly_times(n, m)
    fj, ft = polygons.legendre(j), polygons.legendre(t)
    for lam in lams:
        en, em, ej, et = (polygons.ell(x, lam) for x in (n, m, j, t))
        if not (_carries(en, em, ej, et, scalars.rmax_join, scalars.rmax_times)
                and fj.eval_at(lam) == ej and ft.eval_at(lam) == et):
            return False
    return True

def _pa_case(rng):
    group = gen_group(rng)
    f = gen_pa(rng, group)
    g = gen_pa(rng, group)
    lam = _fraction(_draw(rng, 0, 28), 7)
    return (f, g, lam)

def _check_pa_pointwise(case):
    f, g, lam = case
    t = piecewise.pointwise_times(f, g)
    order = piecewise.order_at
    images = (h.eval_at(lam) for h in (f, g, piecewise.pointwise_join(f, g), t))
    return (_carries(*images, scalars.rmax_join, scalars.rmax_times)
            and (f.is_bottom or g.is_bottom or not 0 < lam < 4
                 or order(t, lam) == order(f, lam) + order(g, lam)))

def _check_germ_compat(case):
    f, g, lam = case
    if not 0 < lam < 4:
        return True
    j, t = piecewise.pointwise_join(f, g), piecewise.pointwise_times(f, g)
    return _carries(*(piecewise.germ_at(h, lam) for h in (f, g, j, t)),
                    germs.germ_join, germs.germ_mul)

def _gamma_case(rng):
    group = gen_group(rng)
    return (gen_pa(rng, group), gen_pa(rng, group),
            _draw(rng, 1, 4), _draw(rng, 1, 4), _fraction(_draw(rng, 0, 12), 12))

def _check_gamma(case):
    f, g, n, m, frac = case
    lam = f.lo / (n * m) + frac * ((_fraction(4, 1) if f.hi is None else f.hi) - f.lo) / (n * m)
    lhs = piecewise.gamma(n, piecewise.gamma(m, f))
    rhs = piecewise.gamma(n * m, f)
    if lhs != rhs:
        return False
    if piecewise.gamma(1, f) != f:
        return False
    gj = piecewise.gamma(n, piecewise.pointwise_join(f, g))
    if gj != piecewise.pointwise_join(piecewise.gamma(n, f), piecewise.gamma(n, g)):
        return False
    return rhs.eval_at(lam) == f.eval_at(lam * n * m)

def _circle_case(rng):
    p = PRIMES[_draw(rng, 0, len(PRIMES) - 1)]
    return (gen_circle(rng, p), gen_circle(rng, p))

def _check_conservation(case):
    f, g = case
    df = circle.divisor_of(f)
    if df.degree() != 0 or df.chi() != 0:
        return False
    t = circle.circle_times(f, g)
    if circle.divisor_of(t) != df + circle.divisor_of(g):
        return False
    j = circle.circle_join(f, g)
    dj = circle.divisor_of(j)
    return dj.degree() == 0 and dj.chi() == 0

def _check_norm(case):
    f, g = case
    nf, ng = riemann_roch.norm_p(f), riemann_roch.norm_p(g)
    t, j = circle.circle_times(f, g), circle.circle_join(f, g)
    return (riemann_roch.norm_p(t) <= max(nf, ng)
            and riemann_roch.norm_p(j) <= max(nf, ng))

def _recut_case(rng):
    p = PRIMES[_draw(rng, 0, len(PRIMES) - 1)]
    f = gen_circle(rng, p)
    cut = _fraction(_draw(rng, p ** 2, p ** 3 - 1), p ** 2)
    return (f, cut)

def _check_recut(case):
    """Re-encode a function on the fundamental domain [cut, p*cut): the
    divisor and the norm must not change."""
    f, cut = case
    p = f.p
    top = _fraction(p, 1)
    bounds = [_ONE, *f.kinks, top]
    starts, slopes = [], []
    for a, b, s in zip(bounds, bounds[1:], f.slopes):
        lo, hi = max(a, cut), min(b, top)
        if lo < hi:
            starts.append(lo)
            slopes.append(s)
    for a, b, s in zip(bounds, bounds[1:], f.slopes):
        lo, hi = max(a * p, top), min(b * p, p * cut)
        if lo < hi:
            starts.append(lo)
            slopes.append(s / p)
    g = circle.from_cut(p, cut, starts[1:], slopes, f.eval_at(cut))
    return (circle.divisor_of(g) == circle.divisor_of(f)
            and riemann_roch.norm_p(g) == riemann_roch.norm_p(f)
            and g.pa == f.pa)

def _jacobian_case(rng):
    p = _PRIMES_TO_7[_draw(rng, 0, len(_PRIMES_TO_7) - 1)]
    d = gen_divisor_deg0_chi0(rng, p)
    e = gen_divisor(rng, p)
    return (d, e)

def _check_jacobian(case):
    d, e = case
    rep = circle.is_principal(d)
    if not rep.principal or circle.divisor_of(rep.witness) != d:
        return False
    cls_sum = circle.jacobian_class(d + e)
    cd, ce = circle.jacobian_class(d), circle.jacobian_class(e)
    if cls_sum != (cd[0] + ce[0], (cd[1] + ce[1]) % (d.p - 1)):
        return False
    rep_e = circle.is_principal(e)
    want_obstructions = (("degree",) if e.degree() != 0 else ()) + (("chi",) if e.chi() != 0 else ())
    return rep_e.obstructions == want_obstructions

def _h0_case(rng):
    p = PRIMES[_draw(rng, 0, len(PRIMES) - 1)]
    return (gen_circle(rng, p), gen_circle(rng, p), gen_divisor(rng, p), gen_fraction(rng))

def _check_h0(case):
    f, g, d, const = case
    p = d.p
    f_in = riemann_roch.member_h0(f, d)
    # closure under max and under adding a real constant
    if f_in and riemann_roch.member_h0(g, d):
        if not riemann_roch.member_h0(circle.circle_join(f, g), d):
            return False
        shifted = circle.circle_function(p, f.kinks, f.slopes, f.anchor + const)
        if not riemann_roch.member_h0(shifted, d):
            return False
    # multiplying by a witness translates membership along the principal class
    prin = circle.divisor_of(g)
    return f_in == riemann_roch.member_h0(circle.circle_times(f, g), d - prin)

SUITES = (
    Suite("rmax-axioms", _triple(gen_rmax), _check_rmax),
    Suite("hp-scalars", _hp_case, _check_hp),
    Suite("germ-axioms", _triple(gen_germ), _check_germ),
    Suite("lex-axioms", _triple(gen_lex), _check_lex),
    Suite("polygon-axioms", _polygon_case, _check_polygon_semiring),
    Suite("polygon-cancellation", _polygon_case, _check_polygon_cancel),
    Suite("legendre-roundtrip", _polygon_case, _check_legendre_roundtrip),
    Suite("legendre-duality", _polygon_lambda_case, _check_legendre_duality, _fraction(1, 2)),
    Suite("pa-pointwise", _pa_case, _check_pa_pointwise, _fraction(1, 2)),
    Suite("pa-germ-compat", _pa_case, _check_germ_compat, _fraction(1, 2)),
    Suite("gamma-action", _gamma_case, _check_gamma, _fraction(1, 2)),
    Suite("circle-conservation", _circle_case, _check_conservation, _fraction(1, 4)),
    Suite("circle-norm", _circle_case, _check_norm, _fraction(1, 4)),
    Suite("circle-recut", _recut_case, _check_recut, _fraction(1, 4)),
    Suite("jacobian", _jacobian_case, _check_jacobian, _fraction(1, 4)),
    Suite("h0-membership", _h0_case, _check_h0, _fraction(1, 4)),
)


# ------------------------------------------------------------------ runner

def _fails(check, case) -> bool:
    """True when the law is false on case, or raises."""
    try:
        return not check(case)
    except Exception:
        return True


def run_suite(suite: Suite, seed: int, count: int):
    """Run one suite; returns (cases_run, failure) with failure None or a
    (case_index, shrunk_case) pair."""
    rng = random.Random(f"{suite.name}:{seed}")
    n = max(0, int(count * suite.scale))
    fails = partial(_fails, suite.check)
    for i in range(n):
        case = suite.gen(rng)
        if fails(case):
            return n, (i, shrink_case(case, fails))
    return n, None


def run(seed: int, count: int):
    """Run every suite; returns (report_lines, ok)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    lines = [f"verify seed={seed} count={count}"]
    if count == 0:
        lines.append("warning: no cases requested")
        lines.append("PASS suites=0/0")
        return lines, True
    failures = 0
    for suite in SUITES:
        cases, failure = run_suite(suite, seed, count)
        if failure is None:
            lines.append(f"ok {suite.name} cases={cases}")
        else:
            failures += 1
            idx, case = failure
            lines.append(f"FAIL {suite.name} case={idx}")
            lines.append(f"  reproduce: seed={seed} suite={suite.name} case-index={idx}")
            lines.append(f"  shrunk: {_show(case)}")
    verdict = "PASS" if failures == 0 else "FAIL"
    lines.append(f"{verdict} suites={len(SUITES) - failures}/{len(SUITES)}")
    return lines, failures == 0


def _show(value) -> str:
    """A case as the report prints it: rationals through frac_to_str,
    tuples item by item, anything else by its repr.  The reprs of a polygon
    and of a function do not name their slope group, so one whose group is
    not Z prints it after ` in `: cases of different groups print apart."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_show, value))})"
    if isinstance(value, Fraction):
        return scalars.frac_to_str(value)
    if isinstance(value, (polygons.NewtonPolygon, piecewise.PiecewiseAffine)) and value.group != ZZ:
        return f"{value!r} in {value.group}"
    return repr(value)


def format_report(lines) -> str:
    return "\n".join(lines) + "\n"
