"""Seeded randomized verification of the algebraic laws.

Every suite pairs a generator with a predicate; the runner draws cases from
a seeded PRNG, so a (seed, count) pair always produces the identical report
byte for byte.  On a failure the offending case is greedily shrunk before
being printed, and the runner exits nonzero.

The suites here are also what the acceptance tests call with their own
counts; the checks go through the public module functions so a deliberately
broken operation is caught (the harness self-test monkeypatches one).
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import circle, germs, piecewise, polygons, riemann_roch
from .germs import GERM_BOTTOM, GERM_ONE, Germ, LEX_BOTTOM, LEX_ONE, LexElement
from .piecewise import ZZ, hp_group
from .scalars import BOTTOM, chi, padic_abs, rmax_join, rmax_times

__all__ = ["SUITES", "format_report", "run", "run_suite"]

PRIMES = (2, 3, 5)


# -------------------------------------------------------------- generators

def gen_fraction(rng, span=12, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))

def gen_rmax(rng):
    return None if rng.random() < 0.15 else gen_fraction(rng)

def gen_hp(rng, p, span=9, max_exp=2):
    """Random element num / p**k of Z[1/p]."""
    return Fraction(rng.randint(-span, span), p ** rng.randint(0, max_exp))

def gen_group(rng):
    if rng.random() < 0.4:
        return ZZ
    p = rng.choice(PRIMES)
    scale = Fraction(rng.randint(1, 3), rng.choice((1, p)))
    return hp_group(p, scale)

def gen_group_element(rng, group, span=6):
    if group.p is None:
        return group.scale * rng.randint(-span, span)
    return group.scale * Fraction(rng.randint(-span, span), group.p ** rng.randint(0, 2))

def gen_polygon(rng, group, max_pts=4):
    pts = [(gen_group_element(rng, group), gen_fraction(rng))
           for _ in range(rng.randint(0, max_pts))]
    return polygons.newton_polygon(group, pts)

def gen_pa(rng, group, lo=Fraction(0), hi=Fraction(4), convex=False, allow_bottom=True):
    if allow_bottom and rng.random() < 0.08:
        return piecewise.bottom_pa(group, lo, hi)
    nk = rng.randint(0, 3)
    kinks = sorted(rng.sample([lo + Fraction(i, 7) * (hi - lo) for i in range(1, 7)], nk))
    slopes = [gen_group_element(rng, group) for _ in range(nk + 1)]
    if convex:
        slopes.sort()
    return piecewise.piecewise_affine(group, lo, hi, gen_fraction(rng), kinks, slopes)

def gen_germ(rng, allow_bottom=True):
    if allow_bottom and rng.random() < 0.12:
        return GERM_BOTTOM
    return Germ(gen_fraction(rng), gen_fraction(rng), gen_fraction(rng))

def gen_lex(rng, allow_bottom=True):
    if allow_bottom and rng.random() < 0.12:
        return LEX_BOTTOM
    return LexElement(gen_fraction(rng), gen_fraction(rng))

def gen_circle(rng, p, max_kinks=3, allow_bottom=False):
    """Random global circle function.

    Kinks are drawn from p-power-denominator rationals in (1, p) with the
    last kink of the form p - p**-a, so that solving the final slope from
    the closure condition stays inside Z[1/p].
    """
    if allow_bottom and rng.random() < 0.1:
        return circle.circle_bottom(p)
    m = rng.randint(0, max_kinks)
    anchor = gen_fraction(rng)
    if m == 0:
        return circle.circle_function(p, [], [0], anchor)
    a = rng.randint(1 if p == 2 else 0, 2)  # keep p - p**-a strictly above 1
    last = p - Fraction(1, p ** a)
    grid = p ** 2
    lo_i, hi_i = grid + 1, int(last * grid) - 1
    if hi_i - lo_i + 1 < m - 1:
        others = []
    else:
        others = sorted(rng.sample(range(lo_i, hi_i + 1), m - 1))
    kinks = [Fraction(i, grid) for i in others] + [last]
    slopes = [gen_hp(rng, p, span=6) for _ in range(len(kinks))]
    bounds = [Fraction(1), *kinks, Fraction(p)]
    partial = sum(s * (b - a2) for s, a2, b in zip(slopes, bounds, bounds[1:]))
    final = -partial / (bounds[-1] - bounds[-2])  # lands in Z[1/p] by the grid choice
    return circle.circle_function(p, kinks, slopes + [final], anchor)

def gen_divisor(rng, p, max_pts=3):
    table = {}
    for _ in range(rng.randint(0, max_pts)):
        rep = Fraction(rng.randint(p ** 2, p ** 3 - 1), p ** 2)
        table[rep] = table.get(rep, Fraction(0)) + gen_hp(rng, p)
    return circle.divisor(p, table)

def class_representative(p, c):
    """Degree-zero divisor with chi class c: c jumps at 2 balanced at the wrap."""
    if p == 2 or c % (p - 1) == 0:
        return circle.divisor(p, {})
    return circle.divisor(p, {Fraction(2): Fraction(-c), Fraction(1): Fraction(2 * c)})

def gen_divisor_deg0_chi0(rng, p):
    return circle.divisor_of(gen_circle(rng, p))

def gen_divisor_chi_nonzero(rng, p):
    if p == 2:
        raise ValueError("the residue group at p = 2 is trivial")
    c = rng.randint(1, p - 2)
    return gen_divisor_deg0_chi0(rng, p) + class_representative(p, c)


# ------------------------------------------------------------------ shrink

def _shrink_fraction(q):
    if q is None or q == 0:
        return
    yield Fraction(0)
    if q.denominator != 1:
        yield Fraction(q.numerator // q.denominator)
    if abs(q.numerator) > 1:
        yield Fraction(q.numerator // 2, q.denominator)

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
        yield polygons.zero_polygon(v.group)
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
                try:
                    bad = failing(trial)
                except Exception:
                    bad = False
                if bad:
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
    scale: Fraction = Fraction(1)   # fraction of the requested count to run


def _idempotent_semiring_laws(join, times, one, bottom):
    def check(case):
        a, b, c = case
        return (
            join(a, a) == a
            and join(a, b) == join(b, a)
            and join(join(a, b), c) == join(a, join(b, c))
            and times(a, b) == times(b, a)
            and times(times(a, b), c) == times(a, times(b, c))
            and times(a, join(b, c)) == join(times(a, b), times(a, c))
            and join(a, bottom) == a
            and times(a, bottom) == bottom
            and times(a, one) == a
        )
    return check


def _rmax_case(rng):
    return (gen_rmax(rng), gen_rmax(rng), gen_rmax(rng))

def _hp_case(rng):
    p = rng.choice(PRIMES + (7,))
    return (p, gen_hp(rng, p), gen_hp(rng, p))

def _check_hp(case):
    p, a, b = case
    ok = padic_abs(a * b, p) == padic_abs(a, p) * padic_abs(b, p)
    ok = ok and padic_abs(a + b, p) <= max(padic_abs(a, p), padic_abs(b, p))
    ok = ok and chi(a + b, p) == (chi(a, p) + chi(b, p)) % (p - 1 if p > 2 else 1)
    ok = ok and chi(a * p, p) == chi(a, p)
    return ok

def _germ_case(rng):
    return (gen_germ(rng), gen_germ(rng), gen_germ(rng))

def _check_germ(case):
    laws = _idempotent_semiring_laws(germs.germ_join, germs.germ_mul, GERM_ONE, GERM_BOTTOM)
    if not laws(case):
        return False
    a, b, _ = case
    j, m = germs.germ_join(a, b), germs.germ_mul(a, b)
    if germs.germ_is_convex(a) and germs.germ_is_convex(b):
        if not (germs.germ_is_convex(j) and germs.germ_is_convex(m)):
            return False
    ev = germs.eval_char
    return (ev(j) == rmax_join(ev(a), ev(b))
            and ev(m) == rmax_times(ev(a), ev(b)))

def _lex_case(rng):
    return (gen_lex(rng), gen_lex(rng), gen_lex(rng))

def _check_lex(case):
    laws = _idempotent_semiring_laws(germs.lex_join, germs.lex_mul, LEX_ONE, LEX_BOTTOM)
    if not laws(case):
        return False
    a, b, _ = case
    ev = germs.eval_char_lex
    return (ev(germs.lex_join(a, b)) == rmax_join(ev(a), ev(b))
            and ev(germs.lex_mul(a, b)) == rmax_times(ev(a), ev(b)))

def _polygon_case(rng):
    group = gen_group(rng)
    return (gen_polygon(rng, group), gen_polygon(rng, group), gen_polygon(rng, group))

def _check_polygon_semiring(case):
    a, b, c = case
    one = polygons.newton_polygon(a.group, [(0, 0)])
    laws = _idempotent_semiring_laws(polygons.poly_join, polygons.poly_times,
                                     one, polygons.zero_polygon(a.group))
    return laws(case)

def _check_polygon_cancel(case):
    n, m, m2 = case
    if n.is_zero:
        return True
    if polygons.poly_times(n, m) == polygons.poly_times(n, m2):
        return m == m2
    return m != m2

def _check_legendre_roundtrip(case):
    n, _, _ = case
    f = polygons.legendre(n)
    return polygons.from_function(f) == n

def _polygon_lambda_case(rng):
    group = gen_group(rng)
    lams = tuple(Fraction(rng.randint(0, 40), rng.randint(1, 6)) for _ in range(4))
    return (gen_polygon(rng, group), gen_polygon(rng, group), lams)

def _check_legendre_duality(case):
    n, m, lams = case
    j, t = polygons.poly_join(n, m), polygons.poly_times(n, m)
    fj, ft = polygons.legendre(j), polygons.legendre(t)
    for lam in lams:
        if polygons.ell(j, lam) != rmax_join(polygons.ell(n, lam), polygons.ell(m, lam)):
            return False
        if polygons.ell(t, lam) != rmax_times(polygons.ell(n, lam), polygons.ell(m, lam)):
            return False
        if fj.eval_at(lam) != polygons.ell(j, lam) or ft.eval_at(lam) != polygons.ell(t, lam):
            return False
    return True

def _pa_case(rng):
    group = gen_group(rng)
    f = gen_pa(rng, group)
    g = gen_pa(rng, group)
    lam = Fraction(rng.randint(0, 28), 7)
    return (f, g, lam)

def _check_pa_pointwise(case):
    f, g, lam = case
    j = piecewise.pointwise_join(f, g)
    t = piecewise.pointwise_times(f, g)
    if j.eval_at(lam) != rmax_join(f.eval_at(lam), g.eval_at(lam)):
        return False
    if t.eval_at(lam) != rmax_times(f.eval_at(lam), g.eval_at(lam)):
        return False
    if not f.is_bottom and not g.is_bottom and Fraction(0) < lam < Fraction(4):
        if piecewise.order_at(t, lam) != piecewise.order_at(f, lam) + piecewise.order_at(g, lam):
            return False
    return True

def _check_germ_compat(case):
    f, g, lam = case
    if not Fraction(0) < lam < Fraction(4):
        return True
    gj = piecewise.germ_at(piecewise.pointwise_join(f, g), lam)
    gt = piecewise.germ_at(piecewise.pointwise_times(f, g), lam)
    a, b = piecewise.germ_at(f, lam), piecewise.germ_at(g, lam)
    return gj == germs.germ_join(a, b) and gt == germs.germ_mul(a, b)

def _gamma_case(rng):
    group = gen_group(rng)
    return (gen_pa(rng, group), gen_pa(rng, group),
            rng.randint(1, 4), rng.randint(1, 4), Fraction(rng.randint(0, 12), 12))

def _check_gamma(case):
    f, g, n, m, frac = case
    lam = f.lo / (n * m) + frac * ((Fraction(4) if f.hi is None else f.hi) - f.lo) / (n * m)
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
    p = rng.choice(PRIMES)
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
    p = rng.choice(PRIMES)
    f = gen_circle(rng, p)
    cut = Fraction(rng.randint(p ** 2, p ** 3 - 1), p ** 2)
    return (f, cut)

def _check_recut(case):
    """Re-encode a function on the fundamental domain [cut, p*cut): the
    divisor and the norm must not change."""
    f, cut = case
    p = f.p
    bounds = [Fraction(1), *f.kinks, Fraction(p)]
    starts, slopes = [], []
    for a, b, s in zip(bounds, bounds[1:], f.slopes):
        lo, hi = max(a, cut), min(b, Fraction(p))
        if lo < hi:
            starts.append(lo)
            slopes.append(s)
    for a, b, s in zip(bounds, bounds[1:], f.slopes):
        lo, hi = max(a * p, Fraction(p)), min(b * p, p * cut)
        if lo < hi:
            starts.append(lo)
            slopes.append(s / p)
    g = circle.from_cut(p, cut, starts[1:], slopes, f.eval_at(cut))
    return (circle.divisor_of(g) == circle.divisor_of(f)
            and riemann_roch.norm_p(g) == riemann_roch.norm_p(f)
            and g.pa == f.pa)

def _jacobian_case(rng):
    p = rng.choice(PRIMES + (7,))
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
    p = d.p
    mod = p - 1 if p > 2 else 1
    if cls_sum != (cd[0] + ce[0], (cd[1] + ce[1]) % mod):
        return False
    rep_e = circle.is_principal(e)
    want_obstructions = (("degree",) if e.degree() != 0 else ()) + (("chi",) if e.chi() != 0 else ())
    return rep_e.obstructions == want_obstructions

def _h0_case(rng):
    p = rng.choice(PRIMES)
    return (gen_circle(rng, p), gen_circle(rng, p), gen_divisor(rng, p), gen_fraction(rng))

def _check_h0(case):
    f, g, d, const = case
    p = d.p
    # closure under max and under adding a real constant
    if riemann_roch.member_h0(f, d) and riemann_roch.member_h0(g, d):
        if not riemann_roch.member_h0(circle.circle_join(f, g), d):
            return False
        shifted = circle.circle_function(p, f.kinks, f.slopes, f.anchor + const)
        if not riemann_roch.member_h0(shifted, d):
            return False
    # multiplying by a witness translates membership along the principal class
    prin = circle.divisor_of(g)
    lhs = riemann_roch.member_h0(f, d)
    rhs = riemann_roch.member_h0(circle.circle_times(f, g), d - prin)
    return lhs == rhs

SUITES = (
    Suite("rmax-axioms", _rmax_case,
          _idempotent_semiring_laws(rmax_join, rmax_times, Fraction(0), BOTTOM)),
    Suite("hp-scalars", _hp_case, _check_hp),
    Suite("germ-axioms", _germ_case, _check_germ),
    Suite("lex-axioms", _lex_case, _check_lex),
    Suite("polygon-axioms", _polygon_case, _check_polygon_semiring),
    Suite("polygon-cancellation", _polygon_case, _check_polygon_cancel),
    Suite("legendre-roundtrip", _polygon_case, _check_legendre_roundtrip),
    Suite("legendre-duality", _polygon_lambda_case, _check_legendre_duality, Fraction(1, 2)),
    Suite("pa-pointwise", _pa_case, _check_pa_pointwise, Fraction(1, 2)),
    Suite("pa-germ-compat", _pa_case, _check_germ_compat, Fraction(1, 2)),
    Suite("gamma-action", _gamma_case, _check_gamma, Fraction(1, 2)),
    Suite("circle-conservation", _circle_case, _check_conservation, Fraction(1, 4)),
    Suite("circle-norm", _circle_case, _check_norm, Fraction(1, 4)),
    Suite("circle-recut", _recut_case, _check_recut, Fraction(1, 4)),
    Suite("jacobian", _jacobian_case, _check_jacobian, Fraction(1, 4)),
    Suite("h0-membership", _h0_case, _check_h0, Fraction(1, 4)),
)


# ------------------------------------------------------------------ runner

def run_suite(suite: Suite, seed: int, count: int):
    """Run one suite; returns (cases_run, failure) with failure None or a
    (case_index, shrunk_case) pair."""
    rng = random.Random(f"{suite.name}:{seed}")
    n = max(0, int(count * suite.scale))
    for i in range(n):
        case = suite.gen(rng)
        ok = True
        try:
            ok = suite.check(case)
        except Exception:
            ok = False
        if not ok:
            def failing(c):
                try:
                    return not suite.check(c)
                except Exception:
                    return True
            return n, (i, shrink_case(case, failing))
    return n, None


def run(seed: int, count: int, names=None):
    """Run all (or the named) suites; returns (report_lines, ok)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    lines = [f"verify seed={seed} count={count}"]
    if count == 0:
        lines.append("warning: no cases requested")
        lines.append("PASS suites=0/0")
        return lines, True
    selected = [s for s in SUITES if names is None or s.name in names]
    failures = 0
    for suite in selected:
        cases, failure = run_suite(suite, seed, count)
        if failure is None:
            lines.append(f"ok {suite.name} cases={cases}")
        else:
            failures += 1
            idx, case = failure
            lines.append(f"FAIL {suite.name} case={idx}")
            lines.append(f"  reproduce: seed={seed} suite={suite.name} case-index={idx}")
            lines.append(f"  shrunk: {case!r}")
    verdict = "PASS" if failures == 0 else "FAIL"
    lines.append(f"{verdict} suites={len(selected) - failures}/{len(selected)}")
    return lines, failures == 0


def format_report(lines) -> str:
    return "\n".join(lines) + "\n"
