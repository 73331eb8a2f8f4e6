import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropcircle.piecewise import (
    GroupMismatchError, PiecewiseAffine, SlopeGroup, ZZ, piecewise_affine,
)
from tropcircle.polygons import (
    NewtonPolygon, _hull, _integer_form, _polygon_of_ratios, _require_group, ell, from_function,
    legendre, newton_polygon, poly_join, poly_times,
)
from tropcircle.scalars import frac_to_str, in_zp, rmax_join, rmax_times
from tropcircle.serialize import polygon_from_json
from tropcircle.verify import gen_group, gen_polygon

from test_circle import fraction_values


def raw_ell(pts, lam):
    """Independent support-function oracle straight off the raw vertex set."""
    vals = [lam * x + y for x, y in pts]
    return max(vals) if vals else None


def sample_lams():
    return [F(0), F(1, 7), F(1, 2), F(1), F(3, 2), F(2), F(3), F(5), F(17, 3), F(40)]


def fraction_reduce(pts):
    """Reference reduction on the Fraction coordinates themselves: best y
    per x, strictly concave upper hull, then the leading vertices that never
    win on lam > 0 dropped."""
    best = {}
    for x, y in pts:
        if x not in best or y > best[x]:
            best[x] = y
    pts = sorted(best.items())
    hull = []
    for v in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b[1] - a[1]) * (v[0] - b[0]) <= (v[1] - b[1]) * (b[0] - a[0]):
                hull.pop()
            else:
                break
        hull.append(v)
    while len(hull) >= 2 and hull[0][1] <= hull[1][1]:
        hull.pop(0)
    return tuple(hull)


# pairwise coprime moduli and some of their products
DENOMINATORS = [1, 2, 3, 4, 5, 7, 11, 13, 35, 143]


@st.composite
def grouped_vertex_sets(draw):
    """(group, raw vertices): vertices in a scaled group scale*Z[1/p] (Z
    when p is None), with y denominators drawn from DENOMINATORS, plus
    repeated abscissae and collinear triples."""
    p = draw(st.sampled_from([None, 2, 3, 5]))
    scale = draw(st.sampled_from([F(1), F(1, 2), F(2, 3), F(5, 7)]))
    xs = st.builds(lambda k, e: scale * F(k, 1 if p is None else p ** e),
                   st.integers(-6, 6), st.integers(0, 2))
    ys = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
    pts = draw(st.lists(st.tuples(xs, ys), max_size=16))
    repeats = draw(st.lists(st.tuples(st.integers(0, 15), ys), max_size=4))
    pts += [(pts[i][0], y) for i, y in repeats if i < len(pts)]
    for _ in range(draw(st.integers(0, 2))):
        (x0, y0), (sx, sy) = draw(st.tuples(xs, ys)), draw(st.tuples(xs, ys))
        pts += [(x0 + t * sx, y0 + t * sy) for t in range(3)]
    return SlopeGroup(p, scale), draw(st.permutations(pts))


def vertex_sets():
    return grouped_vertex_sets().map(lambda drawn: drawn[1])


def fraction_legendre(n):
    """Reference transform on the Fraction coordinates: each kink is
    (y_i - y_i+1) / (x_i+1 - x_i)."""
    if n.is_zero:
        return piecewise_affine(n.group, 0, None, None)
    xs = [x for x, _ in n.vertices]
    ys = [y for _, y in n.vertices]
    kinks = [(ys[i] - ys[i + 1]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    return piecewise_affine(n.group, 0, None, ys[0], kinks, xs)


def fraction_from_function(f):
    """Reference inverse on the Fractions: the convexity test on the
    slopes, then y_i+1 = y_i + k_i * (x_i - x_i+1) from the anchor."""
    if f.lo != 0 or f.hi is not None:
        raise ValueError("the transform inverts functions defined on all of [0, inf)")
    if f.is_bottom:
        return NewtonPolygon(f.group, ())
    if not f.convex:
        raise ValueError("function is not convex")
    xs = list(f.slopes)
    ys = [f.anchor]
    for k, x_prev, x_next in zip(f.kinks, xs, xs[1:]):
        ys.append(ys[-1] + k * (x_prev - x_next))
    return newton_polygon(f.group, zip(xs, ys))


def outcome(func, arg):
    """func(arg), or the type and message of the ValueError it raises."""
    try:
        return func(arg)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def functions_on_half_line(draw):
    """Piecewise-affine functions on [0, inf) whose slopes are the abscissae
    of a grouped vertex set in drawn order (so convex or not), with kinks
    and anchor over DENOMINATORS; some are bottom, some bounded."""
    kind = draw(st.sampled_from(["convex"] * 6 + ["drawn order"] * 2 + ["bottom", "bounded"]))
    group, pts = draw(grouped_vertex_sets())
    slopes = list(dict.fromkeys(x for x, _ in pts))
    if kind != "drawn order":
        slopes.sort()
    if not slopes or kind == "bottom":
        return piecewise_affine(group, 0, None, None)
    fracs = st.builds(F, st.integers(1, 400), st.sampled_from(DENOMINATORS))
    kinks = sorted(draw(st.sets(fracs, min_size=len(slopes) - 1, max_size=len(slopes) - 1)))
    anchor = draw(st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS)))
    hi = (kinks[-1] if kinks else 0) + 1 if kind == "bounded" else None
    return piecewise_affine(group, 0, hi, anchor, kinks, slopes)


class TestReduce:
    @settings(max_examples=400, deadline=None)
    @given(vertex_sets())
    def test_integer_hull_matches_fraction_hull(self, pts):
        assert tuple(pts[i] for i in _hull(*_integer_form(pts)[1::2])) == fraction_reduce(pts)

    def assert_same_support(self, raw):
        n = newton_polygon(ZZ, raw)
        for lam in sample_lams():
            assert ell(n, lam) == raw_ell(raw, lam)

    def test_dominated_duplicate_x(self):
        n = newton_polygon(ZZ, [(0, 0), (0, -1)])
        assert n.vertices == ((F(0), F(0)),)

    def test_collinear_middle_dropped(self):
        raw = [(0, 0), (1, 0), (2, 0)]
        self.assert_same_support(raw)
        n = newton_polygon(ZZ, raw)
        # (1,0) never beats the pair, and (0,0) only ties at lam = 0, so the
        # minimal winning set keeps (2,0) alone
        assert n.vertices == ((F(2), F(0)),)

    def test_interior_winner_kept(self):
        raw = [(0, 0), (1, 0), (2, -3)]
        self.assert_same_support(raw)
        n = newton_polygon(ZZ, raw)
        # (1,0) wins on 0 < lam < 3; (0,0) never wins strictly on lam >= 0
        assert n.vertices == ((F(1), F(0)), (F(2), F(-3)))

    def test_every_kept_vertex_wins_somewhere(self):
        # exact oracle: the set where vertex i strictly beats vertex j is a
        # half-line in lam; the intersection over j must be a nonempty open
        # sub-interval of [0, inf)
        rng = random.Random(23)
        for _ in range(300):
            group = gen_group(rng)
            n = gen_polygon(rng, group)
            for i, (x, y) in enumerate(n.vertices):
                lower, upper = F(0), None
                for j, (a, b) in enumerate(n.vertices):
                    if j == i:
                        continue
                    cross = F(b - y, x - a)
                    if x > a:
                        lower = max(lower, cross)
                    else:
                        upper = cross if upper is None else min(upper, cross)
                assert upper is None or lower < upper

    def test_empty_input(self):
        assert newton_polygon(ZZ, []).is_zero

    @settings(max_examples=100, deadline=None)
    @given(grouped_vertex_sets())
    def test_points_are_read_once(self, drawn):
        # a generator yields its points to the first pass only
        group, pts = drawn
        assert newton_polygon(group, (pt for pt in pts)) == newton_polygon(group, pts)


class TestLegendre:
    def test_single_vertex(self):
        f = legendre(newton_polygon(ZZ, [(0, 0)]))
        assert f.kinks == () and f.slopes == (F(0),) and f.anchor == 0

    def test_hinge(self):
        f = legendre(newton_polygon(ZZ, [(0, 0), (1, -1)]))
        assert f.kinks == (F(1),)
        assert f.slopes == (F(0), F(1))
        assert f.eval_at(3) == 2

    def test_three_vertices(self):
        f = legendre(newton_polygon(ZZ, [(0, 0), (1, 0), (2, -3)]))
        # max(t, 2t-3): slope 1 from 0, slope 2 beyond the kink at 3
        assert f.slopes == (F(1), F(2))
        assert f.kinks == (F(3),)

    def test_zero_polygon_is_bottom(self):
        f = legendre(NewtonPolygon(ZZ, ()))
        assert f.is_bottom

    def test_matches_support_function(self):
        rng = random.Random(5)
        for _ in range(200):
            group = gen_group(rng)
            n = gen_polygon(rng, group)
            f = legendre(n)
            for lam in sample_lams():
                assert f.eval_at(lam) == ell(n, lam)


class TestIntegerTransform:
    """legendre and from_function run on integers scaled by the least common
    denominators; they agree with the Fraction formulas kept above."""

    @settings(max_examples=200, deadline=None)
    @given(grouped_vertex_sets())
    def test_legendre_matches_fraction_kinks(self, drawn):
        n = newton_polygon(*drawn)
        f = legendre(n)
        assert f == fraction_legendre(n)
        assert from_function(f) == n

    @settings(max_examples=200, deadline=None)
    @given(functions_on_half_line())
    def test_from_function_matches_fraction_accumulation(self, f):
        # equal polygons, or the same ValueError (not convex, bounded domain)
        n = outcome(from_function, f)
        assert n == outcome(fraction_from_function, f)
        if isinstance(n, NewtonPolygon) and not n.is_zero:
            # the ordinate rule y_i = f(k_i) - x_i*k_i, with k_0 = 0: y_0 is the anchor
            ks = (F(0), *f.kinks)
            assert n.vertices == tuple((x, value - x * k) for x, k, value
                                       in zip(f.slopes, ks, fraction_values(f, ks)))

    def test_equal_neighbouring_slopes_are_not_convex(self):
        # only the raw constructor keeps equal neighbours; piecewise_affine merges them
        f = PiecewiseAffine(ZZ, F(0), None, F(0), (F(1),), (F(1), F(1)))
        assert outcome(from_function, f) == (ValueError, "function is not convex")
        assert outcome(fraction_from_function, f) == (ValueError, "function is not convex")


class TestUncheckedConstructors:
    """legendre and from_function build their results without the checks of
    piecewise_affine and newton_polygon, which the reduced vertex list and
    a convex function on [0, inf) already pass; newton_polygon tests each
    x as its (num, den) pair.  Each is compared with the checked path."""

    @settings(max_examples=100, deadline=None)
    @given(grouped_vertex_sets())
    def test_legendre_equals_the_checked_constructor(self, drawn):
        f = legendre(newton_polygon(*drawn))
        assert f == piecewise_affine(f.group, 0, None, f.anchor, f.kinks, f.slopes)

    @settings(max_examples=100, deadline=None)
    @given(functions_on_half_line())
    def test_from_function_equals_newton_polygon(self, f):
        assume(f.hi is None and not f.is_bottom and f.convex)
        n = from_function(f)
        assert n == newton_polygon(f.group, n.vertices)
        assert len(n.vertices) == len(f.slopes)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([None, 2, 3, 5]),
           st.sampled_from([F(1), F(1, 2), F(2, 3), F(5, 7), F(6), F(9, 4)]),
           st.lists(st.tuples(st.integers(-30, 30),
                              st.sampled_from([1, 2, 3, 4, 6, 9, 10, 14, 25, 27])), max_size=6),
           st.sampled_from([1, 2, 3, 5, 6, 9, 12]))
    def test_group_test_agrees_with_contains(self, p, scale, pairs, k):
        # pairs are (num, den), not necessarily in lowest terms; (k*num, k*den)
        # shares the factor k on top of any the pair already has
        group = SlopeGroup(p, scale)
        for num, den in pairs:
            ratio = F(num, den) / scale  # membership by definition
            member = ratio.denominator == 1 if p is None else in_zp(ratio, p)
            assert group.contains(F(num, den)) == member
            assert group._contains_ratio(num, den) == member
            assert group._contains_ratio(k * num, k * den) == member
        outside = [F(num, den) for num, den in pairs if not group.contains(F(num, den))]
        if outside:
            with pytest.raises(ValueError) as exc:
                _require_group(group, pairs)
            assert str(exc.value) == f"slope {outside[0]} is not in {group}"
        else:
            _require_group(group, pairs)


class TestFromFunction:
    def test_constant(self):
        f = piecewise_affine(ZZ, 0, None, 5)
        assert from_function(f).vertices == ((F(0), F(5)),)

    def test_hinge_inverse(self):
        f = piecewise_affine(ZZ, 0, None, 0, [F(1)], [F(0), F(1)])
        assert from_function(f).vertices == ((F(0), F(0)), (F(1), F(-1)))

    def test_bottom(self):
        assert from_function(piecewise_affine(ZZ, 0, None, None)).is_zero

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(1000):
            group = gen_group(rng)
            n = gen_polygon(rng, group)
            assert from_function(legendre(n)) == n

    def test_rejects_nonconvex(self):
        f = piecewise_affine(ZZ, 0, None, 0, [F(1)], [F(1), F(0)])
        with pytest.raises(ValueError):
            from_function(f)

    def test_rejects_bounded_domain(self):
        f = piecewise_affine(ZZ, 0, 3, 0)
        with pytest.raises(ValueError):
            from_function(f)


class TestSemiring:
    def test_times_identity(self):
        one = newton_polygon(ZZ, [(0, 0)])
        n = newton_polygon(ZZ, [(0, 1), (2, 0)])
        assert poly_times(one, n) == n

    def test_single_vertices_add(self):
        a = newton_polygon(ZZ, [(1, 0)])
        b = newton_polygon(ZZ, [(2, 3)])
        assert poly_times(a, b).vertices == ((F(3), F(3)),)

    def test_join_keeps_both(self):
        a = newton_polygon(ZZ, [(0, 0)])
        b = newton_polygon(ZZ, [(1, -1)])
        j = poly_join(a, b)
        assert j.vertices == ((F(0), F(0)), (F(1), F(-1)))
        for lam in sample_lams():
            assert ell(j, lam) == rmax_join(ell(a, lam), ell(b, lam))

    def test_zero_neutral_and_absorbing(self):
        z = NewtonPolygon(ZZ, ())
        n = newton_polygon(ZZ, [(0, 1), (1, 0)])
        assert poly_join(z, n) == n
        assert poly_times(z, n) == z

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            poly_join(newton_polygon(ZZ, [(0, 0)]), newton_polygon(SlopeGroup(2), [(0, 0)]))

    def test_duality_random(self):
        rng = random.Random(99)
        for _ in range(300):
            group = gen_group(rng)
            n, m = gen_polygon(rng, group), gen_polygon(rng, group)
            j, t = poly_join(n, m), poly_times(n, m)
            for lam in (F(0), F(2, 3), F(7, 4), F(6)):
                assert ell(j, lam) == rmax_join(ell(n, lam), ell(m, lam))
                assert ell(t, lam) == rmax_times(ell(n, lam), ell(m, lam))

    def test_transform_intertwines_operations_structurally(self):
        # the transform carries the polygon operations to the function
        # operations exactly, as canonical objects rather than pointwise
        from tropcircle.piecewise import pointwise_join, pointwise_times
        rng = random.Random(101)
        for _ in range(300):
            group = gen_group(rng)
            n, m = gen_polygon(rng, group), gen_polygon(rng, group)
            assert legendre(poly_join(n, m)) == pointwise_join(legendre(n), legendre(m))
            assert legendre(poly_times(n, m)) == pointwise_times(legendre(n), legendre(m))


# ------------------------------------- the polygon operations against Fractions

def fraction_poly_join(n, m):
    """Reference join: the reduction of both vertex lists, on the Fractions."""
    return NewtonPolygon(n.group, fraction_reduce([*n.vertices, *m.vertices]))


def fraction_poly_times(n, m):
    """Reference times: the Minkowski sum of the vertex sets in Fractions,
    then the reduction."""
    if n.is_zero or m.is_zero:
        return NewtonPolygon(n.group, ())
    sums = [(x1 + x2, y1 + y2) for x1, y1 in n.vertices for x2, y2 in m.vertices]
    return NewtonPolygon(n.group, fraction_reduce(sums))


def fraction_ell(n, lam):
    """Reference support function, max_j(lam x_j + y_j) on the Fractions."""
    lam = F(lam)
    if lam < 0:
        raise ValueError("the support function lives on [0, inf)")
    if n.is_zero:
        return None
    return max(lam * x + y for x, y in n.vertices)


BIG_PRIME = 2 ** 61 - 1


@st.composite
def polygon_pairs(draw):
    """(n, m, lams): two polygons over Z or scale*Z[1/p], p up to 2**61 - 1,
    each reduced by newton_polygon, built unreduced with NewtonPolygon
    itself, or zero, and some points lam, a few of them negative."""
    p = draw(st.sampled_from([None, 2, 3, 5, BIG_PRIME]))
    scale = F(1) if p is None else draw(st.sampled_from([F(1), F(3, 2), F(5, 7)]))
    group = SlopeGroup(p, scale)
    xs = st.builds(lambda k, e: scale * F(k, 1 if p is None else p ** e),
                   st.integers(-6, 6), st.integers(0, 2))
    ys = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS + [BIG_PRIME]))

    def one():
        kind = draw(st.sampled_from(["reduced", "reduced", "unreduced", "zero"]))
        if kind == "zero":
            return NewtonPolygon(group, ())
        pts = draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=6))
        return newton_polygon(group, pts) if kind == "reduced" else NewtonPolygon(group, tuple(pts))

    lams = draw(st.lists(st.builds(F, st.integers(-2, 60), st.sampled_from([1, 3, 7, 10, BIG_PRIME])),
                         min_size=1, max_size=4))
    return one(), one(), lams


class TestOperationLaw:
    """poly_join, poly_times and ell run on the integer form of a polygon;
    they agree with the Fraction formulas above on every operand, the
    unreduced ones included, whose results reduce as fraction_reduce does."""

    @settings(max_examples=300, deadline=None)
    @given(polygon_pairs())
    def test_operations_match_the_fraction_oracles(self, drawn):
        n, m, lams = drawn
        results = []
        for a, b in ((n, m), (m, n)):
            for op, oracle in ((poly_join, fraction_poly_join), (poly_times, fraction_poly_times)):
                r = op(a, b)
                assert r == oracle(a, b)
                results.append(r)
        for r in (n, m, *results):
            for lam in lams:
                assert outcome(partial(ell, r), lam) == outcome(partial(fraction_ell, r), lam)
        for r in results:
            dx, big_x, dy, big_y = r._form  # evaluated by ell above
            assert [(F(x, dx), F(y, dy)) for x, y in zip(big_x, big_y)] == list(r.vertices)
            assert legendre(r) == fraction_legendre(r)
            fresh = NewtonPolygon(r.group, r.vertices)
            assert r == fresh and hash(r) == hash(fresh) and repr(r) == repr(fresh)


def test_multiplicative_cancellation():
    rng = random.Random(41)
    for _ in range(500):
        group = gen_group(rng)
        n = gen_polygon(rng, group)
        m, m2 = gen_polygon(rng, group), gen_polygon(rng, group)
        if n.is_zero:
            continue
        if poly_times(n, m) == poly_times(n, m2):
            assert m == m2
        else:
            assert m != m2


# ------------------------------------------ the form each constructor hands on

def json_doc(group, pts, ms):
    """A polygon file of the vertex set pts, the coordinates of vertex i
    written as (m*num)/(m*den) with m = ms[2i] and ms[2i+1], so not in
    lowest terms when m > 1."""
    def text(q, m):
        return f"{q.numerator * m}/{q.denominator * m}" if m > 1 else frac_to_str(q)

    return {"p": group.p, "scale": frac_to_str(group.scale),
            "vertices": [[text(x, mx), text(y, my)]
                         for (x, y), mx, my in zip(pts, ms[::2], ms[1::2])]}


# the operands of a join or a Minkowski sum, built from a vertex list
OPERANDS = {"reduced": newton_polygon,
            "unreduced": lambda group, pts: NewtonPolygon(group, tuple(pts)),
            "zero": lambda group, pts: NewtonPolygon(group, ())}


@st.composite
def constructed_polygons(draw):
    """(source, polygon): a polygon from each constructor of the package,
    built from grouped vertex sets: the JSON reader, newton_polygon, the
    join and the Minkowski sum (of reduced, unreduced and zero operands),
    from_function of a transform, a direct NewtonPolygon and the zero
    polygon."""
    group, pts = draw(grouped_vertex_sets())
    cut = draw(st.integers(0, len(pts)))
    source = draw(st.sampled_from(["json", "newton_polygon", "poly_join", "poly_times",
                                   "from_function", "direct", "zero"]))
    if source == "json":
        ms = draw(st.lists(st.sampled_from([1, 1, 2, 3, 6]), min_size=2 * len(pts),
                           max_size=2 * len(pts)))
        return source, polygon_from_json(json_doc(group, pts, ms))
    if source == "newton_polygon":
        return source, newton_polygon(group, pts)
    if source in ("poly_join", "poly_times"):
        kinds = draw(st.tuples(*[st.sampled_from(sorted(OPERANDS))] * 2))
        a, b = (OPERANDS[kind](group, vs) for kind, vs in zip(kinds, (pts[:cut], pts[cut:])))
        return source, (poly_join if source == "poly_join" else poly_times)(a, b)
    if source == "from_function":
        return source, from_function(legendre(newton_polygon(group, pts[cut:])))
    if source == "direct":
        return source, NewtonPolygon(group, newton_polygon(group, pts).vertices)
    return source, NewtonPolygon(group, ())


class TestHandedOnForm:
    """Every constructor of polygons hands the polygon it builds the integer
    form it computed; a polygon built directly computes its own on first
    use.  Either way the form spells the vertices over common denominators,
    and the operations that read it agree with a rebuilt polygon that has
    to compute its own."""

    @settings(max_examples=400, deadline=None)
    @given(constructed_polygons(), st.lists(st.builds(F, st.integers(0, 60),
                                                      st.sampled_from([1, 3, 7, 10])),
                                            min_size=1, max_size=3))
    def test_form_spells_the_vertices(self, drawn, lams):
        source, n = drawn
        # read before any operation: only the direct and zero polygons lack one
        assert ("_form" in vars(n)) == (source not in ("direct", "zero"))
        dx, big_x, dy, big_y = n._form
        assert dx > 0 and dy > 0 and len(big_x) == len(big_y) == len(n.vertices)
        for (x, y), big_x_i, big_y_i in zip(n.vertices, big_x, big_y):
            assert F(big_x_i, dx) == x and F(big_y_i, dy) == y
        rebuilt = NewtonPolygon(n.group, n.vertices)
        assert "_form" not in vars(rebuilt)
        assert rebuilt == n and hash(rebuilt) == hash(n) and repr(rebuilt) == repr(n)
        assert legendre(n) == legendre(rebuilt)
        for lam in lams:
            assert ell(n, lam) == ell(rebuilt, lam)


# groups of the single membership test: Z, and scale*Z[1/p]
MEMBERSHIP_GROUPS = [SlopeGroup(None)] + [SlopeGroup(p, scale) for p in (2, 3, 5)
                                          for scale in (F(1), F(1, 2), F(2, 3), F(5, 7), F(9))]


@st.composite
def ratio_lists(draw):
    """(group, xs, ys): (num, den) pairs, unreduced ones included, whose x
    mostly lie in the group; some x lists are all zeros, some empty."""
    group = draw(st.sampled_from(MEMBERSHIP_GROUPS))
    p, scale = group.p, group.scale
    factor = st.sampled_from([1, 1, 2, 3, 5, 6])
    member = st.builds(lambda k, e, m: (k * scale.numerator * m,
                                        scale.denominator * (1 if p is None else p ** e) * m),
                       st.integers(-9, 9), st.integers(0, 2), factor)
    anything = st.tuples(st.integers(-30, 30), st.integers(1, 30))
    zero = st.builds(lambda den: (0, den), st.integers(1, 12))
    kind = draw(st.sampled_from(["mostly members", "mostly members", "zeros", "empty"]))
    if kind == "empty":
        return group, [], []
    xs = draw(st.lists(zero if kind == "zeros" else st.one_of(member, member, member, anything),
                       min_size=1, max_size=8))
    ys = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)),
                       min_size=len(xs), max_size=len(xs)))
    return group, xs, ys


class TestOneMembershipTest:
    """_polygon_of_ratios tests the whole x list at once, through the gcd
    of the scaled x; it raises exactly when some x lies outside the group,
    with group.require's message for the first one."""

    @settings(max_examples=400, deadline=None)
    @given(ratio_lists())
    def test_raises_exactly_for_the_first_x_outside(self, drawn):
        group, xs, ys = drawn
        outside = [F(num, den) for num, den in xs if not group.contains(F(num, den))]
        result = outcome(lambda pairs: _polygon_of_ratios(group, pairs, ys), xs)
        if outside:
            assert result == outcome(group.require, outside[0])
        else:
            pts = [(F(*x), F(*y)) for x, y in zip(xs, ys)]
            assert result == NewtonPolygon(group, fraction_reduce(pts))
