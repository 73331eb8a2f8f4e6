import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tropcircle.circle import circle_function, circle_join
from tropcircle.germs import GERM_BOTTOM, Germ
from tropcircle.piecewise import (
    GroupMismatchError, SlopeGroup, ZZ, gamma, germ_at, order_at,
    piecewise_affine, pointwise_join, pointwise_times,
)
from tropcircle.polygons import legendre, newton_polygon, poly_join, poly_times
from tropcircle.scalars import in_zp, rmax_join, rmax_times
from tropcircle.verify import gen_group, gen_pa


def hinge(group=ZZ, corner=1, lo=0, hi=3):
    """max(0, t - corner) on [lo, hi]."""
    return piecewise_affine(group, lo, hi, 0, [F(corner)], [F(0), F(1)])


class TestEval:
    def test_hinge(self):
        f = hinge()
        assert f.eval_at(2) == 1
        assert f.eval_at(F(1, 2)) == 0

    def test_bottom(self):
        f = piecewise_affine(ZZ, 0, 3, None)
        assert f.eval_at(1) is None

    def test_piecewise_integration(self):
        f = piecewise_affine(ZZ, 0, 3, 0, [F(1), F(2)], [F(0), F(1), F(3)])
        assert f.eval_at(F(5, 2)) == F(5, 2)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            hinge().eval_at(4)


class TestPointwise:
    def test_join_with_bottom(self):
        f = hinge()
        assert pointwise_join(f, piecewise_affine(ZZ, 0, 3, None)) == f

    def test_times_constant_shifts(self):
        f = hinge()
        c = piecewise_affine(ZZ, 0, 3, 2)
        t = pointwise_times(c, f)
        assert t.eval_at(0) == 2 and t.eval_at(3) == 4

    def test_join_creates_crossing_kink(self):
        up = piecewise_affine(ZZ, 0, 2, 0, [], [F(1)])        # t
        down = piecewise_affine(ZZ, 0, 2, 2, [], [F(-1)])     # 2 - t
        j = pointwise_join(up, down)
        assert j.kinks == (F(1),)
        assert j.slopes == (F(-1), F(1))
        assert j.eval_at(1) == 1

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            pointwise_join(hinge(), hinge(hi=4))

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            pointwise_join(hinge(), hinge(group=SlopeGroup(2)))

    # each operation on operands at p = 2 and p = 3, built by make(p)
    OPERANDS = {
        pointwise_join: lambda p: hinge(group=SlopeGroup(p)),
        pointwise_times: lambda p: hinge(group=SlopeGroup(p)),
        poly_join: lambda p: newton_polygon(SlopeGroup(p), [(0, 0)]),
        poly_times: lambda p: newton_polygon(SlopeGroup(p), [(0, 0)]),
        circle_join: lambda p: circle_function(p, [], [0], 0),
    }

    @pytest.mark.parametrize("op", list(OPERANDS), ids=lambda op: op.__name__)
    def test_group_mismatch_names_both_groups(self, op):
        make = self.OPERANDS[op]
        with pytest.raises(GroupMismatchError) as exc:
            op(make(2), make(3))
        assert str(exc.value) == "slope groups differ: Z[1/2] vs Z[1/3]"

    def test_random_pointwise_agreement(self):
        rng = random.Random(3)
        for _ in range(400):
            group = gen_group(rng)
            f, g = gen_pa(rng, group), gen_pa(rng, group)
            lam = F(rng.randint(0, 28), 7)
            j, t = pointwise_join(f, g), pointwise_times(f, g)
            assert j.eval_at(lam) == rmax_join(f.eval_at(lam), g.eval_at(lam))
            assert t.eval_at(lam) == rmax_times(f.eval_at(lam), g.eval_at(lam))

    def test_convexity_preserved(self):
        rng = random.Random(5)
        for _ in range(200):
            group = gen_group(rng)
            f = gen_pa(rng, group, convex=True, allow_bottom=False)
            g = gen_pa(rng, group, convex=True, allow_bottom=False)
            assert pointwise_join(f, g).convex
            assert pointwise_times(f, g).convex

    def test_join_against_dense_grid(self):
        # structural max must agree with pointwise max on a fine grid, which
        # pins the crossing-insertion logic, not just isolated samples
        rng = random.Random(21)
        for _ in range(150):
            group = gen_group(rng)
            f = gen_pa(rng, group, allow_bottom=False)
            g = gen_pa(rng, group, allow_bottom=False)
            j = pointwise_join(f, g)
            for num in range(0, 4 * 24 + 1):
                lam = F(num, 24)
                assert j.eval_at(lam) == max(f.eval_at(lam), g.eval_at(lam))


class TestGamma:
    def test_identity(self):
        f = hinge()
        assert gamma(1, f) == f

    def test_substitution(self):
        f = hinge()  # max(0, t-1) on [0,3]
        g = gamma(3, f)
        assert g.lo == 0 and g.hi == 1
        assert g.kinks == (F(1, 3),)
        assert g.slopes == (F(0), F(3))
        assert g.eval_at(F(2, 3)) == f.eval_at(2)

    def test_functorial(self):
        rng = random.Random(9)
        for _ in range(300):
            f = gen_pa(rng, gen_group(rng))
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            assert gamma(n, gamma(m, f)) == gamma(n * m, f)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gamma(0, hinge())


class TestGermAndOrder:
    def test_hinge_germ(self):
        f = hinge(corner=2)
        assert germ_at(f, 2) == Germ(F(0), F(2), F(0))

    def test_constant_germ(self):
        c = piecewise_affine(ZZ, 0, 3, 5)
        assert germ_at(c, F(3, 2)) == Germ(F(5), F(0), F(0))

    def test_scaled_slopes(self):
        g3 = SlopeGroup(3)
        f = piecewise_affine(g3, 1, 3, 0, [F(2)], [F(1, 3), F(-1, 3)])
        assert germ_at(f, 2) == Germ(f.eval_at(2), F(-2, 3), F(2, 3))

    def test_bottom_germ(self):
        assert germ_at(piecewise_affine(ZZ, 0, 3, None), 1) == GERM_BOTTOM

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            germ_at(hinge(), 0)
        with pytest.raises(ValueError):
            germ_at(hinge(), 3)

    def test_orders(self):
        assert order_at(hinge(corner=2), F(3, 2)) == 0
        assert order_at(hinge(corner=2), 2) == 2
        concave = piecewise_affine(ZZ, 0, 4, 0, [F(3)], [F(1), F(0)])
        assert order_at(concave, 3) == -3

    def test_order_additive(self):
        rng = random.Random(13)
        for _ in range(300):
            group = gen_group(rng)
            f = gen_pa(rng, group, allow_bottom=False)
            g = gen_pa(rng, group, allow_bottom=False)
            lam = F(rng.randint(1, 11), 3)
            t = pointwise_times(f, g)
            assert order_at(t, lam) == order_at(f, lam) + order_at(g, lam)


class TestCanonicalForm:
    def test_degenerate_pieces_merged(self):
        f = piecewise_affine(ZZ, 0, 3, 0, [F(1), F(2)], [F(1), F(1), F(2)])
        assert f.kinks == (F(2),)
        assert f.slopes == (F(1), F(2))

    def test_bottom_carries_no_kinks(self):
        with pytest.raises(ValueError):
            piecewise_affine(ZZ, 0, 3, None, [F(1)], [F(0), F(1)])

    def test_slope_group_enforced(self):
        with pytest.raises(ValueError):
            piecewise_affine(ZZ, 0, 3, 0, [], [F(1, 2)])
        piecewise_affine(SlopeGroup(2), 0, 3, 0, [], [F(1, 2)])  # fine

    def test_unordered_kinks_rejected(self):
        with pytest.raises(ValueError):
            piecewise_affine(ZZ, 0, 3, 0, [F(2), F(1)], [F(0), F(1), F(2)])


# scales whose numerator or denominator carries one of the primes below
SCALES = [F(1), F(3, 2), F(2, 3), F(9), F(1, 9), F(5, 7)]


class TestSlopeGroupMembership:
    @given(p=st.sampled_from([None, 2, 3, 5]),
           scale=st.sampled_from(SCALES),
           q=st.one_of(st.integers(-60, 60),
                       st.builds(F, st.integers(-600, 600), st.integers(1, 600))))
    @example(p=3, scale=F(3, 2), q=0)
    @example(p=None, scale=F(2, 3), q=F(-4, 3))
    @example(p=2, scale=F(5, 7), q=-5)
    def test_contains_matches_the_quotient(self, p, scale, q):
        quotient = F(q) / scale
        expected = quotient.denominator == 1 if p is None else in_zp(quotient, p)
        assert SlopeGroup(p, scale).contains(q) == expected

    @pytest.mark.parametrize("value", [3, "3/2", F(3, 2)])
    def test_require_returns_an_exact_fraction(self, value):
        q = SlopeGroup(3, F(3, 2)).require(value)
        assert type(q) is F and q == F(value)

    @pytest.mark.parametrize("scale", [0.5, "1/2", F(1, 2)])
    def test_scale_is_read_as_a_fraction(self, scale):
        group, half = SlopeGroup(None, scale), SlopeGroup(None, F(1, 2))
        assert type(group.scale) is F
        assert group == half and hash(group) == hash(half)
        assert group.contains(1) and not group.contains(F(1, 4))
        assert str(group) == "1/2*Z"


# ---------------------------------------------------- the merge sweep as a law

def _element(draw, group):
    p = group.p or 1
    return group.scale * F(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 2)))


BIG_PRIME = 2 ** 61 - 1


@st.composite
def operand_pairs(draw):
    """Two functions sharing a slope group and a domain: [0, 4], [1/3, 9/2],
    [0, inf) (support functions from legendre), a circle domain [1, p] at
    p = 2, 3 or 5, or one at p = 2**61 - 1.  Kinks and values mostly sit on
    coarse grids, so shared kinks, ties and crossings on a kink come up
    often; at the big prime the kinks are any j/p**2 in (1, p), so the
    denominators are large and unequal.  Either operand may be bottom."""
    domain = draw(st.sampled_from(["0..4", "1/3..9/2", "0..inf", "circle", "big circle"]))
    if domain == "big circle":
        p = BIG_PRIME
        group, lo, hi = SlopeGroup(p), F(1), F(p)
        grid = st.builds(lambda j: F(j, p * p), st.integers(p * p + 1, p ** 3 - 1))
    elif domain == "circle":
        p = draw(st.sampled_from([2, 3, 5]))
        group, lo, hi = SlopeGroup(p), F(1), F(p)
        grid = st.sampled_from([F(i, p * p) for i in range(p * p + 1, p ** 3)])
    else:
        group = draw(st.sampled_from([ZZ, SlopeGroup(2), SlopeGroup(3, F(3, 2))]))
        if domain == "1/3..9/2":
            lo, hi = F(1, 3), F(9, 2)
            grid = st.sampled_from([F(i, 10) for i in range(4, 45)])
        else:
            lo, hi = F(0), F(4)
            grid = st.sampled_from([F(i, 6) for i in range(1, 24)])

    def one():
        if draw(st.integers(0, 11)) == 0:
            return piecewise_affine(group, lo, None if domain == "0..inf" else hi, None)
        if domain == "0..inf":
            n = draw(st.integers(1, 4))
            pts = [(_element(draw, group), F(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
                   for _ in range(n)]
            return legendre(newton_polygon(group, pts))
        kinks = sorted(draw(st.sets(grid, max_size=4)))
        slopes = [_element(draw, group) for _ in range(len(kinks) + 1)]
        return piecewise_affine(group, lo, hi, F(draw(st.integers(-6, 6)), draw(st.integers(1, 2))),
                                kinks, slopes)

    f = one()
    return f, (f if draw(st.integers(0, 7)) == 0 else one())


def _probes(h, f, g):
    """Every kink of h, f and g (h's include the crossings), the domain's
    ends and the midpoint between each two consecutive of these points."""
    cuts = sorted({h.lo, *h.kinks, *f.kinks, *g.kinks})
    cuts.append(h.hi if h.hi is not None else cuts[-1] + 1)
    return cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]


def _checked(h):
    """h rebuilt through the validating constructor, which raises on data
    that the closed operations must produce valid by construction."""
    return piecewise_affine(h.group, h.lo, h.hi, h.anchor, h.kinks, h.slopes)


def _walk(f, lam):
    """Value of f at lam by an independent walk: start at the anchor and add
    the rise of each piece, one piece after another, up to lam."""
    if f.is_bottom:
        return None
    val, prev = f.anchor, f.lo
    for k, s in zip(f.kinks, f.slopes):
        if lam <= k:
            return val + s * (lam - prev)
        val += s * (k - prev)
        prev = k
    return val + f.slopes[-1] * (lam - prev)


_V = piecewise_affine(ZZ, 0, 4, 2, [F(2)], [F(-1), F(1)])            # |t - 2|
_ZERO = piecewise_affine(ZZ, 0, 4, 0)
_UP = piecewise_affine(ZZ, 0, 4, 0, [], [F(1)])                       # t
_STEP = piecewise_affine(ZZ, 0, 4, 1, [F(1)], [F(0), F(-1)])          # kink where it meets t
_BOTTOM = piecewise_affine(ZZ, 0, 4, None)


class TestSweepLaw:
    @settings(max_examples=500, deadline=None)
    @given(pair=operand_pairs())
    @example(pair=(_V, _V))            # equal operands
    @example(pair=(_V, _ZERO))         # graphs touch at a kink without crossing
    @example(pair=(_UP, _STEP))        # crossing exactly on a kink
    @example(pair=(_UP, _BOTTOM))      # bottom
    def test_join_and_times_agree_pointwise(self, pair):
        for f, g in (pair, pair[::-1]):
            for op, law in ((pointwise_join, rmax_join), (pointwise_times, rmax_times)):
                h = op(f, g)
                assert all(s != t for s, t in zip(h.slopes, h.slopes[1:]))
                assert list(h.kinks) == sorted(set(h.kinks))
                assert h == _checked(h)
                for lam in _probes(h, f, g):
                    assert h.eval_at(lam) == law(f.eval_at(lam), g.eval_at(lam))

    @settings(max_examples=500, deadline=None)
    @given(pair=operand_pairs())
    def test_gamma_is_valid_by_construction(self, pair):
        for f in pair:
            for n in range(1, 5):
                h = gamma(n, f)
                assert h == _checked(h)


class TestEvalLaw:
    @settings(max_examples=500, deadline=None)
    @given(pair=operand_pairs())
    @example(pair=(_V, _BOTTOM))
    def test_values_match_a_walk_over_the_pieces(self, pair):
        f, g = pair
        h = pointwise_join(f, g)
        fns = (f, g, h, pointwise_times(f, g))
        for lam in _probes(h, f, g):
            for fn in fns:
                assert fn.eval_at(lam) == _walk(fn, lam)
        for fn in fns:
            for i, k in enumerate(fn.kinks):
                assert germ_at(fn, k) == Germ(_walk(fn, k), k * fn.slopes[i + 1], k * fn.slopes[i])
            fresh = _checked(fn)  # equal, but never evaluated
            assert fn == fresh and hash(fn) == hash(fresh) and repr(fn) == repr(fresh)
