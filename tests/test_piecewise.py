import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from tropcircle.germs import GERM_BOTTOM, Germ
from tropcircle.piecewise import (
    GroupMismatchError, SlopeGroup, ZZ, gamma, germ_at, order_at,
    piecewise_affine, pointwise_join, pointwise_times,
)
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
