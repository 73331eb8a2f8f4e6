import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropcircle import circle
from tropcircle.circle import (
    ClosureError, circle_function, circle_join, circle_times,
    divisor, divisor_of, from_cut, is_principal, jacobian_class, normalize_point,
)
from tropcircle.piecewise import SlopeGroup, piecewise_affine, pointwise_times
from tropcircle.scalars import _quote
from tropcircle.verify import (
    class_representative, gen_circle, gen_divisor, gen_divisor_chi_nonzero,
    gen_divisor_deg0_chi0,
)

from test_piecewise import operand_pairs


class TestNormalizePoint:
    def test_five_at_two(self):
        assert normalize_point(2, 5) == F(5, 4)

    def test_one(self):
        assert normalize_point(3, 1) == 1

    def test_third_at_three(self):
        assert normalize_point(3, F(1, 3)) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_point(2, 0)


class TestBuild:
    def test_constant(self):
        f = circle_function(3, [], [0], 0)
        assert f.is_constant and f.eval_at(F(7, 3)) == 0

    def test_two_arc_example(self):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        assert f.eval_at(2) == F(1, 3)
        assert f.eval_at(1) == 0

    def test_closure_violation(self):
        with pytest.raises(ClosureError):
            circle_function(3, [F(2)], [F(1, 3), F(1, 3)], 0)

    def test_slope_outside_ring(self):
        with pytest.raises(ValueError):
            circle_function(3, [F(2)], [F(1, 2), F(-1, 4)], 0)

    def test_unsorted_kinks(self):
        with pytest.raises(ValueError):
            circle_function(5, [F(3), F(2)], [F(1, 5), F(2, 5), F(-1)], 0)

    def test_nonzero_constant_slope_fails_closure(self):
        with pytest.raises(ClosureError):
            circle_function(3, [], [F(1, 3)], 0)

    def test_bottom_anchor(self):
        f = circle_function(3, [], [0], None)
        assert f.is_bottom
        with pytest.raises(ValueError):
            from_cut(3, F(3, 2), [], [0], None)


class TestDivisorOf:
    def test_constant_has_empty_divisor(self):
        assert divisor_of(circle_function(5, [], [0], 3)).is_empty

    def test_two_arc_example(self):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        d = divisor_of(f)
        assert d.coeff(1) == F(4, 3)
        assert d.coeff(2) == F(-2, 3)
        assert d.degree() == 0
        assert d.chi() == 0

    def test_bottom_rejected(self):
        with pytest.raises(ValueError):
            divisor_of(circle_function(3, (), None, None))

    def test_zero_wrap_jump_has_no_entry_at_1(self):
        # s_0 - p*s_m = 3 - 3*1 = 0 at the wrap class
        f = circle_function(3, [F(3, 2), F(2)], [F(3), F(-5), F(1)], 0)
        assert dict(divisor_of(f).entries) == {F(3, 2): F(-8), F(2): F(6)}

    def test_matches_slope_jump_table(self):
        """The jump at each arc start t in {1, kinks} is the slope right of t
        minus the slope left of it; left of 1 the slope is p*s_m."""
        rng = random.Random(23)
        for p in (2, 3, 5):
            for _ in range(100):
                f = gen_circle(rng, p)
                starts = [F(1), *f.kinks]
                left = [p * f.slopes[-1], *f.slopes[:-1]]
                table = {t: r - l for t, l, r in zip(starts, left, f.slopes) if r != l}
                assert dict(divisor_of(f).entries) == table

    def test_conservation_random(self):
        rng = random.Random(17)
        for p in (2, 3, 5):
            for _ in range(300):
                f = gen_circle(rng, p)
                d = divisor_of(f)
                assert d.degree() == 0
                assert d.chi() == 0

    @pytest.mark.parametrize("p", [2 ** 61 - 1, 4194301])
    def test_gen_circle_at_large_primes(self, p):
        # the interior kinks come from about p**3 grid points, more than
        # sys.maxsize, so len() of their range overflows
        drawn = 0
        for seed in range(20):
            f = gen_circle(random.Random(seed), p)
            bounds = (F(1), *f.kinks, F(p))
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
            drawn += max(len(f.kinks) - 1, 0)
            d = divisor_of(f)
            assert d.degree() == 0 and d.chi() == 0
        assert drawn

    def test_additive_under_times(self):
        rng = random.Random(19)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            f, g = gen_circle(rng, p), gen_circle(rng, p)
            assert divisor_of(circle_times(f, g)) == divisor_of(f) + divisor_of(g)


class TestDivisorBasics:
    def test_degree_sum(self):
        d = divisor(2, {F(1): F(1), F(3, 2): F(1, 2)})
        assert d.degree() == F(7, 4)

    def test_empty_degree(self):
        assert divisor(2, {}).degree() == 0

    def test_chi_example(self):
        d = divisor(5, {F(1): F(7, 5)})
        assert d.chi() == 3

    def test_chi_p2_trivial(self):
        assert divisor(2, {F(1): F(7, 4), F(5, 4): F(-3)}).chi() == 0

    def test_points_normalized_and_merged(self):
        d = divisor(3, {F(6): F(1), F(2): F(1, 3)})  # 6 -> 6/3 = 2
        assert d.support == (F(2),)
        assert d.coeff(2) == F(4, 3)

    def test_pairs_checked_one_by_one(self):
        with pytest.raises(ValueError, match=r"^coefficient 1/2 is not in Z\[1/3\]$"):
            divisor(3, [(F(2), F(1, 2)), (F(2), F(1, 2))])
        assert divisor(3, [(F(2), F(1, 3)), (F(6), F(2, 3))]) == divisor(3, {F(2): F(1)})

    def test_invariants_computed_once_and_kept_out_of_eq(self, monkeypatch):
        d = divisor(5, {F(1): F(7, 5), F(2): F(-1)})
        fresh = divisor(5, {F(1): F(7, 5), F(2): F(-1)})
        residues = []
        monkeypatch.setattr(circle, "chi", lambda c, p: residues.append(c) or 0)
        assert (d.degree(), d.chi(), d.degree(), d.chi()) == (F(-3, 5), 0, F(-3, 5), 0)
        assert len(residues) == 2  # one residue per entry, on the first chi() only
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)

    def test_group_ops(self):
        d = divisor(3, {F(2): F(1)})
        e = divisor(3, {F(2): F(-1), F(1): F(1, 3)})
        assert (d + e).support == (F(1),)
        assert (d - d).is_empty


class TestPrincipality:
    def test_empty_divisor(self):
        rep = is_principal(divisor(3, {}))
        assert rep.principal and rep.witness.is_constant

    def test_chi_obstruction(self):
        d = divisor(3, {F(1): F(2), F(2): F(-1)})
        assert d.degree() == 0
        rep = is_principal(d)
        assert not rep.principal
        assert rep.obstructions == ("chi",)

    def test_degree_obstruction(self):
        d = divisor(3, {F(2): F(2)})
        rep = is_principal(d)
        assert rep.obstructions == ("degree",)

    def test_p2_all_deg0_divisors_principal(self):
        rng = random.Random(23)
        for _ in range(300):
            d = gen_divisor_deg0_chi0(rng, 2)
            rep = is_principal(d)
            assert rep.principal
            assert divisor_of(rep.witness) == d

    def test_witness_roundtrip_all_primes(self):
        rng = random.Random(29)
        for p in (2, 3, 5, 7):
            for _ in range(150):
                d = gen_divisor_deg0_chi0(rng, p)
                rep = is_principal(d)
                assert rep.principal
                assert divisor_of(rep.witness) == d
                assert rep.witness.anchor == 0

    def test_chi_nonzero_rejected(self):
        rng = random.Random(31)
        for p in (3, 5, 7):
            for _ in range(150):
                d = gen_divisor_chi_nonzero(rng, p)
                rep = is_principal(d)
                assert not rep.principal
                assert "chi" in rep.obstructions


class TestJacobian:
    def test_difference_with_self(self):
        d = gen_divisor(random.Random(1), 5)
        assert jacobian_class(d - d) == (0, 0)

    def test_class_additive(self):
        rng = random.Random(37)
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            d, e = gen_divisor(rng, p), gen_divisor(rng, p)
            cd, ce, cs = jacobian_class(d), jacobian_class(e), jacobian_class(d + e)
            assert cs == (cd[0] + ce[0], (cd[1] + ce[1]) % (p - 1))

    def test_classes_equal_iff_difference_principal(self):
        rng = random.Random(47)
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            d, e = gen_divisor(rng, p), gen_divisor(rng, p)
            same_class = jacobian_class(d) == jacobian_class(e)
            assert is_principal(d - e).principal == same_class

    def test_p5_all_classes_realized(self):
        reps = [class_representative(5, c) for c in range(4)]
        classes = {jacobian_class(r) for r in reps}
        assert classes == {(0, c) for c in range(4)}
        for i in range(4):
            for j in range(4):
                diff = reps[i] - reps[j]
                rep = is_principal(diff)
                if i == j:
                    assert rep.principal
                else:
                    assert not rep.principal and rep.obstructions == ("chi",)


class TestRecut:
    def test_trivial_cut(self):
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        g = from_cut(3, 1, [F(2)], [F(1, 3), F(-1, 3)], 0)
        assert g.pa == f.pa

    def test_shifted_window_same_divisor(self):
        # same function as above, laid out on [3/2, 9/2): arcs
        # [3/2,2] slope 1/3, [2,3] slope -1/3, [3,9/2] slope 1/9 (folded copy)
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        g = from_cut(3, F(3, 2),
                     [F(2), F(3)],
                     [F(1, 3), F(-1, 3), F(1, 9)],
                     f.eval_at(F(3, 2)))
        assert g.pa == f.pa
        assert divisor_of(g) == divisor_of(f)

    def test_kink_at_wrap_image(self):
        # a kink placed exactly at position p in the cut window lands on the
        # wrap class and must reproduce the implicit encoding
        f = circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)
        w = from_cut(3, F(2), [F(3)], [F(-1, 3), F(1, 9)], f.eval_at(2))
        assert w.pa == f.pa

    def test_bad_cut_closure(self):
        with pytest.raises(ClosureError, match=r"value\(p\) - value\(1\) = 1$"):
            from_cut(3, F(3, 2), [F(2)], [F(1, 3), F(1, 3)], 0)

    def test_open_cut_names_its_own_remainder(self):
        # the folded function keeps the cut's remainder cut(p*start) - cut(start)
        rng = random.Random(47)
        seen = 0
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            start = F(rng.randint(p * p, p ** 3 - 1), p * p)
            kinks = sorted({start * F(rng.randint(p * p + 1, p ** 3 - 1), p * p)
                            for _ in range(rng.randint(0, 3))})
            slopes = [F(rng.randint(-4, 4), p ** rng.randint(0, 2)) for _ in range(len(kinks) + 1)]
            cut = piecewise_affine(SlopeGroup(p), start, p * start, 0, kinks, slopes)
            remainder = cut.eval_at(p * start) - cut.anchor
            if remainder == 0:
                continue
            seen += 1
            with pytest.raises(ClosureError) as err:
                from_cut(p, start, kinks, slopes, 0)
            assert str(err.value) == f"slopes do not close up: value(p) - value(1) = {remainder}"
        assert seen > 200

    def test_cut_slope_count_rejected(self):
        with pytest.raises(ValueError, match="one slope per"):
            from_cut(3, F(3, 2), [F(2)], [F(0)], 0)

    def test_cut_kinks_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            from_cut(3, F(3, 2), [F(3), F(2)], [F(0), F(0), F(0)], 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            from_cut(3, F(3, 2), [F(2), F(2)], [F(0), F(0), F(0)], 0)

    @pytest.mark.parametrize("kink", [F(1), F(3, 2), F(9, 2), F(5)])
    def test_cut_kink_outside_window_rejected(self, kink):
        with pytest.raises(ValueError, match="interior to the"):
            from_cut(3, F(3, 2), [kink], [F(0), F(0)], 0)

    def test_cut_slope_outside_ring_rejected(self):
        # the arcs [3/2, 2], [2, 3], [3, 9/2] close up, but 1/2 is not in Z[1/3]
        with pytest.raises(ValueError, match=r"not in Z\[1/3\]"):
            from_cut(3, F(3, 2), [F(2), F(3)], [F(1, 2), F(-1, 4), F(0)], 0)


class TestMixedPrimes:
    def test_join_and_times_reject_mixed_primes(self):
        f = circle_function(2, [], [0], 0)
        g = circle_function(3, [], [0], 0)
        for op in (circle_join, circle_times):
            with pytest.raises(ValueError):
                op(f, g)
            with pytest.raises(ValueError):
                op(g, f)


def test_join_and_times_stay_closed():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        f, g = gen_circle(rng, p), gen_circle(rng, p)
        j, t = circle_join(f, g), circle_times(f, g)
        for h in (j, t):
            assert h.pa.eval_at(1) == h.pa.eval_at(p)


# ----------------------------------------------------- the Fraction formulas
# The circle layer sums on integers over one common denominator.  These are
# the same computations as chains of Fraction + - *, kept as oracles.

def fraction_closure(p, kinks, slopes):
    """value(p) - value(1): the rise of every arc summed as Fractions."""
    bounds = [F(1), *map(F, kinks), F(p)]
    return sum((F(s) * (b - a) for s, a, b in zip(slopes, bounds, bounds[1:])), F(0))


def fraction_degree(d):
    return sum((rep * c for rep, c in d.entries), F(0))


def fraction_divisor_table(f):
    s = f.slopes
    table = {k: right - left for k, left, right in zip(f.kinks, s, s[1:])}
    table[F(1)] = s[0] - f.p * s[-1]
    return tuple(sorted((rep, c) for rep, c in table.items() if c))


def fraction_witness_slopes(d):
    p = d.p
    wrap = d.coeff(1)
    interior = [(rep, c) for rep, c in d.entries if rep != 1]
    slopes = [-(wrap + p * sum(c for _, c in interior)) / (p - 1)]
    for _, c in interior:
        slopes.append(slopes[-1] + c)
    return [rep for rep, _ in interior], slopes


def fraction_normalize(p, lam):
    lam = F(lam)
    while lam < 1:
        lam *= p
    while lam >= p:
        lam /= p
    return lam


BIG_PRIME = 2 ** 61 - 1


def drawn_kinks(rng, p, m):
    """m distinct sorted kinks j/p**2 in (1, p), drawn with randint."""
    return sorted({F(rng.randint(p ** 2 + 1, p ** 3 - 1), p ** 2) for _ in range(m)})


def off_domain_points(rng, p):
    """Positive rationals at many p-power scalings, most of them outside [1, p)."""
    return [F(rng.randint(1, 50), rng.randint(1, 12)) * F(p) ** rng.randint(-3, 3)
            for _ in range(4)]


class TestIntegerSums:
    """The integer sums of circle_function, Divisor.degree, divisor_of,
    is_principal, normalize_point and divisor equal the Fraction formulas."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7, BIG_PRIME]))
    def test_integer_sums_match_fraction_formulas(self, seed, p):
        rng = random.Random(seed)

        # closure: a drawn slope list closes, or is refused quoting its sum
        kinks = drawn_kinks(rng, p, rng.randint(0, 3))
        slopes = [F(rng.randint(-9, 9), p ** rng.randint(0, 2)) for _ in range(len(kinks) + 1)]
        closure = fraction_closure(p, kinks, slopes)
        if closure:
            with pytest.raises(ClosureError) as refused:
                circle_function(p, kinks, slopes, 0)
            assert str(refused.value) == ("slopes do not close up: value(p) - value(1) = "
                                          f"{_quote(closure)}")
        else:
            assert circle_function(p, kinks, slopes, 0).eval_at(p) == 0

        f = gen_circle(rng, p)
        assert fraction_closure(p, f.kinks, f.slopes) == 0
        d0 = divisor_of(f)
        assert d0.entries == fraction_divisor_table(f)

        # points outside [1, p), repeated points, and the drawn divisors
        points = off_domain_points(rng, p)
        for lam in points:
            rep = normalize_point(p, lam)
            assert rep == fraction_normalize(p, lam)
            assert normalize_point(p, rep) is rep
        pairs = [(lam, F(rng.randint(-9, 9), p ** rng.randint(0, 2))) for lam in points * 2]
        merged = {}
        for lam, c in pairs:
            rep = fraction_normalize(p, lam)
            merged[rep] = merged.get(rep, F(0)) + c
        d1 = divisor(p, pairs)
        assert d1.entries == tuple(sorted((rep, c) for rep, c in merged.items() if c))
        d2 = gen_divisor(rng, p)
        d0 += gen_divisor_deg0_chi0(rng, p)

        for d in (d0, d1, d2, d0 - d1):
            assert d.degree() == fraction_degree(d)
            report = is_principal(d)
            if report.principal:
                reps, slopes = fraction_witness_slopes(d)
                assert report.witness == circle_function(p, reps, slopes, 0)
                assert divisor_of(report.witness) == d
        assert is_principal(d0).principal


def negated(f):
    """-f: the anchor and every slope negated; the bottom function is its own."""
    if f.is_bottom:
        return f
    return piecewise_affine(f.group, f.lo, f.hi, -f.anchor, f.kinks, [-s for s in f.slopes])


def fraction_values(f, ends):
    """f's values at ends, lo first, walked piece by piece in Fractions."""
    values = [f.anchor]
    for s, a, b in zip(f.slopes, ends, ends[1:]):
        values.append(values[-1] + s * (b - a))
    return values


class TestForms:
    """The integer form of a function (`PiecewiseAffine._form` and
    `_values`) and of a divisor (`Divisor._form`) spell the value they were
    computed from."""

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs(), st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7, BIG_PRIME]))
    def test_forms_spell_their_values(self, pair, seed, p):
        rng = random.Random(seed)
        f, g = pair
        c1, c2 = gen_circle(rng, p), gen_circle(rng, p)
        functions = [f, g, pointwise_times(f, g), c1.pa, c2.pa, circle_times(c1, c2).pa]
        for fn in functions + list(map(negated, functions)):
            dx, xs, ds, ss = fn._form
            ends = (fn.lo, *fn.kinks) if fn.hi is None else (fn.lo, *fn.kinks, fn.hi)
            assert [F(x, dx) for x in xs] == list(ends)
            assert [F(s, ds) for s in ss] == list(fn.slopes)
            if fn.is_bottom:
                continue
            _, den, values = fn._values
            assert [F(v, den) for v in values] == fraction_values(fn, ends)
            if fn.hi is not None:
                assert F(values[-1], den) == fn.eval_at(fn.hi)

        d1, d2 = gen_divisor(rng, p), divisor_of(c1)
        for d in (d1, d2, d1 + d2, -d1, -d2, d1 - d2):
            dr, big_r, dc, big_c = d._form
            assert [F(r, dr) for r in big_r] == list(d.support)
            assert [F(c, dc) for c in big_c] == [c for _, c in d.entries]
            assert [r == dr for r in big_r] == [rep == 1 for rep in d.support]
