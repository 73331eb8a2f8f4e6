import random
from collections import Counter
from fractions import Fraction as F

import pytest

from tropcircle.circle import circle_bottom, circle_function, circle_times, divisor, divisor_of, is_principal
from tropcircle.riemann_roch import (
    dim_filtration, dim_r, member_h0, norm_p, rr_check, rr_tolerance,
)
from tropcircle.verify import gen_circle, gen_divisor

from dim_oracle import max_dim_compositions, max_dim_minimal, oracle_budget
from lp_feasibility import feasible


# frozen level dimensions, confirmed by the brute-force oracle (see
# test_acceptance.py::test_criterion_8 for the systematic cross-check)
SEQ_P2_WRAP1 = (1, 1, 3, 7, 15, 31, 63, 127, 255)        # D = {1 -> 1}, p = 2
SEQ_P3_WRAP_THIRD = (1, 1, 1, 7, 25, 79, 241, 727, 2185)  # D = {1 -> 1/3}, p = 3
SEQ_P2_INTERIOR = (1, 2, 5, 11, 23, 47, 95, 191)          # D = {3/2 -> 1}, p = 2


def two_arc_example():
    return circle_function(3, [F(2)], [F(1, 3), F(-1, 3)], 0)


class TestNorm:
    def test_constant(self):
        assert norm_p(circle_function(2, [], [0], 5)) == 0

    def test_two_arc_example(self):
        assert norm_p(two_arc_example()) == 3

    def test_attained_at_left_endpoints(self):
        f = circle_function(2, [F(3, 2)], [F(1, 4), F(-1, 4)], 0)
        assert norm_p(f) == max(F(4, 1), F(4) / F(3, 2))

    def test_bottom_rejected(self):
        with pytest.raises(ValueError):
            norm_p(circle_bottom(3))

    def test_subadditive_under_both_operations(self):
        from tropcircle.circle import circle_join
        rng = random.Random(3)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            f, g = gen_circle(rng, p), gen_circle(rng, p)
            bound = max(norm_p(f), norm_p(g))
            assert norm_p(circle_times(f, g)) <= bound
            assert norm_p(circle_join(f, g)) <= bound


class TestMembership:
    def test_constant_iff_effective(self):
        const = circle_function(3, [], [0], 2)
        assert member_h0(const, divisor(3, {F(2): F(1, 3)}))
        assert not member_h0(const, divisor(3, {F(2): F(-1, 3)}))

    def test_function_in_minus_own_divisor(self):
        f = two_arc_example()
        assert member_h0(f, -divisor_of(f))

    def test_two_arc_not_global_section(self):
        assert not member_h0(two_arc_example(), divisor(3, {}))

    def test_bottom_always_belongs(self):
        assert member_h0(circle_bottom(5), divisor(5, {F(2): F(-3)}))

    def test_closed_under_join_and_constants(self):
        from tropcircle.circle import circle_join
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            f, g, d = gen_circle(rng, p), gen_circle(rng, p), gen_divisor(rng, p)
            if member_h0(f, d) and member_h0(g, d):
                assert member_h0(circle_join(f, g), d)
                shifted = circle_function(p, f.kinks, f.slopes, f.anchor + 7)
                assert member_h0(shifted, d)

    def test_principal_translation(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            f, w, d = gen_circle(rng, p), gen_circle(rng, p), gen_divisor(rng, p)
            prin = divisor_of(w)
            assert member_h0(f, d) == member_h0(circle_times(f, w), d - prin)


class TestDimFiltration:
    def test_zero_divisor_constants_only(self):
        d = divisor(2, {})
        assert [dim_filtration(d, n) for n in range(4)] == [1, 1, 1, 1]

    def test_negative_degree_empty(self):
        d = divisor(2, {F(1): F(-1)})
        assert [dim_filtration(d, n) for n in range(4)] == [0, 0, 0, 0]

    def test_frozen_p2_sequence(self):
        d = divisor(2, {F(1): F(1)})
        assert tuple(dim_filtration(d, n) for n in range(9)) == SEQ_P2_WRAP1

    def test_frozen_p3_sequence(self):
        d = divisor(3, {F(1): F(1, 3)})
        assert tuple(dim_filtration(d, n) for n in range(9)) == SEQ_P3_WRAP_THIRD

    def test_frozen_interior_sequence(self):
        d = divisor(2, {F(3, 2): F(1)})
        assert tuple(dim_filtration(d, n) for n in range(8)) == SEQ_P2_INTERIOR

    def test_monotone_in_divisor(self):
        small = divisor(2, {F(1): F(1, 2)})
        big = divisor(2, {F(1): F(1), F(3, 2): F(1, 4)})
        for n in range(6):
            assert dim_filtration(small, n) <= dim_filtration(big, n)

    def test_monotone_in_divisor_random(self):
        # enlarging the divisor pointwise can only enlarge every level
        rng = random.Random(43)
        for _ in range(25):
            p = rng.choice((2, 3))
            d = gen_divisor(rng, p, max_pts=1)
            bump = divisor(p, {F(rng.randint(p ** 2, p ** 3 - 1), p ** 2):
                               F(rng.randint(1, 3), p)})
            bigger = d + bump
            for n in range(3):
                assert dim_filtration(d, n) <= dim_filtration(bigger, n)

    def test_monotone_in_level(self):
        rng = random.Random(11)
        for _ in range(20):
            d = gen_divisor(rng, rng.choice((2, 3)), max_pts=2)
            dims = [dim_filtration(d, n) for n in range(5)]
            assert dims == sorted(dims)

    def test_principal_divisor_levels(self):
        # witness slopes -1/2, 1/4 have norm 4 at the wrap, so the one-param
        # family enters the filtration at n = 2
        d = divisor(2, {F(4, 3): F(3, 4), F(1): F(-1)})
        assert is_principal(d).principal
        assert [dim_filtration(d, n) for n in range(5)] == [0, 0, 1, 1, 1]


class TestDimR:
    def test_zero_divisor(self):
        rep = dim_r(divisor(2, {}), 5)
        assert rep.dims == (1,) * 6
        assert rep.limit_estimate == F(1, 32)

    def test_p2_wrap(self):
        rep = dim_r(divisor(2, {F(1): F(1)}), 6)
        assert [norm for _, _, norm in rep.levels][:4] == [F(1), F(1, 2), F(3, 4), F(7, 8)]
        assert abs(rep.limit_estimate - 1) <= rr_tolerance(F(1), 2, 6)

    def test_negative_degree(self):
        rep = dim_r(divisor(3, {F(2): F(-1, 3)}), 4)
        assert rep.dims == (0,) * 5
        assert rep.limit_estimate == 0

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            dim_r(divisor(2, {}), 1)


class TestRRCheck:
    def test_zero_divisor(self):
        rep = rr_check(divisor(5, {}), 4)
        assert rep.ok and rep.difference == 0

    def test_p2_wrap(self):
        rep = rr_check(divisor(2, {F(1): F(1)}), 6)
        assert rep.ok
        assert rep.report_neg.dims == (0,) * 7
        assert abs(rep.difference - 1) <= rep.tolerance

    def test_deg0_chi0_balances(self):
        # principal divisors of small one-kink functions: both sides of the
        # formula are forced to zero
        for t in (F(1, 2), F(-1, 2), F(1, 4), F(2)):
            f = circle_function(2, [F(3, 2)], [t, -t], 0)
            d = divisor_of(f)
            assert d.degree() == 0 and d.chi() == 0
            rep = rr_check(d, 4)
            assert rep.ok and rep.difference == 0


class TestOracleAgreement:
    def test_oracle_confirms_small_levels(self):
        fixtures = [
            divisor(2, {F(1): F(1)}),
            divisor(3, {F(1): F(1, 3)}),
            divisor(2, {F(3, 2): F(1)}),
            divisor(2, {F(1): F(1), F(3, 2): F(-1, 2)}),
            divisor(3, {F(1): F(2), F(2): F(-1)}),
        ]
        for d in fixtures:
            b = oracle_budget(d)
            for n in range(5):
                if b * d.p ** n > 200:
                    break
                assert max_dim_minimal(d, n) == dim_filtration(d, n)

    def test_oracle_agrees_on_random_divisors(self):
        # regression net beyond the named fixtures: random small divisors,
        # production search vs the independent enumerator; up to two interior
        # points, so the product over forced-jump assignments is exercised
        rng = random.Random(271)
        checked = 0
        seen = Counter()
        while checked < 120:
            p = rng.choice((2, 3, 5))
            table = {}
            if rng.random() < 0.8:
                table[F(1)] = F(rng.randint(-4, 5), rng.choice((1, 2, p)))
            for _ in range(rng.randint(0, 2)):
                rep = F(rng.randint(p ** 2 + 1, p ** 3 - 1), p ** 2)
                table[rep] = F(rng.randint(-4, 5), rng.choice((1, 2, p)))
            try:
                d = divisor(p, table)
            except ValueError:
                continue
            n = rng.randint(0, 3)
            if oracle_budget(d) * p ** n > 40:
                continue
            assert max_dim_minimal(d, n) == dim_filtration(d, n), (dict(d.entries), n)
            checked += 1
            seen[p] += 1
            seen["interior", sum(rep != 1 for rep, _ in d.entries)] += 1
        assert seen[5] >= 10 and seen["interior", 2] >= 10, seen

    def test_compositions_mode_agrees_on_tiny_budgets(self):
        # the fully exhaustive enumeration validates the minimal-jump
        # normalization used by the faster oracle mode
        fixtures = [
            divisor(2, {F(1): F(1)}),
            divisor(2, {F(3, 2): F(1)}),
            divisor(3, {F(1): F(1, 3)}),
            divisor(2, {F(5, 4): F(1, 2), F(1): F(1, 2)}),
        ]
        for d in fixtures:
            b = oracle_budget(d)
            for n in range(4):
                if b * d.p ** n > 12:
                    break
                assert max_dim_compositions(d, n) == max_dim_minimal(d, n)
                assert max_dim_compositions(d, n) == dim_filtration(d, n)


class TestFeasibilitySolver:
    def test_simple_interval(self):
        # 1 < x < 2 with x = 3/2 forced
        assert feasible([([F(1)], F(3, 2))], [([F(-1)], F(-1), True), ([F(1)], F(2), True)], 1)

    def test_inconsistent_equalities(self):
        assert not feasible([([F(1), F(0)], F(1)), ([F(1), F(0)], F(2))],
                            [], 2)

    def test_strictness_matters(self):
        ineqs_strict = [([F(1)], F(0), True), ([F(-1)], F(0), True)]
        ineqs_loose = [([F(1)], F(0), False), ([F(-1)], F(0), False)]
        assert not feasible([], ineqs_strict, 1)
        assert feasible([], ineqs_loose, 1)

    def test_chain_with_sum(self):
        # 1 < x1 < x2 < x3 < 2 with sum = 9/2: feasible
        eqs = [([F(1)] * 3, F(9, 2))]
        ineqs = [([F(-1), F(0), F(0)], F(-1), True),
                 ([F(1), F(-1), F(0)], F(0), True),
                 ([F(0), F(1), F(-1)], F(0), True),
                 ([F(0), F(0), F(1)], F(2), True)]
        assert feasible(eqs, ineqs, 3)
        # sum = 3 is the infimum of the open region: infeasible
        assert not feasible([([F(1)] * 3, F(3))], ineqs, 3)


def test_splitting_a_jump_preserves_feasibility():
    """A stratum with a non-minimal movable jump embeds into one with more
    kinks: checked directly on the raw position systems."""
    rng = random.Random(17)
    p = 2
    for _ in range(60):
        k = rng.randint(1, 3)
        jumps = [F(rng.randint(1, 3), 4) for _ in range(k)]
        rhs = F(rng.randint(1, 40), 16)
        def system(coeffs):
            m = len(coeffs)
            ineqs = []
            row = [F(0)] * m
            row[0] = F(-1)
            ineqs.append((row, F(-1), True))
            for i in range(m - 1):
                r = [F(0)] * m
                r[i], r[i + 1] = F(1), F(-1)
                ineqs.append((r, F(0), True))
            last = [F(0)] * m
            last[-1] = F(1)
            ineqs.append((last, F(p), True))
            return feasible([(list(coeffs), rhs)], ineqs, m)
        if not system(jumps):
            continue
        for i, c in enumerate(jumps):
            if c > F(1, 4):
                split = jumps[:i] + [c - F(1, 4), F(1, 4)] + jumps[i + 1:]
                assert system(split)
