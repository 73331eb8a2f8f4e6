import random
import time
from collections import Counter
from fractions import Fraction as F
from math import ceil, floor, prod

import pytest
from hypothesis import given, settings, strategies as st

from tropcircle.circle import circle_function, circle_times, divisor, divisor_of, is_principal
from tropcircle.riemann_roch import (
    _assignment_best, _level_box, dim_filtration, dim_r, member_h0, norm_p, rr_check, rr_tolerance,
)
from tropcircle.verify import gen_circle, gen_divisor, gen_divisor_chi_nonzero, gen_divisor_deg0_chi0

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
            norm_p(circle_function(3, (), None, None))

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

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError, match="mixed primes"):
            member_h0(circle_function(2, [], [0], 0), divisor(3, {F(2): F(1)}))

    def test_function_in_minus_own_divisor(self):
        f = two_arc_example()
        assert member_h0(f, -divisor_of(f))

    def test_two_arc_not_global_section(self):
        assert not member_h0(two_arc_example(), divisor(3, {}))

    def test_bottom_always_belongs(self):
        assert member_h0(circle_function(5, (), None, None), divisor(5, {F(2): F(-3)}))

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

    def test_enumeration_cap(self):
        # the first two support points alone give 9012 * 7510 assignments,
        # beyond the 2,000,000 cap
        d = divisor(2, {F(5, 4): F(4096), F(3, 2): F(4096), F(7, 4): F(-4096)})
        with pytest.raises(ValueError, match="too large"):
            dim_filtration(d, 0)

    def test_empty_box_is_dimension_0_before_the_cap(self):
        # principal, but its witness has norm 625/24 > 5**2: at n = 2 the
        # first range is huge and a later one empty, so the level is 0; at
        # n = 3 every range is nonempty and the box is over the cap
        d = divisor(5, {F(1): F(209), F(79, 25): F(6, 25), F(17, 5): F(29, 5),
                        F(24, 5): F(-5976, 125)})
        assert [dim_filtration(d, n) for n in range(3)] == [0, 0, 0]
        assert dim_r(d, 2).dims == (0, 0, 0)
        with pytest.raises(ValueError, match="level n=3 "):
            dim_filtration(d, 3)

    @pytest.mark.parametrize("n", [1.5, 2.5, True])
    def test_level_must_be_an_int(self, n):
        # a float level made p**n a float, and True was read as level 1
        with pytest.raises(ValueError, match="^n must be an integer"):
            dim_filtration(divisor(2, {F(1): F(1)}), n)

    def test_box_side_beyond_maxsize_raises_value_error(self):
        # at n=40 the forced jump at 2 ranges over about 3**40 > sys.maxsize
        # steps, too many for len(range)
        with pytest.raises(ValueError, match="level n=40"):
            dim_filtration(divisor(3, {F(2): F(1)}), 40)


LAW_GENERATORS = {
    "gen_divisor": gen_divisor,
    "gen_divisor_deg0_chi0": gen_divisor_deg0_chi0,
    "gen_divisor_chi_nonzero": gen_divisor_chi_nonzero,
}


def forced_box(d, n):
    """(rep, least, greatest) forced jump at each interior support point, in
    lattice steps p**(-n), bounded by the order-sum budget."""
    scale = d.p ** n
    interior = [(rep, c) for rep, c in d.entries if rep != 1]
    wrap_room = max(d.coeff(1), 0)
    return [(rep, -floor(c * scale),
             floor((sum(r * max(v, 0) for r, v in interior if r != rep) + wrap_room)
                   / rep * scale))
            for rep, c in interior]


class TestLevelLaw:
    """The evidence for a closed-form search: every level whose forced-jump
    box is empty or small agrees with the least assignment, and with the
    exact law of its degree."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.sampled_from(sorted(LAW_GENERATORS)),
           st.booleans(), st.integers(0, 2 ** 32))
    def test_levels_follow_the_least_assignment_and_the_degree_law(self, p, gen, negate, seed):
        if gen == "gen_divisor_chi_nonzero" and p == 2:
            gen = "gen_divisor_deg0_chi0"  # the residue group at p = 2 is trivial
        d = LAW_GENERATORS[gen](random.Random(seed), p)
        if negate:
            d = -d
        deg = d.degree()
        principal = is_principal(d)
        for n in range(7):
            box = forced_box(d, n)
            empty = any(lo > hi for _, lo, hi in box)
            if not empty and prod(hi - lo + 1 for _, lo, hi in box) > 3000:
                continue
            dim = dim_filtration(d, n)
            # (a) the least assignment attains the maximum; an empty range gives 0
            w = floor(d.coeff(1) * p ** n)
            assert dim == (0 if empty else _assignment_best(
                p, w, sum(lo for _, lo, _ in box), sum(rep * lo for rep, lo, _ in box)))
            if deg < 0:
                assert dim == 0
            elif deg == 0:
                # (b) one constant family once the witness enters the level
                assert dim == int(principal.principal and norm_p(principal.witness) <= p ** n)
            elif deg > 0 and n >= 2:
                # (c) the gap law; it fails at n = 0 and 1 (ROADMAP)
                assert 0 <= deg * p ** n - dim <= p - 1


BIG_PRIME = 2 ** 61 - 1


def fraction_kernel(p, w, k, r):
    """`_assignment_best` as it was first written, on a Fraction alpha."""
    alpha = F(r - p * k, p - 1)
    best = min(ceil(w - r) - 1, w - p * k - (p - 1) * (floor(alpha) + 1))
    if best >= 2:
        return best
    return int((p - 1) * (ceil(alpha) - 1) + p * k + p <= w + (alpha.denominator == 1))


@st.composite
def kernel_cases(draw):
    """(p, w, k, r): w and k of both signs, w near a multiple of p so that
    both of the kernel's branches are reached for a large p too, and r an
    int or a Fraction over a power of p or another denominator."""
    p = draw(st.sampled_from([2, 3, 5, 7, BIG_PRIME]))
    w = draw(st.integers(-3, 3)) * p + draw(st.integers(-40, 40))
    k = draw(st.integers(-6, 6))
    r = draw(st.one_of(
        st.integers(-60, 60),
        st.builds(F, st.integers(-600, 600), st.sampled_from([p, p ** 2, p ** 5, 3, 6, 10, 49])),
        st.builds(F, st.integers(-3, 3).map(lambda i: i * p * p), st.sampled_from([1, p - 1]))))
    return p, w, k, r


class TestAssignmentKernel:
    @settings(max_examples=2000, deadline=None)
    @given(kernel_cases())
    def test_integer_kernel_matches_the_fraction_formula(self, case):
        best = _assignment_best(*case)
        assert type(best) is int and best == fraction_kernel(*case)


@st.composite
def level_cases(draw):
    """(d, n): a divisor of up to four entries, with or without the wrap
    point, coefficients of either sign with dens up to p**10 (past p**n, so
    most d_i * p**n are not integers), and a level n in 0..8.  Large
    negative coefficients leave a forced jump no room: an empty box."""
    p = draw(st.sampled_from([2, 3, 5, 7, BIG_PRIME]))
    point = st.one_of(st.just(F(1)), st.integers(p ** 2, p ** 3 - 1).map(lambda i: F(i, p ** 2)))
    coeff = st.builds(lambda num, k: F(num, p ** k),
                      st.integers(-60, 60).filter(bool), st.integers(0, 10))
    return divisor(p, draw(st.lists(st.tuples(point, coeff), max_size=4))), draw(st.integers(0, 8))


def thousand_point_divisor():
    """p = 2: 2 at the wrap point and -1/1024 at 1 + i/1024 for i = 1..1000.
    Level 0 is one assignment; level 1 has 2 or 3 steps at every point."""
    return divisor(2, {F(1): F(2), **{1 + F(i, 1024): F(-1, 1024) for i in range(1, 1001)}})


class TestLevelBox:
    @settings(max_examples=300, deadline=None)
    @given(level_cases())
    def test_integer_box_matches_fraction_formulas(self, case):
        # forced_box and the wrap floor are the Fraction formulas the search
        # used before its set-up ran on integers
        d, n = case
        w, interior, ranges = _level_box(d, n)
        assert w == floor(d.coeff(1) * d.p ** n)
        assert interior == [(rep, c) for rep, c in d.entries if rep != 1]
        assert ([(steps.start, steps.stop - 1) for steps in ranges]
                == [(lo, hi) for _, lo, hi in forced_box(d, n)])

    def test_set_up_is_linear_in_the_support(self):
        # with a per-point budget sum, level 0 took seconds
        d = thousand_point_divisor()
        start = time.perf_counter()
        assert dim_filtration(d, 0) == 0
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^support enumeration too large: level n=1 has "
                                             "more than 2,000,000 forced-jump assignments$"):
            dim_filtration(d, 1)
        assert time.perf_counter() - start < 1.0


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

    @pytest.mark.parametrize("n_max", [1.5, 2.5, True])
    def test_n_max_must_be_an_int(self, n_max):
        with pytest.raises(ValueError, match="^n_max must be an integer"):
            dim_r(divisor(2, {F(1): F(1)}), n_max)

    def test_largest_level_tried_first(self):
        # levels from n=14 up exceed the cap; the error names n_max, so no
        # smaller level was enumerated first
        with pytest.raises(ValueError, match="level n=40 "):
            dim_r(divisor(3, {F(2): F(1)}), 40)


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
        # each of these levels has an assignment whose single kink lands on
        # a support point
        collisions = [
            (divisor(2, {F(7, 4): F(1, 4)}), 2, 1),
            (divisor(3, {F(5, 3): F(3)}), 0, 3),
            (divisor(3, {F(5, 3): F(3)}), 1, 13),
        ]
        for d, n, dim in collisions:
            assert max_dim_minimal(d, n) == dim_filtration(d, n) == dim

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
