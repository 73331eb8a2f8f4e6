from dataclasses import replace
from fractions import Fraction as F

from hypothesis import example, given, strategies as st

from tropcircle.germs import (
    GERM_BOTTOM, GERM_ONE, Germ, LEX_BOTTOM, LexElement,
    eval_char, eval_char_lex, germ_is_convex, germ_join, germ_mul,
    lex_join, lex_mul,
)
from tropcircle.scalars import rmax_join, rmax_times
from tropcircle.verify import gen_germ, gen_lex
import random


def G(x, hp, hm):
    return Germ(F(x), F(hp), F(hm))


class TestGermJoin:
    def test_larger_value_wins(self):
        assert germ_join(G(0, 2, 1), G(-1, 5, -5)) == G(0, 2, 1)

    def test_tie_takes_max_right_min_left(self):
        assert germ_join(G(0, 2, 1), G(0, 3, -1)) == G(0, 3, -1)

    def test_bottom_neutral(self):
        g = G(7, 1, 0)
        assert germ_join(g, GERM_BOTTOM) == g
        assert germ_join(GERM_BOTTOM, g) == g


class TestGermMul:
    def test_componentwise(self):
        assert germ_mul(G(1, 2, 0), Germ(F(-3), F(1, 2), F(1, 2))) == \
            Germ(F(-2), F(5, 2), F(1, 2))

    def test_identity(self):
        g = G(4, -1, 3)
        assert germ_mul(GERM_ONE, g) == g

    def test_bottom_absorbing(self):
        assert germ_mul(GERM_BOTTOM, G(1, 1, 1)) == GERM_BOTTOM


class TestLex:
    def test_tie_branch(self):
        assert lex_join(LexElement(F(0), F(1)), LexElement(F(0), F(2))) == LexElement(F(0), F(2))

    def test_lexicographic(self):
        assert lex_join(LexElement(F(1), F(-5)), LexElement(F(0), F(100))) == \
            LexElement(F(1), F(-5))

    def test_mul(self):
        assert lex_mul(LexElement(F(1), F(2)), LexElement(F(3), F(4))) == LexElement(F(4), F(6))

    def test_bottom(self):
        a = LexElement(F(2), F(0))
        assert lex_join(a, LEX_BOTTOM) == a
        assert lex_mul(a, LEX_BOTTOM) == LEX_BOTTOM


class TestEvalChar:
    def test_projection(self):
        assert eval_char(G(7, 1, 0)) == 7
        assert eval_char(GERM_BOTTOM) is None
        assert eval_char_lex(LexElement(F(7), F(1))) == 7

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(500):
            g, h = gen_germ(rng), gen_germ(rng)
            assert eval_char(germ_join(g, h)) == rmax_join(eval_char(g), eval_char(h))
            assert eval_char(germ_mul(g, h)) == rmax_times(eval_char(g), eval_char(h))
            a, b = gen_lex(rng), gen_lex(rng)
            assert eval_char_lex(lex_join(a, b)) == rmax_join(eval_char_lex(a), eval_char_lex(b))
            assert eval_char_lex(lex_mul(a, b)) == rmax_times(eval_char_lex(a), eval_char_lex(b))


def test_convexity_preserved():
    rng = random.Random(11)
    for _ in range(500):
        g, h = gen_germ(rng), gen_germ(rng)
        if germ_is_convex(g) and germ_is_convex(h):
            assert germ_is_convex(germ_join(g, h))
            assert germ_is_convex(germ_mul(g, h))


# the four operations on integer ratios against their Fraction definitions:
# max and min of the fields on a tie, + of the fields in a product
def _join_by_fractions(u, v, tie):
    if u.is_bottom:
        return v
    if v.is_bottom:
        return u
    return u if u.x > v.x else v if v.x > u.x else tie(u, v)


_RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=24)
_GERMS = st.one_of(st.just(GERM_BOTTOM), st.builds(Germ, _RATIONALS, _RATIONALS, _RATIONALS))
_LEXES = st.one_of(st.just(LEX_BOTTOM), st.builds(LexElement, _RATIONALS, _RATIONALS))


@st.composite
def _pairs(draw, elements):
    """Two elements; half the time the second takes the first's x, a tie."""
    u, v = draw(elements), draw(elements)
    if not (u.is_bottom or v.is_bottom) and draw(st.booleans()):
        v = replace(v, x=u.x)
    return u, v


@given(_pairs(_GERMS))
@example((GERM_BOTTOM, G(1, 2, 3)))
@example((Germ(F(-1, 3), F(1, 2), F(-5, 7)), Germ(F(-1, 3), F(3, 4), F(-2, 9))))
@example((Germ(F(-7, 6), F(1, 4), F(0)), Germ(F(-8, 9), F(-3, 10), F(5, 4))))
def test_germ_operations_equal_their_fraction_definitions(pair):
    g, h = pair
    assert germ_join(g, h) == _join_by_fractions(
        g, h, lambda u, v: Germ(u.x, max(u.hplus, v.hplus), min(u.hminus, v.hminus)))
    want = GERM_BOTTOM if g.is_bottom or h.is_bottom else \
        Germ(g.x + h.x, g.hplus + h.hplus, g.hminus + h.hminus)
    got = germ_mul(g, h)
    assert got == want and all(type(q) is F for q in (got.x, got.hplus, got.hminus) if q is not None)


@given(_pairs(_LEXES))
@example((LexElement(F(2, 5), F(1)), LEX_BOTTOM))
@example((LexElement(F(-1, 3), F(1, 2)), LexElement(F(-1, 3), F(-3, 4))))
@example((LexElement(F(-7, 6), F(1, 4)), LexElement(F(-8, 9), F(-3, 10))))
def test_lex_operations_equal_their_fraction_definitions(pair):
    a, b = pair
    assert lex_join(a, b) == _join_by_fractions(a, b, lambda u, v: LexElement(u.x, max(u.h, v.h)))
    want = LEX_BOTTOM if a.is_bottom or b.is_bottom else LexElement(a.x + b.x, a.h + b.h)
    got = lex_mul(a, b)
    assert got == want and all(type(q) is F for q in (got.x, got.h) if q is not None)
