"""Stalk algebras of local data at a point.

A germ records the value of a piecewise-affine function together with its
scaled one-sided slopes (x, h+, h-); a lex element is the variant (x, h)
ordered lexicographically.  Both carry an idempotent semiring structure in
which addition is the max of germs and multiplication is their sum, plus a
distinguished bottom element playing -inf.

The four operations work on the fields' integer ratios: the joins compare
two values a/b and c/d as a*d against c*b, and each sum of a product is one
`_fraction(a*d + c*b, b*d)`, with no Fraction arithmetic on the way.
"""

from dataclasses import dataclass
from fractions import Fraction

from .scalars import _ZERO, _fraction, frac_to_str

__all__ = [
    "GERM_BOTTOM",
    "GERM_ONE",
    "Germ",
    "LEX_BOTTOM",
    "LEX_ONE",
    "LexElement",
    "eval_char",
    "eval_char_lex",
    "germ_is_convex",
    "germ_join",
    "germ_mul",
    "lex_join",
    "lex_mul",
]


@dataclass(frozen=True, slots=True)
class Germ:
    """Triple (value, right slope, left slope); all None encodes bottom."""

    x: Fraction | None
    hplus: Fraction | None
    hminus: Fraction | None

    @property
    def is_bottom(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_bottom:
            return "Germ(bottom)"
        return f"Germ({frac_to_str(self.x)}, {frac_to_str(self.hplus)}, {frac_to_str(self.hminus)})"


GERM_BOTTOM = Germ(None, None, None)
GERM_ONE = Germ(_ZERO, _ZERO, _ZERO)


def _sum(q: Fraction, r: Fraction) -> Fraction:
    """q + r as one Fraction of the cross-multiplied integer ratios."""
    a, b = q.as_integer_ratio()
    c, d = r.as_integer_ratio()
    return _fraction(a * d + c * b, b * d)


def _order(q: Fraction, r: Fraction) -> int:
    """The sign of q - r, from the cross-multiplied integer ratios."""
    a, b = q.as_integer_ratio()
    c, d = r.as_integer_ratio()
    return (a * d > c * b) - (a * d < c * b)


def germ_join(g: Germ, h: Germ) -> Germ:
    """Max of two germs: larger value wins; on a tie the right slopes join
    with max and the left slopes with min."""
    if g.is_bottom:
        return h
    if h.is_bottom:
        return g
    order = _order(g.x, h.x)
    if order:
        return g if order > 0 else h
    return Germ(g.x, max(g.hplus, h.hplus), min(g.hminus, h.hminus))


def germ_mul(g: Germ, h: Germ) -> Germ:
    """Sum of two germs, componentwise; bottom is absorbing."""
    if g.is_bottom or h.is_bottom:
        return GERM_BOTTOM
    return Germ(_sum(g.x, h.x), _sum(g.hplus, h.hplus), _sum(g.hminus, h.hminus))


def germ_is_convex(g: Germ) -> bool:
    return g.is_bottom or g.hplus >= g.hminus


def eval_char(g: Germ) -> Fraction | None:
    """Evaluation character g -> value, a semiring map onto the max-plus line.

    It is in fact the only such map out of the germ algebra (the slope data
    cannot survive into a totally ordered value line); that uniqueness is a
    statement about all homomorphisms and is recorded here rather than
    tested.
    """
    return g.x


@dataclass(frozen=True, slots=True)
class LexElement:
    """Pair (x, h) with the lexicographic order; both None encodes bottom."""

    x: Fraction | None
    h: Fraction | None

    @property
    def is_bottom(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_bottom:
            return "Lex(bottom)"
        return f"Lex({frac_to_str(self.x)}, {frac_to_str(self.h)})"


LEX_BOTTOM = LexElement(None, None)
LEX_ONE = LexElement(_ZERO, _ZERO)


def lex_join(a: LexElement, b: LexElement) -> LexElement:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    order = _order(a.x, b.x)
    if order:
        return a if order > 0 else b
    return LexElement(a.x, max(a.h, b.h))


def lex_mul(a: LexElement, b: LexElement) -> LexElement:
    if a.is_bottom or b.is_bottom:
        return LEX_BOTTOM
    return LexElement(_sum(a.x, b.x), _sum(a.h, b.h))


def eval_char_lex(a: LexElement) -> Fraction | None:
    return a.x
