"""Newton polygons and the Legendre transform.

A polygon is the finite set of extreme vertices (x, y) of a convex hull of
down-left quadrants, with x in a rank-one slope group H and y rational.  It
is determined by, and determines, its support function

    ell(lam) = max_j (lam * x_j + y_j)   for lam >= 0,

a convex piecewise-affine function with slopes in H.  The two semiring
operations are pointwise max and pointwise sum of support functions; on
vertices the sum is a Minkowski sum.  The empty polygon is the zero element
(support function constant -inf).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .piecewise import PiecewiseAffine, SlopeGroup, _require_same_group
from .scalars import _rational, _scaled, frac_to_str

__all__ = [
    "NewtonPolygon",
    "ell",
    "from_function",
    "legendre",
    "newton_polygon",
    "poly_join",
    "poly_times",
]


@dataclass(frozen=True)
class NewtonPolygon:
    group: SlopeGroup
    vertices: tuple  # ((x, y) Fraction pairs), reduced form

    @property
    def is_zero(self) -> bool:
        return not self.vertices

    def __repr__(self) -> str:
        if self.is_zero:
            return "NewtonPolygon(zero)"
        return "NewtonPolygon(%s)" % ", ".join(f"({frac_to_str(x)}, {frac_to_str(y)})"
                                               for x, y in self.vertices)


def _hull(xs, ys) -> list:
    """Indices of exactly the vertices (xs[i], ys[i]) that win
    max_j(lam x_j + y_j) on a nonempty open sub-interval of [0, inf), in
    increasing x.  Coordinates are (num, den) pairs as `_scaled` takes them.

    Steps: keep the best y per x, build the strictly concave upper hull
    (ties between chords drop the middle point), then drop leading vertices
    whose winning interval lies in lam <= 0.

    The tests run on the integers X = x*dx and Y = y*dy, where dx and dy are
    the least common multiples of the x and y denominators (`_scaled`).
    That is exact: scaling x by dx > 0 and y by dy > 0 keeps the order of
    the x values and of the y values, and multiplies both sides of the
    chord test (y_b - y_a)(x_v - x_b) <= (y_v - y_b)(x_b - x_a) by dx*dy.

    So the kept vertices have strictly increasing x, and the crossings
    (y_i - y_i+1)/(x_i+1 - x_i) of neighbours, the kinks of the support
    function, are strictly increasing (strict concavity) and > 0 (the
    leading drop); `legendre` relies on both.
    """
    _, big_x = _scaled(xs)
    _, big_y = _scaled(ys)
    best = {}
    for i, (key_x, key_y) in enumerate(zip(big_x, big_y)):
        if key_x not in best or key_y > best[key_x][0]:
            best[key_x] = (key_y, i)
    hull = []  # (X, Y, index), X increasing
    for key_x, (key_y, i) in sorted(best.items()):
        while len(hull) >= 2:
            ax, ay, _ = hull[-2]
            bx, by, _ = hull[-1]
            if (by - ay) * (key_x - bx) <= (key_y - by) * (bx - ax):
                hull.pop()
            else:
                break
        hull.append((key_x, key_y, i))
    # the crossing of hull[i] and hull[i+1] sits at lam = (y_i - y_i+1)/(x_i+1 - x_i);
    # when it is <= 0 vertex i never wins on the open half-line
    start = 0
    while start + 1 < len(hull) and hull[start][1] <= hull[start + 1][1]:
        start += 1
    return [i for _, _, i in hull[start:]]


def _reduce(pts):
    """The vertices of the list pts that `_hull` keeps, as the original
    (x, y) pairs of Fractions."""
    keep = _hull([x.as_integer_ratio() for x, _ in pts], [y.as_integer_ratio() for _, y in pts])
    return tuple(pts[i] for i in keep)


def _require_group(group: SlopeGroup, xs) -> None:
    """Raise as group.require does on the first x of the (num, den) pairs
    xs outside the group; each pair is tested as it stands, with no
    Fraction built."""
    for num, den in xs:
        if not group._contains_ratio(num, den):
            group.require(Fraction(num, den))


def _polygon_of_ratios(group: SlopeGroup, xs, ys) -> NewtonPolygon:
    """newton_polygon on coordinates given as (num, den) integer pairs with
    den > 0, not necessarily in lowest terms; a Fraction is built only for
    the kept vertices."""
    _require_group(group, xs)
    return NewtonPolygon(group, tuple((Fraction(*xs[i]), Fraction(*ys[i])) for i in _hull(xs, ys)))


def newton_polygon(group: SlopeGroup, pts) -> NewtonPolygon:
    """Reduce an arbitrary finite vertex set; the support function over
    lam >= 0 is unchanged by the reduction.  Every x must lie in the group,
    the dropped ones too.  pts, any iterable of (x, y) pairs, is read once,
    into the (num, den) pairs of `_polygon_of_ratios`, the one validating path."""
    ratios = [(_rational(x).as_integer_ratio(), _rational(y).as_integer_ratio()) for x, y in pts]
    return _polygon_of_ratios(group, [x for x, _ in ratios], [y for _, y in ratios])


def ell(n: NewtonPolygon, lam) -> Fraction | None:
    """Support function max_j(lam x_j + y_j); -inf for the zero polygon."""
    lam = _rational(lam)
    if lam < 0:
        raise ValueError("the support function lives on [0, inf)")
    if n.is_zero:
        return None
    return max(lam * x + y for x, y in n.vertices)


def poly_join(n: NewtonPolygon, m: NewtonPolygon) -> NewtonPolygon:
    """Semiring addition: pointwise max of support functions."""
    _require_same_group(n, m)
    return NewtonPolygon(n.group, _reduce([*n.vertices, *m.vertices]))


def poly_times(n: NewtonPolygon, m: NewtonPolygon) -> NewtonPolygon:
    """Semiring multiplication: pointwise sum of support functions, i.e. the
    Minkowski sum of the vertex sets followed by reduction."""
    _require_same_group(n, m)
    if n.is_zero or m.is_zero:
        return NewtonPolygon(n.group, ())
    sums = [(x1 + x2, y1 + y2) for x1, y1 in n.vertices for x2, y2 in m.vertices]
    return NewtonPolygon(n.group, _reduce(sums))


def legendre(n: NewtonPolygon) -> PiecewiseAffine:
    """The support function as a convex piecewise-affine function on [0, inf).

    Slopes are exactly the vertex x-coordinates; kinks are the crossings of
    consecutive affine pieces.  The zero polygon maps to constant -inf.

    The kink between vertices i and i+1 is (y_i - y_i+1)/(x_i+1 - x_i).  It
    is computed on the integers X = x*dx and Y = y*dy of `_scaled` (dx, dy
    the least common multiples of the x and y denominators), as the one
    Fraction((Y_i - Y_i+1)*dx, (X_i+1 - X_i)*dy).  That is exact for the
    reason `_hull` gives: y_i - y_i+1 = (Y_i - Y_i+1)/dy and
    x_i+1 - x_i = (X_i+1 - X_i)/dx, with dx, dy > 0.

    The function is built without piecewise_affine's checks, which the
    reduced vertex list already meets: every x lies in the group (the
    constructors in this module check it or, for sums, preserve it), the
    x are strictly increasing, so no two pieces share a slope and none
    merge, and the kinks are strictly increasing and > 0, inside the
    domain (see `_hull`).  n must be reduced, as every constructor in this
    module returns it.
    """
    if n.is_zero:
        return PiecewiseAffine(n.group, Fraction(0), None, None, (), ())
    xs, ys = zip(*n.vertices)
    dx, big_x = _scaled([x.as_integer_ratio() for x in xs])
    dy, big_y = _scaled([y.as_integer_ratio() for y in ys])
    kinks = tuple(Fraction((y0 - y1) * dx, (x1 - x0) * dy)
                  for x0, x1, y0, y1 in zip(big_x, big_x[1:], big_y, big_y[1:]))
    return PiecewiseAffine(n.group, Fraction(0), None, ys[0], kinks, xs)


def from_function(f: PiecewiseAffine) -> NewtonPolygon:
    """Inverse of legendre: rebuild the polygon from a convex function on
    [0, inf) whose slopes lie in the group.  Exact round trip both ways.

    The vertices are (x_i, y_i) with x_i the slopes, y_0 the anchor and
    y_i+1 = y_i + k_i*(x_i - x_i+1) across kink k_i.  With the slopes scaled
    to the integers X = x*dx and the kinks to K = k*dk (`_scaled`), the step
    is K_i*(X_i - X_i+1)/(dk*dx).  So every y_i*d, with
    d = lcm(anchor denominator, dk*dx), is an integer: the ordinates are
    summed as integers over that one denominator, and each becomes one
    Fraction.  Convexity is the same test on X: strictly increasing, as the
    positive scaling keeps the order.

    The polygon is built without newton_polygon's checks.  f's slopes lie
    in its group (piecewise_affine checked them), and its kinks are
    strictly increasing inside (0, inf).  With strictly increasing slopes,
    vertex i wins exactly on (k_i-1, k_i), a nonempty open interval of
    [0, inf) (k_-1 = 0, k_m = inf), so every vertex is kept, in x order:
    the reduction would change nothing.  Each ordinate is still computed
    from the kinks, so from_function(legendre(n)) == n is a real check.
    """
    if f.lo != 0 or f.hi is not None:
        raise ValueError("the transform inverts functions defined on all of [0, inf)")
    if f.is_bottom:
        return NewtonPolygon(f.group, ())
    xs = f.slopes
    dx, big_x = _scaled([x.as_integer_ratio() for x in xs])
    if any(x0 >= x1 for x0, x1 in zip(big_x, big_x[1:])):
        raise ValueError("function is not convex")
    dk, big_k = _scaled([k.as_integer_ratio() for k in f.kinks])
    anchor = f.anchor
    d = lcm(anchor.denominator, dk * dx)
    step = d // (dk * dx)
    y = anchor.numerator * (d // anchor.denominator)
    vertices = [(xs[0], anchor)]
    for k, x0, x1, x in zip(big_k, big_x, big_x[1:], xs[1:]):
        y += k * (x0 - x1) * step
        vertices.append((x, Fraction(y, d)))
    return NewtonPolygon(f.group, tuple(vertices))
