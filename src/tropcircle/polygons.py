"""Newton polygons and the Legendre transform.

A polygon is the finite set of extreme vertices (x, y) of a convex hull of
down-left quadrants, with x in a rank-one slope group H and y rational.  It
is determined by, and determines, its support function

    ell(lam) = max_j (lam * x_j + y_j)   for lam >= 0,

a convex piecewise-affine function with slopes in H.  The two semiring
operations are pointwise max and pointwise sum of support functions; on
vertices the sum is a Minkowski sum.  The empty polygon is the zero element
(support function constant -inf).  Each polygon keeps its vertices as
integers over common denominators (`NewtonPolygon._form`), on which the
hull, the two operations, the support function and the transform run.
Every constructor in this module computes those integers anyway and hands
them to the polygon it builds; only a polygon built directly, as
NewtonPolygon(group, vertices), computes them, once, on first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .piecewise import PiecewiseAffine, SlopeGroup, _require_same_group
from .scalars import _ZERO, _cached, _fraction, _rational, _scaled, frac_to_str

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

    @_cached
    def _form(self) -> tuple:
        """(dx, X, dy, Y): the vertices on integers, X = x*dx and Y = y*dy,
        for common denominators dx, dy > 0 of the x and of the y, not
        necessarily the least ones.  Kept out of equality, hash and repr.
        The constructors of this module hand on the form they computed
        (`_with_form`); a polygon built directly computes it on first use,
        with the least denominators (`_integer_form`): 1 and empty lists for
        the zero polygon."""
        return _integer_form(self.vertices)

    def __repr__(self) -> str:
        if self.is_zero:
            return "NewtonPolygon(zero)"
        return "NewtonPolygon(%s)" % ", ".join(f"({frac_to_str(x)}, {frac_to_str(y)})"
                                               for x, y in self.vertices)


def _with_form(group: SlopeGroup, vertices: tuple, form: tuple) -> NewtonPolygon:
    """NewtonPolygon(group, vertices) holding form, the (dx, X, dy, Y) of
    `NewtonPolygon._form` its constructor computed, as its integer form."""
    n = NewtonPolygon(group, vertices)
    n.__dict__["_form"] = form
    return n


def _integer_form(pts) -> tuple:
    """(dx, X, dy, Y) of the (x, y) Fraction pairs pts, as `NewtonPolygon._form`,
    with the least common denominators."""
    dx, big_x = _scaled([x.as_integer_ratio() for x, _ in pts])
    dy, big_y = _scaled([y.as_integer_ratio() for _, y in pts])
    return dx, big_x, dy, big_y


def _kept_form(kept, dx, big_x, dy, big_y) -> tuple:
    """The form (dx, X, dy, Y) of the points at the indices kept."""
    return dx, [big_x[i] for i in kept], dy, [big_y[i] for i in kept]


def _hull(big_x, big_y) -> list:
    """Indices of exactly the vertices (x_i, y_i) that win
    max_j(lam x_j + y_j) on a nonempty open sub-interval of [0, inf), in
    increasing x.  They are given on integers, X = x*dx and Y = y*dy, for
    any common denominators dx, dy > 0 of the x and of the y (`_scaled`).

    Steps: sort the points by (X, Y), build the strictly concave upper hull
    (ties between chords drop the middle point), then drop leading
    vertices whose winning interval lies in lam <= 0.  The sort puts the
    points of one x together, the highest last, and no best-y pass is
    needed.  A point v of the same x as the last kept b, with a kept
    before it at a smaller x, pops b: the chord test reads
    0 <= (y_v - y_b)(x_b - x_a).  Only at the start can two kept points
    share an x, the lower first, and the leading drop removes it.

    The tests run on the integers X and Y.  That is exact: scaling x by
    dx > 0 and y by dy > 0 keeps the order of the x values and of the y
    values, and multiplies both sides of the chord test
    (y_b - y_a)(x_v - x_b) <= (y_v - y_b)(x_b - x_a) by dx*dy.

    So the kept vertices have strictly increasing x, and the crossings
    (y_i - y_i+1)/(x_i+1 - x_i) of neighbours, the kinks of the support
    function, are strictly increasing (strict concavity) and > 0 (the
    leading drop); `legendre` relies on both.
    """
    hull = []  # (X, Y, index), X increasing
    for point in sorted(zip(big_x, big_y, range(len(big_x)))):
        key_x, key_y, _ = point
        while len(hull) >= 2:
            ax, ay, _ = hull[-2]
            bx, by, _ = hull[-1]
            if (by - ay) * (key_x - bx) <= (key_y - by) * (bx - ax):
                hull.pop()
            else:
                break
        hull.append(point)
    # the crossing of hull[i] and hull[i+1] sits at lam = (y_i - y_i+1)/(x_i+1 - x_i);
    # when it is <= 0 vertex i never wins on the open half-line
    start = 0
    while start + 1 < len(hull) and hull[start][1] <= hull[start + 1][1]:
        start += 1
    return [i for _, _, i in hull[start:]]


def _require_group(group: SlopeGroup, xs) -> None:
    """Raise as group.require does on the first x of the (num, den) pairs
    xs outside the group; each pair is tested as it stands, with no
    Fraction built."""
    for num, den in xs:
        if not group._contains_ratio(num, den):
            group.require(_fraction(num, den))


def _polygon_of_ratios(group: SlopeGroup, xs, ys) -> NewtonPolygon:
    """newton_polygon on coordinates given as (num, den) integer pairs with
    den > 0, not necessarily in lowest terms; a Fraction is built
    (`_fraction`) only for the kept vertices, and the polygon holds their
    integers over the dx and dy of all the pairs (`_scaled`).

    Group membership is one test for the whole list.  The x are X_i/dx, so
    they generate the subgroup (g/dx)*Z of (Q, +), with g = gcd(X_i) (0 for
    no x or all x zero); the slope group contains every x exactly when it
    contains g/dx, an integer combination of them.  Only when it does not
    are the x tested one by one (`_require_group`), to name the first one
    outside."""
    (dx, big_x), (dy, big_y) = _scaled(xs), _scaled(ys)
    if not group._contains_ratio(gcd(*big_x), dx):
        _require_group(group, xs)
    kept = _hull(big_x, big_y)
    return _with_form(group, tuple((_fraction(*xs[i]), _fraction(*ys[i])) for i in kept),
                      _kept_form(kept, dx, big_x, dy, big_y))


def newton_polygon(group: SlopeGroup, pts) -> NewtonPolygon:
    """Reduce an arbitrary finite vertex set; the support function over
    lam >= 0 is unchanged by the reduction.  Every x must lie in the group,
    the dropped ones too.  pts, any iterable of (x, y) pairs, is read once,
    into the (num, den) pairs of `_polygon_of_ratios`, the one validating path."""
    ratios = [(_rational(x).as_integer_ratio(), _rational(y).as_integer_ratio()) for x, y in pts]
    return _polygon_of_ratios(group, [x for x, _ in ratios], [y for _, y in ratios])


def ell(n: NewtonPolygon, lam) -> Fraction | None:
    """Support function max_j(lam x_j + y_j); -inf for the zero polygon.

    With lam = a/b and the integer form (dx, X, dy, Y) of `NewtonPolygon._form`,
    lam*x_j + y_j is (a*dy*X_j + b*dx*Y_j)/(b*dx*dy): one integer max over
    one positive denominator, and one `_fraction`."""
    a, b = _rational(lam).as_integer_ratio()
    if a < 0:
        raise ValueError("the support function lives on [0, inf)")
    if n.is_zero:
        return None
    dx, big_x, dy, big_y = n._form
    ca, cb = a * dy, b * dx
    return _fraction(max(ca * x + cb * y for x, y in zip(big_x, big_y)), b * dx * dy)


def _common_forms(n: NewtonPolygon, m: NewtonPolygon) -> tuple:
    """(dx, Xn, Xm, dy, Yn, Ym): the integer forms of n and m rescaled to
    dx and dy, the least common multiples of their own dx and dy.  Each
    value keeps its meaning, X/dx and Y/dy, so sums and order tests across
    the two are exact."""
    (dxn, xn, dyn, yn), (dxm, xm, dym, ym) = n._form, m._form
    dx, dy = lcm(dxn, dxm), lcm(dyn, dym)
    return (dx, _multiplied(xn, dx // dxn), _multiplied(xm, dx // dxm),
            dy, _multiplied(yn, dy // dyn), _multiplied(ym, dy // dym))


def _multiplied(qs, k):
    """The integers qs times k; qs itself when k is 1."""
    return qs if k == 1 else [q * k for q in qs]


def poly_join(n: NewtonPolygon, m: NewtonPolygon) -> NewtonPolygon:
    """Semiring addition: pointwise max of support functions.

    The vertices of both, reduced by `_hull` on the two integer forms over
    their common denominators (`_common_forms`), so the kept vertices are
    the operands' own pairs, and their integers over those denominators
    the result's form."""
    _require_same_group(n, m)
    dx, xn, xm, dy, yn, ym = _common_forms(n, m)
    big_x, big_y = xn + xm, yn + ym
    pts = n.vertices + m.vertices
    kept = _hull(big_x, big_y)
    return _with_form(n.group, tuple(pts[i] for i in kept), _kept_form(kept, dx, big_x, dy, big_y))


def poly_times(n: NewtonPolygon, m: NewtonPolygon) -> NewtonPolygon:
    """Semiring multiplication: pointwise sum of support functions, i.e. the
    Minkowski sum of the vertex sets followed by reduction.

    The sums run on the integer forms over their common denominators dx
    and dy (`_common_forms`): x_i + x_j is (X_i + X_j)/dx, and y likewise,
    so `_hull` reads the scaled sums, a Fraction is built (`_fraction`) only
    for the coordinates of a kept vertex, and the kept sums over dx and dy
    are the result's form."""
    _require_same_group(n, m)
    if n.is_zero or m.is_zero:
        return _with_form(n.group, (), (1, [], 1, []))
    dx, xn, xm, dy, yn, ym = _common_forms(n, m)
    big_x = [a + b for a in xn for b in xm]
    big_y = [a + b for a in yn for b in ym]
    kept = _hull(big_x, big_y)
    return _with_form(n.group, tuple((_fraction(big_x[i], dx), _fraction(big_y[i], dy)) for i in kept),
                      _kept_form(kept, dx, big_x, dy, big_y))


def legendre(n: NewtonPolygon) -> PiecewiseAffine:
    """The support function as a convex piecewise-affine function on [0, inf).

    Slopes are exactly the vertex x-coordinates; kinks are the crossings of
    consecutive affine pieces.  The zero polygon maps to constant -inf.

    The kink between vertices i and i+1 is (y_i - y_i+1)/(x_i+1 - x_i).  It
    is computed on the integers X = x*dx and Y = y*dy of the polygon's
    `NewtonPolygon._form`, as the one `_fraction((Y_i - Y_i+1)*dx,
    (X_i+1 - X_i)*dy)`.  That is exact for the
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
        return PiecewiseAffine(n.group, _ZERO, None, None, (), ())
    xs, ys = zip(*n.vertices)
    dx, big_x, dy, big_y = n._form
    kinks = tuple(_fraction((y0 - y1) * dx, (x1 - x0) * dy)
                  for x0, x1, y0, y1 in zip(big_x, big_x[1:], big_y, big_y[1:]))
    return PiecewiseAffine(n.group, _ZERO, None, ys[0], kinks, xs)


def from_function(f: PiecewiseAffine) -> NewtonPolygon:
    """Inverse of legendre: rebuild the polygon from a convex function on
    [0, inf) whose slopes lie in the group.  Exact round trip both ways.

    The vertices are (x_i, y_i) with x_i the slopes and y_i = f(k_i) - x_i*k_i,
    the value of piece i's line at 0, with k_0 = lo = 0 and k_i the kinks.
    With the integers of `PiecewiseAffine._form` (the positions K over dk,
    the slopes X over dx) and of its `_values`, y_i is
    Y_i = values[i] - X_i*K_i*step over den: each ordinate is one
    `_fraction`, and X over dx and Y over den are the polygon's form.

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
        return _with_form(f.group, (), (1, [], 1, []))
    if not f.convex:
        raise ValueError("function is not convex")
    _, lo_and_k, dx, big_x = f._form
    step, den, values = f._values
    big_y = [v - x * k * step for v, x, k in zip(values, big_x, lo_and_k)]
    return _with_form(f.group, tuple((x, _fraction(y, den)) for x, y in zip(f.slopes, big_y)),
                      (dx, big_x, den, big_y))
