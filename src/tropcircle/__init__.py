"""Exact tropical algebra: max-plus scalars, Newton polygons and their
Legendre transforms, germ algebras, and divisor theory with a real-valued
Riemann-Roch computation on the circle R*+/p^Z."""

from .scalars import BOTTOM, chi, in_zp, padic_abs, rmax_join, rmax_times
from .germs import (
    GERM_BOTTOM, GERM_ONE, Germ, LEX_BOTTOM, LEX_ONE, LexElement,
    eval_char, eval_char_lex, germ_join, germ_mul, lex_join, lex_mul,
)
from .piecewise import (
    GroupMismatchError, PiecewiseAffine, SlopeGroup, ZZ,
    gamma, germ_at, order_at, piecewise_affine, pointwise_join,
    pointwise_times,
)
from .polygons import (
    NewtonPolygon, ell, from_function, legendre, newton_polygon,
    poly_join, poly_times,
)
from .circle import (
    CircleFunction, ClosureError, Divisor, PrincipalityReport,
    circle_function, circle_join, circle_times,
    divisor, divisor_of, from_cut, is_principal, jacobian_class,
    normalize_point,
)
from .riemann_roch import (
    FiltrationReport, RiemannRochReport, dim_filtration, dim_r,
    member_h0, norm_p, rr_check, rr_tolerance,
)

__version__ = "0.1.0"
