"""Brute-force dimension oracle for the norm filtration of H0(D).

Independent of the production search: raw configurations are enumerated
exhaustively over budget-derived lattice ranges, and the movable kink
positions are checked by a generic exact Fourier-Motzkin feasibility solver
on the raw constraint system, not by closed-form window arithmetic.

A configuration records the forced jumps u_P at the support of D, the wrap
jump c0, and the number m of movable kinks.  The constraints are exactly
the membership conditions: u_P >= -d_P and c0 >= -d_wrap rounded into the
slope lattice, the base slope (determined by c0) in the lattice, movable
jumps positive lattice elements, all real orders summing to zero, and the
movable positions distinct interior points of the circle away from the
support.  The dimension of a feasible configuration is its number of
movable kinks, or 1 for a kink-free configuration (the additive constant),
and the oracle reports the maximum.

Movable jumps are normalized to the minimal lattice step: splitting a jump
2c at one position into jumps c, c at two nearby positions preserves every
constraint, so a maximal configuration may be assumed minimal.  For tiny
budgets `max_dim_compositions` drops that normalization and enumerates all
jump tuples, which cross-validates the normalization itself.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from lp_feasibility import feasible

__all__ = ["max_dim_minimal", "max_dim_compositions", "oracle_budget"]


def _floor_lat(x: Fraction, eps: Fraction) -> Fraction:
    return floor(x / eps) * eps


def oracle_budget(d) -> Fraction:
    """Positive part of the divisor: sum of rep * coeff over positive coeffs."""
    return sum((rep * c for rep, c in d.entries if c > 0), Fraction(0))


def _lattice_range(lo: Fraction, hi: Fraction, eps: Fraction):
    if hi < lo:
        return []
    k = int((hi - lo) / eps)
    return [lo + i * eps for i in range(k + 1)]


def _configurations(d, n):
    """All (u_assignment, c0, rhs, su) tuples within the order-sum budget."""
    p = d.p
    eps = Fraction(1, p ** n)
    wrap_d = d.coeff(1)
    interior = [(rep, c) for rep, c in d.entries if rep != 1]
    pos = lambda items: sum((r * v for r, v in items if v > 0), Fraction(0))
    ranges = []
    for rep, dv in interior:
        others = pos([(r, v) for r, v in interior if r != rep]) + max(wrap_d, 0)
        ranges.append(_lattice_range(-_floor_lat(dv, eps), _floor_lat(others / rep, eps), eps))
    wrap_cap = pos(interior)
    c0_range = _lattice_range(-_floor_lat(wrap_d, eps), _floor_lat(wrap_cap, eps), eps)
    out = []
    for assign in product(*ranges):
        su = sum(assign, Fraction(0))
        sbu = sum((rep * u for (rep, _), u in zip(interior, assign)), Fraction(0))
        for c0 in c0_range:
            out.append((assign, c0, -sbu - c0, su))
    return out, eps, [rep for rep, _ in interior]


def _base_slope_in_lattice(p, c0, total_jump, su, eps) -> bool:
    s0 = Fraction(-(c0 + p * (total_jump + su)), p - 1)
    return s0 % eps == 0


def _positions_feasible(coeffs, rhs, p, anchors):
    """Distinct positions 1 < x_1 < ... < x_k < p with sum(c_i x_i) = rhs,
    avoiding the anchor points.  For k >= 2 the solution set is open inside
    the constraint hyperplane, so finitely many forbidden hyperplanes cannot
    empty it; for k = 1 the single position is checked directly."""
    k = len(coeffs)
    if k == 0:
        return rhs == 0
    ineqs = [([Fraction(-1 if j == 0 else 0) for j in range(k)], Fraction(-1), True)]
    for i in range(k - 1):
        row = [Fraction(0)] * k
        row[i], row[i + 1] = Fraction(1), Fraction(-1)
        ineqs.append((row, Fraction(0), True))
    last = [Fraction(0)] * k
    last[-1] = Fraction(1)
    ineqs.append((last, Fraction(p), True))
    if not feasible([(list(coeffs), rhs)], ineqs, k):
        return False
    if k == 1:
        x = rhs / coeffs[0]
        return x not in anchors
    return True


def max_dim_minimal(d, n: int) -> int:
    """Oracle dimension with all movable jumps at the minimal lattice step."""
    configs, eps, anchors = _configurations(d, n)
    p = d.p
    m_caps = []
    for assign, c0, rhs, su in configs:
        m_caps.append(ceil(rhs / eps) - 1 if rhs > 0 else 0)
    best = 0
    for m in range(max(m_caps, default=0), 0, -1):
        for (assign, c0, rhs, su), cap in zip(configs, m_caps):
            if m > cap:
                continue
            if not _base_slope_in_lattice(p, c0, m * eps, su, eps):
                continue
            if _positions_feasible([eps] * m, rhs, p, anchors):
                return m
    for assign, c0, rhs, su in configs:
        if rhs == 0 and _base_slope_in_lattice(p, c0, Fraction(0), su, eps):
            return 1
    return 0


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def max_dim_compositions(d, n: int) -> int:
    """Fully exhaustive variant: movable jumps range over all tuples of
    lattice multiples.  Exponential; only for tiny budgets."""
    configs, eps, anchors = _configurations(d, n)
    p = d.p
    best = 0
    for assign, c0, rhs, su in configs:
        if rhs == 0 and _base_slope_in_lattice(p, c0, Fraction(0), su, eps):
            best = max(best, 1)
        if rhs <= 0:
            continue
        max_units = ceil(rhs / eps) - 1
        for k in range(max_units, best, -1) if max_units <= 24 else ():
            for units in range(k, max_units + 1):
                for combo in _compositions(units, k):
                    if not _base_slope_in_lattice(p, c0, units * eps, su, eps):
                        continue
                    if _positions_feasible([c * eps for c in combo], rhs, p, anchors):
                        best = max(best, k)
                        break
                else:
                    continue
                break
    return best
