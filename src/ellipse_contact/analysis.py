"""Excluded area and contact-locus curves.

The excluded region of a pair at fixed orientations is the Minkowski sum
K1 + (-K2) = K1 + K2, an ellipse being centrally symmetric.  Its area is
A1 + A2 + 2W(K1, K2), W the mixed area (Santalo, Integral Geometry and
Geometric Probability, 1976; Vieillard-Baron, J. Chem. Phys. 56, 4729
(1972)).  W(K, L) = |det A| W(A^-1 K, A^-1 L), and W(K, D) = P(K) / 2
for the unit disk D and the perimeter P (Cauchy).  With T the map that
takes ellipse 2 onto D, A_ex = A1 + A2 + a2 b2 P(T E1): one perimeter,
by the arithmetic-geometric mean, and no contact distance.

The excluded boundary and the contact locus are the contact kernel at n
angles: bulk.contact_arrays solves each curve bulk.CHUNK_ROWS points at a
time, with exactly the floats of one closest_approach call per point, and
the points it leaves to the scalar path go through closest_approach or
contact_point.
"""

from __future__ import annotations

import math

import numpy as np

from . import bulk
from .contact import closest_approach, contact_point
from .geometry import EllipseShape, PairConfiguration, UnitVec2, Vec2

__all__ = [
    "MIN_SAMPLES",
    "excluded_area",
    "excluded_boundary",
    "contact_locus",
]

# fewest curve samples any function here accepts
MIN_SAMPLES = 16


def _unit_perimeter(r: float) -> float:
    """Perimeter of the ellipse with semi-axes 1 and r in [0, 1 + ulp]:
    2 pi (1 - sum of 2^(n-1) c_n^2) / M(1, r), c_0^2 = 1 - r^2 and
    c_(n+1) = (a_n - b_n) / 2.  Once c_n <= 2^-27 a_n, what is left is
    below 2^-54; any positive double r gets there within 13 steps.  A ratio
    that underflowed to 0 is a segment, 4 + O(r^2 log r) = 4."""
    if r == 0.0:
        return 4.0
    a, b = 1.0, r
    total, weight, c2 = 1.0, 0.5, (1.0 - r) * (1.0 + r)
    for _ in range(32):
        total -= weight * c2
        if c2 <= 2.0**-54 * a * a:
            return 2.0 * math.pi * total / a
        a, b, c2 = 0.5 * (a + b), math.sqrt(a * b), (0.5 * (a - b)) ** 2
        weight *= 2.0
    raise OverflowError(f"excluded area is out of float range (semi-axis ratio {r!r})")


def excluded_area(shape1: EllipseShape, shape2: EllipseShape, k1: UnitVec2, k2: UnitVec2) -> float:
    """Area of center positions of shape2 excluded by overlap with shape1.

    The area is symmetric; ellipse 2 below is the larger by a*b (shape2
    on a tie).  T E1 has the semi-axes s1 >= s2, the singular values of
    M = diag(1/a2, 1/b2) R(theta1 - theta2) diag(a1, b1): s1 from two
    hypots, which do not cancel, and s2 = det M / s1.  If s1 underflows
    the mixed term, below 2 pi a2 b2 2^-1074, is 0.  Raises OverflowError
    when the area is out of float range, as for semi-axes near 1e160.
    """
    if shape1.a * shape1.b > shape2.a * shape2.b:
        shape1, shape2, k1, k2 = shape2, shape1, k2, k1
    c = k1.x * k2.x + k1.y * k2.y  # cos(theta1 - theta2)
    s = k1.y * k2.x - k1.x * k2.y  # sin(theta1 - theta2)
    m00, m01 = c * shape1.a / shape2.a, -s * shape1.b / shape2.a
    m10, m11 = s * shape1.a / shape2.b, c * shape1.b / shape2.b
    s1 = 0.5 * (math.hypot(m00 + m11, m10 - m01) + math.hypot(m00 - m11, m10 + m01))
    mixed = 0.0
    if s1 != 0.0:  # a nan s1 goes on to raise OverflowError
        # s2 / s1 in this order stays in range: s1 >= a1 / a2
        ratio = shape1.a / shape2.a / s1 * (shape1.b / shape2.b) / s1
        mixed = shape2.a * shape2.b * s1 * _unit_perimeter(ratio)
    area = shape1.area() + shape2.area() + mixed
    if not math.isfinite(area):
        raise OverflowError(f"excluded area is not finite ({area!r})")
    return area


def _curve_chunks(shape1, shape2, k1, k2, dhat, n, solve):
    """The contact kernel at theta_j = 2 pi j / n for j < n, in chunks of
    at most bulk.CHUNK_ROWS: arrays (theta, cos theta, sin theta, d, rc_x,
    rc_y), cos and sin from bulk.from_angles.  The direction passed as None
    is UnitVec2.from_angle(theta_j).
    A row bulk.contact_arrays leaves to the scalar path is solve(cfg),
    which returns the ContactSolution or raises."""
    for lo in range(0, n, bulk.CHUNK_ROWS):
        theta = 2.0 * math.pi * np.arange(lo, min(lo + bulk.CHUNK_ROWS, n)) / n
        rows = len(theta)
        cos, sin = bulk.from_angles(theta)
        cols = [np.full(rows, x) for x in (shape1.a, shape1.b, shape2.a, shape2.b)]
        for v in (k1, k2, dhat):
            cols += (cos, sin) if v is None else (np.full(rows, v.x), np.full(rows, v.y))
        res = bulk.contact_arrays(*cols)
        d, rc_x, rc_y = res.d, res.rc_x, res.rc_y
        for j in np.flatnonzero(res.scalar).tolist():
            turned = UnitVec2.from_angle(theta[j].item())
            sol = solve(PairConfiguration(
                shape1, shape2, *(turned if v is None else v for v in (k1, k2, dhat))
            ))
            d[j], rc_x[j], rc_y[j] = sol.d, sol.contact_point.x, sol.contact_point.y
        yield theta, cos, sin, d, rc_x, rc_y


def excluded_boundary(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k1: UnitVec2,
    k2: UnitVec2,
    n: int,
) -> list[tuple[float, Vec2]]:
    """The curve traced by the center of shape2 as it slides around shape1
    staying tangent, the boundary of the excluded area, as n closed-curve
    samples (center-line angle, point)."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    samples = []
    for theta, cos, sin, d, _, _ in _curve_chunks(
        shape1, shape2, k1, k2, None, n, closest_approach
    ):
        samples += zip(theta.tolist(), map(Vec2, (d * cos).tolist(), (d * sin).tolist()))
    return samples


def contact_locus(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k2: UnitVec2,
    dhat: UnitVec2,
    n: int,
) -> list[tuple[float, Vec2]]:
    """The contact point's trace as shape1 spins in place while shape2 keeps
    its orientation and stays tangent along the fixed center line, as n
    closed-curve samples (angle of shape1's major axis, point)."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    samples = []
    for theta, _, _, _, rc_x, rc_y in _curve_chunks(
        shape1, shape2, None, k2, dhat, n, lambda cfg: contact_point(cfg)[1]
    ):
        samples += zip(theta.tolist(), map(Vec2, rc_x.tolist(), rc_y.tolist()))
    return samples
