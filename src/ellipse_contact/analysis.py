"""Excluded area and contact-locus curves.

The excluded region of a pair at fixed orientations is the Minkowski sum
K1 + (-K2); an ellipse is centrally symmetric, so -K2 = K2.  Its area is
A1 + A2 + 2W with the mixed area W = (1/2) * integral of h1 * rho2 over
the normal angle, where h1 is the support function of ellipse 1 and rho2
the radius of curvature of ellipse 2 at the same outward normal (Santalo,
Integral Geometry and Geometric Probability, 1976; for hard ellipses,
Vieillard-Baron, J. Chem. Phys. 56, 4729 (1972)).  Both are closed forms
of the normal angle, so the area needs no contact distance and no
quartic.  The integrand is smooth and 2*pi-periodic, so the trapezoid rule
converges spectrally; the sum is accumulated with math.fsum, so a result
at a fixed node count is reproducible bit for bit.

The excluded boundary and the contact locus are the contact kernel at n
angles: bulk's array core solves each curve bulk.CHUNK_ROWS points at a
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

# fewest quadrature nodes or curve samples any function here accepts
MIN_SAMPLES = 16


def _support(shape: EllipseShape, k: UnitVec2, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Support function h(n) = sqrt(a^2 (n.k)^2 + b^2 (n.k_perp)^2)."""
    along = nx * k.x + ny * k.y
    across = ny * k.x - nx * k.y
    return np.sqrt((shape.a * along) ** 2 + (shape.b * across) ** 2)


def excluded_area(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k1: UnitVec2,
    k2: UnitVec2,
    panels: int = 2048,
) -> float:
    """Area of center positions of shape2 excluded by overlap with shape1.

    The area of the Minkowski sum K1 + (-K2), with -K2 = K2 because an
    ellipse is centrally symmetric: A1 + A2 + integral of h1 * rho2 over
    the normal angle, where rho2 = (a2 b2)^2 / h2^3.  ``panels`` is the
    number of trapezoid nodes; no contact distance is computed.  Raises
    OverflowError when the area is not finite, as for semi-axes near 1e160.
    """
    if panels < MIN_SAMPLES:
        raise ValueError(f"panels must be at least {MIN_SAMPLES}")
    step = 2.0 * math.pi / panels
    theta = step * np.arange(panels)
    nx, ny = np.cos(theta), np.sin(theta)
    # an overflow shows up as a non-finite area below, not as warnings
    with np.errstate(all="ignore"):
        h2 = _support(shape2, k2, nx, ny)
        terms = _support(shape1, k1, nx, ny) * ((shape2.a * shape2.b) ** 2 / h2**3)
    area = shape1.area() + shape2.area() + step * math.fsum(terms.tolist())
    if not math.isfinite(area):
        raise OverflowError(f"excluded area is not finite ({area!r})")
    return area


def _curve_chunks(shape1, shape2, k1, k2, dhat, n, solve):
    """The contact kernel at theta_j = 2 pi j / n for j < n, in chunks of
    at most bulk.CHUNK_ROWS: arrays (theta, cos theta, sin theta, d, rc_x,
    rc_y).  The direction passed as None is UnitVec2.from_angle(theta_j);
    the others are used as given, as PairConfiguration uses them.  A row
    the array core leaves to the scalar path is solve(cfg), which returns
    the ContactSolution or raises."""
    for lo in range(0, n, bulk.CHUNK_ROWS):
        theta = 2.0 * math.pi * np.arange(lo, min(lo + bulk.CHUNK_ROWS, n)) / n
        rows = len(theta)
        bad = np.zeros(rows, dtype=bool)
        with np.errstate(all="ignore"):
            cos, sin = bulk._each(math.cos, bad, theta), bulk._each(math.sin, bad, theta)
            turning = bulk._unit(cos, sin, bad)  # UnitVec2.from_angle
            cols = [np.full(rows, x) for x in (shape1.a, shape1.b, shape2.a, shape2.b)]
            for v in (k1, k2, dhat):
                cols += turning if v is None else (np.full(rows, v.x), np.full(rows, v.y))
            d, _, _, rc_x, rc_y, *_ = bulk._solve_unit(*cols, bad)
        for j in np.flatnonzero(bad).tolist():
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
