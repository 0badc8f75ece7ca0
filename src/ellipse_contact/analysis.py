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

The excluded boundary and the contact locus sample the contact kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import closest_approach, contact_point
from .geometry import EllipseShape, PairConfiguration, UnitVec2, Vec2

__all__ = [
    "MIN_SAMPLES",
    "LocusCurve",
    "excluded_area",
    "excluded_boundary",
    "contact_locus",
]

# fewest quadrature nodes or curve samples any function here accepts
MIN_SAMPLES = 16


@dataclass(frozen=True)
class LocusCurve:
    """A closed plot-ready curve: (sweep angle, point) samples."""

    samples: list[tuple[float, Vec2]]


def _distance_of_angle(
    shape1: EllipseShape, shape2: EllipseShape, k1: UnitVec2, k2: UnitVec2
):
    def d(theta: float) -> float:
        cfg = PairConfiguration(shape1, shape2, k1, k2, UnitVec2.from_angle(theta))
        return closest_approach(cfg).d

    return d


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


def excluded_boundary(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k1: UnitVec2,
    k2: UnitVec2,
    n: int,
) -> LocusCurve:
    """The curve traced by the center of shape2 as it slides around shape1
    staying tangent: the boundary of the excluded area."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    d = _distance_of_angle(shape1, shape2, k1, k2)
    samples = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        dist = d(theta)
        samples.append((theta, Vec2(dist * math.cos(theta), dist * math.sin(theta))))
    return LocusCurve(samples=samples)


def contact_locus(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k2: UnitVec2,
    dhat: UnitVec2,
    n: int,
) -> LocusCurve:
    """The contact point's trace as shape1 spins in place while shape2 keeps
    its orientation and stays tangent along the fixed center line."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    samples = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        cfg = PairConfiguration(shape1, shape2, UnitVec2.from_angle(theta), k2, dhat)
        rc, _ = contact_point(cfg)
        samples.append((theta, rc))
    return LocusCurve(samples=samples)
