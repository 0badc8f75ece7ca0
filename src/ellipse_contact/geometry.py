"""Validated domain types and planar vector algebra shared by the whole kernel.

Orientations are stored as unit vectors, never as angles: every downstream
formula consumes dot products, so angles are converted once at the CLI
boundary and never travel further.  Construction renormalizes near-unit
input; an input vector of zero length is an error, not a silent default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DegenerateShape",
    "ZeroVector",
    "Vec2",
    "UnitVec2",
    "EllipseShape",
    "PairConfiguration",
    "SymMat2",
    "make_pair_configuration",
    "ellipse_matrix",
]


class DegenerateShape(ValueError):
    """Semi-axes are unusable: non-finite, non-positive, or minor > major."""


class ZeroVector(ValueError):
    """A direction was given as a zero or non-finite vector."""


@dataclass(frozen=True)
class Vec2:
    """A point or displacement in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector components ({self.x}, {self.y})")

    def cross(self, other) -> float:
        """z-component of the 3D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class UnitVec2:
    """A direction; renormalized at construction so that x**2 + y**2 = 1.

    Both k and -k are accepted as equivalent orientations of an ellipse
    axis; all kernel formulas are invariant under either sign.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        n = math.hypot(self.x, self.y)
        if n == 0.0 or not math.isfinite(n):
            raise ZeroVector(f"cannot normalize ({self.x}, {self.y})")
        if n != 1.0:
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)

    @classmethod
    def from_angle(cls, theta: float) -> "UnitVec2":
        return cls(math.cos(theta), math.sin(theta))

    def dot(self, other) -> float:
        return self.x * other.x + self.y * other.y

    def angle(self) -> float:
        return math.atan2(self.y, self.x)


@dataclass(frozen=True)
class EllipseShape:
    """Ellipse geometry given by semi-major a and semi-minor b, a >= b > 0.

    a == b is allowed: a circle is a valid ellipse and exercises the
    degenerate branches of the kernel.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        ok = (
            math.isfinite(self.a)
            and math.isfinite(self.b)
            and self.b > 0.0
            and self.a >= self.b
        )
        if not ok:
            raise DegenerateShape(
                f"need finite a >= b > 0, got a={self.a!r}, b={self.b!r}"
            )

    def eccentricity_sq(self) -> float:
        # (1 - b/a)(1 + b/a) keeps full precision for near-circular shapes
        r = self.b / self.a
        return (1.0 - r) * (1.0 + r)

    def area(self) -> float:
        return math.pi * self.a * self.b


@dataclass(frozen=True)
class PairConfiguration:
    """Two shapes, their major-axis directions, and the center-line direction.

    This is the input to every kernel call; nothing constrains k1, k2 and
    dhat relative to each other.
    """

    shape1: EllipseShape
    shape2: EllipseShape
    k1: UnitVec2
    k2: UnitVec2
    dhat: UnitVec2


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix; only the three independent entries are stored."""

    m11: float
    m12: float
    m22: float

    def apply(self, v) -> Vec2:
        return Vec2(self.m11 * v.x + self.m12 * v.y, self.m12 * v.x + self.m22 * v.y)

    def quadratic_form(self, v) -> float:
        return (
            self.m11 * v.x * v.x + 2.0 * self.m12 * v.x * v.y + self.m22 * v.y * v.y
        )


def make_pair_configuration(
    a1: float,
    b1: float,
    a2: float,
    b2: float,
    k1,
    k2,
    dhat,
) -> PairConfiguration:
    """Validate raw inputs and build a PairConfiguration.

    Accepts directions as Vec2/UnitVec2 or (x, y) pairs; they are
    renormalized here.  Raises DegenerateShape or ZeroVector on bad input.
    """
    s1 = EllipseShape(float(a1), float(b1))
    s2 = EllipseShape(float(a2), float(b2))
    directions = []
    for v in (k1, k2, dhat):
        x, y = (v.x, v.y) if isinstance(v, (Vec2, UnitVec2)) else v
        directions.append(UnitVec2(float(x), float(y)))
    return PairConfiguration(s1, s2, *directions)


def _ellipse_form(a, b, kx, ky):
    """Entries (m11, m12, m22) of M = (I - e^2 kk) / b^2 for semi-axes a, b
    and major-axis direction (kx, ky): Python floats or numpy arrays, with
    the same operations in the same order either way."""
    r = b / a
    e2 = (1.0 - r) * (1.0 + r)  # eccentricity_sq()
    f = 1.0 / (b * b)
    return f * (1.0 - e2 * kx * kx), f * (-e2 * kx * ky), f * (1.0 - e2 * ky * ky)


def ellipse_matrix(shape: EllipseShape, k: UnitVec2) -> SymMat2:
    """Quadratic form M of the ellipse boundary: p.M.p = 1.

    M = (I - e^2 kk) / b^2, so k.M.k = 1/a^2 and kperp.M.kperp = 1/b^2;
    M is symmetric positive definite for every valid shape.
    """
    return SymMat2(*_ellipse_form(shape.a, shape.b, k.x, k.y))
