"""Validated domain types and planar vector algebra shared by the whole kernel.

Orientations are stored as unit vectors, never as angles: every downstream
formula consumes dot products, so angles are converted once at the CLI
boundary and never travel further.  Construction normalizes input that is
not unit length to rounding, so normalizing twice changes nothing; an
input vector of zero length is an error, not a silent default.  An
ellipse's quadratic form is the plain tuple that _ellipse_form returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

__all__ = [
    "DegenerateShape",
    "ZeroVector",
    "Vec2",
    "UnitVec2",
    "EllipseShape",
    "PairConfiguration",
    "make_pair_configuration",
]


class DegenerateShape(ValueError):
    """Semi-axes are unusable: non-finite, non-positive, or minor > major."""


class ZeroVector(ValueError):
    """A direction was given as a zero, subnormal or non-finite vector."""


# |hypot(x, y) - 1| above this is more than rounding: math.hypot(x / n,
# y / n) for n = math.hypot(x, y) lies in {1 - 2^-52, 1 - 2^-53, 1, 1 + 2^-52}.
# For n = _hypot(x, y), the kernel's, it leaves the slack on 16 of 200,000
# stream vectors, which UnitVec2 divides once more (transformed_pair's k+)
_UNIT_SLACK = 2.0**-52
# shorter vectors are zero: hypot and x / n lose bits below the normal range
_MIN_NORMAL = 2.0**-1022


def _finite_components(x: float, y: float) -> None:
    """Vec2's check, for callers that need the check and not the Vec2:
    ValueError unless both components are finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite vector components ({x}, {y})")


def _valid_axes(a, b):
    """EllipseShape's rule, finite a >= b > 0, on floats or arrays: b <= a
    < inf bounds b too, and a nan fails every comparison."""
    return (0.0 < b) & (b <= a) & (a < math.inf)


def _eccentricity_sq(a, b):
    """e^2 = 1 - (b/a)^2 on floats or arrays, as (1 - b/a)(1 + b/a), which
    keeps full precision for near-circular shapes."""
    r = b / a
    return (1.0 - r) * (1.0 + r)


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or displacement in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _finite_components(self.x, self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True, slots=True)
class UnitVec2:
    """A direction, divided by its norm at construction unless that is 1 to
    rounding (_UNIT_SLACK), so UnitVec2(u.x, u.y) == u for every UnitVec2 u.

    Both k and -k are accepted as equivalent orientations of an ellipse
    axis; all kernel formulas are invariant under either sign.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        n = math.hypot(self.x, self.y)
        if not _MIN_NORMAL <= n < math.inf:
            raise ZeroVector(f"cannot normalize ({self.x}, {self.y})")
        if abs(n - 1.0) > _UNIT_SLACK:
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)

    @classmethod
    def from_angle(cls, theta: float) -> "UnitVec2":
        return cls(math.cos(theta), math.sin(theta))

    def angle(self) -> float:
        return math.atan2(self.y, self.x)


@dataclass(frozen=True, slots=True)
class EllipseShape:
    """Ellipse geometry given by semi-major a and semi-minor b, a >= b > 0.

    a == b is allowed: a circle is a valid ellipse and exercises the
    degenerate branches of the kernel.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not _valid_axes(self.a, self.b):
            raise DegenerateShape(
                f"need finite a >= b > 0, got a={self.a!r}, b={self.b!r}"
            )

    def area(self) -> float:
        return math.pi * self.a * self.b


@dataclass(frozen=True, slots=True)
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

    Accepts directions as Vec2/UnitVec2 or (x, y) pairs.  A UnitVec2 is
    immutable and already normalized, so it is used as it is; the others
    are normalized here.  Raises DegenerateShape or ZeroVector on bad input.
    """
    s1 = EllipseShape(float(a1), float(b1))
    s2 = EllipseShape(float(a2), float(b2))
    directions = []
    for v in (k1, k2, dhat):
        if not isinstance(v, UnitVec2):
            x, y = (v.x, v.y) if isinstance(v, Vec2) else v
            v = UnitVec2(float(x), float(y))
        directions.append(v)
    return PairConfiguration(s1, s2, *directions)


def _ellipse_form(a, b, kx, ky):
    """Entries (m11, m12, m22) of M = (I - e^2 kk) / b^2, the form of the
    boundary p.M.p = 1 for semi-axes a, b and major-axis direction (kx, ky):
    Python floats or numpy arrays, with the same operations in the same
    order either way."""
    e2 = _eccentricity_sq(a, b)
    f = 1.0 / (b * b)
    return f * (1.0 - e2 * kx * kx), f * (-e2 * kx * ky), f * (1.0 - e2 * ky * ky)


def _hypot(m, x, y):
    """hypot(x, y) as big * sqrt(1 + r^2), r = small / big in [0, 1], on
    floats or arrays: only abs, + - * /, sqrt and m.where, which round the
    same on both, so the two kernels agree bit for bit by construction
    (math.hypot and numpy's hypot round differently).  It overflows only
    where the result does; (0, 0) gives 0 and (inf, inf) inf."""
    ax, ay = abs(x), abs(y)
    swap = ay > ax
    big, small = m.where(swap, ay, ax), m.where(swap, ax, ay)
    # big == small covers (0, 0), where r's divisor is 1, and (inf, inf)
    r = m.where(small == big, 1.0, small / (big + (big == 0.0)))
    return big * m.sqrt(1.0 + r * r)


# The float namespace m of the kernel stages written once for floats and
# arrays (bulk.py builds the array one).  Rules that keep the two equal bit
# for bit and the float path free of exceptions: m.where(c, x, y) gets both
# x and y evaluated, so select an operand before it can raise, as in
# m.sqrt(m.where(ok, arg, 0.0)); c may be a Python bool, so combine with &
# and |, never ~ (~True == -2); m.hypot is _hypot on both paths; powers and
# exponentials only through m.pow and m.exp, Python's on both paths
# (numpy's round differently); a max(x, y) keeps Python's order, x unless
# y > x.  m.patch(keep, values, fn, *args) is the tuple values where keep
# and fn(*args) elsewhere, with fn called on the other rows only.
_FLOATS = SimpleNamespace(sqrt=math.sqrt, where=lambda c, x, y: x if c else y,
                          patch=lambda keep, values, fn, *args: values if keep else fn(*args),
                          pow=pow, exp=math.exp, copysign=math.copysign)
_FLOATS.hypot = partial(_hypot, _FLOATS)
