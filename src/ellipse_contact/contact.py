"""Distance of closest approach, contact point, and the overlap predicate.

The pipeline: scale ellipse 1 to the unit circle, solve the circle-ellipse
tangency in the transformed frame (closed form via the quartic except for
the circular and perpendicular special cases), then map the distance and
the contact normal back.  Every solution carries enough data to be
self-validating: the contact point must lie on both boundaries and the two
outward normals must be anti-parallel, and tangency_residuals() measures
exactly that.  _branches, _on_line_pieces, _psi_d_prime, _contact_point
and _tangency take floats or arrays (geometry._FLOATS), so
bulk.contact_arrays runs them too.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .geometry import _FLOATS, EllipseShape, PairConfiguration, UnitVec2, Vec2, _ellipse_form
from .geometry import _finite_components
from .quartic import solve_contact_quartic
from .transform import ContactBranch, transformed_pair

__all__ = [
    "ConcentricCenters",
    "ContactBranch",
    "ContactSolution",
    "OverlapVerdict",
    "closest_approach",
    "contact_point",
    "overlap",
    "tangency_residuals",
    "DELTA_CIRCLE_TOL",
    "COS_PHI_TOL",
    "TANGENT_RTOL",
]

# branch thresholds; the guarded expressions degrade quadratically, so both
# sides agree to well below 1e-8 at these cutoffs (asserted by tests)
DELTA_CIRCLE_TOL = 1e-12
COS_PHI_TOL = 1e-12
# a separation within TANGENT_RTOL * d of d counts as tangent in overlap()
TANGENT_RTOL = 1e-9


class ConcentricCenters(ValueError):
    """Center separation is at most 1e-14 (b1 + b2); the pair overlaps."""


class OverlapVerdict(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    OVERLAPPING = "overlapping"


class ContactSolution(NamedTuple):
    """Full result of one closest-approach computation, built positionally.

    d is the physical center distance at external tangency along dhat;
    d_prime and q are the transformed-frame quantities; psi and gamma are
    reported as (sin, cos) pairs; contact_point is measured from the center
    of ellipse 1 in the original frame and contact_normal is the outward
    normal of ellipse 1 there.
    """

    d: float
    d_prime: float
    q: float
    sin_psi: float
    cos_psi: float
    sin_gamma: float
    cos_gamma: float
    contact_point: Vec2
    contact_normal: UnitVec2
    branch: ContactBranch


def _branches(delta, cos_phi):
    """(circle, on_line): the image of ellipse 2 is a circle, or the
    transformed normal is the center line (a circle, or phi = pi/2)."""
    circle = delta < DELTA_CIRCLE_TOL
    return circle, circle | (abs(cos_phi) < COS_PHI_TOL)


def _on_line_pieces(circle, a2p, b2p, delta, sin_phi, cos_phi, m):
    """(d_prime, q, sin_psi, cos_psi) where the transformed normal is the
    center line: a circle-like image (circle, q = 1) or phi = pi/2."""
    where = m.where
    sin_psi = where(circle, sin_phi, where(sin_phi >= 0.0, 1.0, -1.0))  # sgn(0) = +1
    q = m.sqrt(where(circle, 1.0, 1.0 + delta))
    return where(circle, 1.0 + b2p, 1.0 + a2p), q, sin_psi, where(circle, cos_phi, 0.0)


def _psi_d_prime(b2p, delta, sin_phi, cos_phi, q, m):
    """(sin_psi, cos_psi, d_prime) of the general branch from the root q.

    psi comes from the unsquared tangency relation
    tan(psi) = tan(phi) * (1 + b2p/q) / (1 + b2p(1+delta)/q), which stays
    fully accurate as delta -> 0 where the naive sin^2(psi) = (q^2-1)/delta
    loses all precision (and normal errors are amplified by the squared
    aspect ratio on the way back).  The signs of sin/cos psi follow those
    of sin/cos phi exactly as the component equations require; sgn(0) = +1
    keeps psi deterministic on the axes.
    """
    big_x = 1.0 + b2p * (1.0 + delta) / q
    big_y = 1.0 + b2p / q
    tan_psi = abs(sin_phi / cos_phi) * big_y / big_x
    norm = m.hypot(1.0, tan_psi)
    sin_psi = m.where(sin_phi >= 0.0, 1.0, -1.0) * tan_psi / norm
    cos_psi = m.where(cos_phi >= 0.0, 1.0, -1.0) / norm
    frac = sin_psi * sin_psi
    return sin_psi, cos_psi, m.sqrt(frac * big_x * big_x + (1.0 - frac) * big_y * big_y)


def _contact_point(b1, eta, k1x, k1y, kpx, kpy, kmx, kmy, sin_psi, cos_psi):
    """The general branch's contact point b1 (n' + eta (k1.n') k1), from the
    center of ellipse 1, for n' = cos_psi k+ + sin_psi k- and eta = a1/b1 - 1."""
    npx = cos_psi * kpx + sin_psi * kmx
    npy = cos_psi * kpy + sin_psi * kmy
    t = eta * (k1x * npx + k1y * npy)
    return b1 * (npx + t * k1x), b1 * (npy + t * k1y)


def _normal(m, x, y):
    """M.p, the outward normal at p of the boundary p.M.p = 1, unnormalised."""
    m11, m12, m22 = m
    return m11 * x + m12 * y, m12 * x + m22 * y


def _tangency(a1, b1, k1x, k1y, a2, b2, k2x, k2y, rcx, rcy, d, dhx, dhy):
    """(p2, r1, r2, n1, n2) for the contact point rc at d along dhat, on
    floats or numpy arrays alike (+ - * and abs only): p2 = rc - d dhat,
    r1 = |rc.M1.rc - 1|, r2 = |p2.M2.p2 - 1|, n1 = M1.rc and n2 = M2.p2."""
    m1 = _ellipse_form(a1, b1, k1x, k1y)
    m2 = _ellipse_form(a2, b2, k2x, k2y)
    p2x, p2y = rcx - d * dhx, rcy - d * dhy
    (m11, m12, m22), (n11, n12, n22) = m1, m2
    r1 = abs(m11 * rcx * rcx + 2.0 * m12 * rcx * rcy + m22 * rcy * rcy - 1.0)
    r2 = abs(n11 * p2x * p2x + 2.0 * n12 * p2x * p2y + n22 * p2y * p2y - 1.0)
    return (p2x, p2y), r1, r2, _normal(m1, rcx, rcy), _normal(m2, p2x, p2y)


def closest_approach(cfg: PairConfiguration) -> ContactSolution:
    """Distance of closest approach of the two ellipse centers along dhat,
    together with the contact point and normal.  Deterministic: the same
    configuration always produces the identical result.  OverflowError
    when the distance, d_prime or q is not finite, as for a semi-axis
    ratio near 1e160."""
    (
        _, _, _, _, _, kplus, kminus, a2p, b2p, delta, cos_phi, sin_phi, dhat_scale,
        sin_gamma, cos_gamma, branch,
    ) = transformed_pair(cfg)
    circle, on_line = _branches(delta, cos_phi)
    if on_line:
        d_prime, q, sin_psi, cos_psi = _on_line_pieces(
            circle, a2p, b2p, delta, sin_phi, cos_phi, _FLOATS
        )
        branch = ContactBranch.CIRCLE_LIKE if circle else ContactBranch.PHI_RIGHT_ANGLE
    else:
        tan2phi = (sin_phi * sin_phi) / (cos_phi * cos_phi)
        q = solve_contact_quartic(b2p, delta, tan2phi)
        sin_psi, cos_psi, d_prime = _psi_d_prime(b2p, delta, sin_phi, cos_phi, q, _FLOATS)
    d = d_prime / dhat_scale
    if not math.isfinite(d):
        raise OverflowError(f"contact distance is not finite ({d!r})")

    a1, b1 = cfg.shape1.a, cfg.shape1.b
    k1x, k1y = cfg.k1.x, cfg.k1.y
    if on_line:
        # the transformed normal is the transformed center line itself, so
        # the contact point is dhat / |T dhat|
        rc = Vec2(cfg.dhat.x / dhat_scale, cfg.dhat.y / dhat_scale)
    else:
        rc = Vec2(*_contact_point(
            b1, a1 / b1 - 1.0, k1x, k1y, kplus.x, kplus.y, kminus.x, kminus.y, sin_psi, cos_psi
        ))

    nx, ny = _normal(_ellipse_form(a1, b1, k1x, k1y), rc.x, rc.y)
    _finite_components(nx, ny)
    normal = UnitVec2(nx, ny)
    if not (math.isfinite(d_prime) and math.isfinite(q)):
        raise OverflowError(f"transformed contact is not finite (d_prime={d_prime!r}, q={q!r})")
    return ContactSolution(
        d, d_prime, q, sin_psi, cos_psi, sin_gamma, cos_gamma, rc, normal, branch
    )


def contact_point(cfg: PairConfiguration) -> tuple[Vec2, ContactSolution]:
    """Contact point on ellipse 1 (original frame, from its center)."""
    sol = closest_approach(cfg)
    return sol.contact_point, sol


def tangency_residuals(
    cfg: PairConfiguration, sol: ContactSolution
) -> tuple[float, float, float]:
    """(|on-E1 residual|, |on-E2 residual|, |normal cross product|).

    All three vanish for an exact solution: the contact point lies on both
    boundaries and the outward normals are anti-parallel.  ValueError when
    the second point, a normal or one of the three is not finite.
    """
    s1, s2, rc, dhat = cfg.shape1, cfg.shape2, sol.contact_point, cfg.dhat
    p2, r1, r2, n1, n2 = _tangency(
        s1.a, s1.b, cfg.k1.x, cfg.k1.y, s2.a, s2.b, cfg.k2.x, cfg.k2.y,
        rc.x, rc.y, sol.d, dhat.x, dhat.y,
    )
    # ValueError for a non-finite p2, n1 or n2, in that order, as Vec2 gives
    (n1x, n1y), (n2x, n2y) = n1, n2
    _finite_components(*p2)
    _finite_components(n1x, n1y)
    _finite_components(n2x, n2y)
    # |n1 x n2| / (|n1| |n2|), the norms by Vec2.norm's hypot
    cross = abs(n1x * n2y - n1y * n2x) / (math.hypot(n1x, n1y) * math.hypot(n2x, n2y))
    if not (math.isfinite(r1) and math.isfinite(r2) and math.isfinite(cross)):
        raise ValueError(f"non-finite tangency residuals ({r1!r}, {r2!r}, {cross!r})")
    return r1, r2, cross


def _overlap_distance(shape1, shape2, k1, k2, r12: Vec2) -> tuple[OverlapVerdict, float]:
    """overlap() and the contact distance along r12 that it compared."""
    sep = r12.norm()
    # d >= b1 + b2 along every direction, so such a pair overlaps; <= keeps
    # sep = 0 here when the bound underflows to 0
    if sep <= 1e-14 * (shape1.b + shape2.b):
        raise ConcentricCenters(f"center separation {sep!r} is numerically zero")
    dhat = UnitVec2(r12.x, r12.y)
    d = closest_approach(PairConfiguration(shape1, shape2, k1, k2, dhat)).d
    if _overlapping(r12.x, r12.y, d):
        return OverlapVerdict.OVERLAPPING, d
    if sep - d <= TANGENT_RTOL * d:
        return OverlapVerdict.TANGENT, d
    return OverlapVerdict.DISJOINT, d


def _overlapping(dx: float, dy: float, d: float) -> bool:
    """The overlap rule for centers (dx, dy) apart at contact distance d,
    which overlap() and mcsim's pair check share."""
    return math.hypot(dx, dy) < d * (1.0 - TANGENT_RTOL)


def overlap(
    shape1: EllipseShape,
    shape2: EllipseShape,
    k1: UnitVec2,
    k2: UnitVec2,
    r12: Vec2,
) -> OverlapVerdict:
    """Overlap verdict for ellipse 2 displaced by r12 from ellipse 1.

    Two ellipses at fixed orientations overlap exactly when their center
    separation is below the contact distance along the separation
    direction.  Separations within TANGENT_RTOL (relative) of the contact
    distance are reported as tangent.  OverflowError, from
    closest_approach, when that distance is not finite.
    """
    return _overlap_distance(shape1, shape2, k1, k2, r12)[0]
