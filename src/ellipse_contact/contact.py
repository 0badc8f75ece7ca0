"""Distance of closest approach, contact point, and the overlap predicate.

The pipeline: scale ellipse 1 to the unit circle, solve the circle-ellipse
tangency in the transformed frame (closed form via the quartic except for
the circular and perpendicular special cases), then map the distance and
the contact normal back.  Every solution carries enough data to be
self-validating: the contact point must lie on both boundaries and the two
outward normals must be anti-parallel, and tangency_residuals() measures
exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import (
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    Vec2,
    ellipse_matrix,
)
from .quartic import quartic_coefficients, solve_contact_quartic
from .transform import ContactBranch, TransformedPair, transformed_pair

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
# |sep - d| <= TANGENT_RTOL * d counts as tangent in the overlap verdict
TANGENT_RTOL = 1e-9


class ConcentricCenters(ValueError):
    """Center separation is (numerically) zero; the pair always overlaps."""


class OverlapVerdict(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    OVERLAPPING = "overlapping"


@dataclass(frozen=True)
class ContactSolution:
    """Full result of one closest-approach computation.

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


def _sign(x: float) -> float:
    # sign convention: sgn(0) = +1 keeps psi deterministic on the axes
    return 1.0 if x >= 0.0 else -1.0


def _distance_pieces(
    tp: TransformedPair,
) -> tuple[float, float, float, float, ContactBranch]:
    """(d_prime, q, sin_psi, cos_psi, branch) for a transformed pair.

    In the general branch psi comes from the unsquared tangency relation
    tan(psi) = tan(phi) * (1 + b2p/q) / (1 + b2p(1+delta)/q), which stays
    fully accurate as delta -> 0 where the naive sin^2(psi) = (q^2-1)/delta
    loses all precision (and normal errors are amplified by the squared
    aspect ratio on the way back).  The signs of sin/cos psi follow those
    of sin/cos phi exactly as the component equations require.
    """
    if tp.delta < DELTA_CIRCLE_TOL:
        # the transformed pair is circle-circle: normal along the center line
        return 1.0 + tp.b2p, 1.0, tp.sin_phi, tp.cos_phi, ContactBranch.CIRCLE_LIKE
    if abs(tp.cos_phi) < COS_PHI_TOL:
        q = math.sqrt(1.0 + tp.delta)
        return 1.0 + tp.a2p, q, _sign(tp.sin_phi), 0.0, ContactBranch.PHI_RIGHT_ANGLE
    tan2phi = (tp.sin_phi * tp.sin_phi) / (tp.cos_phi * tp.cos_phi)
    coeffs = quartic_coefficients(tp.b2p, tp.delta, tan2phi)
    q = solve_contact_quartic(coeffs, tp.delta)
    big_x = 1.0 + tp.b2p * (1.0 + tp.delta) / q
    big_y = 1.0 + tp.b2p / q
    tan_psi = abs(tp.sin_phi / tp.cos_phi) * big_y / big_x
    norm = math.hypot(1.0, tan_psi)
    sin_psi = _sign(tp.sin_phi) * tan_psi / norm
    cos_psi = _sign(tp.cos_phi) / norm
    frac = (tan_psi / norm) ** 2
    d_prime = math.sqrt(frac * big_x * big_x + (1.0 - frac) * big_y * big_y)
    return d_prime, q, sin_psi, cos_psi, tp.branch


def closest_approach(cfg: PairConfiguration) -> ContactSolution:
    """Distance of closest approach of the two ellipse centers along dhat,
    together with the contact point and normal.  Deterministic: the same
    configuration always produces the identical result."""
    tp = transformed_pair(cfg)
    d_prime, q, sin_psi, cos_psi, branch = _distance_pieces(tp)
    d = d_prime / tp.dhat_scale

    eta = cfg.shape1.a / cfg.shape1.b - 1.0
    k1 = cfg.k1
    if branch in (ContactBranch.CIRCLE_LIKE, ContactBranch.PHI_RIGHT_ANGLE):
        # the transformed normal is the transformed center line itself, so
        # the contact point is dhat / |T dhat|
        rc = Vec2(cfg.dhat.x / tp.dhat_scale, cfg.dhat.y / tp.dhat_scale)
    else:
        npx = cos_psi * tp.kplus.x + sin_psi * tp.kminus.x
        npy = cos_psi * tp.kplus.y + sin_psi * tp.kminus.y
        t = eta * (k1.x * npx + k1.y * npy)
        rc = Vec2(
            cfg.shape1.b * (npx + t * k1.x),
            cfg.shape1.b * (npy + t * k1.y),
        )

    normal_vec = ellipse_matrix(cfg.shape1, k1).apply(rc)
    return ContactSolution(
        d=d,
        d_prime=d_prime,
        q=q,
        sin_psi=sin_psi,
        cos_psi=cos_psi,
        sin_gamma=tp.sin_gamma,
        cos_gamma=tp.cos_gamma,
        contact_point=rc,
        contact_normal=UnitVec2(normal_vec.x, normal_vec.y),
        branch=branch,
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
    boundaries and the outward normals are anti-parallel.
    """
    m1 = ellipse_matrix(cfg.shape1, cfg.k1)
    m2 = ellipse_matrix(cfg.shape2, cfg.k2)
    rc = sol.contact_point
    r1 = abs(m1.quadratic_form(rc) - 1.0)
    p2 = Vec2(rc.x - sol.d * cfg.dhat.x, rc.y - sol.d * cfg.dhat.y)
    r2 = abs(m2.quadratic_form(p2) - 1.0)
    n1 = m1.apply(rc)
    n2 = m2.apply(p2)
    cross = abs(n1.cross(n2)) / (n1.norm() * n2.norm())
    return r1, r2, cross


def _overlap_distance(shape1, shape2, k1, k2, r12: Vec2) -> tuple[OverlapVerdict, float]:
    """overlap() and the contact distance along r12 that it compared."""
    sep = r12.norm()
    if sep < 1e-14:
        raise ConcentricCenters(f"center separation {sep!r} is numerically zero")
    dhat = UnitVec2(r12.x, r12.y)
    d = closest_approach(PairConfiguration(shape1, shape2, k1, k2, dhat)).d
    if abs(sep - d) <= TANGENT_RTOL * d:
        return OverlapVerdict.TANGENT, d
    if sep < d:
        return OverlapVerdict.OVERLAPPING, d
    return OverlapVerdict.DISJOINT, d


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
    distance are reported as tangent.
    """
    return _overlap_distance(shape1, shape2, k1, k2, r12)[0]
