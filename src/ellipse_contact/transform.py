"""Anisotropic scaling of ellipse 1 to the unit circle and the eigenstructure
of the image of ellipse 2.

The scaling maps shape1 to the unit circle; shape2 becomes a new ellipse
whose quadratic form has closed-form components in the basis built from
k1 + k2 and k1 - k2.  Everything the distance and contact-point stages need
is collected in a TransformedPair.

Numerical notes, load-bearing and worth stating once:

* 1 -/+ (k1.k2) are computed from the difference/sum vectors themselves,
  ``|k1 -/+ k2|^2 / 2``.  Subtraction of nearby components is exact in IEEE
  arithmetic, so these stay fully accurate however close the axes are,
  while ``1 - c*c`` from the dot product loses all precision.
* The second basis vector is the exact quarter-turn of the first, with the
  off-diagonal component's sign adjusted to the orientation of k1 - k2.
  Normalizing k1 - k2 directly would amplify the ~1e-16 non-unitness of
  the inputs by 1/|k1 - k2| and visibly break the tangency residuals for
  nearly parallel axes.
* The eigenvector uses whichever column of (A' - lambda I) is farther from
  degenerate, with the cancellation-free identity
  lambda_plus - a11 = a12^2 / (h + g).
* lambda_minus = det A' / lambda_plus, det A' = (a1 b1 / (a2 b2))^2: avg - h
  cancels at high aspect (five digits of the distance at aspect 10^3).
* Exactly parallel or anti-parallel axes (and only those: the general path
  keeps full precision arbitrarily close to that limit) take the dedicated
  branch with eigenvectors k1 and k1-perp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import PairConfiguration, UnitVec2

__all__ = [
    "ContactBranch",
    "TransformedPair",
    "transformed_pair",
]


class ContactBranch(Enum):
    """Which formula path answers a closest-approach call.

    transformed_pair tags GENERAL or one of the exactly-parallel-axes
    branches; the contact stage may replace that tag with CIRCLE_LIKE or
    PHI_RIGHT_ANGLE when it resolves the pair without the quartic.
    """

    GENERAL = "general"
    CIRCLE_LIKE = "circle-like"
    PHI_RIGHT_ANGLE = "phi-right-angle"
    PARALLEL_AXES_2A = "parallel-axes-2a"
    PARALLEL_AXES_2B = "parallel-axes-2b"


@dataclass(frozen=True)
class TransformedPair:
    """Everything the scaling step produces.

    a11, a22, a12 are the components of the transformed quadratic form in
    the (k1+k2, k1-k2) basis (after flipping k2 so that k1.k2 >= 0).
    lambda_plus >= lambda_minus > 0 are its eigenvalues, kplus/kminus the
    eigenvectors in the original frame, b2p = 1/sqrt(lambda_plus) and
    a2p = 1/sqrt(lambda_minus) the transformed semi-axes, and
    delta = a2p^2/b2p^2 - 1 the residual anisotropy (zero iff the
    transformed ellipse is a circle).  cos_phi/sin_phi are the components
    of the transformed center-line direction on kplus/kminus, and
    dhat_scale is |T dhat| (the final distance divides by it).
    sin_gamma/cos_gamma rotate the (k1+k2, k1-k2) basis onto the
    eigenbasis; the parallel-axes branches, where that basis degenerates,
    carry the identity (2A) or the quarter turn (2B).
    """

    a11: float
    a22: float
    a12: float
    lambda_plus: float
    lambda_minus: float
    kplus: UnitVec2
    kminus: UnitVec2
    a2p: float
    b2p: float
    delta: float
    cos_phi: float
    sin_phi: float
    dhat_scale: float
    sin_gamma: float
    cos_gamma: float
    branch: ContactBranch


def transformed_pair(cfg: PairConfiguration) -> TransformedPair:
    """Scale ellipse 1 to the unit circle and eigendecompose the image of
    ellipse 2.  Valid for every valid configuration; no error paths."""
    s1, s2 = cfg.shape1, cfg.shape2
    k1 = cfg.k1
    k2x, k2y = cfg.k2.x, cfg.k2.y
    if k1.dot(cfg.k2) < 0.0:
        # anti-parallel-ish axes are equivalent to parallel-ish ones
        k2x, k2y = -k2x, -k2y

    eta = s1.a / s1.b - 1.0
    e2s = s2.eccentricity_sq()
    ratio = (s1.b * s1.b) / (s2.b * s2.b)
    w = eta * (2.0 + eta)

    dx, dy = k1.x - k2x, k1.y - k2y
    sx, sy = k1.x + k2x, k1.y + k2y
    m2 = 0.5 * (dx * dx + dy * dy)  # 1 - k1.k2, exact near the parallel limit
    p2 = 0.5 * (sx * sx + sy * sy)  # 1 + k1.k2, >= 1 after the flip
    c = k1.x * k2x + k1.y * k2y
    up, um = 1.0 + eta * c, 1.0 - eta * c

    a11 = ratio * (1.0 + 0.5 * p2 * (w - e2s * (up * up)))
    a22 = ratio * (1.0 + 0.5 * m2 * (w - e2s * (um * um)))
    a12 = ratio * 0.5 * math.sqrt(m2 * p2) * (w + e2s * (1.0 - eta * eta * c * c))

    g = 0.5 * (a11 - a22)
    h = math.hypot(g, a12)
    avg = 0.5 * (a11 + a22)
    lam_plus = avg + h
    r = (s1.a * s1.b) / (s2.a * s2.b)
    lam_minus = r * r / lam_plus
    b2p = 1.0 / math.sqrt(lam_plus)
    a2p = 1.0 / math.sqrt(lam_minus)
    delta = (lam_plus - lam_minus) / lam_minus

    # transformed center-line direction and its scale
    kd1 = k1.dot(cfg.dhat)
    shrink = -eta / (1.0 + eta)  # b1/a1 - 1
    tdx = (cfg.dhat.x + shrink * kd1 * k1.x) / s1.b
    tdy = (cfg.dhat.y + shrink * kd1 * k1.y) / s1.b
    dhat_scale = math.hypot(tdx, tdy)
    dpx, dpy = tdx / dhat_scale, tdy / dhat_scale

    if m2 * p2 == 0.0:
        # axes exactly parallel in floating point; k1 and its perp are the
        # exact eigenvectors, paired by the diagonal comparison
        if a11 >= a22:
            branch = ContactBranch.PARALLEL_AXES_2A
            kpx, kpy = k1.x, k1.y
            sin_gamma, cos_gamma = 0.0, 1.0
        else:
            branch = ContactBranch.PARALLEL_AXES_2B
            kpx, kpy = -k1.y, k1.x
            sin_gamma, cos_gamma = 1.0, 0.0
    else:
        branch = ContactBranch.GENERAL
        inv = 1.0 / math.sqrt(2.0 * p2)
        upx, upy = sx * inv, sy * inv
        umx, umy = -upy, upx  # exact quarter turn keeps the basis orthonormal
        a12s = a12 if (dx * umx + dy * umy) >= 0.0 else -a12
        if g >= 0.0:
            v1, v2 = g + h, a12s
        else:
            v1, v2 = a12s, h - g
        n = math.hypot(v1, v2)
        if n == 0.0:
            # isotropic image (both shapes effectively similar): any
            # direction is an eigenvector; pick the center line so phi = 0
            kpx, kpy = dpx, dpy
        else:
            kpx, kpy = (v1 * upx + v2 * umx) / n, (v1 * upy + v2 * umy) / n

    kn = math.hypot(kpx, kpy)
    kpx, kpy = kpx / kn, kpy / kn
    kmx, kmy = -kpy, kpx
    kplus = UnitVec2(kpx, kpy)
    if branch is ContactBranch.GENERAL:
        # m2 * p2 != 0, so neither basis vector has zero length
        cos_gamma = (kplus.x * sx + kplus.y * sy) / math.hypot(sx, sy)
        sin_gamma = (kplus.x * dx + kplus.y * dy) / math.hypot(dx, dy)

    cos_phi = kpx * dpx + kpy * dpy
    sin_phi = kmx * dpx + kmy * dpy

    return TransformedPair(
        a11=a11,
        a22=a22,
        a12=a12,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        kplus=kplus,
        kminus=UnitVec2(kmx, kmy),
        a2p=a2p,
        b2p=b2p,
        delta=delta,
        cos_phi=cos_phi,
        sin_phi=sin_phi,
        dhat_scale=dhat_scale,
        sin_gamma=sin_gamma,
        cos_gamma=cos_gamma,
        branch=branch,
    )
