"""Anisotropic scaling of ellipse 1 to the unit circle and the eigenstructure
of the image of ellipse 2.

The scaling maps shape1 to the unit circle; shape2 becomes a new ellipse
whose quadratic form has closed-form components in the basis built from
k1 + k2 and k1 - k2.  Everything the distance and contact-point stages need
is collected in a TransformedPair.

The arithmetic is written once, in _transform, for Python floats
(transformed_pair) or numpy arrays of rows (bulk.contact_arrays), under
the rules stated at geometry._FLOATS: Python raises on a division by
zero where numpy gives inf, so the isotropic divisor is replaced by 1
before it divides.

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
from enum import Enum
from typing import NamedTuple

from .geometry import _FLOATS, PairConfiguration, UnitVec2, _eccentricity_sq

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


class TransformedPair(NamedTuple):
    """Everything the scaling step produces, built positionally.

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


def _transform(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy, m):
    """Scaling and eigendecomposition of a configuration in floats (m =
    _FLOATS) or of rows of them in arrays (bulk.py), with unit directions.
    Returns (eta, a11, a22, a12, lambda_plus, lambda_minus, b2p, a2p, delta,
    dhat_scale, kplus, kminus, cos_phi, sin_phi, parallel, par_a, s, dvec);
    kplus, kminus, s = k1 + k2 and dvec = k1 - k2 (k2 flipped) are pairs.
    """
    # anti-parallel-ish axes are equivalent to parallel-ish ones
    flip = k1x * k2x + k1y * k2y < 0.0
    k2x, k2y = m.where(flip, -k2x, k2x), m.where(flip, -k2y, k2y)

    eta = a1 / b1 - 1.0
    e2s = _eccentricity_sq(a2, b2)  # e^2 of ellipse 2
    ratio = (b1 * b1) / (b2 * b2)
    w = eta * (2.0 + eta)

    dx, dy = k1x - k2x, k1y - k2y
    sx, sy = k1x + k2x, k1y + k2y
    m2 = 0.5 * (dx * dx + dy * dy)  # 1 - k1.k2, exact near the parallel limit
    p2 = 0.5 * (sx * sx + sy * sy)  # 1 + k1.k2, >= 1 after the flip
    c = k1x * k2x + k1y * k2y
    up, um = 1.0 + eta * c, 1.0 - eta * c

    a11 = ratio * (1.0 + 0.5 * p2 * (w - e2s * (up * up)))
    a22 = ratio * (1.0 + 0.5 * m2 * (w - e2s * (um * um)))
    a12 = ratio * 0.5 * m.sqrt(m2 * p2) * (w + e2s * (1.0 - eta * eta * c * c))

    g = 0.5 * (a11 - a22)
    h = m.hypot(g, a12)
    avg = 0.5 * (a11 + a22)
    lam_plus = avg + h
    r = (a1 * b1) / (a2 * b2)
    lam_minus = r * r / lam_plus
    b2p = 1.0 / m.sqrt(lam_plus)
    a2p = 1.0 / m.sqrt(lam_minus)
    delta = (lam_plus - lam_minus) / lam_minus

    # transformed center-line direction and its scale
    kd1 = k1x * dhx + k1y * dhy
    shrink = -eta / (1.0 + eta)  # b1/a1 - 1
    tdx = (dhx + shrink * kd1 * k1x) / b1
    tdy = (dhy + shrink * kd1 * k1y) / b1
    dhat_scale = m.hypot(tdx, tdy)
    dpx, dpy = tdx / dhat_scale, tdy / dhat_scale

    # eigenvector of lambda_plus in the (k1+k2, k1-k2) basis
    inv = 1.0 / m.sqrt(2.0 * p2)
    upx, upy = sx * inv, sy * inv
    umx, umy = -upy, upx  # exact quarter turn keeps the basis orthonormal
    a12s = m.where(dx * umx + dy * umy >= 0.0, a12, -a12)
    v1 = m.where(g >= 0.0, g + h, a12s)
    v2 = m.where(g >= 0.0, a12s, h - g)
    n = m.hypot(v1, v2)
    # isotropic image (both shapes effectively similar): any direction is
    # an eigenvector; take the center line so phi = 0
    iso = n == 0.0
    n = m.where(iso, 1.0, n)
    kpx = m.where(iso, dpx, (v1 * upx + v2 * umx) / n)
    kpy = m.where(iso, dpy, (v1 * upy + v2 * umy) / n)
    # axes exactly parallel in floating point: k1 and its perp are the
    # exact eigenvectors, paired by the diagonal comparison
    parallel = m2 * p2 == 0.0
    par_a = parallel & (a11 >= a22)
    kpx = m.where(parallel, m.where(par_a, k1x, -k1y), kpx)
    kpy = m.where(parallel, m.where(par_a, k1y, k1x), kpy)

    kn = m.hypot(kpx, kpy)
    kpx, kpy = kpx / kn, kpy / kn
    kmx, kmy = -kpy, kpx
    cos_phi = kpx * dpx + kpy * dpy
    sin_phi = kmx * dpx + kmy * dpy
    return (
        eta, a11, a22, a12, lam_plus, lam_minus, b2p, a2p, delta, dhat_scale,
        (kpx, kpy), (kmx, kmy), cos_phi, sin_phi, parallel, par_a, (sx, sy), (dx, dy),
    )


def transformed_pair(cfg: PairConfiguration) -> TransformedPair:
    """Scale ellipse 1 to the unit circle and eigendecompose the image of
    ellipse 2.  Valid for every valid configuration; no error paths."""
    s1, s2, k1, k2, dhat = cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, cfg.dhat
    (
        _, a11, a22, a12, lam_plus, lam_minus, b2p, a2p, delta, dhat_scale,
        kp, km, cos_phi, sin_phi, parallel, par_a, (sx, sy), (dx, dy),
    ) = _transform(s1.a, s1.b, s2.a, s2.b, k1.x, k1.y, k2.x, k2.y, dhat.x, dhat.y, _FLOATS)
    kplus = UnitVec2(*kp)
    if par_a:
        branch, sin_gamma, cos_gamma = ContactBranch.PARALLEL_AXES_2A, 0.0, 1.0
    elif parallel:
        branch, sin_gamma, cos_gamma = ContactBranch.PARALLEL_AXES_2B, 1.0, 0.0
    else:
        # m2 * p2 != 0, so s = k1 + k2 has nonzero length; the second basis
        # vector is its exact quarter turn, oriented along k1 - k2 as
        # _transform orients a12, so (sin, cos) share one divisor and stay
        # a unit pair however close the axes are
        branch = ContactBranch.GENERAL
        sn = math.hypot(sx, sy)
        cos_gamma = (kplus.x * sx + kplus.y * sy) / sn
        sin_gamma = (kplus.y * sx - kplus.x * sy) / sn
        if dy * sx - dx * sy < 0.0:
            sin_gamma = -sin_gamma

    return TransformedPair(
        a11, a22, a12, lam_plus, lam_minus, kplus, UnitVec2(*km), a2p, b2p, delta,
        cos_phi, sin_phi, dhat_scale, sin_gamma, cos_gamma, branch,
    )
