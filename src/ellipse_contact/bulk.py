"""Closest approach for many configurations at once, bit for bit equal to
the scalar kernel.

contact_arrays() evaluates make_pair_configuration + closest_approach +
tangency_residuals on structure-of-arrays input and returns, for every
row it resolves, exactly the floats the scalar calls return.  Rows it
cannot match that way are flagged and left to the scalar path, which then
gives the result or raises the exception the scalar API raises.

How the floats stay identical:

* numpy does only correctly rounded operations (+ - * /, sqrt, abs),
  comparisons and selections, in the scalar code's operation order;
* math.hypot and every ``**`` run per element on Python floats, because
  numpy's hypot and power round differently on some inputs;
* every renormalisation a UnitVec2 performs is repeated;
* the branches of transform.py, contact.py and quartic.py become masks:
  the five contact branches, the biquadratic case and the four Ferrari
  assemblies, tried in the scalar order (designated, then (+,-), (-,+),
  (-,-)); the first accepted assembly wins.

A row goes to the scalar path when its input fails validation, when any
intermediate it uses is non-finite or a per-element call raises (where the
scalar code may raise), when the resolvent gives s1 < 0 or W = 0, or when
no assembly is accepted (the companion-matrix fallback).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .contact import COS_PHI_TOL, DELTA_CIRCLE_TOL
from .geometry import _ellipse_form
from .quartic import (
    BRACKET_TOL,
    POLISH_STEPS,
    RESIDUAL_RTOL,
    QuarticCoeffs,
    _horner_compensated,
    _resolvent_root,
)
from .transform import ContactBranch

__all__ = ["BRANCHES", "ContactArrays", "contact_arrays", "unit_vectors"]

# branch codes index this tuple; scalar-path rows read -1
BRANCHES = (
    ContactBranch.GENERAL,
    ContactBranch.CIRCLE_LIKE,
    ContactBranch.PHI_RIGHT_ANGLE,
    ContactBranch.PARALLEL_AXES_2A,
    ContactBranch.PARALLEL_AXES_2B,
)
_GENERAL, _CIRCLE, _RIGHT, _PAR_A, _PAR_B = range(len(BRANCHES))


class ContactArrays(NamedTuple):
    """Per-row results; rows flagged in ``scalar`` hold nan and branch -1."""

    d: np.ndarray
    d_prime: np.ndarray
    q: np.ndarray
    rc_x: np.ndarray
    rc_y: np.ndarray
    branch: np.ndarray
    residual_e1: np.ndarray
    residual_e2: np.ndarray
    scalar: np.ndarray


def _each(fn, bad: np.ndarray, *cols) -> np.ndarray:
    """fn applied element by element to Python floats (a non-array column
    is a constant).  Rows where fn raises are flagged in bad and read nan."""
    args = [c.tolist() if isinstance(c, np.ndarray) else repeat(c) for c in cols]
    try:
        return np.fromiter(map(fn, *args), dtype=np.float64, count=len(bad))
    except (ArithmeticError, ValueError):
        out = np.empty(len(bad))
        for i, xs in enumerate(zip(*args)):
            try:
                out[i] = fn(*xs)
            except (ArithmeticError, ValueError):
                out[i] = math.nan
                bad[i] = True
        return out


def _flag_nonfinite(bad: np.ndarray, *xs: np.ndarray) -> None:
    for x in xs:
        bad |= ~np.isfinite(x)


def _unit(x: np.ndarray, y: np.ndarray, bad: np.ndarray):
    """UnitVec2(x, y): rows it would reject are flagged."""
    n = _each(math.hypot, bad, x, y)
    bad |= (n == 0.0) | ~np.isfinite(n)
    renorm = n != 1.0
    return np.where(renorm, x / n, x), np.where(renorm, y / n, y)


def _py_max(x, y):
    """Python's max(x, y): x unless y > x."""
    return np.where(y > x, y, x)


def _py_min(x, y):
    """Python's min(x, y): x unless y < x."""
    return np.where(y < x, y, x)


def _accept(c: QuarticCoeffs, q: np.ndarray, hi: np.ndarray, bad: np.ndarray):
    """quartic._accept over arrays of in-bracket candidates: (polished q,
    accepted mask)."""
    q = _py_min(_py_max(q, 1.0), hi)
    active = np.ones(len(q), dtype=bool)
    for _ in range(POLISH_STEPS):  # quartic._polish
        f = _horner_compensated(c, q)
        fp = c.derivative(q)
        active &= fp != 0.0
        q = np.where(active, q - f / fp, q)
    q = _py_min(_py_max(q, 1.0), hi)
    res = abs(_horner_compensated(c, q))
    q4 = _each(pow, bad, q, 4)
    return q, res <= RESIDUAL_RTOL * _py_max(abs(c.a) * q4, abs(c.e))


def _quartic_roots(b2p, delta, tan2phi, bad):
    """quartic_coefficients + solve_contact_quartic over arrays.  Rows the
    closed form leaves to the companion-matrix fallback are flagged."""
    ib2 = 1.0 / (b2p * b2p)
    opd = 1.0 + delta
    opt = 1.0 + tan2phi
    c = QuarticCoeffs(
        a=-ib2 * opt,
        b=-2.0 / b2p * (opt + delta),
        c=-tan2phi - _each(pow, bad, opd, 2) + ib2 * (1.0 + opd * tan2phi),
        d=2.0 / b2p * opt * opd,
        e=(opt + delta) * opd,
    )
    hi = np.sqrt(opd)
    a, b = c.a, c.b
    a3 = _each(pow, bad, a, 3)
    alpha = -3.0 * b * b / (8.0 * a * a) + c.c / a
    beta = _each(pow, bad, b, 3) / (8.0 * a3) - b * c.c / (2.0 * a * a) + c.d / a
    gamma = (
        -3.0 * _each(pow, bad, b, 4) / (256.0 * _each(pow, bad, a, 4))
        + c.c * b * b / (16.0 * a3)
        - b * c.d / (4.0 * a * a)
        + c.e / a
    )
    shift = -b / (4.0 * a)
    _flag_nonfinite(bad, *c, hi, alpha, beta, gamma, shift)

    # biquadratic rows: both inner signs are candidates
    biq = abs(beta) < 1e-11 * _py_max(1.0, _each(pow, bad, abs(b / a), 3))
    inner = np.sqrt(_py_max(alpha * alpha - 4.0 * gamma, 0.0))
    r_hi = shift + np.sqrt(_py_max((-alpha + inner) / 2.0, 0.0))
    r_lo = shift + np.sqrt(_py_max((-alpha - inner) / 2.0, 0.0))

    y = np.zeros(len(bad))
    cubic = np.flatnonzero(~biq)
    sub_bad = np.zeros(len(cubic), dtype=bool)
    y[cubic] = _each(_resolvent_root, sub_bad, alpha[cubic], beta[cubic], gamma[cubic])
    bad[cubic] |= sub_bad
    s1 = alpha + 2.0 * y
    s1 = np.where((-1e-12 < s1) & (s1 < 0.0), 0.0, s1)
    big_w = np.sqrt(s1)
    # s1 < 0 (no candidate) and W = 0 rows are the scalar code's to resolve
    bad |= ~biq & ((s1 < 0.0) | (big_w == 0.0) | ~np.isfinite(y))

    candidates = []
    for sign_w in (1.0, -1.0):
        arg = -(3.0 * alpha + 2.0 * y + sign_w * 2.0 * beta / big_w)
        root_term = np.sqrt(arg)
        for sign_r in (1.0, -1.0):
            r = shift + 0.5 * (sign_w * big_w + sign_r * root_term)
            candidates.append((r, ~biq & (arg >= 0.0)))
    # designated first, then the others in the order the scalar code tries
    candidates[0] = (np.where(biq, r_hi, candidates[0][0]), biq | candidates[0][1])
    candidates[1] = (np.where(biq, r_lo, candidates[1][0]), biq | candidates[1][1])

    # every in-bracket candidate of every row goes through one _accept call
    # (it has no side effects), concatenated in the scalar order; per row
    # the first candidate that is accepted, or whose q**4 raises (where the
    # scalar code raises), decides
    tried = [
        np.flatnonzero(exists & ~bad & (1.0 - BRACKET_TOL <= r) & (r <= hi + BRACKET_TOL))
        for r, exists in candidates
    ]
    rows = np.concatenate(tried)
    raised = np.zeros(len(rows), dtype=bool)
    got, ok = _accept(
        QuarticCoeffs(*(x[rows] for x in c)),
        np.concatenate([r[t] for (r, _), t in zip(candidates, tried)]),
        hi[rows], raised,
    )
    decided = np.flatnonzero(raised | ok)
    win = decided[np.unique(rows[decided], return_index=True)[1]]
    q = np.full(len(bad), math.nan)
    q[rows[win]] = np.where(raised[win], math.nan, got[win])
    # a raise, or no closed-form candidate (the companion-matrix fallback)
    bad |= np.isnan(q)
    return q


def unit_vectors(theta_deg) -> tuple[np.ndarray, np.ndarray]:
    """UnitVec2.from_angle(math.radians(theta)) for each angle in degrees,
    as (x, y) arrays; nan where that call raises (a non-finite angle)."""
    rad = np.asarray(theta_deg, dtype=np.float64) * (math.pi / 180.0)  # math.radians
    bad = np.zeros(len(rad), dtype=bool)
    x, y = _unit(_each(math.cos, bad, rad), _each(math.sin, bad, rad), bad)
    x[bad] = y[bad] = math.nan
    return x, y


def contact_arrays(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy) -> ContactArrays:
    """Closest approach and tangency residuals for each row of the inputs.

    Row i is the configuration make_pair_configuration(a1[i], b1[i],
    a2[i], b2[i], (k1x[i], k1y[i]), (k2x[i], k2y[i]), (dx[i], dy[i])).
    Directions need not be unit length; they are normalised as there.
    Where ``scalar`` is False, d, d_prime, q, rc_x, rc_y and the branch are
    those of closest_approach and residual_e1/residual_e2 the first two
    values of tangency_residuals, bit for bit.  Rows flagged in ``scalar``
    must be computed with the scalar API, which may raise for them.
    """
    cols = [np.asarray(v, dtype=np.float64) for v in (a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy)]
    if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
        raise ValueError("contact_arrays needs ten 1-D arrays of one length")
    n = len(cols[0])
    out = [np.full(n, math.nan) for _ in range(7)]
    branch = np.full(n, -1, dtype=np.int8)
    with np.errstate(all="ignore"):
        a1, b1, a2, b2 = cols[:4]
        valid = (
            np.isfinite(a1) & np.isfinite(b1) & (b1 > 0.0) & (a1 >= b1)
            & np.isfinite(a2) & np.isfinite(b2) & (b2 > 0.0) & (a2 >= b2)
        )
        for c in cols[4:]:
            valid &= np.isfinite(c)
        rows = np.flatnonzero(valid)
        *values, codes, bad = _solve(*(c[rows] for c in cols))
        rows = rows[~bad]
        for dst, src in zip(out, values):
            dst[rows] = src[~bad]
        branch[rows] = codes[~bad]
    scalar = np.ones(n, dtype=bool)
    scalar[rows] = False
    return ContactArrays(*out[:5], branch, *out[5:], scalar)


def _solve(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy):
    """The scalar pipeline over validated rows; returns the seven float
    columns, the branch codes and the rows to leave to the scalar path."""
    bad = np.zeros(len(a1), dtype=bool)
    # make_pair_configuration
    k1x, k1y = _unit(k1x, k1y, bad)
    k2x, k2y = _unit(k2x, k2y, bad)
    dhx, dhy = _unit(dhx, dhy, bad)
    eta, b2p, a2p, delta, dhat_scale, cos_phi, sin_phi, kplus, kminus, codes = (
        _transformed_pair(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy, bad)
    )

    # contact._distance_pieces
    circle = delta < DELTA_CIRCLE_TOL
    right = ~circle & (abs(cos_phi) < COS_PHI_TOL)
    codes[circle] = _CIRCLE
    codes[right] = _RIGHT
    d_prime = np.where(circle, 1.0 + b2p, 1.0 + a2p)
    q = np.where(circle, 1.0, np.sqrt(1.0 + delta))
    sin_psi = np.where(circle, sin_phi, np.where(sin_phi >= 0.0, 1.0, -1.0))
    cos_psi = np.where(circle, cos_phi, 0.0)

    rows = np.flatnonzero(~circle & ~right & ~bad)
    sub_bad = np.zeros(len(rows), dtype=bool)
    s, co = sin_phi[rows], cos_phi[rows]
    sb2p, sdelta = b2p[rows], delta[rows]
    sq = _quartic_roots(sb2p, sdelta, (s * s) / (co * co), sub_bad)
    big_x = 1.0 + sb2p * (1.0 + sdelta) / sq
    big_y = 1.0 + sb2p / sq
    tan_psi = abs(s / co) * big_y / big_x
    norm = _each(math.hypot, sub_bad, 1.0, tan_psi)
    frac = _each(pow, sub_bad, tan_psi / norm, 2)
    q[rows] = sq
    d_prime[rows] = np.sqrt(frac * big_x * big_x + (1.0 - frac) * big_y * big_y)
    sin_psi[rows] = np.where(s >= 0.0, 1.0, -1.0) * tan_psi / norm
    cos_psi[rows] = np.where(co >= 0.0, 1.0, -1.0) / norm
    bad[rows] |= sub_bad
    d = d_prime / dhat_scale

    # contact.closest_approach: the contact point
    npx = cos_psi * kplus[0] + sin_psi * kminus[0]
    npy = cos_psi * kplus[1] + sin_psi * kminus[1]
    t = eta * (k1x * npx + k1y * npy)
    on_line = circle | right
    rc_x = np.where(on_line, dhx / dhat_scale, b1 * (npx + t * k1x))
    rc_y = np.where(on_line, dhy / dhat_scale, b1 * (npy + t * k1y))

    # tangency_residuals (with the unflipped k2), and the checks that
    # UnitVec2(normal), Vec2 and the residuals' normal cross product make
    m11, m12, m22 = _ellipse_form(a1, b1, k1x, k1y)
    n11, n12, n22 = _ellipse_form(a2, b2, k2x, k2y)
    p2x = rc_x - d * dhx
    p2y = rc_y - d * dhy
    r1 = abs(m11 * rc_x * rc_x + 2.0 * m12 * rc_x * rc_y + m22 * rc_y * rc_y - 1.0)
    r2 = abs(n11 * p2x * p2x + 2.0 * n12 * p2x * p2y + n22 * p2y * p2y - 1.0)
    nx, ny = m11 * rc_x + m12 * rc_y, m12 * rc_x + m22 * rc_y
    ox, oy = n11 * p2x + n12 * p2y, n12 * p2x + n22 * p2y
    _flag_nonfinite(bad, q, d_prime, sin_psi, cos_psi, d, rc_x, rc_y, r1, r2, nx, ny, ox, oy)
    big_n = np.maximum(abs(nx), abs(ny))
    # |n| = 0 or an overflowing hypot would make UnitVec2(normal) raise; a
    # vanishing |n1||n2| would make the cross product divide by zero
    bad |= (big_n == 0.0) | (big_n > 1e307) | (big_n * np.maximum(abs(ox), abs(oy)) < 1e-300)
    return d, d_prime, q, rc_x, rc_y, r1, r2, codes, bad


def _transformed_pair(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy, bad):
    """transform.transformed_pair over arrays of unit vectors: eta and the
    fields the contact stage reads; kplus and kminus are (x, y) pairs."""
    flip = np.flatnonzero(k1x * k2x + k1y * k2y < 0.0)
    k2x, k2y = k2x.copy(), k2y.copy()
    k2x[flip], k2y[flip] = _unit(-k2x[flip], -k2y[flip], np.zeros(len(flip), dtype=bool))
    eta = a1 / b1 - 1.0
    r2 = b2 / a2
    e2s = (1.0 - r2) * (1.0 + r2)
    ratio = (b1 * b1) / (b2 * b2)
    w = eta * (2.0 + eta)
    dx, dy = k1x - k2x, k1y - k2y
    sx, sy = k1x + k2x, k1y + k2y
    m2 = 0.5 * (dx * dx + dy * dy)
    p2 = 0.5 * (sx * sx + sy * sy)
    c = k1x * k2x + k1y * k2y
    a11 = ratio * (1.0 + 0.5 * p2 * (w - e2s * _each(pow, bad, 1.0 + eta * c, 2)))
    a22 = ratio * (1.0 + 0.5 * m2 * (w - e2s * _each(pow, bad, 1.0 - eta * c, 2)))
    a12 = ratio * 0.5 * np.sqrt(m2 * p2) * (w + e2s * (1.0 - eta * eta * c * c))
    g = 0.5 * (a11 - a22)
    h = _each(math.hypot, bad, g, a12)
    avg = 0.5 * (a11 + a22)
    lam_plus = avg + h
    lam_minus = avg - h
    b2p = 1.0 / np.sqrt(lam_plus)
    a2p = 1.0 / np.sqrt(lam_minus)
    delta = (lam_plus - lam_minus) / lam_minus

    kd1 = k1x * dhx + k1y * dhy
    shrink = -eta / (1.0 + eta)
    tdx = (dhx + shrink * kd1 * k1x) / b1
    tdy = (dhy + shrink * kd1 * k1y) / b1
    dhat_scale = _each(math.hypot, bad, tdx, tdy)
    dpx, dpy = tdx / dhat_scale, tdy / dhat_scale

    parallel = m2 * p2 == 0.0
    par_a = parallel & (a11 >= a22)
    inv = 1.0 / np.sqrt(2.0 * p2)
    upx, upy = sx * inv, sy * inv
    umx, umy = -upy, upx
    a12s = np.where(dx * umx + dy * umy >= 0.0, a12, -a12)
    g_pos = g >= 0.0
    v1 = np.where(g_pos, g + h, a12s)
    v2 = np.where(g_pos, a12s, h - g)
    vn = _each(math.hypot, bad, v1, v2)
    iso = vn == 0.0
    kpx = np.where(iso, dpx, (v1 * upx + v2 * umx) / vn)
    kpy = np.where(iso, dpy, (v1 * upy + v2 * umy) / vn)
    kpx = np.where(parallel, np.where(par_a, k1x, -k1y), kpx)
    kpy = np.where(parallel, np.where(par_a, k1y, k1x), kpy)
    codes = np.where(parallel, np.where(par_a, _PAR_A, _PAR_B), _GENERAL).astype(np.int8)
    kn = _each(math.hypot, bad, kpx, kpy)
    kpx, kpy = kpx / kn, kpy / kn
    kmx, kmy = -kpy, kpx
    cos_phi = kpx * dpx + kpy * dpy
    sin_phi = kmx * dpx + kmy * dpy
    _flag_nonfinite(
        bad, eta, e2s, ratio, w, a11, a22, a12, h, b2p, a2p, delta, shrink,
        dhat_scale, dpx, dpy, kpx, kpy, cos_phi, sin_phi,
    )
    kplus, kminus = _unit(kpx, kpy, bad), _unit(kmx, kmy, bad)
    return eta, b2p, a2p, delta, dhat_scale, cos_phi, sin_phi, kplus, kminus, codes

