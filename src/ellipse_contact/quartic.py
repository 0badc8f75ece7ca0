"""Closed-form solution of the tangency quartic via Ferrari's method.

The contact stage reduces the circle-ellipse tangency condition to a
quartic a*q^4 + b*q^3 + c*q^2 + d*q + e = 0 whose coefficients come from
(b2p, delta, tan^2 phi).  The sign pattern a<0, b<0, d>0, e>0 gives one
sign change, so by Descartes' rule the quartic has exactly one positive
real root; geometrically it lies in [1, sqrt(1+delta)].

The solver is defensive in layers:

1. the depressed-quartic resolvent is solved by Cardano with the
   cancellation-free product form of the radicand and the real cube root
   when the radicand is real (the principal complex branch would select a
   complex resolvent root there), the complex one when it is negative;
2. the largest real Ferrari root, which is the physical one: of the
   four sign assemblies shift + (+-W +- sqrt(arg))/2, W = sqrt(s1) > 0,
   it is the larger of the two +sqrt(arg) ones whose arg is non-negative,
   since every other root is negative or complex; a near-biquadratic
   quartic (its resolvent gets zeros: Cardano's pow can overflow there),
   s1 <= 0 or no real assembly gives no closed-form root;
3. that root is polished by Newton steps with a compensated Horner
   evaluation (they stop at a fixed point, which the first step typically
   reaches), clamped to the bracket, and accepted only if the stated
   residual test passes (steps 2-3 are _closed_form_root, in both kernels);
4. if there is no closed-form root or it fails, q comes from the
   unsquared tangency relation instead, solved for the angle psi of the
   contact normal (_angle_root): there are no coefficients to round, and
   q = sqrt(1 + delta sin^2 psi) lies in the bracket by construction.

The formulas of steps 1 (real radicand), 2 and 3 take floats or arrays
and a namespace m (geometry._FLOATS), so bulk.contact_arrays runs them
too; it maps the float functions of step 1 (complex radicand) and step 4
over the rows that need them, so both kernels give the same bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import _FLOATS

__all__ = [
    "QuarticCoeffs",
    "quartic_coefficients",
    "solve_contact_quartic",
]

# acceptance test for a candidate root, relative to the dominant terms
RESIDUAL_RTOL = 1e-8
# bracket [1, sqrt(1+delta)] is enforced with this slack before clamping
BRACKET_TOL = 1e-9
# Newton steps that polish a candidate root, at most
POLISH_STEPS = 3
# _angle_root stops once a step moves psi by at most this, relative, and
# after _ANGLE_STEPS steps whatever the steps are
_ANGLE_RTOL = 2.0 ** -40
_ANGLE_STEPS = 64


class QuarticCoeffs(NamedTuple):
    """Coefficients of a*q^4 + b*q^3 + c*q^2 + d*q + e, highest first."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def derivative(self, q: float) -> float:
        return ((4.0 * self.a * q + 3.0 * self.b) * q + 2.0 * self.c) * q + self.d


def quartic_coefficients(b2p: float, delta: float, tan2phi: float) -> QuarticCoeffs:
    """Tangency-quartic coefficients from the transformed geometry.

    Requires b2p > 0, delta >= 0 and finite tan2phi >= 0; the
    phi = pi/2 configuration never reaches the quartic (the caller
    resolves it in closed form).
    """
    ib2 = 1.0 / (b2p * b2p)
    return QuarticCoeffs(
        -ib2 * (1.0 + tan2phi),
        -2.0 / b2p * (1.0 + tan2phi + delta),
        -tan2phi - (1.0 + delta) * (1.0 + delta) + ib2 * (1.0 + (1.0 + delta) * tan2phi),
        2.0 / b2p * (1.0 + tan2phi) * (1.0 + delta),
        (1.0 + tan2phi + delta) * (1.0 + delta),
    )


# ---------------------------------------------------------------------------
# compensated Horner evaluation (error-free transformations, Dekker split)

_SPLIT = 134217729.0  # 2**27 + 1


def _horner_compensated(coeffs: tuple[float, ...], x: float) -> float:
    """Horner evaluation accurate as if computed in doubled precision: each
    step's product s*x is split exactly (Dekker, x split once) and its sum
    with the next coefficient is taken exactly (Knuth's two-sum); the
    rounding errors are carried along by a second Horner recurrence.  Only
    + - *, so x and the coefficients may be floats or arrays."""
    t = _SPLIT * x
    xhi = t - (t - x)
    xlo = x - xhi
    s = coeffs[0]
    comp = 0.0
    for a in coeffs[1:]:
        p = s * x
        t = _SPLIT * s
        shi = t - (t - s)
        slo = s - shi
        pe = ((shi * xhi - p) + shi * xlo + slo * xhi) + slo * xlo
        s = p + a
        bb = s - p
        comp = comp * x + (pe + ((p - (s - bb)) + (a - bb)))
    return s + comp


def _cardano(alpha, beta, gamma, m):
    """(y, p, q, disc) of the resolvent cubic in Cardano's form, y its real
    root where disc >= 0.  No unused m.where arm divides by zero or roots a
    negative, so floats raise only where the formulas do."""
    p = -alpha * alpha / 12.0 - gamma
    q = -m.pow(alpha, 3) / 108.0 + alpha * gamma / 3.0 - beta * beta / 8.0
    p3 = m.pow(p, 3)
    disc = q * q / 4.0 + p3 / 27.0
    s = m.sqrt(abs(disc))
    # (-q/2 + s)(-q/2 - s) = -p^3/27 rewrites away the cancellation
    w = m.where(q <= 0.0, -q / 2.0 + s, p3 / (27.0 * (abs(q / 2.0 + s) + (q <= 0.0))))
    u = m.copysign(m.pow(abs(w), 1.0 / 3.0), w)
    cbrt_q = m.pow(abs(q), 1.0 / 3.0)
    small = abs(u) < 1e-12 * m.where(cbrt_q > 1.0, cbrt_q, 1.0)
    a = -5.0 / 6.0 * alpha
    y = m.where(small, a - m.copysign(cbrt_q, q), a + u - p / (3.0 * m.where(small, 1.0, u)))
    return y, p, q, disc


def _resolvent_root(alpha: float, beta: float, gamma: float) -> float:
    """A real root y of the resolvent cubic of the depressed quartic
    (coefficients alpha, beta, gamma), by Cardano; floats only."""
    y, p, q, disc = _cardano(alpha, beta, gamma, _FLOATS)
    if disc >= 0.0:
        return y
    # three real resolvent roots: u is complex, y = -5a/6 + 2 Re(u)
    uc = complex(-q / 2.0, math.sqrt(-disc)) ** (1.0 / 3.0)
    return (-5.0 / 6.0 * alpha + uc - p / (3.0 * uc)).real


def _depressed(c: QuarticCoeffs):
    """(alpha, beta, gamma, shift): q = u + shift turns the quartic into
    u^4 + alpha u^2 + beta u + gamma.  Only + - * /, so the coefficients
    may be floats or arrays (bulk.py passes arrays)."""
    a, b = c.a, c.b
    alpha = -3.0 * b * b / (8.0 * a * a) + c.c / a
    beta = b * b * b / (8.0 * (a * a * a)) - b * c.c / (2.0 * a * a) + c.d / a
    gamma = (
        -3.0 * (b * b * b * b) / (256.0 * (a * a * a * a))
        + c.c * b * b / (16.0 * (a * a * a))
        - b * c.d / (4.0 * a * a)
        + c.e / a
    )
    return alpha, beta, gamma, -b / (4.0 * a)


def _near_biquadratic(c: QuarticCoeffs, beta):
    """|beta| < 1e-11 max(1, |b/a|^3): the depressed quartic is biquadratic.
    Two tests joined by |, equal to the max() form for nan too."""
    ratio = abs(c.b / c.a)
    small = abs(beta)
    return (small < 1e-11) | (small < 1e-11 * (ratio * ratio * ratio))


def _larger_real_root(alpha, beta, y, shift, big_w, m):
    """Of the Ferrari roots shift + (+-W + sqrt(arg))/2, W = sqrt(alpha + 2y)
    != 0, the larger real (arg >= 0) one, +W on a tie; nan if neither is."""
    sqrt, where = m.sqrt, m.where
    base = 3.0 * alpha + 2.0 * y
    arg_p, arg_m = -(base + 2.0 * beta / big_w), -(base + -2.0 * beta / big_w)
    # a root that is not real reads nan: sqrt(nan) does not raise
    r_p = shift + 0.5 * (big_w + sqrt(where(arg_p >= 0.0, arg_p, math.nan)))
    r_m = shift + 0.5 * (sqrt(where(arg_m >= 0.0, arg_m, math.nan)) - big_w)
    return where((r_m > r_p) | ((r_p != r_p) & (r_m == r_m)), r_m, r_p)


def _polish_and_test(c: QuarticCoeffs, q, hi, m):
    """(q, ok): the candidate clamped to [1, hi], polished by at most
    POLISH_STEPS Newton steps and clamped again; ok if it lay within
    BRACKET_TOL of the bracket and the polished q passes the residual
    test.  A step is a function of its point alone, so once a step leaves
    q where it was (m.same), the steps left would too and are skipped;
    and when the clamps leave q at the last point f was taken at, the
    residual test reuses that f."""
    where, same = m.where, m.same
    ok = (1.0 - BRACKET_TOL <= q) & (q <= hi + BRACKET_TOL)
    q = where(1.0 > q, 1.0, q)
    q = where(hi < q, hi, q)
    for _ in range(POLISH_STEPS):
        x = q
        f = _horner_compensated(c, x)
        fp = c.derivative(x)
        # at f' = 0 the step is 0 * (f / 1), and q then stays as it is
        q = x - (fp != 0.0) * (f / (fp + (fp == 0.0)))
        if same(q, x):
            break
    q = where(1.0 > q, 1.0, q)
    q = where(hi < q, hi, q)
    res = abs(f if same(q, x) else _horner_compensated(c, q))
    lead, tail = abs(c.a) * (q * q * (q * q)), abs(c.e)
    return q, ok & (res <= RESIDUAL_RTOL * where(tail > lead, tail, lead))


def _closed_form_root(c: QuarticCoeffs, depressed, hi, resolvent, m):
    """(q, ok) by _polish_and_test from the larger real Ferrari root with
    W = sqrt(s1) > 0, s1 = alpha + 2 resolvent(alpha, beta, gamma); none
    (nan) where s1 <= 0, no assembly is real or the quartic is near
    biquadratic, whose resolvent gets zeros: its pow can overflow there."""
    alpha, beta, gamma, shift = depressed
    where = m.where
    near = _near_biquadratic(c, beta)
    y = resolvent(where(near, 0.0, alpha), where(near, 0.0, beta), where(near, 0.0, gamma))
    s1 = where(near, math.nan, alpha + 2.0 * y)
    big_w = m.sqrt(where(s1 > 0.0, s1, math.nan))
    return _polish_and_test(c, _larger_real_root(alpha, beta, y, shift, big_w, m), hi, m)


def _angle_root(b2p: float, delta: float, tan2phi: float) -> float:
    """The root q from the angle psi of the contact normal; floats only.

    In the transformed frame psi, measured from k+, satisfies
    tan(psi) (q + b2p(1+delta)) = tan(phi) (q + b2p) with
    q = sqrt(1 + delta sin^2 psi), the unsquared relation that the quartic
    squares.  f(psi) = sin(psi) (q + b2p(1+delta)) - t cos(psi) (q + b2p),
    t = tan(phi) >= 0, is negative at 0 and positive at atan(t), so a
    safeguarded Newton on [0, atan(t)] finds the root: the sign of f
    narrows the bracket, and a Newton point outside the bracket, or none
    (f' <= 0, as where delta is large and psi small), gives way to the
    bracket's midpoint.  The start is the root for q = 1, below the true
    one since q >= 1.  It stops after a Newton step of at most
    _ANGLE_RTOL * psi, which it takes wherever it lands, when f is 0 or
    not a number, and after _ANGLE_STEPS steps.  On the rows of 20,000
    stratified configurations (seeds 11, 5 and 3) that Ferrari's root
    misses, it took 2-3 steps (median) and at most 11, up to aspect 10^6.
    """
    t = math.sqrt(tan2phi)
    big = b2p * (1.0 + delta)
    lo, hi = 0.0, math.atan(t)
    psi = math.atan(t * (1.0 + b2p) / (1.0 + big))
    for _ in range(_ANGLE_STEPS):
        s, c = math.sin(psi), math.cos(psi)
        q = math.sqrt(1.0 + delta * s * s)
        f = s * (q + big) - t * c * (q + b2p)
        if f < 0.0:
            lo = psi
        elif f > 0.0:
            hi = psi
        else:
            break
        # dq/dpsi = delta s c / q
        fp = c * (q + big) + t * s * (q + b2p) + delta * s * c / q * (s - t * c)
        to = psi - f / fp if fp > 0.0 else math.nan
        if abs(to - psi) <= _ANGLE_RTOL * psi:
            psi = to
            break
        psi = to if lo <= to <= hi else 0.5 * (lo + hi)
    s = math.sin(psi)
    return math.sqrt(1.0 + delta * s * s)


def solve_contact_quartic(b2p: float, delta: float, tan2phi: float) -> float:
    """The unique real root in [1, sqrt(1+delta)] of the tangency quartic
    of (b2p, delta, tan^2 phi): Ferrari's root where it passes the residual
    test, and _angle_root's otherwise."""
    c = quartic_coefficients(b2p, delta, tan2phi)
    q, ok = _closed_form_root(c, _depressed(c), math.sqrt(1.0 + delta), _resolvent_root, _FLOATS)
    return q if ok else _angle_root(b2p, delta, tan2phi)
