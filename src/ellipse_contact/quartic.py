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
   complex resolvent root there);
2. the designated sign assembly is tried first; when it yields the wrong
   root, or none, the other Ferrari sign assemblies are enumerated - still
   closed form.  That happens often: for 782 of the 4,925 quartics (15.9%)
   that closest_approach solves over oracle.stratified_configurations(5000,
   seed=11), and for 24.5% of those from its two uniform strata (the
   command at the end counts it);
3. each candidate is polished by Newton steps with a compensated Horner
   evaluation, clamped to the bracket, and accepted only if the stated
   residual test passes;
4. if every closed-form candidate fails, all four roots are computed by a
   companion-matrix method and the unique in-bracket real root is taken;
   zero or several such roots raise NoPhysicalRoot instead of guessing;
   that root must pass the same polish, clamp and residual test.

Rejections of the designated assembly, from the root of a checkout:

PYTHONPATH=src python3 -c "
import math; from ellipse_contact import contact as C, oracle, quartic as Q
s, n = C.solve_contact_quartic, []
C.solve_contact_quartic = lambda c, d: (n.append(Q._accept(
    c, Q._ferrari_candidates(c)[0], math.sqrt(1 + d)) is None), s(c, d))[1]
[C.closest_approach(g) for g in oracle.stratified_configurations(5000, seed=11)]
print(sum(n), len(n))"
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "NoPhysicalRoot",
    "QuarticCoeffs",
    "quartic_coefficients",
    "solve_contact_quartic",
]

# acceptance test for a candidate root, relative to the dominant terms
RESIDUAL_RTOL = 1e-8
# bracket [1, sqrt(1+delta)] is enforced with this slack before clamping
BRACKET_TOL = 1e-9
# Newton steps that polish a candidate root
POLISH_STEPS = 3


class NoPhysicalRoot(ArithmeticError):
    """The quartic has no unique real root in [1, sqrt(1+delta)].

    This signals an upstream bug or an invalid configuration; it is not
    reachable from validated kernel inputs as far as testing shows.
    """


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
        a=-ib2 * (1.0 + tan2phi),
        b=-2.0 / b2p * (1.0 + tan2phi + delta),
        c=-tan2phi - (1.0 + delta) ** 2 + ib2 * (1.0 + (1.0 + delta) * tan2phi),
        d=2.0 / b2p * (1.0 + tan2phi) * (1.0 + delta),
        e=(1.0 + tan2phi + delta) * (1.0 + delta),
    )


# ---------------------------------------------------------------------------
# compensated Horner evaluation (error-free transformations, Dekker split)

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLIT * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLIT * b
    bhi = t - (t - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _horner_compensated(coeffs: tuple[float, ...], x: float) -> float:
    """Horner evaluation accurate as if computed in doubled precision."""
    s = coeffs[0]
    comp = 0.0
    for a in coeffs[1:]:
        p, pe = _two_prod(s, x)
        s, se = _two_sum(p, a)
        comp = comp * x + (pe + se)
    return s + comp


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(c: QuarticCoeffs, q: float) -> float:
    for _ in range(POLISH_STEPS):
        f = _horner_compensated(c, q)
        fp = c.derivative(q)
        if fp == 0.0:
            break
        q -= f / fp
    return q


def _resolvent_root(alpha: float, beta: float, gamma: float) -> float:
    """A real root y of the resolvent cubic of the depressed quartic
    (coefficients alpha, beta, gamma), by Cardano.  The scalar solver and
    the array kernel (bulk.py) both call it, one float at a time."""
    p = -alpha * alpha / 12.0 - gamma
    q = -(alpha**3) / 108.0 + alpha * gamma / 3.0 - beta * beta / 8.0
    disc = q * q / 4.0 + p**3 / 27.0
    if disc >= 0.0:
        s = math.sqrt(disc)
        # (-q/2 + s)(-q/2 - s) = -p^3/27 rewrites away the cancellation
        w = (-q / 2.0 + s) if q <= 0.0 else (p**3) / (27.0 * (q / 2.0 + s))
        u = _cbrt(w)
        if abs(u) < 1e-12 * max(1.0, abs(q) ** (1.0 / 3.0)):
            return -5.0 / 6.0 * alpha - _cbrt(q)
        return -5.0 / 6.0 * alpha + u - p / (3.0 * u)
    # three real resolvent roots: u is complex, y = -5a/6 + 2 Re(u)
    uc = complex(-q / 2.0, math.sqrt(-disc)) ** (1.0 / 3.0)
    yc = -5.0 / 6.0 * alpha + uc - p / (3.0 * uc)
    return yc.real


def _ferrari_candidates(c: QuarticCoeffs) -> tuple[float | None, list[float]]:
    """All real Ferrari root assemblies: (designated, others)."""
    a, b = c.a, c.b
    alpha = -3.0 * b * b / (8.0 * a * a) + c.c / a
    beta = b**3 / (8.0 * a**3) - b * c.c / (2.0 * a * a) + c.d / a
    gamma = (
        -3.0 * b**4 / (256.0 * a**4)
        + c.c * b * b / (16.0 * a**3)
        - b * c.d / (4.0 * a * a)
        + c.e / a
    )

    if abs(beta) < 1e-11 * max(1.0, abs(b / a) ** 3):
        # biquadratic: both inner signs are candidates
        inner = math.sqrt(max(alpha * alpha - 4.0 * gamma, 0.0))
        shift = -b / (4.0 * a)
        r_hi = shift + math.sqrt(max((-alpha + inner) / 2.0, 0.0))
        r_lo = shift + math.sqrt(max((-alpha - inner) / 2.0, 0.0))
        return r_hi, [r_lo]

    y = _resolvent_root(alpha, beta, gamma)
    s1 = alpha + 2.0 * y
    if -1e-12 < s1 < 0.0:
        s1 = 0.0
    if s1 < 0.0:
        return None, []
    big_w = math.sqrt(s1)
    shift = -b / (4.0 * a)
    if big_w == 0.0:
        # alpha + 2y = 0 implies beta = 0; already handled above, but kept
        # for rounding safety
        inner = math.sqrt(max(alpha * alpha - 4.0 * gamma, 0.0))
        return shift + math.sqrt(max((-alpha + inner) / 2.0, 0.0)), []

    designated = None
    others: list[float] = []
    for sign_w in (1.0, -1.0):
        arg = -(3.0 * alpha + 2.0 * y + sign_w * 2.0 * beta / big_w)
        if arg >= 0.0:
            root_term = math.sqrt(arg)
            for sign_r in (1.0, -1.0):
                r = shift + 0.5 * (sign_w * big_w + sign_r * root_term)
                if sign_w > 0.0 and sign_r > 0.0:
                    designated = r
                else:
                    others.append(r)
    return designated, others


def _accept(c: QuarticCoeffs, q: float | None, hi: float) -> float | None:
    """The candidate q, polished and clamped to [1, hi], if it lies in the
    bracket and passes the residual test; otherwise None."""
    if q is None or not (1.0 - BRACKET_TOL <= q <= hi + BRACKET_TOL):
        return None
    q = _polish(c, min(max(q, 1.0), hi))
    q = min(max(q, 1.0), hi)
    res = abs(_horner_compensated(c, q))
    if res <= RESIDUAL_RTOL * max(abs(c.a) * q**4, abs(c.e)):
        return q
    return None


def solve_contact_quartic(c: QuarticCoeffs, delta: float) -> float:
    """The unique real root in [1, sqrt(1+delta)].

    Raises NoPhysicalRoot when neither the closed form nor the fallback
    all-roots method produces exactly one in-bracket real root that passes
    the residual test.
    """
    hi = math.sqrt(1.0 + delta)
    designated, others = _ferrari_candidates(c)
    for r in (designated, *others):
        q = _accept(c, r, hi)
        if q is not None:
            return q

    # defensive path: companion-matrix roots, then demand uniqueness
    roots = np.roots(c)
    in_bracket = [
        float(r.real)
        for r in roots
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r))
        and 1.0 - BRACKET_TOL <= r.real <= hi + BRACKET_TOL
    ]
    if len(in_bracket) != 1:
        raise NoPhysicalRoot(
            f"{len(in_bracket)} bracket roots for coefficients {tuple(c)}, "
            f"delta={delta!r}"
        )
    q = _accept(c, in_bracket[0], hi)
    if q is None:
        raise NoPhysicalRoot(
            f"fallback root {in_bracket[0]!r} fails the residual test for "
            f"{tuple(c)}"
        )
    return q
