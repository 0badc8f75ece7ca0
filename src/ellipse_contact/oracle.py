"""Independent brute-force ground truth for the analytic kernel.

Nothing here shares a code path with the closed-form pipeline: distances
come from bisecting an overlap predicate built on dense boundary sampling
(with local refinement of the sampled minimum so grazing contact is not
missed), and quartic roots come from the companion-matrix method.  The
oracle is allowed to be orders of magnitude slower than the kernel; it is
used by the test suite and the ``verify`` CLI command, never in a hot path.

Only the sampling is vectorised: the tables and each t-profile are numpy
arrays over the boundary samples (4,096 by default), while the refinement
of the sampled minimum works on Python floats, since numpy costs more than
the arithmetic on 2-vectors.  A bisection step samples the second boundary
only when the first does not already show overlap.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .contact import closest_approach
from .geometry import EllipseShape, PairConfiguration, UnitVec2
from .quartic import NoPhysicalRoot, QuarticCoeffs

__all__ = [
    "NonConvergence",
    "OracleSettings",
    "oracle_distance",
    "oracle_circle_ellipse_distance",
    "oracle_quartic_roots",
    "stratified_configuration",
    "stratified_configurations",
    "VerifyReport",
    "verify_random",
]


class NonConvergence(ArithmeticError):
    """The oracle failed to bracket or converge within its iteration budget."""


# each boundary holds a few float tables of this length: ~8 MB each
MAX_BOUNDARY_SAMPLES = 1 << 20
# a sampled minimum of the form within this of 1 is refined on the
# continuous parameter
_REFINE_BAND = 5e-2


@dataclass(frozen=True)
class OracleSettings:
    boundary_samples: int = 4096
    bisection_tol: float = 1e-10
    refine_iters: int = 64

    def __post_init__(self) -> None:
        if not 64 <= self.boundary_samples <= MAX_BOUNDARY_SAMPLES:
            raise ValueError(
                f"boundary_samples must be between 64 and {MAX_BOUNDARY_SAMPLES}"
            )
        if self.bisection_tol <= 0.0 or self.refine_iters <= 0:
            raise ValueError("tolerances and iteration counts must be positive")


class _SampledBoundary:
    """One ellipse boundary, sampled densely, tested against the other
    ellipse's quadratic form as a function of the center separation t.

    With the boundary point p(u) and the other form M, the value
    f(u, t) = (p(u) + t*s).M.(p(u) + t*s) is quadratic in t, so the
    u-profile for any t costs two vector operations on the precomputed
    tables.  The sampled minimum is then refined on the continuous
    parameter by guarded Newton (analytic derivatives) with golden-section
    fallback, because a grid minimum alone cannot certify grazing contact.

    The form entries (m00, m01, m11), the shift s and the axis k are plain
    floats: a refinement step is a few dozen scalar operations, and each
    form value is written out as x*(m00*x + m01*y) + y*(m01*x + m11*y).
    """

    def __init__(self, shape: EllipseShape, axis: UnitVec2,
                 form: tuple[float, float, float], shift: tuple[float, float],
                 n: int) -> None:
        self.a, self.b = shape.a, shape.b
        self.kx, self.ky = axis.x, axis.y
        self.m00, self.m01, self.m11 = m00, m01, m11 = form
        # separation direction as seen from this boundary
        self.sx, self.sy = sx, sy = shift
        u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        self.u = u
        self.du = 2.0 * math.pi / n
        ac = self.a * np.cos(u)
        bs = self.b * np.sin(u)
        x = ac * self.kx - bs * self.ky
        y = ac * self.ky + bs * self.kx
        self.const = x * (m00 * x + m01 * y) + y * (m01 * x + m11 * y)
        self.lin = x * (m00 * sx + m01 * sy) + y * (m01 * sx + m11 * sy)
        self.quad = sx * (m00 * sx + m01 * sy) + sy * (m01 * sx + m11 * sy)

    def _value(self, u: float, t: float) -> float:
        ac = self.a * math.cos(u)
        bs = self.b * math.sin(u)
        x = ac * self.kx - bs * self.ky + t * self.sx
        y = ac * self.ky + bs * self.kx + t * self.sy
        return x * (self.m00 * x + self.m01 * y) + y * (self.m01 * x + self.m11 * y)

    def _refined_min(self, t: float, i: int) -> float:
        """Minimum of f(., t) near grid index i on the continuous parameter."""
        u = float(self.u[i])
        lo = u - self.du
        hi = u + self.du
        a, b, kx, ky = self.a, self.b, self.kx, self.ky
        m00, m01, m11 = self.m00, self.m01, self.m11
        tx, ty = t * self.sx, t * self.sy
        for _ in range(12):
            cu, su = math.cos(u), math.sin(u)
            # q = p(u) on the boundary, p = q + t*s, dp = dp/du
            qx = (a * cu) * kx - (b * su) * ky
            qy = (a * cu) * ky + (b * su) * kx
            px, py = qx + tx, qy + ty
            dx = (-a * su) * kx - (b * cu) * ky
            dy = (-a * su) * ky + (b * cu) * kx
            mx = m00 * px + m01 * py
            my = m01 * px + m11 * py
            f1 = 2.0 * (dx * mx + dy * my)
            f2 = 2.0 * ((dx * (m00 * dx + m01 * dy) + dy * (m01 * dx + m11 * dy))
                        - (qx * mx + qy * my))
            if f2 <= 0.0:
                break
            step = f1 / f2
            nu = u - step
            if not (lo <= nu <= hi):
                break
            u = nu
            if abs(step) < 1e-13:
                return self._value(u, t)
        # golden-section fallback over the bracketing grid cell
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - gr * (hi - lo)
        x2 = lo + gr * (hi - lo)
        v1, v2 = self._value(x1, t), self._value(x2, t)
        for _ in range(48):
            if v1 < v2:
                hi, x2, v2 = x2, x1, v1
                x1 = hi - gr * (hi - lo)
                v1 = self._value(x1, t)
            else:
                lo, x1, v1 = x1, x2, v2
                x2 = lo + gr * (hi - lo)
                v2 = self._value(x2, t)
        return min(v1, v2)

    def min_form(self, t: float) -> float:
        profile = self.const + (2.0 * t) * self.lin
        i = int(np.argmin(profile))
        m = float(profile[i]) + t * t * self.quad
        if abs(m - 1.0) < _REFINE_BAND:
            m = self._refined_min(t, i)
        return m


def _form_entries(shape: EllipseShape, axis: UnitVec2) -> tuple[float, float, float]:
    """Entries m00, m01, m11 of the symmetric form (I - e^2 k k^T) / b^2."""
    e2 = shape.eccentricity_sq()
    kx, ky = axis.x, axis.y
    b2 = shape.b * shape.b
    return (
        (1.0 - e2 * (kx * kx)) / b2,
        -e2 * (kx * ky) / b2,
        (1.0 - e2 * (ky * ky)) / b2,
    )


def oracle_distance(cfg: PairConfiguration, settings: OracleSettings = OracleSettings()) -> float:
    """Contact distance by bisection on the sampled-overlap predicate.

    The bracket [b1+b2, a1+a2] (with a small outward margin) always
    straddles the contact distance for convex ellipses; both boundaries are
    tested against the other ellipse so one-sided containment cannot fool
    the predicate.
    """
    dx, dy = cfg.dhat.x, cfg.dhat.y
    n = settings.boundary_samples
    # boundary of 1 relative to the center of 2 sits at -t*dhat, and vice versa
    b1 = _SampledBoundary(cfg.shape1, cfg.k1, _form_entries(cfg.shape2, cfg.k2), (-dx, -dy), n)
    b2 = _SampledBoundary(cfg.shape2, cfg.k2, _form_entries(cfg.shape1, cfg.k1), (dx, dy), n)

    lo = (cfg.shape1.b + cfg.shape2.b) * (1.0 - 1e-6)
    hi = (cfg.shape1.a + cfg.shape2.a) * (1.0 + 1e-6)

    def overlapping(t: float) -> bool:
        # min(m1, m2) < 1.0, NaN included, without sampling boundary 2
        # when boundary 1 already decides
        m1 = b1.min_form(t)
        if m1 < 1.0:
            return True
        return m1 >= 1.0 and b2.min_form(t) < 1.0

    if not overlapping(lo) or overlapping(hi):
        raise NonConvergence("bisection bracket does not straddle the contact")
    for _ in range(settings.refine_iters):
        mid = 0.5 * (lo + hi)
        if overlapping(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= settings.bisection_tol * mid:
            return 0.5 * (lo + hi)
    raise NonConvergence(
        f"bisection did not reach tol {settings.bisection_tol} in "
        f"{settings.refine_iters} iterations"
    )


def oracle_circle_ellipse_distance(
    a2p: float,
    b2p: float,
    axis: UnitVec2,
    dhat: UnitVec2,
    settings: OracleSettings = OracleSettings(),
) -> float:
    """Contact distance of the unit circle and an (a2p, b2p) ellipse.

    Validates the transformed-frame stage in isolation; same machinery as
    oracle_distance with shape1 pinned to the unit circle.
    """
    cfg = PairConfiguration(
        EllipseShape(1.0, 1.0), EllipseShape(a2p, b2p), UnitVec2(1.0, 0.0), axis, dhat
    )
    return oracle_distance(cfg, settings)


def oracle_quartic_roots(c: QuarticCoeffs) -> list[complex]:
    """All four roots by the companion-matrix method, residual-checked."""
    if c.a == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = [complex(r) for r in np.roots(c)]
    for r in roots:
        res = abs((((c.a * r + c.b) * r + c.c) * r + c.d) * r + c.e)
        scale = max(abs(c[i]) * abs(r) ** (4 - i) for i in range(5))
        if res > 1e-9 * max(scale, abs(c.e)):
            raise NonConvergence(f"companion root {r!r} residual {res!r} too large")
    return roots


# ---------------------------------------------------------------------------
# stratified random configurations

def _random_shape(uniform, max_aspect: float) -> EllipseShape:
    scale = math.exp(uniform(math.log(0.3), math.log(3.0)))
    aspect = math.exp(uniform(0.0, math.log(max_aspect)))
    return EllipseShape(scale * aspect, scale)


# most doubles one configuration consumes (stratum 1: 7 + 4)
_DRAWS = 11


def stratified_configuration(
    seed: int, index: int, max_aspect: float = 20.0
) -> PairConfiguration:
    """Deterministic configuration #index of the stratified stream.

    Strata (by index mod 5): near-parallel axes including exactly parallel
    and anti-parallel, near-perpendicular center line, near-circular
    shapes, and two uniform strata.  The degenerate regimes are deliberately
    over-sampled so every branch of the kernel sees real coverage.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    # the doubles are drawn at once; Generator.uniform(lo, hi) is exactly
    # lo + (hi - lo) * random(), so the stream is that of one call per value
    draws = iter(rng.random(_DRAWS).tolist())

    def uniform(lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * next(draws)

    stratum = index % 5
    s1 = _random_shape(uniform, max_aspect)
    s2 = _random_shape(uniform, max_aspect)
    th1 = uniform(0.0, 2.0 * math.pi)
    th2 = uniform(0.0, 2.0 * math.pi)
    thd = uniform(0.0, 2.0 * math.pi)
    if stratum == 0:
        eps = 10.0 ** uniform(-18.0, -4.0)
        if uniform() < 0.25:
            eps = 0.0
        th2 = th1 + eps + (math.pi if uniform() < 0.5 else 0.0)
    elif stratum == 1:
        # center line close to the first axis' normal; half the time the
        # axes are near-parallel too, which drives phi toward pi/2
        thd = th1 + 0.5 * math.pi + (10.0 ** uniform(-18.0, -4.0)
                                     if uniform() < 0.5 else 0.0)
        if uniform() < 0.5:
            th2 = th1 + 10.0 ** uniform(-18.0, -4.0)
    elif stratum == 2:
        # eccentricity below 1e-4 for one or both shapes
        s1 = EllipseShape(s1.a, s1.a * (1.0 - uniform(0.0, 5e-9)))
        if uniform() < 0.5:
            s2 = EllipseShape(s2.a, s2.a * (1.0 - uniform(0.0, 5e-9)))
    k1 = UnitVec2.from_angle(th1)
    if stratum == 0 and th2 == th1:
        k2 = k1  # bit-identical axes hit the exact-parallel branch
    else:
        k2 = UnitVec2.from_angle(th2)
    return PairConfiguration(s1, s2, k1, k2, UnitVec2.from_angle(thd))


def stratified_configurations(
    n: int, seed: int, max_aspect: float = 20.0
) -> Iterator[PairConfiguration]:
    for i in range(n):
        yield stratified_configuration(seed, i, max_aspect)


# ---------------------------------------------------------------------------
# analytic-vs-oracle comparison (CLI ``verify`` and the acceptance gate)

@dataclass(frozen=True)
class VerifyReport:
    trials: int
    max_rel_err: float
    mean_rel_err: float
    failures: list[tuple[int, float]]
    root_failures: int


def _verify_trial(seed: int, settings: OracleSettings, i: int) -> tuple[float, float]:
    """(analytic, oracle) distance of trial i; nan where the kernel raises
    NoPhysicalRoot."""
    cfg = stratified_configuration(seed, i)
    try:
        d_analytic = closest_approach(cfg).d
    except NoPhysicalRoot:
        d_analytic = math.nan
    return d_analytic, oracle_distance(cfg, settings)


def verify_random(
    trials: int,
    seed: int,
    tolerance: float = 1e-7,
    settings: OracleSettings = OracleSettings(),
    workers: int = 1,
) -> VerifyReport:
    """Compare the analytic distance against the oracle on the stratified
    stream; a trial fails when the relative error exceeds the tolerance.

    Raises ValueError for fewer than one trial or a tolerance that is not
    a finite non-negative number, either of which would pass vacuously.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    workers = max(1, workers)
    trial = partial(_verify_trial, seed, settings)
    if workers == 1:
        pairs = list(map(trial, range(trials)))
    else:
        chunk = max(1, (trials + workers * 4 - 1) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(trial, range(trials), chunksize=chunk))

    root_failures = 0
    failures: list[tuple[int, float]] = []
    total = 0.0
    max_err = 0.0
    for i, (d_analytic, d_oracle) in enumerate(pairs):
        if math.isnan(d_analytic):
            root_failures += 1
            failures.append((i, math.inf))
            continue
        err = abs(d_analytic - d_oracle) / d_oracle
        total += err
        if err > max_err:
            max_err = err
        if err > tolerance:
            failures.append((i, err))
    return VerifyReport(
        trials=trials,
        max_rel_err=max_err,
        mean_rel_err=total / trials,
        failures=failures,
        root_failures=root_failures,
    )
