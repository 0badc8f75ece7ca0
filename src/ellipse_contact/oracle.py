"""Independent ground truth for the analytic kernel.

support_distances() shares no code with the closed-form pipeline
(transform, quartic, contact, bulk).  The excluded region of a pair is
K1 + K2 (a Minkowski sum), whose support function is h1 + h2, so the
contact distance is a one-dimensional root in the normal angle, found by
safeguarded Newton for every row at once (9-13 steps per 100-row block at
aspect 20, 22-27 at 10^6).  ``verify`` compares the array kernel against
it on the stratified stream, and oracle_distance() is the same solve for
one configuration.

The tests check it against two 60-digit references: conftest's
mp_support_distance, the same support quotient in mpmath at a bisected
normal angle, and mp_perram_wertheim_distance, Perram and Wertheim's
contact function (J. Comput. Phys. 58:409, 1985), which shares no
formula with the support function.
"""

from __future__ import annotations

import math
import operator
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from . import bulk
from .contact import closest_approach
from .geometry import _FLOATS, EllipseShape, PairConfiguration, UnitVec2, make_pair_configuration

__all__ = [
    "oracle_distance",
    "stratified_configuration",
    "stratified_configurations",
    "support_distances",
    "VerifyReport",
    "verify_random",
]


# ---------------------------------------------------------------------------
# support-function oracle

# support_distances stops once no row's step of the normal angle exceeds
# this (rad), and after _MAX_STEPS steps whatever the steps are: no block
# of the stratified stream took more than 27, at aspect 10^6
_ANGLE_TOL = 2.0 ** -36
_MAX_STEPS = 100
# Dekker's splitter for doubles, 2^27 + 1
_SPLIT = 134217729.0


def _two_product(x, y):
    """(x*y, its rounding error), exact by Dekker's splitting while nothing
    overflows or underflows."""
    p = x * y
    sx, sy = _SPLIT * x, _SPLIT * y
    xh, yh = sx - (sx - x), sy - (sy - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _dot2(x1, y1, x2, y2):
    """x1*y1 + x2*y2 as if computed in twice the working precision: the
    result is accurate where the two products cancel."""
    p, ep = _two_product(x1, y1)
    q, eq = _two_product(x2, y2)
    s = p + q
    z = s - p
    return s + (ep + eq + ((p - (s - z)) + (q - z)))


def support_distances(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy) -> np.ndarray:
    """Contact distance of each row from the support functions alone.

    Row i has the columns of bulk.contact_arrays: semi-axes a >= b, the
    major axes k1 and k2 and the center line dhat, none of which need unit
    length.  Two bodies touch when the center offset lies on the boundary
    of K1 + K2, whose support function is h1 + h2 with, for unit k,
    h = sqrt(a^2 (k.n)^2 + b^2 (k x n)^2) (Santalo 1976; Vieillard-Baron
    1972).  So d = (h1 + h2) / (n.dhat) at the normal n whose support point
    s1 + s2, s = (a^2 (k.n) k + b^2 (k x n) kperp) / h, lies along dhat.
    f(t) = dhat x (s1 + s2) is increasing in the angle t of n on
    (theta - pi/2, theta + pi/2), theta the angle of dhat, with slope
    f' = (n.dhat) (rho1 + rho2), rho = a^2 b^2 / h^3 the radius of
    curvature at the support point.  All rows run the safeguarded Newton
    of Numerical Recipes' rtsafe at once, from t = theta: the sign of f
    narrows the bracket, and a row takes the bracket's midpoint where the
    Newton point falls outside it (ends included) or the Newton step is
    more than half the step before last, unless that step is already
    below _ANGLE_TOL (2^-36 rad).  The block stops when no row stepped by more than that,
    which a nan row never does.  It measured 9-13 steps per 100-row block at
    aspect 20, 13-17 at 10^3, 16-21 at 10^4 and 22-27 at 10^6.  The loop
    ends: t is at an end of the bracket, so no step exceeds the bracket's
    width, a bisection halves that width, and a run of Newton steps halves
    the step at least every second step.  _MAX_STEPS caps it all the same,
    and any t left in the bracket gives an upper bound on d.  The quotient
    is stationary in n, so the angle's error enters only squared.  Its dot
    products are compensated, so projections of the axes on n that nearly
    cancel keep their digits: on 200 stratified configurations each at
    aspect 20, 10^3, 10^4 and 10^6 it is within 4.4e-16 of 60-digit
    arithmetic.  That is its measured range: far beyond it a float angle
    cannot resolve the normal, and at aspect 3.8e69 it read 1.35e102 for
    a pair whose d is 2.06e44.
    """
    a, b, kx, ky = (
        np.array(pair, dtype=np.float64) for pair in ((a1, a2), (b1, b2), (k1x, k2x), (k1y, k2y))
    )
    dx, dy = np.asarray(dx, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    aa, bb, ab, knorm = a * a, b * b, a * b, np.hypot(kx, ky)
    # the iteration takes unit axes, the final quotient the given ones;
    # dhat x s = (a^2 (k.n) (dhat x k) + b^2 (k x n) (dhat.k)) / h
    ux, uy = kx / knorm, ky / knorm
    across, bdot = aa * (dx * uy - dy * ux), bb * (dx * ux + dy * uy)
    t = np.arctan2(dy, dx)
    lo, hi = t - 0.5 * math.pi, t + 0.5 * math.pi
    # sizes of the last step and of the one before it
    last = before = np.full_like(t, math.pi)
    for _ in range(_MAX_STEPS):
        nx, ny = np.cos(t), np.sin(t)
        c, s = ux * nx + uy * ny, ux * ny - uy * nx
        h = np.sqrt(aa * c * c + bb * s * s)
        # f = dhat x (s1 + s2) and f' = (n.dhat) (rho1 + rho2), with the
        # radius of curvature rho = a^2 b^2 / h^3 written so that it
        # overflows only where a^2 does
        q, r = (across * c + bdot * s) / h, ab / h
        rho = r * r / h
        f = q[0] + q[1]
        newton = f / ((nx * dx + ny * dy) * (rho[0] + rho[1]))
        lo, hi = np.where(f < 0.0, t, lo), np.where(f > 0.0, t, hi)
        to, size = t - newton, abs(newton)
        take = ((lo <= to) & (to <= hi) & (size + size <= before)) | (size <= _ANGLE_TOL)
        t_next = np.where(take, to, 0.5 * (lo + hi))
        before, last = last, abs(t_next - t)
        t = t_next
        if not (last > _ANGLE_TOL).any():
            break
    nx, ny = np.cos(t), np.sin(t)
    c, s = _dot2(kx, nx, ky, ny), _dot2(kx, ny, -ky, nx)
    h = np.sqrt(aa * c * c + bb * s * s) / knorm
    return (h[0] + h[1]) * np.hypot(dx, dy) / _dot2(nx, dx, ny, dy)


def oracle_distance(cfg: PairConfiguration) -> float:
    """support_distances of the one configuration cfg."""
    row = (cfg.shape1.a, cfg.shape1.b, cfg.shape2.a, cfg.shape2.b,
           cfg.k1.x, cfg.k1.y, cfg.k2.x, cfg.k2.y, cfg.dhat.x, cfg.dhat.y)
    return float(support_distances(*([v] for v in row))[0])


@dataclass(frozen=True)
class OracleSettings:
    """No settings: the support-function solve takes none.  The class is
    left only because the benchmark's verify_oracle set-up still builds
    one; the next change to the benchmark deletes it."""


# ---------------------------------------------------------------------------
# stratified random configurations

# the stream's stride: configuration i reads the doubles at draw positions
# _DRAWS*i onward, and uses at most this many (stratum 1: 7 + 4)
_DRAWS = 11


def _draws(seed: int | Sequence[int], start: int, stop: int, max_aspect: float) -> np.ndarray:
    """The doubles of configurations start..stop-1, a row of _DRAWS each:
    one PCG64 per seed, advanced to row start.  Raises ValueError, before
    drawing, for a negative start or a max_aspect that is not a finite
    number >= 1."""
    start = operator.index(start)
    if start < 0:
        # PCG64.advance would wrap a negative step round the period
        raise ValueError(f"stream indices start at 0, got {start}")
    if not (math.isfinite(max_aspect) and max_aspect >= 1.0):
        raise ValueError(f"max_aspect must be a finite number >= 1, got {max_aspect!r}")
    if type(seed) is int:  # the cached seeded state, in this thread's PCG64
        if (bits := getattr(_SCRATCH, "bits", None)) is None:
            bits = _SCRATCH.bits = np.random.PCG64(0)
        bits.state = _seeded_state(seed)
    else:
        bits = np.random.PCG64(np.random.SeedSequence(seed))
    return np.random.Generator(bits.advance(_DRAWS * start)).random((stop - start, _DRAWS))


@lru_cache(maxsize=16)
def _seeded_state(seed: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence(seed)).state


_SCRATCH = threading.local()


# Generator.uniform(lo, hi) is exactly lo + (hi - lo) * random(), and a
# draw from U(0, hi) is exactly hi * random()
_LOG_SCALE, _LOG_SCALE_SPAN = math.log(0.3), math.log(3.0) - math.log(0.3)


def _strata(u, stratum, max_aspect: float, m) -> tuple:
    """(a1, b1, a2, b2, theta1, theta2, theta_d) of a configuration of the
    stratified stream, from its draws u(j) and its stratum (index mod 5):
    Python floats with m = geometry._FLOATS, or a block's columns with
    bulk._arrays (exp and 10^x on Python floats either way).  The rules at
    geometry._FLOATS hold; both arms of every m.where are finite
    (10^U(-18, -4) included).

    Each shape has minor semi-axis e^U(log 0.3, log 3) and aspect
    e^U(0, log max_aspect).
    Stratum 0 takes near-parallel axes, exactly parallel a quarter of the
    time and anti-parallel half of it; stratum 1 a center line close to the
    first axis' normal and, half the time, near-parallel axes too, which
    drives phi toward pi/2; stratum 2 eccentricity below 1e-4 for one or
    both shapes; strata 3 and 4 are uniform.
    """
    where, exp, log_aspect = m.where, m.exp, math.log(max_aspect)
    u7, u8, u9 = u(7), u(8), u(9)
    scale1 = exp(_LOG_SCALE + _LOG_SCALE_SPAN * u(0))
    scale2 = exp(_LOG_SCALE + _LOG_SCALE_SPAN * u(2))
    a1, a2 = scale1 * exp(log_aspect * u(1)), scale2 * exp(log_aspect * u(3))
    th1, th2, thd = 2.0 * math.pi * u(4), 2.0 * math.pi * u(5), 2.0 * math.pi * u(6)
    s1, s2 = stratum == 1, stratum == 2
    # the axis offset of stratum 0 (from draw 7) and the center-line tilt of
    # stratum 1 (from draw 8): one 10^x, as a row uses at most one of them
    tiny = m.pow(10.0, -18.0 + 14.0 * where(s1, u8, u7))
    # stratum 0
    parallel = th1 + where(u8 < 0.25, 0.0, tiny) + where(u9 < 0.5, math.pi, 0.0)
    # stratum 1
    near = u7 < 0.5
    thd = where(s1, th1 + 0.5 * math.pi + where(near, tiny, 0.0), thd)
    # the next draw is the 8th or, after a tilt, the 9th
    at = 8 + near
    tilted = th1 + m.pow(10.0, -18.0 + 14.0 * u(at + 1))
    th2 = where(stratum == 0, parallel, where(s1 & (u(at) < 0.5), tilted, th2))
    # stratum 2
    b1 = where(s2, a1 * (1.0 - 5e-9 * u7), scale1)
    b2 = where(s2 & (u8 < 0.5), a2 * (1.0 - 5e-9 * u9), scale2)
    return a1, b1, a2, b2, th1, th2, thd


def stratified_configuration(
    seed: int | Sequence[int], index: int, max_aspect: float = 20.0
) -> PairConfiguration:
    """Deterministic configuration #index of the stratified stream, which
    over-samples the degenerate regimes (_strata) so every branch of the
    kernel sees real coverage."""
    draw = _draws(seed, index, index + 1, max_aspect)[0].tolist().__getitem__
    a1, b1, a2, b2, th1, th2, thd = _strata(draw, index % 5, max_aspect, _FLOATS)
    return PairConfiguration(
        EllipseShape(a1, b1), EllipseShape(a2, b2),
        UnitVec2.from_angle(th1), UnitVec2.from_angle(th2), UnitVec2.from_angle(thd),
    )


def _stratified_columns(
    seed: int | Sequence[int], start: int, stop: int, max_aspect: float = 20.0
) -> tuple[np.ndarray, ...]:
    """The bulk.contact_arrays columns of stratified_configuration(seed, i,
    max_aspect) for start <= i < stop, bit for bit: the same _strata on the
    block's table of draws."""
    u = _draws(seed, start, stop, max_aspect)
    rows = np.arange(len(u))
    a1, b1, a2, b2, *angles = _strata(
        lambda j: u[rows, j], np.arange(start, stop) % 5, max_aspect,
        bulk._arrays(np.zeros(len(u), dtype=bool)),
    )
    x, y = bulk.from_angles(np.concatenate(angles))
    (k1x, k2x, dx), (k1y, k2y, dy) = np.split(x, 3), np.split(y, 3)
    return a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy


def stratified_configurations(
    n: int, seed: int | Sequence[int], max_aspect: float = 20.0
) -> Iterator[PairConfiguration]:
    """stratified_configuration(seed, i, max_aspect) for i < n, for any seed
    numpy takes, computed in blocks of bulk.CHUNK_ROWS indices."""
    for start in range(0, n, bulk.CHUNK_ROWS):
        cols = _stratified_columns(seed, start, min(start + bulk.CHUNK_ROWS, n), max_aspect)
        for a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy in zip(*(c.tolist() for c in cols)):
            yield make_pair_configuration(a1, b1, a2, b2, (k1x, k1y), (k2x, k2y), (dx, dy))


# ---------------------------------------------------------------------------
# analytic-vs-oracle comparison (CLI ``verify`` and the acceptance gate)

@dataclass(frozen=True)
class VerifyReport:
    trials: int
    max_rel_err: float
    mean_rel_err: float
    failures: list[tuple[int, float]]


def _verify_block(seed: int, start: int, stop: int) -> list[tuple[float, float]]:
    """(analytic, oracle) distance of trials start..stop-1.  Rows the array
    kernel leaves to the scalar path, none on this stream, go through
    closest_approach."""
    cols = _stratified_columns(seed, start, stop)
    res = bulk.contact_arrays(*cols)
    analytic = res.d.tolist()
    for j in np.flatnonzero(res.scalar).tolist():
        a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy = (c[j] for c in cols)
        cfg = make_pair_configuration(a1, b1, a2, b2, (k1x, k1y), (k2x, k2y), (dx, dy))
        analytic[j] = closest_approach(cfg).d
    return list(zip(analytic, support_distances(*cols).tolist()))


def verify_random(
    trials: int,
    seed: int,
    tolerance: float = 1e-7,
    workers: int = 1,
) -> VerifyReport:
    """Compare the array kernel against the support-function oracle on the
    stratified stream of an int seed; a trial fails when the relative error
    exceeds the tolerance.  The trials run in blocks of bulk.CHUNK_ROWS,
    spread over at most one worker per block (one block starts no
    process), and each block's errors are added to the report in trial
    order as it arrives, so the report is the same for any worker count
    and no block is kept once it is counted.

    Raises ValueError for fewer than one trial or a tolerance that is not
    a finite non-negative number, either of which would pass vacuously,
    and for fewer than one worker.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    starts = range(0, trials, bulk.CHUNK_ROWS)
    stops = (min(start + bulk.CHUNK_ROWS, trials) for start in starts)
    block = partial(_verify_block, seed)
    workers = min(workers, len(starts))
    if workers == 1:
        return _report(trials, tolerance, map(block, starts, stops))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _report(trials, tolerance, pool.map(block, starts, stops))


def _report(trials: int, tolerance: float,
            blocks: Iterator[list[tuple[float, float]]]) -> VerifyReport:
    """The report of verify_random, reading the blocks in trial order."""
    failures: list[tuple[int, float]] = []
    total = 0.0
    max_err = 0.0
    for i, (d_analytic, d_oracle) in enumerate(chain.from_iterable(blocks)):
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
    )
