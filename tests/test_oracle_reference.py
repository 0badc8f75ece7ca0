"""The sampled-boundary oracle against its numpy-vector reference.

The reference below is the plain form of ``oracle._SampledBoundary`` and
the bisection: the form as a 2x2 array, boundary points, derivatives and
products as 2-vectors, both boundaries sampled at every bisection step.
The production code does the same arithmetic on Python floats.  A numpy
build may fuse a 2-vector product into one rounding, so a form value can
differ from the reference in its last bit; a bisection verdict only turns
on whether that value is below 1.0, so the distances must agree bit for
bit.

The stratified stream is also kept in its plain form: one PCG64 per
seed, advanced 11 draws per index, and one Generator.uniform call per
value.  The production code draws a configuration's doubles in one call
and must build the same configurations bit for bit.
"""

import math

import numpy as np
import pytest

from ellipse_contact import (
    EllipseShape,
    NonConvergence,
    OracleSettings,
    PairConfiguration,
    UnitVec2,
    oracle,
)
from ellipse_contact.oracle import stratified_configuration
from conftest import oracle_circle_ellipse_distance


# ---------------------------------------------------------------------------
# reference oracle

class RefSampledBoundary:
    def __init__(self, shape, axis, other, shift, n):
        self.a, self.b = shape.a, shape.b
        self.k = np.array([axis.x, axis.y])
        self.kp = np.array([-axis.y, axis.x])
        self.other = other
        self.shift = shift
        u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        self.u = u
        self.du = 2.0 * math.pi / n
        pts = np.outer(self.a * np.cos(u), self.k) + np.outer(self.b * np.sin(u), self.kp)
        self.const = np.einsum("ij,jk,ik->i", pts, other, pts)
        self.lin = pts @ (other @ shift)
        self.quad = float(shift @ other @ shift)

    def _value(self, u, t):
        p = (self.a * math.cos(u)) * self.k + (self.b * math.sin(u)) * self.kp + t * self.shift
        return float(p @ self.other @ p)

    def _refined_min(self, t, i):
        lo = self.u[i] - self.du
        hi = self.u[i] + self.du
        u = self.u[i]
        other, k, kp, a, b = self.other, self.k, self.kp, self.a, self.b
        ts = t * self.shift
        for _ in range(12):
            cu, su = math.cos(u), math.sin(u)
            p = (a * cu) * k + (b * su) * kp + ts
            dp = (-a * su) * k + (b * cu) * kp
            mp = other @ p
            f1 = 2.0 * float(dp @ mp)
            f2 = 2.0 * (float(dp @ other @ dp) - float(((a * cu) * k + (b * su) * kp) @ mp))
            if f2 <= 0.0:
                break
            step = f1 / f2
            nu = u - step
            if not (lo <= nu <= hi):
                break
            u = nu
            if abs(step) < 1e-13:
                return self._value(u, t)
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

    def min_form(self, t, refine_band=5e-2):
        profile = self.const + (2.0 * t) * self.lin
        i = int(np.argmin(profile))
        m = float(profile[i]) + t * t * self.quad
        if abs(m - 1.0) < refine_band:
            m = self._refined_min(t, i)
        return m


def ref_form_array(shape, axis):
    e2 = shape.eccentricity_sq()
    k = np.array([axis.x, axis.y])
    return (np.eye(2) - e2 * np.outer(k, k)) / (shape.b * shape.b)


def ref_boundaries(cfg, n):
    m1 = ref_form_array(cfg.shape1, cfg.k1)
    m2 = ref_form_array(cfg.shape2, cfg.k2)
    dv = np.array([cfg.dhat.x, cfg.dhat.y])
    return (RefSampledBoundary(cfg.shape1, cfg.k1, m2, -dv, n),
            RefSampledBoundary(cfg.shape2, cfg.k2, m1, dv, n))


def ref_oracle_distance(cfg, settings=OracleSettings()):
    b1, b2 = ref_boundaries(cfg, settings.boundary_samples)
    lo = (cfg.shape1.b + cfg.shape2.b) * (1.0 - 1e-6)
    hi = (cfg.shape1.a + cfg.shape2.a) * (1.0 + 1e-6)

    def overlapping(t):
        return min(b1.min_form(t), b2.min_form(t)) < 1.0

    if not overlapping(lo) or overlapping(hi):
        raise NonConvergence("bracket")
    for _ in range(settings.refine_iters):
        mid = 0.5 * (lo + hi)
        if overlapping(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= settings.bisection_tol * mid:
            return 0.5 * (lo + hi)
    raise NonConvergence("budget")


def outcome(fn, *args):
    """The distance as an exact hex string, or the exception type."""
    try:
        return fn(*args).hex()
    except NonConvergence:
        return "NonConvergence"


# ---------------------------------------------------------------------------
# reference stratified stream

def ref_random_shape(rng, max_aspect):
    scale = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    aspect = math.exp(rng.uniform(0.0, math.log(max_aspect)))
    return EllipseShape(scale * aspect, scale)


def ref_stratified_configuration(seed, index, max_aspect=20.0):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(11 * index))
    stratum = index % 5
    s1 = ref_random_shape(rng, max_aspect)
    s2 = ref_random_shape(rng, max_aspect)
    th1 = rng.uniform(0.0, 2.0 * math.pi)
    th2 = rng.uniform(0.0, 2.0 * math.pi)
    thd = rng.uniform(0.0, 2.0 * math.pi)
    if stratum == 0:
        eps = 10.0 ** rng.uniform(-18.0, -4.0)
        if rng.uniform() < 0.25:
            eps = 0.0
        th2 = th1 + eps + (math.pi if rng.uniform() < 0.5 else 0.0)
    elif stratum == 1:
        thd = th1 + 0.5 * math.pi + (10.0 ** rng.uniform(-18.0, -4.0)
                                     if rng.uniform() < 0.5 else 0.0)
        if rng.uniform() < 0.5:
            th2 = th1 + 10.0 ** rng.uniform(-18.0, -4.0)
    elif stratum == 2:
        s1 = EllipseShape(s1.a, s1.a * (1.0 - rng.uniform(0.0, 5e-9)))
        if rng.uniform() < 0.5:
            s2 = EllipseShape(s2.a, s2.a * (1.0 - rng.uniform(0.0, 5e-9)))
    k1 = UnitVec2.from_angle(th1)
    if stratum == 0 and th2 == th1:
        k2 = k1
    else:
        k2 = UnitVec2.from_angle(th2)
    return PairConfiguration(s1, s2, k1, k2, UnitVec2.from_angle(thd))


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("seed, max_aspect, indices", [
    pytest.param(3, 20.0, range(5000), id="3-20.0"),
    pytest.param(11, 20.0, range(5000), id="11-20.0"),
    pytest.param(3, 1000.0, range(5000), id="3-1000.0"),
    pytest.param(11, 1000.0, range(5000), id="11-1000.0"),
    pytest.param(7, 1e4, range(5000), id="7-10000.0"),
    # circles, and near-circles in stratum 2
    pytest.param(5, 1.0, range(2000), id="5-1.0"),
    # a sequence of ints, and a seed of five 32-bit words
    pytest.param([3, 7], 20.0, range(2000), id="3,7-20.0"),
    pytest.param((1 << 128) + 1, 20.0, range(2000), id="2**128+1-20.0"),
    # far down the stream, across 2^32
    pytest.param(3, 20.0, range((1 << 32) - 5, (1 << 32) + 6), id="3-20.0-2**32"),
])
def test_stratified_stream_matches_reference(seed, max_aspect, indices):
    def values(cfg):
        return tuple(v.hex() for v in (
            cfg.shape1.a, cfg.shape1.b, cfg.shape2.a, cfg.shape2.b, cfg.k1.x, cfg.k1.y,
            cfg.k2.x, cfg.k2.y, cfg.dhat.x, cfg.dhat.y,
        ))

    for i in indices:
        expect = values(ref_stratified_configuration(seed, i, max_aspect))
        assert values(stratified_configuration(seed, i, max_aspect)) == expect, i


@pytest.mark.parametrize("seed, settings", [
    (3, OracleSettings()),
    (5, OracleSettings(boundary_samples=64)),
    (6, OracleSettings(bisection_tol=1e-8)),
], ids=["default", "64-samples", "tol-1e-8"])
def test_oracle_distance_matches_reference(seed, settings):
    for i in range(300):
        cfg = stratified_configuration(seed, i)
        expect = outcome(ref_oracle_distance, cfg, settings)
        assert outcome(oracle.oracle_distance, cfg, settings) == expect, i


def test_circle_ellipse_matches_reference():
    rng = np.random.default_rng(17)
    for _ in range(60):
        b2p = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        a2p = b2p * math.exp(rng.uniform(0.0, math.log(20.0)))
        axis = UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        dhat = UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        cfg = PairConfiguration(
            EllipseShape(1.0, 1.0), EllipseShape(a2p, b2p), UnitVec2(1.0, 0.0), axis, dhat
        )
        expect = outcome(ref_oracle_distance, cfg)
        assert outcome(oracle_circle_ellipse_distance, a2p, b2p, axis, dhat) == expect


def test_refined_min_golden_section_fallback():
    # started at the profile maximum, f'' <= 0 stops Newton at once and the
    # golden-section search runs over the grid cell; its two ends are the
    # candidates, and the search must find the lower one
    cfg = stratified_configuration(11, 3)
    n = 4096
    shift = (-cfg.dhat.x, -cfg.dhat.y)
    form = oracle._form_entries(cfg.shape2, cfg.k2)
    boundary = oracle._SampledBoundary(cfg.shape1, cfg.k1, form, shift, n)
    reference, _ = ref_boundaries(cfg, n)
    t = 0.5 * (cfg.shape1.a + cfg.shape2.a + cfg.shape1.b + cfg.shape2.b)
    i = int(np.argmax(boundary.const + (2.0 * t) * boundary.lin))

    calls = []
    value = boundary._value
    boundary._value = lambda u, t: calls.append(u) or value(u, t)
    got = boundary._refined_min(t, i)
    assert len(calls) == 50  # two probes and 48 golden-section steps

    u = np.linspace(boundary.u[i] - boundary.du, boundary.u[i] + boundary.du, (1 << 16) + 1)
    m00, m01, m11 = form
    x = cfg.shape1.a * np.cos(u) * cfg.k1.x - cfg.shape1.b * np.sin(u) * cfg.k1.y + t * shift[0]
    y = cfg.shape1.a * np.cos(u) * cfg.k1.y + cfg.shape1.b * np.sin(u) * cfg.k1.x + t * shift[1]
    brute = float(np.min(x * (m00 * x + m01 * y) + y * (m01 * x + m11 * y)))
    assert abs(got - reference._refined_min(t, i)) <= 1e-12 * abs(brute)
    assert abs(got - brute) <= 1e-12 * abs(brute)
