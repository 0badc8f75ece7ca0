"""The stratified stream against its plain form: one PCG64 per seed,
advanced 11 draws per index, and one Generator.uniform call per value.
The production code draws a configuration's doubles in one call and must
build the same configurations bit for bit.
"""

import math

import numpy as np
import pytest

from ellipse_contact import EllipseShape, PairConfiguration, UnitVec2
from ellipse_contact.oracle import stratified_configuration


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
