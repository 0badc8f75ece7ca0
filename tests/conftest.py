import math

import numpy as np
import pytest

from ellipse_contact import (
    EllipseShape,
    mcsim,
    PairConfiguration,
    SymMat2,
    UnitVec2,
)


def mat_as_array(m: SymMat2) -> np.ndarray:
    return np.array([[m.m11, m.m12], [m.m12, m.m22]])


def flipped(u: UnitVec2) -> UnitVec2:
    """The opposite direction, -u."""
    return UnitVec2(-u.x, -u.y)


def rotated(u: UnitVec2, theta: float) -> UnitVec2:
    """u turned counter-clockwise by theta radians."""
    c, s = math.cos(theta), math.sin(theta)
    return UnitVec2(c * u.x - s * u.y, s * u.x + c * u.y)


def random_pair(rng: np.random.Generator, max_aspect: float = 10.0) -> PairConfiguration:
    """Uniform, non-adversarial random configuration."""
    def shape():
        scale = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        aspect = math.exp(rng.uniform(0.0, math.log(max_aspect)))
        return EllipseShape(scale * aspect, scale)

    th = rng.uniform(0.0, 2.0 * math.pi, 3)
    return PairConfiguration(
        shape(), shape(),
        UnitVec2.from_angle(th[0]), UnitVec2.from_angle(th[1]),
        UnitVec2.from_angle(th[2]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def plant_overlap(monkeypatch):
    """Call with a sweep number n: from then on mc_sweep, after its n-th
    call, moves particle 1 onto particle 0."""

    def plant(sweep_no):
        real_sweep = mcsim.mc_sweep
        calls = []

        def sweep(state, cfg, rng):
            stats = real_sweep(state, cfg, rng)
            calls.append(None)
            if len(calls) == sweep_no:
                state.positions[1] = state.positions[0]
            return stats

        monkeypatch.setattr(mcsim, "mc_sweep", sweep)

    return plant
