import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellipse_contact import (
    DegenerateShape,
    EllipseShape,
    UnitVec2,
    Vec2,
    ZeroVector,
    ellipse_matrix,
    make_pair_configuration,
)
from conftest import flipped, mat_as_array


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, math.inf)


def test_vec2_algebra():
    v = Vec2(3.0, 4.0)
    w = Vec2(-1.0, 2.0)
    assert v.cross(w) == 10.0
    assert w.cross(v) == -10.0
    assert v.norm() == 5.0
    assert UnitVec2(0.0, 2.0).dot(v) == 4.0


def test_unitvec_renormalizes():
    u = UnitVec2(0.0, 3.0)
    assert (u.x, u.y) == (0.0, 1.0)
    u = UnitVec2(5.0, 0.0)
    assert (u.x, u.y) == (1.0, 0.0)
    u = UnitVec2(1.0, 1.0)
    assert math.isclose(u.x, math.sqrt(0.5), rel_tol=1e-15)
    assert abs(u.x * u.x + u.y * u.y - 1.0) < 1e-12


def test_unitvec_rejects_zero():
    with pytest.raises(ZeroVector):
        UnitVec2(0.0, 0.0)
    with pytest.raises(ZeroVector):
        UnitVec2(math.nan, 1.0)


def test_shape_validation():
    EllipseShape(2.0, 2.0)  # circle is fine
    with pytest.raises(DegenerateShape):
        EllipseShape(1.0, 2.0)
    with pytest.raises(DegenerateShape):
        EllipseShape(1.0, 0.0)
    with pytest.raises(DegenerateShape):
        EllipseShape(-1.0, -2.0)


def test_eccentricity():
    assert EllipseShape(1.0, 1.0).eccentricity_sq() == 0.0
    assert EllipseShape(2.0, 1.0).eccentricity_sq() == 0.75
    assert 0.0 <= EllipseShape(50.0, 1.0).eccentricity_sq() < 1.0
    # the factored form keeps near-circular shapes accurate
    assert math.isclose(
        EllipseShape(1.0, 1.0 - 1e-12).eccentricity_sq(), 2e-12, rel_tol=1e-3
    )


def test_make_pair_configuration_examples():
    cfg = make_pair_configuration(2, 1, 2, 1, (1, 0), (1, 0), (1, 0))
    assert cfg.shape1.eccentricity_sq() == 0.75

    cfg = make_pair_configuration(1, 1, 1, 1, (0, 3), (5, 0), (1, 1))
    assert (cfg.k1.x, cfg.k1.y) == (0.0, 1.0)
    assert (cfg.k2.x, cfg.k2.y) == (1.0, 0.0)
    s = math.sqrt(0.5)
    assert math.isclose(cfg.dhat.x, s, rel_tol=1e-15)
    assert math.isclose(cfg.dhat.y, s, rel_tol=1e-15)

    with pytest.raises(DegenerateShape):
        make_pair_configuration(1, 2, 2, 1, (1, 0), (1, 0), (1, 0))
    with pytest.raises(ZeroVector):
        make_pair_configuration(2, 1, 2, 1, (0, 0), (1, 0), (1, 0))
    # a non-finite direction is rejected the same way
    for bad in ((math.nan, 0.0), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(ZeroVector):
            make_pair_configuration(2, 1, 2, 1, (1, 0), (1, 0), bad)


def test_ellipse_matrix_circle():
    m = ellipse_matrix(EllipseShape(2.0, 2.0), UnitVec2.from_angle(0.7))
    assert math.isclose(m.m11, 0.25, rel_tol=1e-15)
    assert math.isclose(m.m22, 0.25, rel_tol=1e-15)
    assert abs(m.m12) < 1e-16


def test_ellipse_matrix_axis_aligned():
    m = ellipse_matrix(EllipseShape(2.0, 1.0), UnitVec2(1.0, 0.0))
    assert math.isclose(m.m11, 0.25, rel_tol=1e-15)
    assert math.isclose(m.m22, 1.0, rel_tol=1e-15)
    assert m.m12 == 0.0


def test_ellipse_matrix_rotated_45():
    # independent oracle: rotate diag(1/4, 1) by 45 degrees
    rot = np.array(
        [
            [math.cos(math.pi / 4), -math.sin(math.pi / 4)],
            [math.sin(math.pi / 4), math.cos(math.pi / 4)],
        ]
    )
    expected = rot @ np.diag([0.25, 1.0]) @ rot.T
    m = ellipse_matrix(EllipseShape(2.0, 1.0), UnitVec2.from_angle(math.pi / 4))
    assert np.allclose(mat_as_array(m), expected, atol=1e-15)
    # frozen values from that oracle
    assert math.isclose(m.m11, 0.625, rel_tol=1e-12)
    assert math.isclose(m.m22, 0.625, rel_tol=1e-12)
    assert math.isclose(m.m12, -0.375, rel_tol=1e-12)


@given(
    a=st.floats(0.2, 50.0),
    ratio=st.floats(0.02, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_boundary_point_on_matrix(a, ratio, theta):
    shape = EllipseShape(a, a * ratio)
    k = UnitVec2.from_angle(theta)
    m = ellipse_matrix(shape, k)
    tip = Vec2(shape.a * k.x, shape.a * k.y)
    assert abs(m.quadratic_form(tip) - 1.0) < 1e-12
    side = Vec2(shape.b * -k.y, shape.b * k.x)
    assert abs(m.quadratic_form(side) - 1.0) < 1e-12


@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    rot_angle=st.floats(0.0, 2.0 * math.pi),
)
def test_ellipse_matrix_rotation_equivariant(theta, rot_angle):
    shape = EllipseShape(3.0, 1.2)
    m0 = mat_as_array(ellipse_matrix(shape, UnitVec2.from_angle(theta)))
    m1 = mat_as_array(ellipse_matrix(shape, UnitVec2.from_angle(theta + rot_angle)))
    c, s = math.cos(rot_angle), math.sin(rot_angle)
    rot = np.array([[c, -s], [s, c]])
    assert np.allclose(rot @ m0 @ rot.T, m1, atol=1e-12)


def test_matrix_sign_invariance(rng):
    for _ in range(50):
        shape = EllipseShape(2.5, 0.7)
        k = UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        m_pos = ellipse_matrix(shape, k)
        m_neg = ellipse_matrix(shape, flipped(k))
        assert m_pos == m_neg or np.allclose(
            mat_as_array(m_pos), mat_as_array(m_neg), atol=1e-16
        )
