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
    bulk,
    make_pair_configuration,
)
from ellipse_contact.geometry import _FLOATS, _eccentricity_sq, _valid_axes
from ellipse_contact.oracle import stratified_configurations
from conftest import flipped, form, mat_as_array, on_form


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, math.inf)


def test_vec2_algebra():
    v = Vec2(3.0, 4.0)
    w = Vec2(-1.0, 2.0)
    assert v.x * w.y - v.y * w.x == 10.0
    assert w.x * v.y - w.y * v.x == -10.0
    assert v.norm() == 5.0
    u = UnitVec2(0.0, 2.0)
    assert u.x * v.x + u.y * v.y == 4.0


def test_unitvec_renormalizes():
    u = UnitVec2(0.0, 3.0)
    assert (u.x, u.y) == (0.0, 1.0)
    u = UnitVec2(5.0, 0.0)
    assert (u.x, u.y) == (1.0, 0.0)
    u = UnitVec2(1.0, 1.0)
    assert math.isclose(u.x, math.sqrt(0.5), rel_tol=1e-15)
    assert abs(u.x * u.x + u.y * u.y - 1.0) < 1e-12


# every value hypot takes on a normalized vector: the neighbours of 1
UNIT_NORMS = {1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52}


def test_unitvec_normalizes_once():
    # a million seeded vectors, each component with an exponent between
    # -300 and 300: normalizing again changes nothing, because the norm of
    # every result is 1 to rounding, the condition UnitVec2 and bulk._unit
    # test.  UnitVec2, one Python call per vector (1.1-1.3 us on a shared
    # 2-core VM), is compared on every fifth vector.
    rng = np.random.default_rng(12)
    x, y = rng.uniform(-1.0, 1.0, (2, 10**6)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, 10**6))
    bad = np.zeros(len(x), dtype=bool)
    ux, uy = bulk._unit(x, y, bad)
    assert not bad.any()
    again = bulk._unit(ux, uy, bad)
    assert np.array_equal(again[0], ux) and np.array_equal(again[1], uy)
    assert set(map(math.hypot, ux.tolist(), uy.tolist())) <= UNIT_NORMS
    units = list(map(UnitVec2, x[::5].tolist(), y[::5].tolist()))
    assert [(u.x, u.y) for u in units] == list(zip(ux[::5].tolist(), uy[::5].tolist()))
    assert [UnitVec2(u.x, u.y) for u in units[:1000]] == units[:1000]


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_unitvec_idempotent(x, y):
    try:
        u = UnitVec2(x, y)
    except ZeroVector:
        assert not 2.0**-1022 <= math.hypot(x, y) < math.inf
        return
    assert UnitVec2(u.x, u.y) == u
    assert math.hypot(u.x, u.y) in UNIT_NORMS
    bad = np.zeros(1, dtype=bool)
    ux, uy = bulk._unit(np.array([x]), np.array([y]), bad)
    assert not bad[0] and (ux[0], uy[0]) == (u.x, u.y)


def test_unitvec_rejects_subnormal_length():
    # hypot(5e-324, 5e-324) rounds to 5e-324, and dividing by it gave (1, 1)
    for x, y in [(5e-324, 5e-324), (-1e-310, 3e-320)]:
        with pytest.raises(ZeroVector):
            UnitVec2(x, y)
    assert UnitVec2(2.0**-1022, 0.0) == UnitVec2(1.0, 0.0)


def test_make_pair_configuration_keeps_unit_vectors():
    for cfg in stratified_configurations(5000, seed=11):
        again = make_pair_configuration(
            cfg.shape1.a, cfg.shape1.b, cfg.shape2.a, cfg.shape2.b, cfg.k1, cfg.k2, cfg.dhat
        )
        assert again == cfg


def test_make_pair_configuration_reuses_unit_vectors():
    # a UnitVec2 is immutable and already normalized: the very object is kept
    k1, k2, dhat = UnitVec2.from_angle(0.3), UnitVec2(3.0, 4.0), UnitVec2(1.0, 1e-9)
    cfg = make_pair_configuration(2, 1, 3, 1, k1, k2, dhat)
    assert cfg.k1 is k1 and cfg.k2 is k2 and cfg.dhat is dhat
    # Vec2s and (x, y) pairs are still normalized, to float components
    cfg = make_pair_configuration(2, 1, 3, 1, Vec2(3.0, 4.0), (0, 2), [1, 0])
    assert cfg.k1 == UnitVec2(3.0, 4.0)
    assert (cfg.k2.x, cfg.k2.y) == (0.0, 1.0)
    assert (cfg.dhat.x, cfg.dhat.y) == (1.0, 0.0)
    for u in (cfg.k1, cfg.k2, cfg.dhat):
        assert type(u) is UnitVec2
        assert type(u.x) is float and type(u.y) is float


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
    for a, b in [(math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0), (2.0, math.nan)]:
        with pytest.raises(DegenerateShape):
            EllipseShape(a, b)


def test_valid_axes_one_rule_for_floats_and_arrays():
    # EllipseShape's check and contact_arrays' row mask are _valid_axes
    values = [-1.0, -0.0, 0.0, 5e-324, 1.0, 2.0, 1e308, math.inf, -math.inf, math.nan]
    pairs = [(a, b) for a in values for b in values]
    accepted = []
    for a, b in pairs:
        try:
            EllipseShape(a, b)
        except DegenerateShape:
            accepted.append(False)
        else:
            accepted.append(True)
    a, b = (np.array(x) for x in zip(*pairs))
    assert _valid_axes(a, b).tolist() == accepted
    assert sum(accepted) == 10  # b <= a among the five finite positive values


def test_hypot_one_rule_for_floats_and_arrays():
    # _hypot is the kernels' hypot on both paths: the same bits on floats
    # and on arrays, within 3.25 2^-53 of 40 digits (the quotient, square,
    # sum, sqrt and product round once each) at lengths 10^U(+-100), and
    # exact or infinite where math.hypot is
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-1.0, 1.0, (2, 20_000)) * 10.0 ** rng.uniform(-100.0, 100.0, (2, 20_000))
    edge = [0.0, -0.0, 5e-324, 1e-310, 3.0, -4.0, 1e300, 1.7e308, math.inf, -math.inf, math.nan]
    ex, ey = (np.array(v) for v in zip(*((a, b) for a in edge for b in edge)))
    x, y = np.concatenate([x, ex]), np.concatenate([y, ey])
    with np.errstate(all="ignore"):  # as in contact_arrays
        got = bulk._arrays(np.zeros(len(x), dtype=bool)).hypot(x, y)
    floats = [_FLOATS.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]  # raises nothing
    assert got.tobytes() == np.array(floats).tobytes()
    with mp.workdps(40):
        worst = max(
            abs(mp.mpf(h) - mp.hypot(a, b)) / mp.hypot(a, b)
            for a, b, h in zip(x[:20_000].tolist(), y[:20_000].tolist(), floats)
        )
    assert worst <= 3.25 * 2.0**-53
    assert _FLOATS.hypot(0.0, 0.0) == 0.0 and _FLOATS.hypot(3.0, -4.0) == 5.0
    assert _FLOATS.hypot(1.7e308, 1.7e308) == math.inf == _FLOATS.hypot(-math.inf, math.inf)
    assert _FLOATS.hypot(5e-324, 0.0) == 5e-324 and math.isnan(_FLOATS.hypot(math.nan, 1.0))


def test_eccentricity():
    assert _eccentricity_sq(1.0, 1.0) == 0.0
    assert _eccentricity_sq(2.0, 1.0) == 0.75
    assert 0.0 <= _eccentricity_sq(50.0, 1.0) < 1.0
    # the factored form keeps near-circular shapes accurate
    assert math.isclose(_eccentricity_sq(1.0, 1.0 - 1e-12), 2e-12, rel_tol=1e-3)
    # one definition for floats and arrays
    a, b = np.array([1.0, 2.0, 50.0]), np.array([1.0, 1.0, 1.0])
    want = [_eccentricity_sq(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert _eccentricity_sq(a, b).tolist() == want


def test_make_pair_configuration_examples():
    cfg = make_pair_configuration(2, 1, 2, 1, (1, 0), (1, 0), (1, 0))
    assert (cfg.shape1.a, cfg.shape1.b) == (2.0, 1.0)

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
    m11, m12, m22 = form(EllipseShape(2.0, 2.0), UnitVec2.from_angle(0.7))
    assert math.isclose(m11, 0.25, rel_tol=1e-15)
    assert math.isclose(m22, 0.25, rel_tol=1e-15)
    assert abs(m12) < 1e-16


def test_ellipse_matrix_axis_aligned():
    m11, m12, m22 = form(EllipseShape(2.0, 1.0), UnitVec2(1.0, 0.0))
    assert math.isclose(m11, 0.25, rel_tol=1e-15)
    assert math.isclose(m22, 1.0, rel_tol=1e-15)
    assert m12 == 0.0


def test_ellipse_matrix_rotated_45():
    # independent oracle: rotate diag(1/4, 1) by 45 degrees
    rot = np.array(
        [
            [math.cos(math.pi / 4), -math.sin(math.pi / 4)],
            [math.sin(math.pi / 4), math.cos(math.pi / 4)],
        ]
    )
    expected = rot @ np.diag([0.25, 1.0]) @ rot.T
    m = form(EllipseShape(2.0, 1.0), UnitVec2.from_angle(math.pi / 4))
    assert np.allclose(mat_as_array(m), expected, atol=1e-15)
    # frozen values from that oracle
    m11, m12, m22 = m
    assert math.isclose(m11, 0.625, rel_tol=1e-12)
    assert math.isclose(m22, 0.625, rel_tol=1e-12)
    assert math.isclose(m12, -0.375, rel_tol=1e-12)


@given(
    a=st.floats(0.2, 50.0),
    ratio=st.floats(0.02, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_boundary_point_on_matrix(a, ratio, theta):
    shape = EllipseShape(a, a * ratio)
    k = UnitVec2.from_angle(theta)
    m = form(shape, k)
    tip = Vec2(shape.a * k.x, shape.a * k.y)
    assert abs(on_form(m, tip) - 1.0) < 1e-12
    side = Vec2(shape.b * -k.y, shape.b * k.x)
    assert abs(on_form(m, side) - 1.0) < 1e-12


@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    rot_angle=st.floats(0.0, 2.0 * math.pi),
)
def test_ellipse_matrix_rotation_equivariant(theta, rot_angle):
    shape = EllipseShape(3.0, 1.2)
    m0 = mat_as_array(form(shape, UnitVec2.from_angle(theta)))
    m1 = mat_as_array(form(shape, UnitVec2.from_angle(theta + rot_angle)))
    c, s = math.cos(rot_angle), math.sin(rot_angle)
    rot = np.array([[c, -s], [s, c]])
    assert np.allclose(rot @ m0 @ rot.T, m1, atol=1e-12)


def test_matrix_sign_invariance(rng):
    for _ in range(50):
        shape = EllipseShape(2.5, 0.7)
        k = UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        m_pos = form(shape, k)
        m_neg = form(shape, flipped(k))
        assert m_pos == m_neg or np.allclose(
            mat_as_array(m_pos), mat_as_array(m_neg), atol=1e-16
        )
