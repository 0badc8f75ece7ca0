import math

import numpy as np

from ellipse_contact import (
    ContactBranch,
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    transformed_pair,
)
from conftest import flipped, form, mat_as_array, random_pair, rotated
from ellipse_contact.geometry import _eccentricity_sq
from ellipse_contact.oracle import stratified_configuration


def eigen_oracle(cfg):
    """Transformed quadratic form by explicit matrix products and eigh.

    Fully independent of the closed forms: builds T^-1 and the ellipse
    matrix in Cartesian components and lets numpy do the eigenwork.
    """
    s1 = cfg.shape1
    k1 = np.array([cfg.k1.x, cfg.k1.y])
    eta = s1.a / s1.b - 1.0
    t_inv = s1.b * (np.eye(2) + eta * np.outer(k1, k1))
    a2 = mat_as_array(form(cfg.shape2, cfg.k2))
    a_prime = t_inv @ a2 @ t_inv
    lam, vecs = np.linalg.eigh(a_prime)
    return a_prime, lam, vecs


def _scaled_dhat(shape, k1, dhat):
    """|T dhat| as transformed_pair computes it, for a unit ellipse 2."""
    cfg = PairConfiguration(shape, EllipseShape(1.0, 1.0), k1, k1, dhat)
    return transformed_pair(cfg).dhat_scale


def test_scaling_transform_circle():
    # a circle of radius 3 scales every direction by 1/3
    for theta in (0.0, 0.7, 2.0):
        got = _scaled_dhat(EllipseShape(3.0, 3.0), UnitVec2(1.0, 0.0), UnitVec2.from_angle(theta))
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-15)


def test_scaling_transform_maps_boundary_to_unit_circle():
    # T scales by 1/a1 along k1 and 1/b1 across it: (2,0) -> (1,0),
    # (0,1) -> (0,1) and (1,1) -> (0.5,1) for the (2,1) ellipse along x
    shape, k1 = EllipseShape(2.0, 1.0), UnitVec2(1.0, 0.0)
    assert _scaled_dhat(shape, k1, UnitVec2(1.0, 0.0)) == 0.5
    assert _scaled_dhat(shape, k1, UnitVec2(0.0, 1.0)) == 1.0
    got = _scaled_dhat(shape, k1, UnitVec2(1.0, 1.0))
    assert math.isclose(got, math.hypot(0.5, 1.0) / math.sqrt(2.0), rel_tol=1e-15)


def test_scaling_unit_image(rng):
    # T^-1 A1 T^-1 = I: the inverse scaling the kernel maps back through
    # sends the unit circle onto ellipse 1
    for _ in range(200):
        a = rng.uniform(0.5, 5.0)
        shape = EllipseShape(a, a * rng.uniform(0.05, 1.0))
        k1 = UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        m1 = mat_as_array(form(shape, k1))
        k1v = np.array([k1.x, k1.y])
        t_inv = shape.b * (np.eye(2) + (shape.a / shape.b - 1.0) * np.outer(k1v, k1v))
        assert np.allclose(t_inv @ m1 @ t_inv, np.eye(2), atol=1e-12)


def test_two_circles_give_isotropic_image():
    cfg = PairConfiguration(
        EllipseShape(1.0, 1.0), EllipseShape(1.0, 1.0),
        UnitVec2.from_angle(0.3), UnitVec2.from_angle(1.1), UnitVec2.from_angle(2.0),
    )
    tp = transformed_pair(cfg)
    assert math.isclose(tp.lambda_plus, 1.0, rel_tol=1e-12)
    assert math.isclose(tp.lambda_minus, 1.0, rel_tol=1e-12)
    assert tp.delta < 1e-12
    assert math.isclose(tp.a2p, 1.0, rel_tol=1e-12)
    assert math.isclose(tp.b2p, 1.0, rel_tol=1e-12)


def test_similar_parallel_shapes_give_zero_delta():
    cfg = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(3.0, 1.5),
        UnitVec2.from_angle(0.4), UnitVec2.from_angle(0.4), UnitVec2.from_angle(1.0),
    )
    assert transformed_pair(cfg).delta < 1e-12


def test_parallel_case_phi_zero():
    # identical shapes, axes and center line all along x: cos phi = 1
    cfg = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(2.0, 1.0),
        UnitVec2(1.0, 0.0), UnitVec2(1.0, 0.0), UnitVec2(1.0, 0.0),
    )
    tp = transformed_pair(cfg)
    assert tp.branch in (ContactBranch.PARALLEL_AXES_2A, ContactBranch.PARALLEL_AXES_2B)
    assert math.isclose(abs(tp.cos_phi), 1.0, rel_tol=1e-12)
    # the parallel-limit closed form: (b1/a1)(k1.d)/sqrt(1-e1^2 (k1.d)^2)
    e1sq = _eccentricity_sq(cfg.shape1.a, cfg.shape1.b)
    expected = 0.5 / math.sqrt(1.0 - e1sq)
    assert math.isclose(abs(tp.cos_phi), expected, rel_tol=1e-12)


def test_antiparallel_axes_canonicalized():
    cfg_par = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(3.0, 0.5),
        UnitVec2.from_angle(0.3), UnitVec2.from_angle(0.3), UnitVec2.from_angle(1.2),
    )
    cfg_anti = PairConfiguration(
        cfg_par.shape1, cfg_par.shape2,
        cfg_par.k1, flipped(cfg_par.k2), cfg_par.dhat,
    )
    tp_par, tp_anti = transformed_pair(cfg_par), transformed_pair(cfg_anti)
    assert tp_anti.branch == tp_par.branch
    assert math.isclose(tp_anti.lambda_plus, tp_par.lambda_plus, rel_tol=1e-14)
    assert math.isclose(tp_anti.delta, tp_par.delta, rel_tol=1e-12, abs_tol=1e-14)


def test_derived_example_30_degrees():
    # independent eigen-oracle fixes every reported quantity
    cfg = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(2.0, 1.0),
        UnitVec2(1.0, 0.0), UnitVec2.from_angle(math.radians(30.0)), UnitVec2(1.0, 0.0),
    )
    tp = transformed_pair(cfg)
    a_prime, lam, vecs = eigen_oracle(cfg)
    assert math.isclose(tp.lambda_minus, lam[0], rel_tol=1e-10)
    assert math.isclose(tp.lambda_plus, lam[1], rel_tol=1e-10)
    # eigenvector residual and phi against the oracle eigenbasis
    kp = np.array([tp.kplus.x, tp.kplus.y])
    assert np.allclose(a_prime @ kp, tp.lambda_plus * kp, atol=1e-9 * tp.lambda_plus)
    oracle_cos = abs(float(vecs[:, 1] @ _dhat_prime(cfg)))
    assert math.isclose(abs(tp.cos_phi), oracle_cos, rel_tol=1e-10)


def _dhat_prime(cfg):
    s1 = cfg.shape1
    k1 = np.array([cfg.k1.x, cfg.k1.y])
    dh = np.array([cfg.dhat.x, cfg.dhat.y])
    t = (np.eye(2) + (s1.b / s1.a - 1.0) * np.outer(k1, k1)) / s1.b
    td = t @ dh
    return td / np.hypot(*td)


def test_basis_independence_against_matrix_oracle():
    # closed forms must reproduce the explicit-matrix eigen path
    for i in range(10_000):
        cfg = stratified_configuration(777, i, max_aspect=10.0)
        tp = transformed_pair(cfg)
        a_prime, lam, vecs = eigen_oracle(cfg)
        assert math.isclose(tp.lambda_plus, lam[1], rel_tol=1e-9)
        assert math.isclose(tp.lambda_minus, lam[0], rel_tol=1e-9)
        delta_oracle = lam[1] / lam[0] - 1.0
        assert abs(tp.delta - delta_oracle) <= 1e-9 * (1.0 + delta_oracle)
        kp = np.array([tp.kplus.x, tp.kplus.y])
        assert np.allclose(
            a_prime @ kp, tp.lambda_plus * kp, atol=1e-9 * tp.lambda_plus
        )
        # eigh's eigenvectors are only defined up to the spectral gap;
        # compare directions when the problem is well conditioned
        if lam[1] - lam[0] > 1e-6 * lam[1]:
            cos_oracle = abs(float(vecs[:, 1] @ _dhat_prime(cfg)))
            assert abs(abs(tp.cos_phi) - cos_oracle) <= 1e-9


def test_transformed_pair_invariants(rng):
    for _ in range(2000):
        cfg = random_pair(rng, max_aspect=20.0)
        tp = transformed_pair(cfg)
        assert tp.lambda_plus >= tp.lambda_minus > 0.0
        assert tp.a2p >= tp.b2p > 0.0
        assert tp.delta >= 0.0
        assert abs(tp.cos_phi**2 + tp.sin_phi**2 - 1.0) < 1e-10
        assert abs(tp.kplus.x * tp.kminus.x + tp.kplus.y * tp.kminus.y) < 1e-10
        # A' components in the basis reproduce the eigenvalues
        tr = tp.a11 + tp.a22
        assert math.isclose(tr, tp.lambda_plus + tp.lambda_minus, rel_tol=1e-12)
        # dhat_scale formula
        e1sq = _eccentricity_sq(cfg.shape1.a, cfg.shape1.b)
        k1_dhat = cfg.k1.x * cfg.dhat.x + cfg.k1.y * cfg.dhat.y
        expected = math.sqrt(1.0 - e1sq * k1_dhat ** 2) / cfg.shape1.b
        assert math.isclose(tp.dhat_scale, expected, rel_tol=1e-12)


def test_global_rotation_invariance(rng):
    for _ in range(300):
        cfg = random_pair(rng)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        turned = PairConfiguration(
            cfg.shape1, cfg.shape2,
            rotated(cfg.k1, angle), rotated(cfg.k2, angle), rotated(cfg.dhat, angle),
        )
        tp0, tp1 = transformed_pair(cfg), transformed_pair(turned)
        assert math.isclose(tp0.lambda_plus, tp1.lambda_plus, rel_tol=1e-10)
        assert math.isclose(tp0.lambda_minus, tp1.lambda_minus, rel_tol=1e-10)
        assert abs(tp0.delta - tp1.delta) <= 1e-10 * (1.0 + tp0.delta)
        assert abs(tp0.cos_phi**2 - tp1.cos_phi**2) < 1e-10


def test_sign_flip_invariance(rng):
    for _ in range(300):
        cfg = random_pair(rng)
        tp0 = transformed_pair(cfg)
        for other in (
            PairConfiguration(cfg.shape1, cfg.shape2, flipped(cfg.k1), cfg.k2, cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, flipped(cfg.k2), cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, flipped(cfg.dhat)),
        ):
            tp1 = transformed_pair(other)
            assert math.isclose(tp0.lambda_plus, tp1.lambda_plus, rel_tol=1e-10)
            assert abs(tp0.delta - tp1.delta) <= 1e-10 * (1.0 + tp0.delta)
            assert abs(tp0.cos_phi**2 - tp1.cos_phi**2) < 1e-10
            assert abs(tp0.sin_phi**2 - tp1.sin_phi**2) < 1e-10


def test_circle_pair_keeps_delta_zero_only_when_both_circular(rng):
    # a circular shape2 alone does NOT make the transformed image circular:
    # the scaling stretches it by a1/b1
    cfg = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(1.5, 1.5),
        UnitVec2.from_angle(0.2), UnitVec2.from_angle(1.0), UnitVec2.from_angle(2.2),
    )
    tp = transformed_pair(cfg)
    assert math.isclose(tp.delta, (2.0 / 1.0) ** 2 - 1.0, rel_tol=1e-12)
