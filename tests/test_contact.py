import math

import numpy as np
import pytest

from ellipse_contact import (
    ConcentricCenters,
    ContactBranch,
    EllipseShape,
    OverlapVerdict,
    PairConfiguration,
    UnitVec2,
    Vec2,
    closest_approach,
    contact_point,
    ellipse_matrix,
    oracle_distance,
    overlap,
    tangency_residuals,
    transformed_pair,
)
from ellipse_contact.oracle import OracleSettings, stratified_configuration
from conftest import flipped, random_pair, rotated


def pair(a1, b1, a2, b2, th1, th2, thd):
    return PairConfiguration(
        EllipseShape(a1, b1), EllipseShape(a2, b2),
        UnitVec2.from_angle(th1), UnitVec2.from_angle(th2), UnitVec2.from_angle(thd),
    )


# --- transformed-frame distance -------------------------------------------

def test_transformed_distance_circle_case():
    # delta = 0: both shapes circles, any direction
    cfg = pair(1.0, 1.0, 2.0, 2.0, 0.1, 0.9, 0.4)
    tp = transformed_pair(cfg)
    sol = closest_approach(cfg)
    d_prime, q = sol.d_prime, sol.q
    assert math.isclose(d_prime, 1.0 + tp.b2p, rel_tol=1e-15)
    assert q == 1.0
    assert math.isclose(d_prime, 3.0, rel_tol=1e-12)  # b2p = r2/r1 = 2

    # delta = 0 with b2p = 1/2: d' = 3/2
    cfg = pair(1.0, 1.0, 0.5, 0.5, 0.3, 1.0, 2.0)
    tp = transformed_pair(cfg)
    assert tp.delta < 1e-12 and math.isclose(tp.b2p, 0.5, rel_tol=1e-12)
    sol = closest_approach(cfg)
    d_prime, q = sol.d_prime, sol.q
    assert math.isclose(d_prime, 1.5, rel_tol=1e-12)


def test_transformed_distance_right_angle_half_b2p():
    # delta = 3, b2p = 1/2, phi = pi/2: d' = 1 + b2p*sqrt(1+delta) = 2
    cfg = pair(2.0, 1.0, 2.0, 0.5, 0.0, 0.0, 0.0)
    tp = transformed_pair(cfg)
    assert math.isclose(tp.delta, 3.0, rel_tol=1e-12)
    assert math.isclose(tp.b2p, 0.5, rel_tol=1e-12)
    assert abs(tp.cos_phi) < 1e-12
    sol = closest_approach(cfg)
    d_prime, q = sol.d_prime, sol.q
    assert math.isclose(d_prime, 2.0, rel_tol=1e-12)
    assert math.isclose(q, 2.0, rel_tol=1e-12)


def test_transformed_distance_phi_right_angle():
    # parallel ellipses approached tip to tip: the transformed center line
    # lies along the long axis of the image (the lambda_minus eigenvector),
    # so cos phi = 0 exactly and d' = 1 + a2p
    cfg = pair(2.0, 1.0, 4.0, 1.0, 0.0, 0.0, 0.0)
    tp = transformed_pair(cfg)
    assert abs(tp.cos_phi) < 1e-12
    assert math.isclose(tp.delta, 3.0, rel_tol=1e-12)
    sol = closest_approach(cfg)
    d_prime, q = sol.d_prime, sol.q
    assert math.isclose(d_prime, 1.0 + tp.a2p, rel_tol=1e-12)
    assert math.isclose(d_prime, 3.0, rel_tol=1e-12)
    assert math.isclose(q, 2.0, rel_tol=1e-12)
    # physical distance is tip-to-tip
    assert math.isclose(closest_approach(cfg).d, 6.0, rel_tol=1e-12)


def test_transformed_distance_against_circle_ellipse_oracle(rng):
    from ellipse_contact import oracle_circle_ellipse_distance

    for _ in range(12):
        cfg = random_pair(rng, max_aspect=5.0)
        tp = transformed_pair(cfg)
        if tp.delta < 1e-9 or abs(tp.cos_phi) < 1e-9:
            continue
        d_prime = closest_approach(cfg).d_prime
        # reconstruct the transformed scene: unit circle vs ellipse
        # (a2p, b2p) with major axis kminus, center line along
        # cos_phi*kplus + sin_phi*kminus
        dirv = Vec2(
            tp.cos_phi * tp.kplus.x + tp.sin_phi * tp.kminus.x,
            tp.cos_phi * tp.kplus.y + tp.sin_phi * tp.kminus.y,
        )
        got = oracle_circle_ellipse_distance(
            tp.a2p, tp.b2p, tp.kminus, UnitVec2(dirv.x, dirv.y)
        )
        assert abs(got - d_prime) <= 1e-8 * d_prime


# --- gamma -------------------------------------------------------------------

def ref_gamma_components(cfg, tp):
    """(sin gamma, cos gamma) rebuilt from cfg as contact.py computed them
    before transformed_pair carried them: flip k2, rebuild the (k1 +/- k2)
    basis and project kplus on it."""
    if tp.branch is not ContactBranch.GENERAL:
        if tp.branch is ContactBranch.PARALLEL_AXES_2A:
            return 0.0, 1.0
        return 1.0, 0.0
    k1, k2 = cfg.k1, cfg.k2
    if k1.dot(k2) < 0.0:
        k2 = UnitVec2(-k2.x, -k2.y)
    sx, sy = k1.x + k2.x, k1.y + k2.y
    dx, dy = k1.x - k2.x, k1.y - k2.y
    sn = math.hypot(sx, sy)
    dn = math.hypot(dx, dy)
    if sn == 0.0 or dn == 0.0:
        return 0.0, 1.0
    cos_gamma = (tp.kplus.x * sx + tp.kplus.y * sy) / sn
    sin_gamma = (tp.kplus.x * dx + tp.kplus.y * dy) / dn
    return sin_gamma, cos_gamma


def gamma_hex(cfg):
    tp = transformed_pair(cfg)
    sol = closest_approach(cfg)
    got = (tp.sin_gamma, tp.cos_gamma, sol.sin_gamma, sol.cos_gamma)
    expect = ref_gamma_components(cfg, tp)
    return [v.hex() for v in got], [v.hex() for v in expect * 2], tp.branch


def test_gamma_bit_for_bit_on_stratified_stream():
    from ellipse_contact import stratified_configurations

    for i, cfg in enumerate(stratified_configurations(5000, seed=11)):
        got, expect, _ = gamma_hex(cfg)
        assert got == expect, i


def test_gamma_bit_for_bit_on_exactly_parallel_axes():
    seen = set()
    for deg in (0.0, 30.0, 90.0, 135.0, 180.0, 271.0):
        k1 = UnitVec2.from_angle(math.radians(deg))
        for k2, kind in ((k1, "parallel"), (UnitVec2(-k1.x, -k1.y), "anti")):
            # an eccentric first shape pairs kplus with k1 (2A), a circular
            # first shape against an eccentric second with k1-perp (2B)
            for s1, s2 in (((2.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 1.0)),
                           ((3.0, 1.0), (2.0, 1.5))):
                cfg = PairConfiguration(EllipseShape(*s1), EllipseShape(*s2), k1, k2,
                                        UnitVec2.from_angle(0.4))
                got, expect, branch = gamma_hex(cfg)
                assert got == expect, (deg, kind, s1, s2)
                seen.add((kind, branch))
    for kind in ("parallel", "anti"):
        assert (kind, ContactBranch.PARALLEL_AXES_2A) in seen
        assert (kind, ContactBranch.PARALLEL_AXES_2B) in seen


# --- physical distance ------------------------------------------------------

def test_two_circles_exact():
    for r1, r2 in ((1.0, 2.0), (0.5, 0.5), (3.0, 0.25)):
        cfg = pair(r1, r1, r2, r2, 0.3, 1.1, 2.7)
        sol = closest_approach(cfg)
        assert abs(sol.d - (r1 + r2)) <= 1e-12 * (r1 + r2)
        assert sol.branch is ContactBranch.CIRCLE_LIKE


def test_circles_stratum_exact(rng):
    # the whole circle-circle stratum is exact to 1e-12, not just examples
    for _ in range(100):
        r1, r2 = rng.uniform(0.1, 5.0, 2)
        cfg = pair(r1, r1, r2, r2, *rng.uniform(0.0, 2.0 * math.pi, 3))
        assert abs(closest_approach(cfg).d - (r1 + r2)) <= 1e-12 * (r1 + r2)


def test_identical_parallel_tip_and_side():
    tip = closest_approach(pair(2.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0))
    assert abs(tip.d - 4.0) <= 1e-12 * 4.0
    side = closest_approach(pair(2.0, 1.0, 2.0, 1.0, 0.0, 0.0, math.pi / 2.0))
    assert abs(side.d - 2.0) <= 1e-12 * 2.0


def test_direction_sweep_against_oracle():
    # d(theta) curve for the 30-degree configuration, 360 directions
    settings = OracleSettings(boundary_samples=2048, bisection_tol=1e-11)
    for j in range(360):
        theta = 2.0 * math.pi * j / 360.0
        cfg = pair(2.0, 1.0, 2.0, 1.0, 0.0, math.radians(30.0), theta)
        sol = closest_approach(cfg)
        d_oracle = oracle_distance(cfg, settings)
        assert abs(sol.d - d_oracle) <= 1e-8 * d_oracle


def test_distance_bounds(rng):
    for _ in range(500):
        cfg = random_pair(rng, max_aspect=20.0)
        d = closest_approach(cfg).d
        lo = cfg.shape1.b + cfg.shape2.b
        hi = cfg.shape1.a + cfg.shape2.a
        assert lo - 1e-9 * lo <= d <= hi + 1e-9 * hi


def test_deterministic():
    cfg = pair(2.0, 1.0, 3.0, 0.5, 0.7, 2.1, 1.3)
    s1 = closest_approach(cfg)
    s2 = closest_approach(cfg)
    assert s1.d == s2.d
    assert s1.contact_point == s2.contact_point
    assert s1.q == s2.q


# --- contact point ----------------------------------------------------------

def test_contact_point_two_circles():
    cfg = pair(1.5, 1.5, 2.5, 2.5, 0.4, 1.9, 0.9)
    rc, sol = contact_point(cfg)
    assert math.isclose(rc.x, 1.5 * cfg.dhat.x, rel_tol=1e-12)
    assert math.isclose(rc.y, 1.5 * cfg.dhat.y, rel_tol=1e-12)


def test_contact_point_tip_contact():
    rc, _ = contact_point(pair(2.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0))
    assert math.isclose(rc.x, 2.0, rel_tol=1e-12)
    assert abs(rc.y) < 1e-12


def test_tangency_residuals_random(rng):
    for _ in range(800):
        cfg = random_pair(rng, max_aspect=20.0)
        sol = closest_approach(cfg)
        r1, r2, cross = tangency_residuals(cfg, sol)
        assert r1 <= 1e-9
        assert r2 <= 1e-9
        assert cross <= 1e-8
        # normals must be anti-parallel, not parallel
        m1 = ellipse_matrix(cfg.shape1, cfg.k1)
        m2 = ellipse_matrix(cfg.shape2, cfg.k2)
        rc = sol.contact_point
        p2 = Vec2(rc.x - sol.d * cfg.dhat.x, rc.y - sol.d * cfg.dhat.y)
        n1, n2 = m1.apply(rc), m2.apply(p2)
        assert n1.x * n2.x + n1.y * n2.y < 0.0


def test_contact_point_psi_gamma_form(rng):
    # Algebraic cross-check of the final expansion: writing the transformed
    # normal with the angle sum psi+gamma on the (k1 +/- k2) basis and
    # pushing it through the inverse scaling must reproduce the eigenbasis
    # contact point.  The angle-sum components are the normal's projections
    # on that basis.
    checked = 0
    for _ in range(400):
        cfg = random_pair(rng, max_aspect=10.0)
        tp = transformed_pair(cfg)
        sol = closest_approach(cfg)
        if sol.branch is not ContactBranch.GENERAL or tp.delta < 1e-9:
            continue
        k1, k2 = cfg.k1, cfg.k2
        if k1.dot(k2) < 0.0:
            k2 = flipped(k2)
        c = k1.dot(k2)
        if 1.0 - c * c < 1e-12:
            continue
        checked += 1
        npx = sol.cos_psi * tp.kplus.x + sol.sin_psi * tp.kminus.x
        npy = sol.cos_psi * tp.kplus.y + sol.sin_psi * tp.kminus.y
        denom_p = math.sqrt(2.0) * math.sqrt(1.0 + c)
        denom_m = math.sqrt(2.0) * math.sqrt(1.0 - c)
        cos_pg = (npx * (k1.x + k2.x) + npy * (k1.y + k2.y)) / denom_p
        sin_pg = (npx * (k1.x - k2.x) + npy * (k1.y - k2.y)) / denom_m
        # consistency of the reported gamma with the reported psi, up to the
        # orientation of the second basis vector
        sum_a = sol.sin_psi * sol.cos_gamma + sol.cos_psi * sol.sin_gamma
        sum_b = sol.sin_psi * sol.cos_gamma - sol.cos_psi * sol.sin_gamma
        assert min(abs(sin_pg - sum_a), abs(abs(sum_b) - abs(sin_pg))) <= 1e-8
        b1 = cfg.shape1.b
        a1 = cfg.shape1.a
        f_plus = cos_pg / denom_p
        f_minus = sin_pg / denom_m
        coef_k1 = (a1 + (a1 - b1) * c) * f_plus + (a1 - (a1 - b1) * c) * f_minus
        coef_k2 = b1 * f_plus - b1 * f_minus
        rc = Vec2(
            coef_k1 * k1.x + coef_k2 * k2.x, coef_k1 * k1.y + coef_k2 * k2.y
        )
        assert abs(rc.x - sol.contact_point.x) <= 1e-8 * max(1.0, abs(rc.x))
        assert abs(rc.y - sol.contact_point.y) <= 1e-8 * max(1.0, abs(rc.y))
    assert checked > 200


# --- symmetries -------------------------------------------------------------

def test_exchange_symmetry(rng):
    for _ in range(300):
        cfg = random_pair(rng, max_aspect=15.0)
        swapped = PairConfiguration(
            cfg.shape2, cfg.shape1, cfg.k2, cfg.k1, cfg.dhat
        )
        d1 = closest_approach(cfg).d
        d2 = closest_approach(swapped).d
        assert abs(d1 - d2) <= 1e-9 * d1


def test_scaling_covariance(rng):
    for _ in range(200):
        cfg = random_pair(rng)
        s = math.exp(rng.uniform(-2.0, 2.0))
        scaled = PairConfiguration(
            EllipseShape(cfg.shape1.a * s, cfg.shape1.b * s),
            EllipseShape(cfg.shape2.a * s, cfg.shape2.b * s),
            cfg.k1, cfg.k2, cfg.dhat,
        )
        sol0, sol1 = closest_approach(cfg), closest_approach(scaled)
        assert abs(sol1.d - s * sol0.d) <= 1e-12 * s * sol0.d
        assert abs(sol1.contact_point.x - s * sol0.contact_point.x) <= 1e-11 * max(
            1.0, abs(s * sol0.contact_point.x)
        )
        assert abs(sol1.contact_point.y - s * sol0.contact_point.y) <= 1e-11 * max(
            1.0, abs(s * sol0.contact_point.y)
        )


def test_rotation_covariance(rng):
    for _ in range(200):
        cfg = random_pair(rng)
        th = rng.uniform(0.0, 2.0 * math.pi)
        turned = PairConfiguration(
            cfg.shape1, cfg.shape2,
            rotated(cfg.k1, th), rotated(cfg.k2, th), rotated(cfg.dhat, th),
        )
        sol0, sol1 = closest_approach(cfg), closest_approach(turned)
        assert abs(sol1.d - sol0.d) <= 1e-10 * sol0.d
        c, s = math.cos(th), math.sin(th)
        rx = c * sol0.contact_point.x - s * sol0.contact_point.y
        ry = s * sol0.contact_point.x + c * sol0.contact_point.y
        assert math.hypot(sol1.contact_point.x - rx, sol1.contact_point.y - ry) <= 1e-9


def test_reflection_symmetry(rng):
    # reflect about the x axis with dhat on the x axis: d unchanged,
    # contact point mirrored
    for _ in range(200):
        cfg = random_pair(rng)
        base = PairConfiguration(
            cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, UnitVec2(1.0, 0.0)
        )
        mirrored = PairConfiguration(
            cfg.shape1, cfg.shape2,
            UnitVec2(cfg.k1.x, -cfg.k1.y), UnitVec2(cfg.k2.x, -cfg.k2.y),
            UnitVec2(1.0, 0.0),
        )
        sol0, sol1 = closest_approach(base), closest_approach(mirrored)
        assert abs(sol0.d - sol1.d) <= 1e-10 * sol0.d
        assert abs(sol0.contact_point.x - sol1.contact_point.x) <= 1e-9
        assert abs(sol0.contact_point.y + sol1.contact_point.y) <= 1e-9


def test_sign_flip_invariance(rng):
    for _ in range(200):
        cfg = random_pair(rng)
        sol0 = closest_approach(cfg)
        for other in (
            PairConfiguration(cfg.shape1, cfg.shape2, flipped(cfg.k1), cfg.k2, cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, flipped(cfg.k2), cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, flipped(cfg.dhat)),
        ):
            assert abs(closest_approach(other).d - sol0.d) <= 1e-10 * sol0.d


# --- branch straddle --------------------------------------------------------

def test_parallel_branch_straddle():
    # general path just off exact parallelism vs the parallel branch at it
    for th1 in (0.0, 0.37, 1.1):
        for eps in (1e-9, 1e-10, 1e-12):
            k1 = UnitVec2.from_angle(th1)
            base = PairConfiguration(
                EllipseShape(2.0, 1.0), EllipseShape(3.0, 0.6),
                k1, k1, UnitVec2.from_angle(th1 + 0.8),
            )
            tilted = PairConfiguration(
                base.shape1, base.shape2,
                k1, UnitVec2.from_angle(th1 + eps), base.dhat,
            )
            d_exact = closest_approach(base).d
            d_tilted = closest_approach(tilted).d
            assert abs(d_exact - d_tilted) <= 1e-8 * d_exact


def test_delta_threshold_straddle():
    # shapes drifting toward similarity push delta through the 1e-12 cut;
    # the circle-like value 1 + b2p must agree with the quartic path there
    k1 = UnitVec2.from_angle(0.2)
    k2 = UnitVec2.from_angle(0.2)
    dhat = UnitVec2.from_angle(1.5)
    straddled = 0
    for eps in (10.0 ** e for e in range(-14, -2)):
        cfg = PairConfiguration(
            EllipseShape(2.0, 1.0), EllipseShape(3.0 * (1.0 + eps), 1.5),
            k1, k2, dhat,
        )
        tp = transformed_pair(cfg)
        sol = closest_approach(cfg)
        circle_like = (1.0 + tp.b2p) / tp.dhat_scale
        if tp.delta < 1e-12:
            assert sol.branch in (ContactBranch.CIRCLE_LIKE,)
        else:
            straddled += 1
        assert abs(sol.d - circle_like) <= max(1e-8 * sol.d, tp.delta * sol.d)
    assert straddled > 3


def test_phi_right_angle_straddle():
    # tilt the center line off the long axis; the phi = pi/2 closed form
    # must agree with the quartic path across the cos-phi threshold
    base = pair(2.0, 1.0, 4.0, 1.0, 0.0, 0.0, 0.0)
    exact = closest_approach(base)
    assert exact.branch is ContactBranch.PHI_RIGHT_ANGLE
    for eps in (1e-5, 1e-7, 1e-13):
        tilted = pair(2.0, 1.0, 4.0, 1.0, 0.0, 0.0, eps)
        d = closest_approach(tilted).d
        assert abs(d - exact.d) <= 1e-8 * exact.d


# --- overlap ----------------------------------------------------------------

def test_overlap_circles():
    c = EllipseShape(1.0, 1.0)
    k = UnitVec2(1.0, 0.0)
    assert overlap(c, c, k, k, Vec2(1.5, 0.0)) is OverlapVerdict.OVERLAPPING
    assert overlap(c, c, k, k, Vec2(2.5, 0.0)) is OverlapVerdict.DISJOINT
    assert overlap(c, c, k, k, Vec2(2.0, 0.0)) is OverlapVerdict.TANGENT


def test_overlap_tip_to_tip_tangent():
    e = EllipseShape(2.0, 1.0)
    k = UnitVec2(1.0, 0.0)
    assert overlap(e, e, k, k, Vec2(4.0, 0.0)) is OverlapVerdict.TANGENT
    assert overlap(e, e, k, k, Vec2(3.99, 0.0)) is OverlapVerdict.OVERLAPPING
    assert overlap(e, e, k, k, Vec2(4.01, 0.0)) is OverlapVerdict.DISJOINT


def test_overlap_concentric():
    e = EllipseShape(2.0, 1.0)
    k = UnitVec2(1.0, 0.0)
    with pytest.raises(ConcentricCenters):
        overlap(e, e, k, k, Vec2(0.0, 1e-15))


def overlap_by_sampling(cfg, sep, n=4096):
    """Membership-sampling oracle: boundary of each ellipse against the
    other's form, both directions."""
    m1 = ellipse_matrix(cfg.shape1, cfg.k1)
    m2 = ellipse_matrix(cfg.shape2, cfg.k2)
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    for shape, k, other, sign in (
        (cfg.shape1, cfg.k1, m2, -1.0),
        (cfg.shape2, cfg.k2, m1, +1.0),
    ):
        kv = np.array([k.x, k.y])
        kp = np.array([-k.y, k.x])
        pts = np.outer(shape.a * np.cos(u), kv) + np.outer(shape.b * np.sin(u), kp)
        pts = pts + sign * sep * np.array([cfg.dhat.x, cfg.dhat.y])
        other_arr = np.array([[other.m11, other.m12], [other.m12, other.m22]])
        vals = np.einsum("ij,jk,ik->i", pts, other_arr, pts)
        if float(vals.min()) < 1.0:
            return True
    return False


def test_overlap_against_sampling_oracle(rng):
    agreements = 0
    for _ in range(400):
        cfg = random_pair(rng, max_aspect=8.0)
        lo = cfg.shape1.b + cfg.shape2.b
        hi = cfg.shape1.a + cfg.shape2.a
        sep = rng.uniform(0.8 * lo, 1.2 * hi)
        r12 = Vec2(sep * cfg.dhat.x, sep * cfg.dhat.y)
        verdict = overlap(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, r12)
        if verdict is OverlapVerdict.TANGENT:
            continue  # sampling can't resolve exact tangency
        d = closest_approach(cfg).d
        if abs(sep - d) <= 1e-6 * d:
            continue  # too close to the boundary for a 4096-point oracle
        sampled = overlap_by_sampling(cfg, sep)
        assert sampled == (verdict is OverlapVerdict.OVERLAPPING)
        agreements += 1
    assert agreements > 300


def test_degenerate_strata_residuals():
    # stratified monsters: near-parallel axes, near-perpendicular center
    # line, near-circular shapes; residuals must hold everywhere
    for i in range(2000):
        cfg = stratified_configuration(4242, i)
        sol = closest_approach(cfg)
        r1, r2, cross = tangency_residuals(cfg, sol)
        assert r1 <= 1e-9, (i, r1)
        assert r2 <= 1e-9, (i, r2)
        assert cross <= 1e-8, (i, cross)
