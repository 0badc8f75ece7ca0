import math

import numpy as np
import pytest

from ellipse_contact import (
    ConcentricCenters,
    ContactBranch,
    ContactSolution,
    EllipseShape,
    OverlapVerdict,
    PairConfiguration,
    UnitVec2,
    Vec2,
    ZeroVector,
    closest_approach,
    contact_point,
    make_pair_configuration,
    oracle_distance,
    overlap,
    tangency_residuals,
    TransformedPair,
    transformed_pair,
)
from ellipse_contact import contact as contact_module
from ellipse_contact.oracle import (
    stratified_configuration,
    stratified_configurations,
    support_distances,
)
from conftest import (
    columns, flipped, form, mat_as_array, mp_support_distance, oracle_circle_ellipse_distance,
    random_pair, rotated,
)


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


def test_branches_one_rule_for_floats_and_arrays():
    # both thresholds are strict: a value at one takes the general branch;
    # closest_approach and contact_arrays get their masks from _branches
    branches = contact_module._branches
    tol_d, tol_c = contact_module.DELTA_CIRCLE_TOL, contact_module.COS_PHI_TOL
    rows = [(0.0, 0.5), (tol_d, 0.5), (0.5 * tol_d, 0.5), (1.0, tol_c), (1.0, -tol_c),
            (1.0, 0.5 * tol_c), (1.0, -0.5 * tol_c), (1.0, 0.0), (0.0, 0.0), (math.nan, 0.5)]
    got = [branches(*row) for row in rows]
    assert got == [(True, True), (False, False), (True, True), (False, False), (False, False),
                   (False, True), (False, True), (False, True), (True, True), (False, False)]
    circle, on_line = branches(*(np.array(x) for x in zip(*rows)))
    assert list(zip(circle.tolist(), on_line.tolist())) == got


def test_transformed_distance_against_circle_ellipse_oracle(rng):
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
    """(sin gamma, cos gamma) rebuilt from cfg: flip k2, take s = k1 + k2
    and its quarter turn, turned to point along k1 - k2, as the basis, and
    project kplus on it."""
    if tp.branch is not ContactBranch.GENERAL:
        if tp.branch is ContactBranch.PARALLEL_AXES_2A:
            return 0.0, 1.0
        return 1.0, 0.0
    k1, k2 = cfg.k1, cfg.k2
    if k1.x * k2.x + k1.y * k2.y < 0.0:
        k2 = UnitVec2(-k2.x, -k2.y)
    sx, sy = k1.x + k2.x, k1.y + k2.y
    dx, dy = k1.x - k2.x, k1.y - k2.y
    px, py = (-sy, sx) if -sy * dx + sx * dy >= 0.0 else (sy, -sx)
    sn = math.hypot(sx, sy)
    cos_gamma = (tp.kplus.x * sx + tp.kplus.y * sy) / sn
    sin_gamma = (tp.kplus.x * px + tp.kplus.y * py) / sn
    return sin_gamma, cos_gamma


def test_gamma_is_a_unit_pair_near_parallel_axes():
    # projected on (k1 - k2)/|k1 - k2|, whose direction is lost to rounding
    # as the axes turn parallel, 217 of these pairs are off a unit pair by
    # over 1e-6, the worst by 0.83; where the axes are apart, that
    # projection and the quarter turn of k1 + k2 agree to the last digits
    worst = moved = 0.0
    for cfg in stratified_configurations(3000, seed=11):
        tp = transformed_pair(cfg)
        worst = max(worst, abs(tp.sin_gamma ** 2 + tp.cos_gamma ** 2 - 1.0))
        k1, k2 = cfg.k1, cfg.k2
        if k1.x * k2.x + k1.y * k2.y < 0.0:
            k2 = flipped(k2)
        dx, dy = k1.x - k2.x, k1.y - k2.y
        gap = math.hypot(dx, dy)
        if tp.branch is ContactBranch.GENERAL and gap > 1e-3:
            old = (tp.kplus.x * dx + tp.kplus.y * dy) / gap
            moved = max(moved, abs(tp.sin_gamma - old))
    assert worst <= 1e-15
    assert moved <= 4e-14


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
    for j in range(360):
        theta = 2.0 * math.pi * j / 360.0
        cfg = pair(2.0, 1.0, 2.0, 1.0, 0.0, math.radians(30.0), theta)
        sol = closest_approach(cfg)
        d_oracle = oracle_distance(cfg)
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
        rc = sol.contact_point
        p2 = np.array([rc.x - sol.d * cfg.dhat.x, rc.y - sol.d * cfg.dhat.y])
        n1 = mat_as_array(form(cfg.shape1, cfg.k1)) @ np.array([rc.x, rc.y])
        n2 = mat_as_array(form(cfg.shape2, cfg.k2)) @ p2
        assert n1 @ n2 < 0.0


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
        if k1.x * k2.x + k1.y * k2.y < 0.0:
            k2 = flipped(k2)
        c = k1.x * k2.x + k1.y * k2.y
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


# --- result records ---------------------------------------------------------

def scaled(cfg, x, y, inverse=False):
    """T (x, y), the map of ellipse 1 onto the unit circle, or its inverse."""
    k, a, b = cfg.k1, cfg.shape1.a, cfg.shape1.b
    u, v = k.x * x + k.y * y, k.x * y - k.y * x  # along k1 and k1-perp
    u, v = (u * a, v * b) if inverse else (u / a, v / b)
    return u * k.x - v * k.y, u * k.y + v * k.x


def support_bounds(cfg):
    """(sum of radial extents, sum of support functions) along dhat: the
    contact distance lies between them."""
    lo = hi = 0.0
    for shape, k in ((cfg.shape1, cfg.k1), (cfg.shape2, cfg.k2)):
        a, b, u = shape.a, shape.b, cfg.dhat
        c, s = k.x * u.x + k.y * u.y, k.x * u.y - k.y * u.x
        lo += a * b / math.hypot(b * c, a * s)
        hi += math.hypot(a * c, b * s)
    return lo, hi


def test_result_fields_by_name_on_every_branch():
    # both records are built positionally, so two swapped fields would go
    # unnoticed by type; relations that hold field by field catch them
    assert TransformedPair._fields == (
        "a11", "a22", "a12", "lambda_plus", "lambda_minus", "kplus", "kminus", "a2p",
        "b2p", "delta", "cos_phi", "sin_phi", "dhat_scale", "sin_gamma", "cos_gamma",
        "branch",
    )
    assert ContactSolution._fields == (
        "d", "d_prime", "q", "sin_psi", "cos_psi", "sin_gamma", "cos_gamma",
        "contact_point", "contact_normal", "branch",
    )
    k = UnitVec2.from_angle(0.5)
    cfgs = list(stratified_configurations(1000, seed=11)) + [
        pair(2.0, 1.0, 3.0, 1.0, 0.3, 1.1, 0.7),  # general
        pair(1.0, 1.0, 2.0, 2.0, 0.1, 0.9, 0.4),  # circle-like
        pair(2.0, 1.0, 4.0, 1.0, 0.0, 0.0, 0.0),  # phi-right-angle
        PairConfiguration(EllipseShape(2.0, 1.0), EllipseShape(1.0, 1.0), k, k,
                          UnitVec2.from_angle(0.4)),  # parallel axes, 2A
        PairConfiguration(EllipseShape(1.0, 1.0), EllipseShape(2.0, 1.0), k, flipped(k),
                          UnitVec2.from_angle(0.4)),  # parallel axes, 2B
    ]
    seen = set()
    for cfg in cfgs:
        tp, sol = transformed_pair(cfg), closest_approach(cfg)
        seen.add(sol.branch)
        assert sol.branch in (tp.branch, ContactBranch.CIRCLE_LIKE, ContactBranch.PHI_RIGHT_ANGLE)
        kp, km, lp, lm = tp.kplus, tp.kminus, tp.lambda_plus, tp.lambda_minus

        # eigenvalues and transformed semi-axes
        assert tp.a2p >= tp.b2p > 0.0 and lp >= lm > 0.0
        assert abs(lp * tp.b2p * tp.b2p - 1.0) <= 1e-15
        assert abs(lm * tp.a2p * tp.a2p - 1.0) <= 1e-15
        assert abs(tp.a11 + tp.a22 - (lp + lm)) <= 1e-12 * lp
        assert (km.x, km.y) == (-kp.y, kp.x)

        # the center line T dhat, its length and its components on kplus/kminus
        tx, ty = scaled(cfg, cfg.dhat.x, cfg.dhat.y)
        t = math.hypot(tx, ty)
        assert abs(tp.dhat_scale - t) <= 1e-14 * t
        assert abs(tp.cos_phi - (kp.x * tx + kp.y * ty) / t) <= 1e-14
        assert abs(tp.sin_phi - (km.x * tx + km.y * ty) / t) <= 1e-14

        # gamma turns the (k1+k2, k1-k2) basis onto the eigenbasis
        assert (sol.sin_gamma, sol.cos_gamma) == (tp.sin_gamma, tp.cos_gamma)
        sg, cg = tp.sin_gamma, tp.cos_gamma
        k1, k2 = cfg.k1, cfg.k2
        if k1.x * k2.x + k1.y * k2.y < 0.0:
            k2 = flipped(k2)
        gap = math.hypot(k1.x - k2.x, k1.y - k2.y)
        assert abs(sg * sg + cg * cg - 1.0) <= 2e-15
        if tp.branch is ContactBranch.PARALLEL_AXES_2A:
            assert (sg, cg) == (0.0, 1.0)
        elif tp.branch is ContactBranch.PARALLEL_AXES_2B:
            assert (sg, cg) == (1.0, 0.0)
        elif gap > 1e-3:
            sx, sy = k1.x + k2.x, k1.y + k2.y
            assert abs(cg - (kp.x * sx + kp.y * sy) / math.hypot(sx, sy)) <= 1e-12
            assert abs(tp.a11 - (lp * cg * cg + lm * sg * sg)) <= 1e-12 * lp
            assert abs(tp.a22 - (lp * sg * sg + lm * cg * cg)) <= 1e-12 * lp

        # the distance, between the radial and the support-function bounds
        assert sol.d == sol.d_prime / tp.dhat_scale
        assert 1.0 <= sol.q <= math.sqrt(1.0 + tp.delta)
        lo, hi = support_bounds(cfg)
        assert lo * (1.0 - 1e-12) <= sol.d <= hi * (1.0 + 1e-12)

        # the contact point maps to the transformed normal direction psi on
        # the unit circle, and the outward normal there is along M1.rc
        rc, n = sol.contact_point, sol.contact_normal
        assert isinstance(rc, Vec2) and isinstance(n, UnitVec2)
        assert abs(sol.sin_psi**2 + sol.cos_psi**2 - 1.0) <= 2e-15
        px = sol.cos_psi * kp.x + sol.sin_psi * km.x
        py = sol.cos_psi * kp.y + sol.sin_psi * km.y
        ex, ey = scaled(cfg, px, py, inverse=True)
        assert math.hypot(rc.x - ex, rc.y - ey) <= 1e-9 * math.hypot(ex, ey)
        m11, m12, m22 = form(cfg.shape1, cfg.k1)
        mx, my = m11 * rc.x + m12 * rc.y, m12 * rc.x + m22 * rc.y
        assert abs(n.x * my - n.y * mx) <= 1e-15 * math.hypot(mx, my)
        assert n.x * mx + n.y * my > 0.0
    assert seen == set(ContactBranch)


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


def test_overlap_concentric_cut_scales_with_the_shapes():
    # the cut is 1e-14 (b1 + b2): at the 1e-20 scale a separation of 1e-15
    # is 50,000 contact distances, and one inside b1 + b2 reaches the kernel
    e = EllipseShape(2e-20, 1e-20)
    k = UnitVec2(1.0, 0.0)
    assert overlap(e, e, k, k, Vec2(0.0, 1e-15)) is OverlapVerdict.DISJOINT
    assert overlap(e, e, k, k, Vec2(0.0, 1.5e-20)) is OverlapVerdict.OVERLAPPING
    with pytest.raises(ConcentricCenters):
        overlap(e, e, k, k, Vec2(0.0, 1e-34))


def test_overlap_non_finite_distance_raises():
    # b2 = 1e-160 squares below the doubles and the transformed form is nan;
    # along the shared axis no quartic is solved, and the nan distance that
    # comes out must not read as disjoint
    k = UnitVec2(1.0, 0.0)
    with pytest.raises(OverflowError):
        overlap(EllipseShape(1.0, 1.0), EllipseShape(1e-3, 1e-160), k, k, Vec2(1e-3, 0.0))


@pytest.mark.parametrize("k", [
    UnitVec2(1.0, 0.0), UnitVec2.from_angle(math.radians(-1e300)),
])
def test_closest_approach_non_finite_distance_raises(k):
    # the same nan transformed form: a library caller gets the error too,
    # not a ContactSolution with d = nan
    cfg = make_pair_configuration(1.0, 1.0, 1e-3, 1e-160, k, k, k)
    with pytest.raises(OverflowError):
        closest_approach(cfg)


@pytest.mark.parametrize("p2, n1, n2, r1, message", [
    ((math.inf, 0.0), (math.nan, 1.0), (1.0, math.inf), 0.0, "non-finite vector components (inf, 0.0)"),
    ((0.0, 1.0), (math.nan, 1.0), (1.0, math.inf), 0.0, "non-finite vector components (nan, 1.0)"),
    ((0.0, 1.0), (1.0, 0.0), (1.0, -math.inf), 0.0, "non-finite vector components (1.0, -inf)"),
    ((0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), math.inf, "non-finite tangency residuals (inf, 0.0, 0.0)"),
    ((0.0, 1.0), (1e200, 1e200), (1e200, 1e200), 0.0, "non-finite tangency residuals (0.0, 0.0, nan)"),
])
def test_tangency_residuals_non_finite_errors(monkeypatch, p2, n1, n2, r1, message):
    # ValueError naming the first of p2, n1, n2 and the residuals that is
    # not finite; the 1e200 normals overflow in the cross product
    cfg = pair(2.0, 1.0, 3.0, 1.0, 0.3, 1.1, 0.7)
    sol = closest_approach(cfg)
    monkeypatch.setattr(contact_module, "_tangency", lambda *args: (p2, r1, 0.0, n1, n2))
    with pytest.raises(ValueError) as exc:
        tangency_residuals(cfg, sol)
    assert (type(exc.value), str(exc.value)) == (ValueError, message)


@pytest.mark.parametrize("rc, normal, kind, message", [
    (None, (math.nan, 1.0), ValueError, "non-finite vector components (nan, 1.0)"),
    (None, (math.inf, -math.inf), ValueError, "non-finite vector components (inf, -inf)"),
    (None, (0.0, 0.0), ZeroVector, "cannot normalize (0.0, 0.0)"),
    (None, (1.5e308, 1.5e308), ZeroVector, "cannot normalize (1.5e+308, 1.5e+308)"),
    (None, (5e-324, 0.0), ZeroVector, "cannot normalize (5e-324, 0.0)"),
    ((math.nan, 0.0), (math.nan, 1.0), ValueError, "non-finite vector components (nan, 0.0)"),
])
def test_closest_approach_contact_normal_errors(monkeypatch, rc, normal, kind, message):
    # a non-finite contact point, then a non-finite contact normal, raise
    # ValueError; a normal that cannot be normalised raises ZeroVector
    cfg = pair(2.0, 1.0, 3.0, 1.0, 0.3, 1.1, 0.7)
    assert closest_approach(cfg).branch is ContactBranch.GENERAL
    if rc is not None:
        monkeypatch.setattr(contact_module, "_contact_point", lambda *args: rc)
    monkeypatch.setattr(contact_module, "_normal", lambda *args: normal)
    with pytest.raises(ValueError) as exc:
        closest_approach(cfg)
    assert (type(exc.value), str(exc.value)) == (kind, message)


def test_small_first_ellipse_against_large_second_solves(angle_calls):
    # aspects 1,183 and 8,756 with b1/b2 = 1.5e-4; the swapped pair, the
    # same contact seen from ellipse 2, solves to this d.  Ferrari's root
    # fails the residual test here, and the angle solve answers
    cfg = make_pair_configuration(
        3.090389405657819, 0.002611417141725977, 148856.3527237032, 17.001102375324963,
        *(UnitVec2.from_angle(math.radians(t)) for t in (12.17359, 261.84, 195.01344)),
    )
    assert math.isclose(closest_approach(cfg).d, 21.645305083194728, rel_tol=1e-12)
    assert len(angle_calls.scalar) == 1


@pytest.mark.parametrize("seed, index", [(11, 3406), (5, 2919), (3, 2638)])
def test_quartic_root_just_above_one_solves(angle_calls, seed, index):
    # the first row per seed, at aspect up to 10^6, whose root q lies
    # within 1.3e-9 of 1 with hi = sqrt(1 + delta) above 4e6: Ferrari's
    # root is rejected and the angle solve answers (measured 5.6e-15,
    # 3.0e-14 and 0 off the oracle, residuals up to 3.9e-11)
    cfg = stratified_configuration(seed, index, 1e6)
    sol = closest_approach(cfg)
    assert len(angle_calls.scalar) == 1
    ref = support_distances(*columns([cfg]))[0]
    assert abs(sol.d - ref) <= 1e-12 * ref
    assert max(tangency_residuals(cfg, sol)) <= 1e-9


def overlap_by_sampling(cfg, sep, n=4096):
    """Membership-sampling oracle: boundary of each ellipse against the
    other's form, both directions."""
    m1 = form(cfg.shape1, cfg.k1)
    m2 = form(cfg.shape2, cfg.k2)
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    for shape, k, other, sign in (
        (cfg.shape1, cfg.k1, m2, -1.0),
        (cfg.shape2, cfg.k2, m1, +1.0),
    ):
        kv = np.array([k.x, k.y])
        kp = np.array([-k.y, k.x])
        pts = np.outer(shape.a * np.cos(u), kv) + np.outer(shape.b * np.sin(u), kp)
        pts = pts + sign * sep * np.array([cfg.dhat.x, cfg.dhat.y])
        vals = np.einsum("ij,jk,ik->i", pts, mat_as_array(other), pts)
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


@pytest.mark.parametrize("max_aspect, seed, rtol", [(1e3, 3, 1e-9), (1e4, 5, 1e-7)])
def test_high_aspect_against_mpmath_support_function(max_aspect, seed, rtol):
    # with lambda_minus = avg - h the worst errors were 1.1e-5 at aspect
    # 10^3 and 0.22 at 10^4 (over 20,000 configurations)
    mp = pytest.importorskip("mpmath")
    cfgs = list(stratified_configurations(100, seed, max_aspect))
    worst = max(
        abs(closest_approach(cfg).d - ref) / ref
        for cfg, ref in zip(cfgs, mp_support_distance(cfgs, mp))
    )
    assert worst <= rtol
