"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line after its assertions clear, so a verbose
run reads as a checklist.  The stratified 10^4-configuration sweep is
shared between the oracle-equivalence and tangency-residual criteria.
"""

import io
import math
import time

import numpy as np
import pytest

from ellipse_contact import (
    ContactBranch,
    EllipseShape,
    MCConfig,
    PairConfiguration,
    UnitVec2,
    closest_approach,
    excluded_area,
    quartic_coefficients,
    run_simulation,
    solve_contact_quartic,
    tangency_residuals,
    transformed_pair,
)
from ellipse_contact.oracle import (
    stratified_configuration,
    verify_random,
)
from conftest import flipped, oracle_quartic_roots, rotated

SEED = 20250810
N_SWEEP = 10_000

E21 = EllipseShape(2.0, 1.0)
X_AXIS = UnitVec2(1.0, 0.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


# --- 1 & 2: excluded-area reproduction and closed forms ---------------------

def test_criterion_1_excluded_area_values():
    start = time.monotonic()
    got = {}
    for deg, expect in ((30.0, 26.4), (45.0, 27.6), (90.0, 29.7)):
        k2 = UnitVec2.from_angle(math.radians(deg))
        got[deg] = excluded_area(E21, E21, X_AXIS, k2)
        assert abs(got[deg] - expect) <= 0.05, (deg, got[deg])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(
        1,
        "A_ex(30/45/90 deg) = "
        + ", ".join(f"{got[d]:.4f}" for d in (30.0, 45.0, 90.0))
        + f" within +/-0.05 of 26.4/27.6/29.7 in {elapsed:.2f}s",
    )


def test_criterion_2_closed_forms():
    a0 = excluded_area(E21, E21, X_AXIS, X_AXIS)
    assert abs(a0 - 8.0 * math.pi) <= 1e-6 * 8.0 * math.pi
    r1, r2 = 1.3, 0.6
    ac = excluded_area(
        EllipseShape(r1, r1), EllipseShape(r2, r2),
        X_AXIS, UnitVec2.from_angle(1.0),
    )
    expect = math.pi * (r1 + r2) ** 2
    assert abs(ac - expect) <= 1e-9 * expect
    report(2, f"A_ex(0 deg) = 8*pi to 1e-6; circle pair = pi(r1+r2)^2 to 1e-9")


# --- 3 & 4: oracle equivalence and tangency residuals -----------------------

@pytest.fixture(scope="module")
def oracle_sweep():
    start = time.monotonic()
    reportv = verify_random(trials=N_SWEEP, seed=SEED, tolerance=1e-7, workers=2)
    elapsed = time.monotonic() - start
    return reportv, elapsed


def test_criterion_3_oracle_equivalence(oracle_sweep):
    reportv, elapsed = oracle_sweep
    assert not reportv.failures
    assert reportv.max_rel_err <= 1e-7
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(
        3,
        f"{N_SWEEP} stratified configs: max rel err "
        f"{reportv.max_rel_err:.2e} <= 1e-7, {elapsed:.1f}s",
    )


def test_criterion_4_tangency_residuals():
    worst = [0.0, 0.0, 0.0]
    for i in range(N_SWEEP):
        cfg = stratified_configuration(SEED, i)
        sol = closest_approach(cfg)
        r1, r2, cross = tangency_residuals(cfg, sol)
        worst[0] = max(worst[0], r1)
        worst[1] = max(worst[1], r2)
        worst[2] = max(worst[2], cross)
        assert r1 <= 1e-9, (i, r1)
        assert r2 <= 1e-9, (i, r2)
        assert cross <= 1e-8, (i, cross)
    report(
        4,
        f"boundary residuals <= {max(worst[:2]):.2e} (limit 1e-9), "
        f"normal cross <= {worst[2]:.2e} (limit 1e-8) over {N_SWEEP} configs",
    )


# --- 5: special-case exactness and branch straddles --------------------------

def test_criterion_5_special_cases_and_straddles():
    # circle-circle
    for radii in ((1.0, 1.0), (1.7, 0.4)):
        cfg = PairConfiguration(
            EllipseShape(radii[0], radii[0]), EllipseShape(radii[1], radii[1]),
            X_AXIS, UnitVec2.from_angle(0.7), UnitVec2.from_angle(2.1),
        )
        d = closest_approach(cfg).d
        assert abs(d - sum(radii)) <= 1e-12 * sum(radii)
    # parallel tip-to-tip
    cfg = PairConfiguration(E21, E21, X_AXIS, X_AXIS, X_AXIS)
    assert abs(closest_approach(cfg).d - 4.0) <= 1e-12 * 4.0

    # straddle: exact parallel vs barely tilted axes
    for eps in (1e-9, 1e-12):
        k1 = UnitVec2.from_angle(0.37)
        base = PairConfiguration(
            E21, EllipseShape(3.0, 0.6), k1, k1, UnitVec2.from_angle(1.17)
        )
        tilted = PairConfiguration(
            base.shape1, base.shape2, k1, UnitVec2.from_angle(0.37 + eps), base.dhat
        )
        d0, d1 = closest_approach(base).d, closest_approach(tilted).d
        assert abs(d0 - d1) <= 1e-8 * d0

    # straddle: delta through the circle-like threshold
    for eps in (1e-13, 1e-11):
        cfg = PairConfiguration(
            E21, EllipseShape(3.0 * (1.0 + eps), 1.5),
            UnitVec2.from_angle(0.2), UnitVec2.from_angle(0.2),
            UnitVec2.from_angle(1.5),
        )
        tp = transformed_pair(cfg)
        sol = closest_approach(cfg)
        circle_form = (1.0 + tp.b2p) / tp.dhat_scale
        assert abs(sol.d - circle_form) <= 1e-8 * sol.d

    # straddle: cos phi through the right-angle threshold
    base = PairConfiguration(E21, EllipseShape(4.0, 1.0), X_AXIS, X_AXIS, X_AXIS)
    exact = closest_approach(base)
    assert exact.branch is ContactBranch.PHI_RIGHT_ANGLE
    for eps in (1e-7, 1e-13):
        tilted = PairConfiguration(
            E21, EllipseShape(4.0, 1.0), X_AXIS, X_AXIS, UnitVec2.from_angle(eps)
        )
        assert abs(closest_approach(tilted).d - exact.d) <= 1e-8 * exact.d
    report(5, "special cases exact to 1e-12; all branch straddles agree to 1e-8")


# --- 6: quartic validation ---------------------------------------------------

ROOTS_CHUNK = 10_000


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """The four roots of each row of an (N, 5) coefficient array: the
    eigenvalues of the companion matrices np.roots builds, one stacked
    np.linalg.eigvals call per ROOTS_CHUNK rows."""
    out = []
    for lo in range(0, len(coeffs), ROOTS_CHUNK):
        c = coeffs[lo:lo + ROOTS_CHUNK]
        companion = np.zeros((len(c), 4, 4))
        companion[:, 0, :] = -c[:, 1:] / c[:, :1]
        companion[:, np.arange(1, 4), np.arange(3)] = 1.0
        out.append(np.linalg.eigvals(companion))
    return np.concatenate(out)


def test_companion_roots_match_oracle():
    # the batched roots are the roots oracle_quartic_roots finds
    rng = np.random.default_rng(SEED + 6)
    coeffs = []
    for _ in range(2000):
        b2p = 10.0 ** rng.uniform(-2.5, 1.0)
        delta = 10.0 ** rng.uniform(-8.0, 3.2)
        tan2phi = math.tan(rng.uniform(0.0, math.pi / 2 * 0.9999)) ** 2
        coeffs.append(quartic_coefficients(b2p, delta, tan2phi))
    roots = companion_roots(np.array([tuple(c) for c in coeffs]))
    for c, got in zip(coeffs, roots):
        expect = np.array(oracle_quartic_roots(c))
        assert np.all(abs(got - expect) <= 1e-12 * np.maximum(1.0, abs(expect)))


def test_criterion_6_quartic_vs_all_roots():
    rng = np.random.default_rng(SEED)
    trials = 100_000
    coeffs, his, qs = [], [], []
    for _ in range(trials):
        b2p = 10.0 ** rng.uniform(-2.5, 1.0)
        delta = 10.0 ** rng.uniform(-8.0, 3.2)
        tan2phi = math.tan(rng.uniform(0.0, math.pi / 2 * 0.9999)) ** 2
        c = quartic_coefficients(b2p, delta, tan2phi)
        qs.append(solve_contact_quartic(b2p, delta, tan2phi))
        his.append(math.sqrt(1.0 + delta))
        coeffs.append(tuple(c))
    co = np.array(coeffs)
    roots = companion_roots(co)
    # oracle_quartic_roots' residual check on every root
    res = abs((((co[:, :1] * roots + co[:, 1:2]) * roots + co[:, 2:3]) * roots
               + co[:, 3:4]) * roots + co[:, 4:])
    scale = np.max([abs(co[:, i:i + 1]) * abs(roots) ** (4 - i) for i in range(5)], axis=0)
    assert np.all(res <= 1e-9 * np.maximum(scale, abs(co[:, 4:]))), "companion residual"
    hi = np.array(his)[:, None]
    in_bracket = (
        (abs(roots.imag) <= 1e-9 * np.maximum(1.0, abs(roots)))
        & (1.0 - 1e-9 <= roots.real) & (roots.real <= hi + 1e-9)
    )
    counts = in_bracket.sum(axis=1)
    multi_root = int(np.count_nonzero(counts != 1))
    for i in np.flatnonzero(counts != 1)[:20]:
        print(f"counterexample: {coeffs[i]} bracket roots {roots[i][in_bracket[i]].real}")
    assert multi_root == 0, f"{multi_root} trials without a unique bracket root"
    root = np.where(in_bracket, roots.real, 0.0).sum(axis=1)
    worst = float(np.max(abs(np.array(qs) - root) / root))
    assert worst <= 1e-9
    report(
        6,
        f"Ferrari vs companion roots: max rel diff {worst:.2e} <= 1e-9 over "
        f"{trials} trials; unique bracket root in every trial",
    )


# --- 7: excluded-area monotonicity -------------------------------------------

def test_criterion_7_monotonic_in_angle():
    values = []
    for j in range(91):
        k2 = UnitVec2.from_angle(math.radians(float(j)))
        values.append(excluded_area(E21, E21, X_AXIS, k2))
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert min(diffs) >= -1e-9, f"decrease of {min(diffs)} found"
    report(7, f"A_ex non-decreasing over 91 angles (min step {min(diffs):.2e})")


# --- 8: Monte Carlo integrity -------------------------------------------------

def test_criterion_8_monte_carlo():
    packing = 0.4
    n = 64
    side = math.sqrt(n * E21.area() / packing)
    cfg = MCConfig(
        n_particles=n,
        species=((E21, 1.0),),
        box=(side, side),
        max_translation=0.35,
        max_rotation=0.35,
        seed=SEED,
        sweeps=1000,
        sample_every=100,
    )
    out1, out2 = io.StringIO(), io.StringIO()
    s1 = run_simulation(cfg, out1, audit=True)   # raises on any audit hit
    s2 = run_simulation(cfg, out2, audit=True)
    assert s1["audit_failures"] == 0
    assert out1.getvalue() == out2.getvalue(), "rerun not bit-identical"

    dilute = MCConfig(
        n_particles=n,
        species=((E21, 1.0),),
        box=(math.sqrt(n * E21.area() / 0.01),) * 2,
        max_translation=0.25,
        max_rotation=0.25,
        seed=SEED + 1,
        sweeps=50,
        sample_every=10,
    )
    summary = run_simulation(dilute, io.StringIO(), audit=False)
    assert summary["acceptance"] > 0.95
    report(
        8,
        f"1000 audited sweeps at packing 0.4: 0 failures, bit-identical "
        f"rerun, acceptance {s1['acceptance']:.3f}; dilute acceptance "
        f"{summary['acceptance']:.3f} > 0.95",
    )


# --- 9: invariance suite ------------------------------------------------------

def test_criterion_9_invariance_suite():
    rng = np.random.default_rng(SEED + 9)

    def random_cfg():
        def shape():
            scale = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            aspect = math.exp(rng.uniform(0.0, math.log(20.0)))
            return EllipseShape(scale * aspect, scale)

        th = rng.uniform(0.0, 2.0 * math.pi, 3)
        return PairConfiguration(
            shape(), shape(), UnitVec2.from_angle(th[0]),
            UnitVec2.from_angle(th[1]), UnitVec2.from_angle(th[2]),
        )

    for _ in range(1000):  # exchange
        cfg = random_cfg()
        swapped = PairConfiguration(cfg.shape2, cfg.shape1, cfg.k2, cfg.k1, cfg.dhat)
        d = closest_approach(cfg).d
        assert abs(d - closest_approach(swapped).d) <= 1e-9 * d

    for _ in range(1000):  # rotation
        cfg = random_cfg()
        th = rng.uniform(0.0, 2.0 * math.pi)
        turned = PairConfiguration(
            cfg.shape1, cfg.shape2,
            rotated(cfg.k1, th), rotated(cfg.k2, th), rotated(cfg.dhat, th),
        )
        sol0, sol1 = closest_approach(cfg), closest_approach(turned)
        assert abs(sol0.d - sol1.d) <= 1e-10 * sol0.d
        c, s = math.cos(th), math.sin(th)
        rx = c * sol0.contact_point.x - s * sol0.contact_point.y
        ry = s * sol0.contact_point.x + c * sol0.contact_point.y
        assert math.hypot(sol1.contact_point.x - rx, sol1.contact_point.y - ry) <= 1e-8

    for _ in range(1000):  # reflection about the center line
        cfg = random_cfg()
        base = PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, X_AXIS)
        mirrored = PairConfiguration(
            cfg.shape1, cfg.shape2,
            UnitVec2(cfg.k1.x, -cfg.k1.y), UnitVec2(cfg.k2.x, -cfg.k2.y), X_AXIS,
        )
        s0, s1 = closest_approach(base), closest_approach(mirrored)
        assert abs(s0.d - s1.d) <= 1e-10 * s0.d
        assert abs(s0.contact_point.x - s1.contact_point.x) <= 1e-8
        assert abs(s0.contact_point.y + s1.contact_point.y) <= 1e-8

    for _ in range(1000):  # sign flips
        cfg = random_cfg()
        d0 = closest_approach(cfg).d
        for other in (
            PairConfiguration(cfg.shape1, cfg.shape2, flipped(cfg.k1), cfg.k2, cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, flipped(cfg.k2), cfg.dhat),
            PairConfiguration(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, flipped(cfg.dhat)),
        ):
            assert abs(closest_approach(other).d - d0) <= 1e-10 * d0

    for i in range(1000):  # scaling
        cfg = random_cfg()
        # power-of-two scales rescale the inputs exactly, so they probe the
        # pipeline's scale-freeness itself; a general scale factor rounds
        # the semi-axes and that rounding is amplified by the intrinsic
        # conditioning at compounded extreme aspect ratios, so general
        # scales are checked on moderate shapes
        s = 2.0 ** ((i % 6) - 3 + (1 if (i % 6) >= 3 else 0))
        scaled = PairConfiguration(
            EllipseShape(cfg.shape1.a * s, cfg.shape1.b * s),
            EllipseShape(cfg.shape2.a * s, cfg.shape2.b * s),
            cfg.k1, cfg.k2, cfg.dhat,
        )
        sol0, sol1 = closest_approach(cfg), closest_approach(scaled)
        assert abs(sol1.d - s * sol0.d) <= 1e-12 * s * sol0.d
        assert abs(sol1.contact_point.x - s * sol0.contact_point.x) <= 1e-10 * max(
            1.0, abs(s * sol0.contact_point.x)
        )

    rng_mod = np.random.default_rng(SEED + 10)
    for _ in range(1000):  # scaling, general factors on moderate shapes
        def moderate_shape():
            scale = math.exp(rng_mod.uniform(math.log(0.3), math.log(3.0)))
            aspect = math.exp(rng_mod.uniform(0.0, math.log(8.0)))
            return EllipseShape(scale * aspect, scale)

        th = rng_mod.uniform(0.0, 2.0 * math.pi, 3)
        cfg = PairConfiguration(
            moderate_shape(), moderate_shape(), UnitVec2.from_angle(th[0]),
            UnitVec2.from_angle(th[1]), UnitVec2.from_angle(th[2]),
        )
        s = math.exp(rng_mod.uniform(-2.0, 2.0))
        scaled = PairConfiguration(
            EllipseShape(cfg.shape1.a * s, cfg.shape1.b * s),
            EllipseShape(cfg.shape2.a * s, cfg.shape2.b * s),
            cfg.k1, cfg.k2, cfg.dhat,
        )
        sol0, sol1 = closest_approach(cfg), closest_approach(scaled)
        assert abs(sol1.d - s * sol0.d) <= 1e-12 * s * sol0.d

    report(9, "exchange/rotation/reflection/sign/scaling hold over 1000 configs each")


# --- figure data (rendered, not gated) ---------------------------------------

def test_emit_figure_data(tmp_path):
    """The locus and boundary curves behind the paper's figures, emitted as
    data files for visual comparison; correctness is covered elsewhere."""
    from ellipse_contact import contact_locus, excluded_boundary

    boundary = excluded_boundary(
        E21, E21, X_AXIS, UnitVec2.from_angle(math.radians(30.0)), 720
    )
    locus = contact_locus(
        E21, EllipseShape(1.5, 0.75), UnitVec2.from_angle(0.0), X_AXIS, 720
    )
    bpath = tmp_path / "excluded_boundary_30deg.csv"
    lpath = tmp_path / "contact_locus.csv"
    with open(bpath, "w") as fh:
        fh.write("theta_d_deg,x,y\n")
        for theta, p in boundary:
            fh.write(f"{math.degrees(theta)},{p.x},{p.y}\n")
    with open(lpath, "w") as fh:
        fh.write("theta1_deg,x,y\n")
        for theta, p in locus:
            fh.write(f"{math.degrees(theta)},{p.x},{p.y}\n")
    assert bpath.exists() and lpath.exists()
