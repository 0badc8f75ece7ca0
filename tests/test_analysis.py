import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipse_contact import (
    ContactBranch,
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    Vec2,
    analysis,
    bulk,
    contact,
    contact_locus,
    excluded_area,
    excluded_boundary,
)

E21 = EllipseShape(2.0, 1.0)
X = UnitVec2(1.0, 0.0)


def k_at(deg):
    return UnitVec2.from_angle(math.radians(deg))


def shoelace_area(curve):
    """Area of the polygon through the curve's samples."""
    pts = [p for _, p in curve]
    n = len(pts)
    return 0.5 * abs(
        math.fsum(
            pts[i].x * pts[(i + 1) % n].y - pts[(i + 1) % n].x * pts[i].y
            for i in range(n)
        )
    )


def _gap(pts, i):
    """Distance from curve point i to the next one, wrapping around."""
    p, q = pts[i], pts[(i + 1) % len(pts)]
    return math.hypot(q.x - p.x, q.y - p.y)


def d2_area(shape1, shape2, k1, k2, panels=2048):
    """The excluded area from the contact kernel: one half of the integral
    of d(theta)^2 over the center-line direction, by the fixed trapezoid
    rule.  It shares no code with the support-function sum.  The distances
    at theta_j = j * h come from bulk.contact_arrays, hex-equal to one
    closest_approach call each; closest_approach solves the rows it
    defers."""
    h = 2.0 * math.pi / panels
    theta = (h * np.arange(panels)).tolist()
    dhat = [math.cos(t) for t in theta], [math.sin(t) for t in theta]
    fixed = (shape1.a, shape1.b, shape2.a, shape2.b, k1.x, k1.y, k2.x, k2.y)
    res = bulk.contact_arrays(*(np.full(panels, x) for x in fixed), *dhat)
    d = res.d.tolist()
    for j in np.flatnonzero(res.scalar).tolist():
        cfg = PairConfiguration(shape1, shape2, k1, k2, UnitVec2.from_angle(j * h))
        d[j] = contact.closest_approach(cfg).d
    return 0.5 * h * math.fsum(x ** 2 for x in d)


def support_area(shape1, shape2, k1, k2, panels):
    """The excluded area by quadrature, sharing no code with the closed form:
    A1 + A2 plus the trapezoid sum of h1 * rho2 over the normal angle, h
    the support function and rho2 = (a2 b2)^2 / h2^3 the radius of
    curvature of ellipse 2 at the same normal (Vieillard-Baron 1972).  It
    converges spectrally, slower as the aspect grows: at 2,048 panels it
    is 45% low at aspect 1,000."""
    step = 2.0 * math.pi / panels
    theta = step * np.arange(panels)
    nx, ny = np.cos(theta), np.sin(theta)

    def support(shape, k):
        return np.hypot(shape.a * (nx * k.x + ny * k.y), shape.b * (ny * k.x - nx * k.y))

    terms = support(shape1, k1) * (shape2.a * shape2.b) ** 2 / support(shape2, k2) ** 3
    return shape1.area() + shape2.area() + step * math.fsum(terms.tolist())


def mp_area(shape1, shape2, k1, k2, mp):
    """A1 + A2 + a2 b2 P(T E1) in 40 digits: the semi-axes of T E1 from
    mpmath's SVD, its perimeter 4 s1 E(1 - (s2/s1)^2) from mpmath's ellipe."""
    with mp.workdps(40):
        a1, b1, a2, b2 = (mp.mpf(x) for x in (shape1.a, shape1.b, shape2.a, shape2.b))
        c = mp.mpf(k1.x) * k2.x + mp.mpf(k1.y) * k2.y
        s = mp.mpf(k1.y) * k2.x - mp.mpf(k1.x) * k2.y
        m = mp.matrix([[c * a1 / a2, -s * b1 / a2], [s * a1 / b2, c * b1 / b2]])
        s2, s1 = sorted(mp.svd_r(m, compute_uv=False))
        perimeter = 4 * s1 * mp.ellipe(1 - (s2 / s1) ** 2)
        return mp.pi * (a1 * b1 + a2 * b2) + a2 * b2 * perimeter


def random_shapes(rng, max_aspect, n):
    """n (shape1, shape2, k1, k2): ellipse 1 of aspect max_aspect, ellipse 2
    of log-uniform aspect up to it, minor axes log-uniform in [0.3, 3]."""
    for _ in range(n):
        b1, b2 = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 2)).tolist()
        aspect2 = math.exp(rng.uniform(0.0, math.log(max_aspect)))
        th1, th2 = rng.uniform(0.0, 2.0 * math.pi, 2).tolist()
        yield (EllipseShape(b1 * max_aspect, b1), EllipseShape(b2 * aspect2, b2),
               UnitVec2.from_angle(th1), UnitVec2.from_angle(th2))


def test_closed_form_matches_support_sum():
    # at 2^14 panels the sum has converged up to aspect 20
    rng = np.random.default_rng(11)
    cases = list(random_shapes(rng, 20.0, 200))
    cases.append((EllipseShape(60.0, 3.0), EllipseShape(6.0, 0.3), X, k_at(90.0)))
    for args in cases:
        ref = support_area(*args, panels=1 << 14)
        assert abs(excluded_area(*args) - ref) <= 1e-13 * ref, args


@pytest.mark.parametrize("aspect", [20.0, 1e3, 1e4])
def test_closed_form_matches_mpmath(aspect):
    mp = pytest.importorskip("mpmath")
    for args in random_shapes(np.random.default_rng(int(aspect)), aspect, 16):
        ref = mp_area(*args, mp)
        assert abs(excluded_area(*args) - ref) <= 1e-13 * ref, args


def test_closed_form_matches_converged_sum_at_aspect_1000():
    # the sum needs ~2^17 panels here; at 2,048 it is 45% low
    args = (EllipseShape(1000.0, 1.0), EllipseShape(700.0, 0.7), k_at(17.0), k_at(63.0))
    ref = support_area(*args, panels=1 << 17)
    assert abs(excluded_area(*args) - ref) <= 1e-12 * ref


def test_circles_closed_form():
    for r1, r2 in ((1.0, 1.0), (1.5, 0.5), (0.3, 2.0)):
        a = excluded_area(
            EllipseShape(r1, r1), EllipseShape(r2, r2), X, k_at(35.0)
        )
        expect = math.pi * (r1 + r2) ** 2
        assert abs(a - expect) <= 1e-9 * expect


def test_parallel_identical_is_scaled_minkowski():
    a = excluded_area(E21, E21, X, X)
    assert abs(a - 8.0 * math.pi) <= 1e-6 * 8.0 * math.pi


def test_paper_values():
    for deg, expect in ((30.0, 26.4), (45.0, 27.6), (90.0, 29.7)):
        a = excluded_area(E21, E21, X, k_at(deg))
        assert abs(a - expect) <= 0.05


def test_circles_closed_form_tight():
    for r1, r2 in ((1.0, 1.0), (1.5, 0.5), (0.3, 2.0), (1e-3, 40.0)):
        a = excluded_area(
            EllipseShape(r1, r1), EllipseShape(r2, r2), k_at(-20.0), k_at(35.0)
        )
        expect = math.pi * (r1 + r2) ** 2
        assert abs(a - expect) <= 1e-13 * expect


@pytest.mark.parametrize("aspect", [6.0, 7.5, 10.0])
@pytest.mark.parametrize("deg", [0.0, 17.0, 90.0, 233.0])
def test_parallel_identical_exact(aspect, deg):
    # identical parallel ellipses: the Minkowski sum is the ellipse doubled
    shape = EllipseShape(0.7 * aspect, 0.7)
    a = excluded_area(shape, shape, k_at(deg), k_at(deg))
    expect = 4.0 * shape.area()
    assert abs(a - expect) <= 1e-12 * expect


# The d^2 trapezoid resolves the tips of thin ellipses slowly: at 2,048
# panels it is itself off by up to 6e-8 for aspect-20 pairs ten times apart
# in size (the first example).  At 8,192 panels it has converged (a
# 32,768-panel run moves it by < 4e-14) and differs from the closed form by
# at most ~5e-12, the contact kernel's own error.
@settings(max_examples=10, deadline=None)
@given(
    b1=st.floats(0.3, 3.0),
    aspect1=st.floats(1.0, 20.0),
    b2=st.floats(0.3, 3.0),
    aspect2=st.floats(1.0, 20.0),
    th1=st.floats(0.0, 2.0 * math.pi),
    th2=st.floats(0.0, 2.0 * math.pi),
)
@example(b1=3.0, aspect1=20.0, b2=0.3, aspect2=20.0, th1=0.0, th2=0.5 * math.pi)
@example(b1=1.875, aspect1=18.0, b2=0.375, aspect2=10.0, th1=0.0, th2=1.0)
def test_support_area_matches_d2_quadrature(b1, aspect1, b2, aspect2, th1, th2):
    s1 = EllipseShape(b1 * aspect1, b1)
    s2 = EllipseShape(b2 * aspect2, b2)
    k1, k2 = UnitVec2.from_angle(th1), UnitVec2.from_angle(th2)
    ref = d2_area(s1, s2, k1, k2, panels=8192)
    a = excluded_area(s1, s2, k1, k2)
    assert abs(a - ref) <= 1e-9 * ref


def test_excluded_area_calls_no_kernel(monkeypatch):
    args = (E21, EllipseShape(1.5, 0.4), k_at(10.0), k_at(40.0))
    ref = d2_area(*args)

    def forbidden(*_):
        raise AssertionError("excluded_area called the contact kernel")

    monkeypatch.setattr(analysis, "closest_approach", forbidden)
    monkeypatch.setattr(contact, "closest_approach", forbidden)
    assert abs(excluded_area(*args) - ref) <= 1e-9 * ref


def test_exchange_symmetry():
    e1 = EllipseShape(2.0, 1.0)
    e2 = EllipseShape(1.5, 0.4)
    a12 = excluded_area(e1, e2, k_at(10.0), k_at(40.0))
    a21 = excluded_area(e2, e1, k_at(40.0), k_at(10.0))
    assert abs(a12 - a21) <= 1e-10 * a12


def test_determinism_bit_exact():
    a1 = excluded_area(E21, E21, X, k_at(30.0))
    a2 = excluded_area(E21, E21, X, k_at(30.0))
    assert a1 == a2


def test_boundary_circles():
    c1, c2 = EllipseShape(1.0, 1.0), EllipseShape(0.5, 0.5)
    curve = excluded_boundary(c1, c2, X, X, 64)
    for theta, p in curve:
        assert abs(p.norm() - 1.5) <= 1e-9


def test_boundary_parallel_minkowski():
    curve = excluded_boundary(E21, E21, X, X, 256)
    # Minkowski sum of identical parallel ellipses: same shape, doubled
    for theta, p in curve:
        val = (p.x / 4.0) ** 2 + (p.y / 2.0) ** 2
        assert abs(val - 1.0) <= 1e-9


def test_boundary_shoelace_matches_area():
    area = excluded_area(E21, E21, X, k_at(30.0))
    curve = excluded_boundary(E21, E21, X, k_at(30.0), 4096)
    assert abs(shoelace_area(curve) - area) <= 1e-4 * area


def test_boundary_continuity():
    curve = excluded_boundary(E21, E21, X, k_at(30.0), 512)
    pts = [p for _, p in curve]
    perimeter = sum(
        _gap(pts, i) for i in range(len(pts))
    )
    limit = perimeter / len(pts) * 10.0
    for i in range(len(pts)):
        gap = _gap(pts, i)
        assert gap < limit


def test_locus_circles_fixed_point():
    c1, c2 = EllipseShape(1.5, 1.5), EllipseShape(1.0, 1.0)
    curve = contact_locus(c1, c2, X, k_at(25.0), 32)
    for theta, p in curve:
        assert abs(p.x - 1.5 * math.cos(math.radians(25.0))) <= 1e-9
        assert abs(p.y - 1.5 * math.sin(math.radians(25.0))) <= 1e-9


def test_locus_points_on_first_ellipse():
    from conftest import form, on_form

    curve = contact_locus(E21, EllipseShape(1.5, 0.5), k_at(20.0), X, 128)
    for theta, p in curve:
        m = form(E21, UnitVec2.from_angle(theta))
        assert abs(on_form(m, p) - 1.0) <= 1e-9


def test_locus_continuity():
    curve = contact_locus(E21, EllipseShape(1.5, 0.5), k_at(20.0), X, 512)
    pts = [p for _, p in curve]
    perimeter = sum(
        _gap(pts, i) for i in range(len(pts))
    )
    limit = perimeter / len(pts) * 10.0
    for i in range(len(pts)):
        assert _gap(pts, i) < limit


def test_locus_sample_count_validation():
    with pytest.raises(ValueError):
        contact_locus(E21, E21, X, X, 8)
    with pytest.raises(ValueError):
        excluded_boundary(E21, E21, X, X, 8)


def scalar_boundary(shape1, shape2, k1, k2, n, branches):
    """excluded_boundary as one closest_approach call per sample, the loop
    the array core replaced; each answering branch is added to branches."""
    samples = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        cfg = PairConfiguration(shape1, shape2, k1, k2, UnitVec2.from_angle(theta))
        sol = contact.closest_approach(cfg)
        branches[sol.branch] += 1
        dist = sol.d
        samples.append((theta, Vec2(dist * math.cos(theta), dist * math.sin(theta))))
    return samples


def scalar_locus(shape1, shape2, k2, dhat, n, branches):
    """contact_locus as one contact_point call per sample."""
    samples = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        cfg = PairConfiguration(shape1, shape2, UnitVec2.from_angle(theta), k2, dhat)
        rc, sol = contact.contact_point(cfg)
        branches[sol.branch] += 1
        samples.append((theta, rc))
    return samples


def hexed(curve):
    return [(theta.hex(), p.x.hex(), p.y.hex()) for theta, p in curve]


Y = UnitVec2(0.0, 1.0)
CURVE_KINDS = ("circles", "parallel", "anti-parallel", "right-angle", "general")


def curve_pairs(kind, count, seed):
    """(shape1, shape2, k1, k2, dhat, n) of one kind.  Directions are half
    UnitVec2(x, y) of arbitrary (x, y), whose renormalised components a
    second normalisation would change, and half from_angle values."""
    rng = np.random.default_rng(seed)

    def direction():
        if rng.random() < 0.5:
            return UnitVec2(*rng.uniform(-3.0, 3.0, 2).tolist())
        return UnitVec2.from_angle(rng.uniform(0.0, 2.0 * math.pi))

    for i in range(count):
        b1, b2 = rng.uniform(0.3, 3.0, 2).tolist()
        aspect1, aspect2 = rng.uniform(1.0, 20.0, 2).tolist()
        shape1, shape2 = EllipseShape(b1 * aspect1, b1), EllipseShape(b2 * aspect2, b2)
        k1, k2, dhat = direction(), direction(), direction()
        if kind == "circles":
            shape1, shape2 = EllipseShape(b1, b1), EllipseShape(b2, b2)
        elif kind == "parallel":
            k2 = k1
        elif kind == "anti-parallel":
            k2 = UnitVec2(-k1.x, -k1.y)
        elif kind == "right-angle":
            # axis-aligned, so theta = pi/2 and 3 pi/2 hit cos(phi) ~ 6e-17
            k1, k2, dhat = (X, Y, Y) if i % 2 else (Y, X, X)
        yield shape1, shape2, k1, k2, dhat, (16, 97, 720)[i % 3] if i < 6 else (16, 97)[i % 2]


@pytest.mark.parametrize("kind", CURVE_KINDS)
def test_curves_equal_scalar_loop_hex_for_hex(kind):
    branches = Counter()
    for shape1, shape2, k1, k2, dhat, n in curve_pairs(kind, 44, CURVE_KINDS.index(kind)):
        ref = scalar_boundary(shape1, shape2, k1, k2, n, branches)
        assert hexed(excluded_boundary(shape1, shape2, k1, k2, n)) == hexed(ref)
        ref = scalar_locus(shape1, shape2, k2, dhat, n, branches)
        assert hexed(contact_locus(shape1, shape2, k2, dhat, n)) == hexed(ref)
    expect = {
        "circles": {ContactBranch.CIRCLE_LIKE},
        "parallel": {ContactBranch.PARALLEL_AXES_2A, ContactBranch.PARALLEL_AXES_2B},
        "anti-parallel": {ContactBranch.PARALLEL_AXES_2A, ContactBranch.PARALLEL_AXES_2B},
        "right-angle": {ContactBranch.PHI_RIGHT_ANGLE},
        "general": {ContactBranch.GENERAL},
    }[kind]
    assert expect <= set(branches), branches


def counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each call's arguments
    to calls."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


CURVE_ARGS = (E21, EllipseShape(1.5, 0.4), k_at(20.0), k_at(75.0), k_at(-40.0))


def both_curves(n):
    shape1, shape2, k1, k2, dhat = CURVE_ARGS
    return (
        hexed(excluded_boundary(shape1, shape2, k1, k2, n)),
        hexed(contact_locus(shape1, shape2, k2, dhat, n)),
    )


def test_curves_solve_deferred_rows_with_the_scalar_kernel(monkeypatch):
    n = 2500
    expect = both_curves(n)
    real = bulk.contact_arrays

    def defer_every_third(*args):
        out = real(*args)
        out.scalar[::3] = True
        for column in out[:5] + out[6:8]:
            column[::3] = math.nan  # as contact_arrays leaves a row it cannot solve
        return out

    monkeypatch.setattr(bulk, "contact_arrays", defer_every_third)
    boundary_calls, locus_calls = [], []
    counting(monkeypatch, analysis, "closest_approach", boundary_calls)
    counting(monkeypatch, analysis, "contact_point", locus_calls)
    assert both_curves(n) == expect
    # every third row of each chunk, and no other
    deferred = sum(-(-min(bulk.CHUNK_ROWS, n - lo) // 3) for lo in range(0, n, bulk.CHUNK_ROWS))
    assert len(boundary_calls) == len(locus_calls) == deferred


def test_curves_make_no_scalar_kernel_call(monkeypatch):
    n = 2500
    core_rows, scalar = [], []
    real = bulk.contact_arrays

    def core(*args):
        core_rows.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(bulk, "contact_arrays", core)
    counting(monkeypatch, analysis, "closest_approach", scalar)
    counting(monkeypatch, analysis, "contact_point", scalar)
    counting(monkeypatch, contact, "closest_approach", scalar)
    boundary, locus = both_curves(n)
    assert len(boundary) == len(locus) == n
    assert scalar == []
    assert sum(core_rows) == 2 * n
    assert max(core_rows) <= bulk.CHUNK_ROWS
