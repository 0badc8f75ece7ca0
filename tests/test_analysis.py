import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipse_contact import (
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    analysis,
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
    rule.  It shares no code with the support-function sum."""
    h = 2.0 * math.pi / panels
    return 0.5 * h * math.fsum(
        contact.closest_approach(
            PairConfiguration(shape1, shape2, k1, k2, UnitVec2.from_angle(j * h))
        ).d ** 2
        for j in range(panels)
    )


def test_panels_validation():
    with pytest.raises(ValueError):
        excluded_area(E21, E21, X, X, panels=8)
    excluded_area(E21, E21, X, X, panels=analysis.MIN_SAMPLES)


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


# The d^2 trapezoid resolves the tips of thin ellipses more slowly than the
# support-function sum: at 2,048 panels it is itself off by up to 6e-8 for
# aspect-20 pairs ten times apart in size (the first example).  At 8,192
# panels it has converged (a 32,768-panel run moves it by < 4e-14) and
# differs from the sum by at most ~5e-12, the contact kernel's own error.
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


def test_panel_refinement_converges():
    a1 = excluded_area(E21, E21, X, k_at(30.0), panels=1024)
    a2 = excluded_area(E21, E21, X, k_at(30.0), panels=2048)
    assert abs(a2 - a1) <= 1e-6 * a1


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
    from ellipse_contact import ellipse_matrix

    curve = contact_locus(E21, EllipseShape(1.5, 0.5), k_at(20.0), X, 128)
    for theta, p in curve:
        m = ellipse_matrix(E21, UnitVec2.from_angle(theta))
        assert abs(m.quadratic_form(p) - 1.0) <= 1e-9


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
