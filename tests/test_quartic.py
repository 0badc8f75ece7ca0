import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellipse_contact import (
    NoPhysicalRoot,
    QuarticCoeffs,
    closest_approach,
    oracle_distance,
    oracle_quartic_roots,
    quartic_coefficients,
    solve_contact_quartic,
    stratified_configuration,
    tangency_residuals,
)
from ellipse_contact import quartic


def evaluate(c, q):
    """Plain Horner value of the quartic c at q."""
    return (((c.a * q + c.b) * q + c.c) * q + c.d) * q + c.e


def random_inputs(rng):
    b2p = 10.0 ** rng.uniform(-2.0, 1.0)
    delta = 10.0 ** rng.uniform(-8.0, 3.0)
    tan2phi = math.tan(rng.uniform(0.0, math.pi / 2.0 * 0.9999)) ** 2
    return b2p, delta, tan2phi


def test_circle_case_coefficients():
    c = quartic_coefficients(1.0, 0.0, 0.0)
    assert (c.a, c.b, c.c, c.d, c.e) == (-1.0, -2.0, 0.0, 2.0, 1.0)
    assert evaluate(c, 1.0) == 0.0


def test_derived_coefficients():
    # frozen by expanding the tangency equation symbolically:
    # tan2(delta+1-q^2)(q/b+1)^2 - (q^2-1)(q/b+1+delta)^2 with
    # b=1/2, delta=3, tan2=1 has coefficients (-8, -20, 3, 32, 20)
    c = quartic_coefficients(0.5, 3.0, 1.0)
    assert math.isclose(c.a, -8.0, rel_tol=1e-15)
    assert math.isclose(c.b, -20.0, rel_tol=1e-15)
    assert math.isclose(c.c, 3.0, rel_tol=1e-15)
    assert math.isclose(c.d, 32.0, rel_tol=1e-15)
    assert math.isclose(c.e, 20.0, rel_tol=1e-15)


def test_coefficients_match_defining_equation(rng):
    # the expanded polynomial must vanish wherever the unexpanded
    # tangency relation does, for any q
    for _ in range(500):
        b2p, delta, tan2phi = random_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = rng.uniform(1.0, math.sqrt(1.0 + delta))
        lhs = tan2phi * (delta + 1.0 - q * q) * (q / b2p + 1.0) ** 2
        rhs = (q * q - 1.0) * (q / b2p + 1.0 + delta) ** 2
        scale = max(abs(c.a) * q**4, abs(c.e), 1e-300)
        assert abs((lhs - rhs) - evaluate(c, q)) <= 1e-12 * scale


@given(
    b2p=st.floats(1e-2, 10.0),
    delta=st.floats(0.0, 1e3),
    tan2phi=st.floats(0.0, 1e6),
)
def test_coefficient_sign_pattern(b2p, delta, tan2phi):
    c = quartic_coefficients(b2p, delta, tan2phi)
    assert c.a < 0.0
    assert c.b < 0.0
    assert c.d > 0.0
    assert c.e > 0.0


def test_circle_case_root():
    c = quartic_coefficients(1.0, 0.0, 0.0)
    q = solve_contact_quartic(c, 0.0)
    assert math.isclose(q, 1.0, rel_tol=1e-14)


def in_bracket_oracle_root(c: QuarticCoeffs, delta: float) -> list[float]:
    hi = math.sqrt(1.0 + delta)
    roots = oracle_quartic_roots(c)
    return [
        r.real
        for r in roots
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and 1.0 - 1e-9 <= r.real <= hi + 1e-9
    ]


def test_ferrari_matches_oracle(rng):
    for _ in range(5000):
        b2p, delta, tan2phi = random_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(c, delta)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]
        assert 1.0 <= q <= math.sqrt(1.0 + delta)


def test_residual_bound(rng):
    for _ in range(2000):
        b2p, delta, tan2phi = random_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(c, delta)
        assert abs(evaluate(c, q)) <= 1e-8 * max(abs(c.a) * q**4, abs(c.e))


class _CountingRoots:
    """Stands in for numpy inside quartic: counts the companion-matrix
    fallback's calls, and makes them fail when forbidden."""

    def __init__(self, allow: bool) -> None:
        self.allow = allow
        self.calls = 0

    def roots(self, coeffs):
        self.calls += 1
        if not self.allow:
            raise AssertionError(f"companion-matrix fallback reached for {coeffs}")
        return np.roots(coeffs)


def extreme_inputs(rng):
    b2p = 10.0 ** rng.uniform(-2.5, -0.5)
    delta = 10.0 ** rng.uniform(1.5, 3.2)
    tan2phi = math.tan(rng.uniform(0.2, math.pi / 2.0 * 0.999)) ** 2
    return b2p, delta, tan2phi


@pytest.mark.parametrize("inputs", [random_inputs, extreme_inputs], ids=["uniform", "extreme"])
def test_ferrari_solves_without_fallback(rng, monkeypatch, inputs):
    # the closed form alone must answer every quartic of these streams;
    # with the fallback live, a broken Ferrari assembly would go unseen
    monkeypatch.setattr(quartic, "np", _CountingRoots(allow=False))
    for _ in range(3000):
        b2p, delta, tan2phi = inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(c, delta)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]


def test_fallback_success_path(monkeypatch):
    # the one configuration of 20,000 at seed 11 that every closed-form
    # assembly misses; the companion-matrix root must still be accepted
    counter = _CountingRoots(allow=True)
    monkeypatch.setattr(quartic, "np", counter)
    cfg = stratified_configuration(11, 14928)
    sol = closest_approach(cfg)
    assert counter.calls == 1
    d_oracle = oracle_distance(cfg)
    assert abs(sol.d - d_oracle) <= 1e-9 * d_oracle
    assert max(tangency_residuals(cfg, sol)) <= 1e-9


def test_beta_zero_branch():
    # beta = 0 never arises from valid contact geometry; exercise the
    # branch with a synthetic biquadratic -(q^2-1)(q^2-4), bracket [1, 1.5]
    c = QuarticCoeffs(-1.0, 0.0, 5.0, 0.0, -4.0)
    q = solve_contact_quartic(c, 1.25)
    assert math.isclose(q, 1.0, rel_tol=1e-12)


def test_u_zero_branch():
    # p = 0 with q_resolvent > 0 forces u = 0; built from alpha=-3,
    # gamma=-alpha^2/12, beta chosen to keep the resolvent discriminant
    # non-negative; bracket picked to cover the true positive root
    alpha, beta = -3.0, 0.1
    gamma = -alpha * alpha / 12.0
    # depressed quartic u^4 + alpha u^2 + beta u + gamma, negated so the
    # leading coefficient is -1 like the contact quartic's
    c = QuarticCoeffs(-1.0, 0.0, -alpha, -beta, -gamma)
    roots = np.roots(tuple(c))
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    target = real[0]
    delta = target * target * 1.21 - 1.0
    q = solve_contact_quartic(c, delta)
    assert math.isclose(q, target, rel_tol=1e-10)


def test_no_physical_root_raised():
    # all four roots of (q^2-9)(q^2-16) = 0 scaled by -1 are outside
    # [1, sqrt(1+delta)] for small delta
    c = QuarticCoeffs(-1.0, 0.0, 25.0, 0.0, -144.0)
    with pytest.raises(NoPhysicalRoot):
        solve_contact_quartic(c, 0.5)


def test_oracle_roots_residuals(rng):
    for _ in range(300):
        coeffs = QuarticCoeffs(*rng.uniform(-5.0, 5.0, 5))
        if coeffs.a == 0.0:
            continue
        roots = oracle_quartic_roots(coeffs)
        assert len(roots) == 4


def test_oracle_rejects_degenerate_leading_coefficient():
    with pytest.raises(ValueError):
        oracle_quartic_roots(QuarticCoeffs(0.0, 1.0, 1.0, 1.0, 1.0))


def test_extreme_anisotropy_sweep(rng):
    # the designated sign assembly fails for a visible fraction of these;
    # the solver must still land on the unique bracket root every time
    for _ in range(3000):
        b2p, delta, tan2phi = extreme_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(c, delta)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]
