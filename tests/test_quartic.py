import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellipse_contact import (
    QuarticCoeffs,
    closest_approach,
    oracle_distance,
    quartic_coefficients,
    solve_contact_quartic,
    stratified_configuration,
    tangency_residuals,
)
from ellipse_contact import bulk, oracle, quartic, transformed_pair
from ellipse_contact.contact import COS_PHI_TOL, DELTA_CIRCLE_TOL
from ellipse_contact.geometry import _FLOATS
from conftest import columns, oracle_quartic_roots


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
    q = solve_contact_quartic(1.0, 0.0, 0.0)
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
        q = solve_contact_quartic(b2p, delta, tan2phi)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]
        assert 1.0 <= q <= math.sqrt(1.0 + delta)


def test_residual_bound(rng):
    for _ in range(2000):
        b2p, delta, tan2phi = random_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(b2p, delta, tan2phi)
        assert abs(evaluate(c, q)) <= 1e-8 * max(abs(c.a) * q**4, abs(c.e))


def extreme_inputs(rng):
    b2p = 10.0 ** rng.uniform(-2.5, -0.5)
    delta = 10.0 ** rng.uniform(1.5, 3.2)
    tan2phi = math.tan(rng.uniform(0.2, math.pi / 2.0 * 0.999)) ** 2
    return b2p, delta, tan2phi


@pytest.mark.parametrize("inputs", [random_inputs, extreme_inputs], ids=["uniform", "extreme"])
def test_ferrari_solves_without_fallback(rng, angle_calls, inputs):
    # the closed form alone must answer every quartic of these streams;
    # with the angle solve live, a broken Ferrari root would go unseen
    for _ in range(3000):
        b2p, delta, tan2phi = inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(b2p, delta, tan2phi)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]
    assert angle_calls.scalar == []


def test_fallback_success_path(angle_calls):
    # the first configuration at seed 11 and aspect up to 1000 that the
    # closed-form root misses (none of 20,000 at aspect 20 does); the
    # angle solve answers it
    cfg = stratified_configuration(11, 56, 1000.0)
    sol = closest_approach(cfg)
    assert len(angle_calls.scalar) == 1
    d_oracle = oracle_distance(cfg)
    assert abs(sol.d - d_oracle) <= 1e-9 * d_oracle
    assert max(tangency_residuals(cfg, sol)) <= 1e-9


def test_beta_zero_branch():
    # beta = 0 never arises from valid contact geometry; exercise the
    # branch with a synthetic biquadratic -(q^2-4)(q^2+1), whose largest
    # real root 2 lies in the bracket [1, 2.1]: the closed form gives no
    # root for a biquadratic, its resolvent gets zeros, and the root test
    # rejects the nan
    c = QuarticCoeffs(-1.0, 0.0, 3.0, 0.0, 4.0)
    assert quartic._near_biquadratic(c, quartic._depressed(c)[1])
    seen = []

    def resolvent(*args):
        seen.append(args)
        return quartic._resolvent_root(*args)

    q, ok = quartic._closed_form_root(c, quartic._depressed(c), 2.1, resolvent, _FLOATS)
    assert math.isnan(q) and not ok
    assert seen == [(0.0, 0.0, 0.0)]


@pytest.mark.parametrize("seed, index, max_aspect", [
    (11, 2026, 1e6), (5, 5781, 1e6), (3, 17556, 1e5),
])
def test_fallback_answers_near_biquadratic_rows_accurately(angle_calls, seed, index, max_aspect):
    # stream rows whose depressed quartic is near biquadratic: the larger
    # root of u^4 + alpha u^2 + gamma, which drops the small beta u term,
    # is 3e-12 to 2e-10 off on them (with a residual of 3.5e-9 on row
    # 5781), while the angle solve answers them to rounding
    cfg = stratified_configuration(seed, index, max_aspect)
    sol = closest_approach(cfg)
    assert len(angle_calls.scalar) == 1
    ref = oracle.support_distances(*columns([cfg]))[0]
    assert abs(sol.d - ref) <= 1e-15 * ref
    assert max(tangency_residuals(cfg, sol)[:2]) <= 1e-14


class CountingCos:
    """Stands in for math inside quartic, counting the calls of cos: the
    angle solve makes one per step, and nothing else in quartic calls it."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.calls += 1
        return math.cos(x)


def mp_angle_q(mp, b2p, delta, tan2phi, q):
    """q of the root psi of the tangency relation, to 50 digits, for the
    float inputs as given: Newton in mpmath from the psi of q."""
    with mp.workdps(50):
        b2p, delta, t = mp.mpf(b2p), mp.mpf(delta), mp.sqrt(mp.mpf(tan2phi))
        psi = mp.asin(min(mp.sqrt((mp.mpf(q) ** 2 - 1) / delta), 1))
        for _ in range(6):
            s, c = mp.sin(psi), mp.cos(psi)
            qq = mp.sqrt(1 + delta * s * s)
            f = s * (qq + b2p * (1 + delta)) - t * c * (qq + b2p)
            fp = c * (qq + b2p * (1 + delta)) + t * s * (qq + b2p) + delta * s * c / qq * (s - t * c)
            psi -= f / fp
        return float(mp.sqrt(1 + delta * mp.sin(psi) ** 2))


@pytest.mark.parametrize("max_aspect", [1e3, 1e4, 1e6])
def test_angle_root_on_the_rows_ferrari_misses(monkeypatch, angle_calls, max_aspect):
    # every row of 20,000 that the angle solve answers: 2-3 steps
    # (median), at most 11 measured; and, on up to 500 of them, q within
    # 4e-15 of the 50-digit root for the same float inputs (measured
    # 2.0e-16, 2.0e-15 and 2.3e-15 on every row)
    mp = pytest.importorskip("mpmath")
    bulk.contact_arrays(*oracle._stratified_columns(11, 0, 20_000, max_aspect))
    rows = angle_calls.arrays
    counter = CountingCos()
    steps, qs = [], []
    with monkeypatch.context() as patch:
        patch.setattr(quartic, "math", counter)
        for args in rows:
            counter.calls = 0
            qs.append(quartic._angle_root(*args))
            steps.append(counter.calls)
    assert sorted(steps)[len(steps) // 2] <= 3 and max(steps) <= 16
    for args, q in list(zip(rows, qs))[::-(-len(rows) // 500)]:
        ref = mp_angle_q(mp, *args, q)
        assert abs(q - ref) <= 4e-15 * ref, args


def test_angle_root_edges(monkeypatch):
    # phi = 0 and delta = 0 give q = 1 at once; a nan input gives nan
    # after one step, as the loop stops on an f that is not a number
    assert quartic._angle_root(0.5, 3.0, 0.0) == 1.0
    assert quartic._angle_root(0.5, 0.0, 2.0) == 1.0
    counter = CountingCos()
    monkeypatch.setattr(quartic, "math", counter)
    assert math.isnan(quartic._angle_root(0.5, math.nan, 2.0))
    assert counter.calls == 1


def test_polish_stops_at_zero_derivative():
    # -(q^2-1)^2 has a double root at 1, where its derivative vanishes: the
    # Newton polish that both kernels share stops there instead of dividing
    # by 0, on a float and on an array row alike
    c = QuarticCoeffs(-1.0, 0.0, 2.0, 0.0, -1.0)
    assert c.derivative(1.0) == 0.0
    q, ok = quartic._polish_and_test(c, 1.0, 2.0, _FLOATS)
    assert q == 1.0 and ok
    arrays = bulk._arrays(np.zeros(1, dtype=bool))
    with np.errstate(all="raise"):  # nothing divides by 0 on the array path either
        q, ok = quartic._polish_and_test(c, np.array([1.0]), np.array([2.0]), arrays)
    assert q.tolist() == [1.0] and ok.tolist() == [True]


def fixed_step_polish(c, q, hi, m):
    """_polish_and_test as it was before it stopped at a fixed point: always
    POLISH_STEPS Newton steps, then a fresh evaluation for the residual."""
    where = m.where
    ok = (1.0 - quartic.BRACKET_TOL <= q) & (q <= hi + quartic.BRACKET_TOL)
    q = where(1.0 > q, 1.0, q)
    q = where(hi < q, hi, q)
    for _ in range(quartic.POLISH_STEPS):
        f = quartic._horner_compensated(c, q)
        fp = c.derivative(q)
        q = q - (fp != 0.0) * (f / (fp + (fp == 0.0)))
    q = where(1.0 > q, 1.0, q)
    q = where(hi < q, hi, q)
    res = abs(quartic._horner_compensated(c, q))
    lead, tail = abs(c.a) * (q * q * (q * q)), abs(c.e)
    return q, ok & (res <= quartic.RESIDUAL_RTOL * where(tail > lead, tail, lead))


def ferrari_candidate(c):
    """The root that _closed_form_root polishes, or nan where it has none."""
    alpha, beta, gamma, shift = quartic._depressed(c)
    if quartic._near_biquadratic(c, beta):
        return math.nan
    y = quartic._resolvent_root(alpha, beta, gamma)
    s1 = alpha + 2.0 * y
    if not s1 > 0.0:
        return math.nan
    return quartic._larger_real_root(alpha, beta, y, shift, math.sqrt(s1), _FLOATS)


def stream_quartics(max_aspect):
    """(coefficients, Ferrari candidate or nan, hi) of every row of 20,000
    stratified rows that reaches the quartic."""
    out = []
    for cfg in oracle.stratified_configurations(20000, 11, max_aspect):
        tp = transformed_pair(cfg)
        if tp.delta < DELTA_CIRCLE_TOL or abs(tp.cos_phi) < COS_PHI_TOL:
            continue
        tan2phi = (tp.sin_phi * tp.sin_phi) / (tp.cos_phi * tp.cos_phi)
        c = quartic_coefficients(tp.b2p, tp.delta, tan2phi)
        out.append((c, ferrari_candidate(c), math.sqrt(1.0 + tp.delta)))
    return out


# f' = 0 at the root; a root above hi and one below 1 that the clamps move;
# no candidate (nan); Newton's exact 2-cycle 1 -> 2 -> 1 of -q^4 + 21q - 37
POLISH_EDGES = [
    (QuarticCoeffs(-1.0, 0.0, 2.0, 0.0, -1.0), 1.0, 2.0),
    (QuarticCoeffs(-1.0, 0.0, 3.0, 0.0, 4.0), 2.0, 2.0 - 1e-10),
    (QuarticCoeffs(-1.0, 0.0, -2e-10, 0.0, 1.0 - 2e-10), 1.0 - 1e-10, 1.5),
    (QuarticCoeffs(-1.0, 0.0, 3.0, 0.0, 4.0), math.nan, 2.1),
    (QuarticCoeffs(-1.0, 0.0, 0.0, 21.0, -37.0), 1.0, 2.0),
]


@pytest.mark.parametrize("max_aspect", [20.0, 1e3, 1e4])
def test_polish_matches_the_fixed_step_loop(max_aspect):
    # stopping at a fixed point and reusing the last evaluation change no
    # bit of q and no verdict, on floats and on arrays of any length
    cases = stream_quartics(max_aspect) + POLISH_EDGES
    for c, root, hi in cases:
        q, ok = quartic._polish_and_test(c, root, hi, _FLOATS)
        q0, ok0 = fixed_step_polish(c, root, hi, _FLOATS)
        assert struct.pack("<d", q) == struct.pack("<d", q0) and ok == ok0, (c, root, hi)
    coeffs = QuarticCoeffs(*(np.array(x) for x in zip(*(c for c, _, _ in cases))))
    roots, his = (np.array(x) for x in zip(*((r, h) for _, r, h in cases)))
    m = bulk._arrays(np.zeros(len(cases), dtype=bool))
    for lo, n in [(0, len(cases))] + [(i, 32) for i in range(0, len(cases), 32)]:
        part = QuarticCoeffs(*(x[lo:lo + n] for x in coeffs))
        with np.errstate(all="ignore"):
            q, ok = quartic._polish_and_test(part, roots[lo:lo + n], his[lo:lo + n], m)
            q0, ok0 = fixed_step_polish(part, roots[lo:lo + n], his[lo:lo + n], m)
        assert q.tobytes() == q0.tobytes() and ok.tolist() == ok0.tolist(), lo


def test_polish_evaluates_the_quartic_twice_on_the_common_path(monkeypatch):
    # one step to the fixed point, one to confirm it, and the residual test
    # reuses the second value.  Of the edges, f' = 0 and nan stop after one;
    # a root the clamps move is evaluated again at the bracket end, and the
    # 2-cycle takes all three steps and a fresh residual evaluation
    calls = []
    horner = quartic._horner_compensated
    monkeypatch.setattr(quartic, "_horner_compensated", lambda c, x: calls.append(x) or horner(c, x))

    def evaluations(c, root, hi):
        calls.clear()
        quartic._polish_and_test(c, root, hi, _FLOATS)
        return len(calls)

    counts = Counter(evaluations(*case) for case in stream_quartics(20.0)[:2000])
    assert counts.most_common(1)[0][0] == 2 and max(counts) <= quartic.POLISH_STEPS + 1, counts
    assert counts[1] + counts[2] >= 0.99 * counts.total(), counts
    assert [evaluations(*case) for case in POLISH_EDGES] == [1, 3, 3, 1, 4]


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
    hi = target * 1.1
    q, ok = quartic._closed_form_root(c, quartic._depressed(c), hi, quartic._resolvent_root, _FLOATS)
    assert ok and math.isclose(q, target, rel_tol=1e-10)


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
    # the -W Ferrari assembly gives the root for two thirds of these;
    # the solver must still land on the unique bracket root every time
    for _ in range(3000):
        b2p, delta, tan2phi = extreme_inputs(rng)
        c = quartic_coefficients(b2p, delta, tan2phi)
        q = solve_contact_quartic(b2p, delta, tan2phi)
        bracket = in_bracket_oracle_root(c, delta)
        assert len(bracket) == 1
        assert abs(q - bracket[0]) <= 1e-9 * bracket[0]
