"""The array kernel against the scalar API, and ``batch`` against the
per-row loop it replaced.

contact_arrays must reproduce make_pair_configuration + closest_approach +
tangency_residuals bit for bit on every row it does not leave to the
scalar path, and must leave every row the scalar path rejects.  The batch
command must write the same bytes as the per-row loop kept below.
"""

import ast
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import columns, run_cli, run_cli_bounded
from ellipse_contact import (
    UnitVec2,
    closest_approach,
    make_pair_configuration,
    oracle,
    tangency_residuals,
)
from ellipse_contact import bulk, cli, quartic, transformed_pair
from ellipse_contact.bulk import BRANCHES, contact_arrays, unit_vectors
from ellipse_contact.contact import COS_PHI_TOL, DELTA_CIRCLE_TOL
from ellipse_contact.geometry import _FLOATS


def scalar_row(a1, b1, a2, b2, k1, k2, dhat):
    """The scalar API's values as hex strings plus the branch, or None
    where it raises."""
    try:
        cfg = make_pair_configuration(a1, b1, a2, b2, k1, k2, dhat)
        sol = closest_approach(cfg)
        r1, r2, _ = tangency_residuals(cfg, sol)
    except (ValueError, ArithmeticError):
        return None
    values = (sol.d, sol.d_prime, sol.q, sol.contact_point.x, sol.contact_point.y, r1, r2)
    return tuple(v.hex() for v in values) + (sol.branch,)


def array_rows(rows):
    """contact_arrays over rows of (a1, b1, a2, b2, k1, k2, dhat) with
    (x, y) directions: per row the hex strings plus the branch, or None
    for a row left to the scalar path."""
    cols = [np.array(c, dtype=float) for c in zip(*(
        (a1, b1, a2, b2, *k1, *k2, *dh) for a1, b1, a2, b2, k1, k2, dh in rows
    ))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel must not warn
        res = contact_arrays(*cols)
    out = []
    for i in range(len(rows)):
        if res.scalar[i]:
            out.append(None)
            continue
        values = (res.d[i], res.d_prime[i], res.q[i], res.rc_x[i], res.rc_y[i],
                  res.residual_e1[i], res.residual_e2[i])
        out.append(tuple(float(v).hex() for v in values) + (BRANCHES[res.branch[i]],))
    return out


def assert_matches_scalar(rows):
    """Every resolved row equals the scalar API; every row the scalar API
    rejects is left to it.  Returns the indices left to the scalar path."""
    deferred = []
    for i, (got, row) in enumerate(zip(array_rows(rows), rows)):
        expect = scalar_row(*row)
        if got is None:
            deferred.append(i)
        else:
            assert got == expect, (i, row)
    return deferred


def stream_rows(configurations):
    return [
        (c.shape1.a, c.shape1.b, c.shape2.a, c.shape2.b,
         (c.k1.x, c.k1.y), (c.k2.x, c.k2.y), (c.dhat.x, c.dhat.y))
        for c in configurations
    ]


@pytest.mark.parametrize("seed, n, max_aspect, deferred", [
    (11, 10_000, 20.0, []),
    (7, 5_000, 1000.0, None),
    (5, 5_000, 1e4, None),
])
def test_contact_arrays_match_scalar_on_streams(angle_calls, seed, n, max_aspect, deferred):
    rows = stream_rows(oracle.stratified_configurations(n, seed, max_aspect))
    got = assert_matches_scalar(rows)
    if deferred is not None:
        assert got == deferred
    else:
        # extreme aspect: the angle solve takes ~2% of the rows up to
        # aspect 10^3 and ~11% up to 10^4, and no row is deferred
        assert got == []
        assert len(angle_calls.arrays) > (0.01 if max_aspect <= 1e3 else 0.05) * n


@pytest.mark.parametrize("max_aspect, rtol", [(20.0, 1e-13), (1e3, 1e-9), (1e4, 1e-7)])
def test_contact_arrays_against_support_oracle(angle_calls, max_aspect, rtol):
    # the array kernel against the support-function oracle on 20,000
    # configurations per seed, none deferred; it calls the angle solve on
    # exactly the rows where the scalar kernel does, with the same bits
    for seed in (11, 5):
        cfgs = list(oracle.stratified_configurations(20_000, seed, max_aspect))
        cols = columns(cfgs)
        angle_calls.arrays.clear()
        angle_calls.scalar.clear()
        res = contact_arrays(*cols)
        assert not res.scalar.any()
        for i, cfg in enumerate(cfgs):
            assert closest_approach(cfg).d == res.d[i]
        # the arguments of each call, in row order
        assert angle_calls.arrays == angle_calls.scalar
        sizes = {20.0: (0, 0), 1e3: (366, 397), 1e4: (2025, 2191)}[max_aspect]
        assert len(angle_calls.scalar) == sizes[seed == 5]
        # seed 5 reads 8.98e-10 at 10^3, on a row Ferrari's root answers
        ref = oracle.support_distances(*cols)
        assert np.max(abs(res.d - ref) / ref) <= (rtol if seed == 11 else 2.0 * rtol)


def test_contact_arrays_defer_the_fallback_row(angle_calls):
    # the first configuration at seed 11 and aspect up to 1000 whose
    # closed-form root is rejected: both kernels solve it on the contact
    # angle, with the same arguments, and none defers it
    rows = stream_rows([oracle.stratified_configuration(11, 56, 1000.0)])
    assert assert_matches_scalar(rows) == []
    assert len(angle_calls.arrays) == 1 and angle_calls.arrays == angle_calls.scalar


@pytest.mark.parametrize("index, expect", [
    # the first near-biquadratic quartic: no closed-form root
    (126, ("0x1.70b4b0fb4f9f7p+1", "0x1.edde8a0c178dfp+1", "0x1.0000000000000p+0",
           "-0x1.7286189315cf4p-1", "-0x1.77acd1d14f0aap-3", "0x1.0000000000000p-52",
           "0x1.0000000000000p-51")),
    # s1 = 0 (W = 0): no closed-form root either
    (5680, ("0x1.f516aa02452d7p+1", "0x1.2d5309297586ep+0", "0x1.16da2c0a8096cp+9",
            "0x1.521a3af195482p-1", "0x1.c990a75228a39p+1", "0x1.0000000000000p-52",
            "0x1.4000000000000p-49")),
])
def test_contact_arrays_defer_the_biquadratic_rows(angle_calls, index, expect):
    # seed 11, aspect up to 1000: rows with no closed-form root, which both
    # kernels solve on the contact angle to these floats
    rows = stream_rows([oracle.stratified_configuration(11, index, 1000.0)])
    assert array_rows(rows) == [expect + (BRANCHES[0],)]
    assert scalar_row(*rows[0]) == expect + (BRANCHES[0],)
    assert len(angle_calls.arrays) == 1 and angle_calls.arrays == angle_calls.scalar


def test_larger_real_ferrari_root_in_both_kernels():
    # Ferrari's roots are shift + (+-W +- sqrt(arg))/2; both kernels take
    # the larger of the two +sqrt(arg) ones that are real.  On this stream
    # both are often real and the -W one is often taken, so a kernel that
    # kept the +W one would defer or change those rows
    cfgs = list(oracle.stratified_configurations(3000, seed=11))
    both_real = minus_w = 0
    for cfg in cfgs:
        tp = transformed_pair(cfg)
        if tp.delta < DELTA_CIRCLE_TOL or abs(tp.cos_phi) < COS_PHI_TOL:
            continue
        c = quartic.quartic_coefficients(
            tp.b2p, tp.delta, (tp.sin_phi * tp.sin_phi) / (tp.cos_phi * tp.cos_phi)
        )
        alpha, beta, gamma, shift = quartic._depressed(c)
        y = quartic._resolvent_root(alpha, beta, gamma)
        big_w = math.sqrt(alpha + 2.0 * y)
        roots = {}
        for sign_w in (1.0, -1.0):
            arg = -(3.0 * alpha + 2.0 * y + sign_w * 2.0 * beta / big_w)
            if arg >= 0.0:
                roots[sign_w] = shift + 0.5 * (sign_w * big_w + math.sqrt(arg))
        both_real += len(roots) == 2
        picked = quartic._larger_real_root(alpha, beta, y, shift, big_w, _FLOATS)
        minus_w += roots.get(1.0) != roots.get(-1.0) == picked
    assert both_real >= 300
    assert minus_w >= 400
    assert assert_matches_scalar(stream_rows(cfgs)) == []


def test_quartic_stage_matches_scalar_solver_or_defers(angle_calls):
    # raw quartics over a wider range than any stream reaches: the array
    # stage gives solve_contact_quartic's root bit for bit on every row and
    # flags none; both call the angle solve on the same 3,523 rows, with
    # the same arguments, and every root lies in [1, sqrt(1+delta)]
    rng = np.random.default_rng(2)
    n = 20_000
    b2p = 10.0 ** rng.uniform(-6.0, 6.0, n)
    delta = 10.0 ** rng.uniform(-12.0, 8.0, n)
    tan2phi = np.tan(rng.uniform(0.0, 0.999999 * math.pi / 2.0, n)) ** 2
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        got = bulk._quartic_roots(b2p, delta, tan2phi, bad)
    assert not bad.any()
    for i, args in enumerate(zip(b2p.tolist(), delta.tolist(), tan2phi.tolist())):
        assert got[i].hex() == quartic.solve_contact_quartic(*args).hex(), i
    assert len(angle_calls.arrays) == 3523 and angle_calls.arrays == angle_calls.scalar
    assert np.all((1.0 <= got) & (got <= np.sqrt(1.0 + delta)))


def test_near_biquadratic_rows_whose_resolvent_overflows_are_answered():
    # raw quartics with b2p, delta and tan^2 phi each 10^U(-150, 150): on
    # near-biquadratic rows Cardano's cubes alpha^3 and p^3 can overflow and
    # its y is then not finite, but the closed form solves their resolvent
    # for zeros, so the array stage flags none of them and gives
    # solve_contact_quartic's root (the angle solve's) bit for bit
    rng = np.random.default_rng(2)
    b2p, delta, tan2phi = 10.0 ** rng.uniform(-150.0, 150.0, (3, 4000))
    with np.errstate(all="ignore"):
        c = quartic.quartic_coefficients(b2p, delta, tan2phi)
        depressed = quartic._depressed(c)
        alpha = depressed[0]
        y, p, _, _ = quartic._cardano(*depressed[:3], bulk._arrays(np.zeros(len(b2p), dtype=bool)))
        overflow = ~np.isfinite(alpha * alpha * alpha) | ~np.isfinite(p * p * p)
        near = quartic._near_biquadratic(c, depressed[1])
    finite = np.all([np.isfinite(x) for x in (*c, *depressed)], axis=0)
    rows = np.flatnonzero(overflow & finite & near)
    assert len(rows) >= 100
    assert not np.isfinite(y[rows]).any()
    bad = np.zeros(len(rows), dtype=bool)
    with np.errstate(all="ignore"):
        got = bulk._quartic_roots(b2p[rows], delta[rows], tan2phi[rows], bad)
    assert not bad.any()
    for i, args in enumerate(zip(b2p[rows].tolist(), delta[rows].tolist(), tan2phi[rows].tolist())):
        assert got[i].hex() == quartic.solve_contact_quartic(*args).hex(), args


def assert_resolvent_rows_match(alpha, beta, gamma):
    """bulk._resolvent_roots (_cardano on the arrays, _resolvent_root per
    row where disc < 0) gives quartic._resolvent_root's bits on every row
    it does not flag, and flags exactly the rows where that raises.
    Returns the share of rows with disc < 0."""
    alpha, beta, gamma = (np.array(x, dtype=np.float64) for x in (alpha, beta, gamma))
    bad = np.zeros(len(alpha), dtype=bool)
    with np.errstate(all="ignore"):
        y = bulk._resolvent_roots(alpha, beta, gamma, bad)
        disc = quartic._cardano(alpha, beta, gamma, bulk._arrays(bad.copy()))[3]
    for i, args in enumerate(zip(alpha.tolist(), beta.tolist(), gamma.tolist())):
        try:
            want = quartic._resolvent_root(*args).hex()
        except ArithmeticError:
            want = None
        assert (None if bad[i] else float(y[i]).hex()) == want, args
    return float(np.mean(disc < 0.0))


@pytest.mark.parametrize("max_aspect", [20.0, 1e3, 1e4])
def test_resolvent_roots_match_the_float_function_on_streams(monkeypatch, max_aspect):
    # the depressed quartics that contact_arrays solves for 20,000 rows
    seen, real = [], bulk._resolvent_roots
    monkeypatch.setattr(bulk, "_resolvent_roots", lambda *args, **kw: (
        seen.append([a.copy() for a in args[:3]]) or real(*args, **kw)))
    contact_arrays(*oracle._stratified_columns(11, 0, 20_000, max_aspect))
    (abg,) = seen
    assert len(abg[0]) > 15_000
    assert 0.02 < assert_resolvent_rows_match(*abg) < 0.2


def test_resolvent_roots_match_the_float_function_on_random_triples():
    rng = np.random.default_rng(29)
    n = 200_000
    alpha, beta, gamma = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
                          for _ in range(3))
    assert 0.2 < assert_resolvent_rows_match(alpha, beta, gamma) < 0.5


def test_resolvent_roots_match_the_float_function_on_edges():
    def disc(*abg):
        return quartic._cardano(*abg, _FLOATS)[3]

    # u = (beta^2 / 8)^(1/3) at alpha = gamma = 0 straddles the 1e-12 test
    straddle = [math.sqrt(8.0) * 1e-18 * (1.0 + k * 1e-3) for k in range(-3, 4)]
    straddle += [math.sqrt(8.0) * 1e-18 * (1.0 + k * 2.0**-52) for k in range(-8, 9)]
    # q = 2^-1074 > 0 and disc = 0: q/2 + s rounds to 0
    tiny = -4.683755824008966e-108
    edges = [
        (0.0, 0.0, -1.0),                    # q = 0
        (6.0, 0.0, 0.0),                     # disc = 0 (p = -3, q = -2)
        (0.0, 0.0, 0.0),                     # p = q = 0
        (-3.0, 0.1, -9.0 / 12.0),            # p = 0 (test_u_zero_branch)
        (tiny, 0.0, -(tiny * tiny / 12.0)),
        (1e103, 1.0, 1.0), (-1e103, 0.5, 2.0),  # alpha^3 overflows
    ] + [(0.0, b, 0.0) for b in straddle]
    for bad_value in (math.nan, math.inf, -math.inf):
        for slot in range(3):
            row = [1.5, -0.5, 0.25]
            row[slot] = bad_value
            edges.append(tuple(row))
    assert quartic._cardano(0.0, 0.0, -1.0, _FLOATS)[2] == 0.0
    assert disc(6.0, 0.0, 0.0) == 0.0
    assert quartic._cardano(-3.0, 0.1, -9.0 / 12.0, _FLOATS)[1] == 0.0
    with pytest.raises(ZeroDivisionError):
        quartic._resolvent_root(tiny, 0.0, -(tiny * tiny / 12.0))
    # alpha^3 overflows to inf: the resolvent is then not a number, on
    # floats as on arrays, and raises nothing; the closed form has no root
    assert math.isnan(quartic._resolvent_root(1e103, 1.0, 1.0))
    assert math.isnan(quartic._resolvent_root(-1e103, 0.5, 2.0))
    cbrt_q = [(b * b / 8.0) ** (1.0 / 3.0) for b in straddle]
    assert min(cbrt_q) < 1e-12 < max(cbrt_q)
    assert_resolvent_rows_match(*zip(*edges))


@pytest.mark.parametrize("module, exempt", [
    ("transform.py", ()),
    ("contact.py", ()),
    ("quartic.py", ("_resolvent_root", "_cardano")),
    ("bulk.py", ()),
])
def test_kernel_raises_no_variable_to_a_power(module, exempt):
    # the array kernel matches the scalar one because every power goes
    # through m.pow, which is Python's pow on floats and, element by
    # element, on arrays (bulk._arrays: partial(_each, pow, bad)): Python's
    # pow and numpy's power round differently, and the scalar code's
    # products are what numpy repeats.  Only Cardano's form and the float
    # resolvent take powers; nothing anywhere names numpy's power or
    # raises a variable with **
    def powers(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if func in exempt:
            return
        if func == "_arrays" and ast.unparse(node) == "partial(_each, pow, bad)":
            return
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            base = node.left if isinstance(node, ast.BinOp) else node.target
            if isinstance(node.op, ast.Pow) and not isinstance(base, ast.Constant):
                yield node.lineno
        if getattr(node, "id", None) == "pow" or getattr(node, "attr", None) in ("pow", "power"):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from powers(child, func)

    tree = ast.parse((Path(bulk.__file__).parent / module).read_text())
    assert list(powers(tree, None)) == []
    nodes = list(ast.walk(tree))
    assert [n.lineno for n in nodes if "power" in (getattr(n, "id", None), getattr(n, "attr", None))] == []
    assert [
        n.lineno for n in nodes
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and isinstance(n.left, ast.Name)
        or isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Pow)
    ] == []


def test_array_kernel_restates_no_scalar_rule():
    # the branch thresholds and the near-biquadratic test live in contact.py
    # and quartic.py (contact._branches, quartic._closed_form_root), and a
    # curve's directions come from bulk.from_angles, UnitVec2.from_angle's
    # rule on arrays; naming them here would mean a second copy of the rule
    def names(module):
        tree = ast.parse((Path(bulk.__file__).parent / module).read_text())
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                yield f"{n.value.id}.{n.attr}"
            yield getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)

    assert {"DELTA_CIRCLE_TOL", "COS_PHI_TOL", "_near_biquadratic"} & set(names("bulk.py")) == set()
    assert {"math.cos", "math.sin"} & set(names("analysis.py")) == set()


def edge_rows():
    x, y = (1.0, 0.0), (0.0, 1.0)
    diag = (math.sqrt(0.5), math.sqrt(0.5))
    rows = []
    for dh_deg in (0.0, 17.0, 45.0, 90.0, 133.0, 180.0, 270.0):
        dh = (math.cos(math.radians(dh_deg)), math.sin(math.radians(dh_deg)))
        rows += [
            (2.0, 1.0, 3.0, 1.0, x, x, dh),            # exactly parallel axes
            (2.0, 1.0, 1.2, 1.0, x, x, dh),            # the other eigenpairing
            (2.0, 1.0, 3.0, 1.0, x, (-1.0, 0.0), dh),  # anti-parallel axes
            (2.0, 1.0, 2.0, 1.0, diag, diag, dh),      # identical, parallel
            (1.0, 1.0, 1.0, 1.0, x, y, dh),            # circles
            (1.5, 1.5, 2.0, 1.0, x, diag, dh),         # circle and ellipse
            (2.0, 1.0, 3.0, 1.0, x, y, dh),            # right angle
            (35.0, 1.75, 20.0, 1.0, x, y, dh),         # 20:1 at right angles
            (2.0, 1.0, 3.0, 1.0, (3.0, 4.0), (-0.5, 2.0), (dh[0] * 7, dh[1] * 7)),
        ]
    rows.append((35.0, 1.75, 20.0, 1.0, x, y, y))
    return rows


def test_contact_arrays_edge_cases():
    rows = edge_rows()
    assert assert_matches_scalar(rows) == []
    branches = {row[-1] for row in array_rows(rows)}
    assert branches == set(BRANCHES)  # all five branches answered


def test_contact_arrays_answer_every_row_at_the_domain_corners():
    # aspects 1 and 10^4, size ratios b1/b2 = 10^+-6, lengths 10^+-100,
    # axes near parallel and center lines along an axis: both kernels answer
    # every row, with the same bits (so did they on 100,000 such rows)
    rng = np.random.default_rng(35)
    n = 2000
    b1 = 10.0 ** rng.uniform(-90.0, 90.0, n)
    b2 = b1 * 10.0 ** rng.choice([-6.0, 6.0], n)
    a1, a2 = (b * 10.0 ** rng.choice([0.0, 4.0], n) for b in (b1, b2))
    t1 = rng.uniform(0.0, 2.0 * math.pi, n)
    t2 = t1 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17.0, 0.0, n)
    td = np.where(rng.random(n) < 0.5, t1 + rng.integers(0, 4, n) * (math.pi / 2.0),
                  rng.uniform(0.0, 2.0 * math.pi, n))
    directions = [list(zip(*bulk.from_angles(t))) for t in (t1, t2, td)]
    rows = list(zip(a1.tolist(), b1.tolist(), a2.tolist(), b2.tolist(), *directions))
    assert assert_matches_scalar(rows) == []
    assert all(scalar_row(*row) is not None for row in rows)


def test_contact_arrays_leave_invalid_rows():
    x = (1.0, 0.0)
    rows = [
        (1.0, 2.0, 1.0, 1.0, x, x, x),        # a < b
        (2.0, 0.0, 1.0, 1.0, x, x, x),        # b = 0
        (math.inf, 1.0, 1.0, 1.0, x, x, x),
        (2.0, 1.0, math.nan, 1.0, x, x, x),
        (2.0, 1.0, 2.0, 1.0, (0.0, 0.0), x, x),
        (2.0, 1.0, 2.0, 1.0, x, (math.nan, 1.0), x),
        (2.0, 1.0, 2.0, 1.0, x, x, (math.inf, 0.0)),
        (2.0, 1e-300, 2.0, 1e-300, x, x, x),  # ZeroDivisionError
        (1e308, 1.0, 2.0, 1.0, x, x, x),      # ZeroDivisionError (dhat_scale)
    ]
    assert assert_matches_scalar(rows) == list(range(len(rows)))


def test_contact_arrays_unequal_lengths():
    with pytest.raises(ValueError):
        contact_arrays(*[[2.0, 2.0]] * 9, [1.0])


LENGTHS = st.sampled_from([
    5e-324, 1e-308, 1e-300, 1e-160, 1e-3, 0.5, 1.0, 2.0, 7.5, 1e3,
    1e160, 1e300, 1e308, 0.0, -1.0, math.inf, math.nan,
]) | st.floats(1e-3, 1e3)
COMPONENTS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 1e308, math.inf, math.nan,
]) | st.floats(-2.0, 2.0)


@st.composite
def fuzzed_row(draw):
    a1, b1 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    a2, b2 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    vectors = [draw(st.tuples(COMPONENTS, COMPONENTS)) for _ in range(3)]
    return (a1, b1, a2, b2, *vectors)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(fuzzed_row(), min_size=1, max_size=30))
def test_contact_arrays_fuzzed_rows_match_or_defer(rows):
    assert_matches_scalar(rows)


def test_unit_vectors_match_from_angle():
    angles = [0.0, 30.0, -45.0, 90.0, 180.0, 1e-300, 1e16, 1e300, -1e300,
              math.inf, -math.inf, math.nan]
    angles += np.random.default_rng(5).uniform(-720.0, 720.0, 2000).tolist()
    xs, ys = unit_vectors(angles)
    for deg, x, y in zip(angles, xs.tolist(), ys.tolist()):
        try:
            u = UnitVec2.from_angle(math.radians(deg))
        except ValueError:
            assert math.isnan(x) and math.isnan(y)
            continue
        assert (x.hex(), y.hex()) == (u.x.hex(), u.y.hex())


def test_unit_is_unitvec2_bit_for_bit():
    # bulk._unit keeps a row with |x x + y y - 1| <= 2^-52 without calling
    # math.hypot; 240,000 vectors: cos/sin pairs, the same pairs off unit
    # length by 1 + U(+-3e-16) (a screen at 2^-51 keeps ~90 of these that
    # UnitVec2 divides), lengths 10^U(+-300), and zeros, subnormals, inf
    # and nan.  Every row is UnitVec2's vector, or flagged where it raises
    rng = np.random.default_rng(37)
    theta = rng.uniform(-math.pi, math.pi, 100_000)
    c, s = np.cos(theta), np.sin(theta)
    off = 1.0 + rng.uniform(-3e-16, 3e-16, len(theta))
    scale = 10.0 ** rng.uniform(-300.0, 300.0, 30_000)
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1e-200, 1.0,
                     1e300, 1.7e308, math.inf, -math.inf, math.nan])
    ex, ey = np.meshgrid(edge, edge)
    tiny = rng.uniform(-1.0, 1.0, (2, 10_000)) * 2.0**-1022
    x = np.concatenate([c, c * off, c[:30_000] * scale, ex.ravel(), tiny[0]])
    y = np.concatenate([s, s * off, s[:30_000] * scale, ey.ravel(), tiny[1]])
    bad = np.zeros(len(x), dtype=bool)
    ux, uy = bulk._unit(x, y, bad)
    assert len(x) >= 240_000
    with np.errstate(over="ignore"):
        assert 0.5 < np.mean(abs(x * x + y * y - 1.0) <= 2.0**-52) < 0.7
    for i, (vx, vy) in enumerate(zip(x.tolist(), y.tolist())):
        try:
            u = UnitVec2(vx, vy)
        except ValueError:
            assert bad[i], (vx, vy)
            continue
        assert not bad[i] and (ux[i].hex(), uy[i].hex()) == (u.x.hex(), u.y.hex()), (vx, vy)
    assert bad.sum() > 5_000


def test_array_kernel_maps_hypot_only_off_the_unit_screen():
    # bulk.py names math.hypot only in _unit, for the rows off its screen,
    # and pow only in the array namespace; the kernel's m.pow calls are
    # Cardano's two cube roots, and its hypots are geometry._hypot on
    # both paths.  On a stream block the per-element maps are those two
    # cube roots, the resolvent's rows with disc < 0 and the angle solve
    def names(module):
        """(function, dotted name, node) of every name in module's functions."""
        tree = ast.parse((Path(bulk.__file__).parent / module).read_text())
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for n in ast.walk(func):
                if isinstance(n, (ast.Name, ast.Attribute, ast.Call)):
                    yield func.name, ast.unparse(n.func if isinstance(n, ast.Call) else n), n

    assert {f for f, name, _ in names("bulk.py") if name == "math.hypot"} == {"_unit"}
    assert {f for f, name, _ in names("bulk.py") if name == "pow"} == {"_arrays"}
    for module in ("transform.py", "contact.py", "quartic.py"):
        found = [(f, n) for f, name, n in names(module) if name == "m.pow"]
        pows = [(f, ast.unparse(n.args[1])) for f, n in found if isinstance(n, ast.Call)]
        # every m.pow is called where it is named, once per call
        assert len(found) == 2 * len(pows), module
        assert pows == ([("_cardano", "1.0 / 3.0")] * 2 if module == "quartic.py" else []), module

    mapped = []
    each = bulk._each
    def spy(fn, bad, *cols):
        mapped.append((fn, len(bad), cols[1:]))
        return each(fn, bad, *cols)

    cols = oracle._stratified_columns(11, 0, 1024, 1e3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bulk, "_each", spy)
        assert not contact_arrays(*cols).scalar.any()
    fns = [fn for fn, _, _ in mapped]
    assert fns.count(pow) == 2 and all(rest == (1.0 / 3.0,) for fn, _, rest in mapped if fn is pow)
    assert set(fns) <= {pow, math.hypot, quartic._resolvent_root, quartic._angle_root}
    # _unit sees the three input directions and kplus, kminus: 5 x 1024
    # vectors, of which the screen turns away kplus and kminus on ~10%
    assert sum(n for fn, n, _ in mapped if fn is math.hypot) < 0.1 * 5 * 1024


@pytest.mark.parametrize("n", [16, 720, 4096])
def test_from_angles_on_curve_angles_is_cos_and_sin(n):
    # a curve's points are d (cos theta, sin theta): from_angles leaves the
    # components of every curve angle as math.cos and math.sin give them
    theta = 2.0 * math.pi * np.arange(n) / n
    x, y = bulk.from_angles(theta)
    assert x.tobytes() == np.array([math.cos(t) for t in theta.tolist()]).tobytes()
    assert y.tobytes() == np.array([math.sin(t) for t in theta.tolist()]).tobytes()


# ---------------------------------------------------------------------------
# batch against the per-row loop

FIELDS = ("a1", "b1", "a2", "b2", "theta1", "theta2", "theta_d")
RESULTS = ("d", "d_prime", "q", "branch", "rc_x", "rc_y", "residual_e1", "residual_e2")


def reference_batch(path, output, fmt, rejects_path):
    """The batch command as it was before the array kernel: one scalar
    call per row, every output row held until the end and written only on
    exit 0.  A CSV record that ends before an input column is rejected by
    its length."""
    def process(row):
        cfg = make_pair_configuration(
            float(row["a1"]), float(row["b1"]), float(row["a2"]), float(row["b2"]),
            UnitVec2.from_angle(math.radians(float(row["theta1"]))),
            UnitVec2.from_angle(math.radians(float(row["theta2"]))),
            UnitVec2.from_angle(math.radians(float(row["theta_d"]))),
        )
        sol = closest_approach(cfg)
        r1, r2, _ = tangency_residuals(cfg, sol)
        out = dict(row)
        out.update(
            d=sol.d, d_prime=sol.d_prime, q=sol.q, branch=sol.branch.value,
            rc_x=sol.contact_point.x, rc_y=sol.contact_point.y,
            residual_e1=r1, residual_e2=r2,
        )
        return out

    def rows():
        if fmt == "jsonl":
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                        missing = [k for k in FIELDS if k not in row]
                        if missing:
                            raise KeyError(f"missing fields {missing}")
                        for kind, name in ((bool, "boolean"), (str, "string")):
                            flags = [k for k in FIELDS if isinstance(row[k], kind)]
                            if flags:
                                raise TypeError(f"{name} fields {flags}")
                        yield lineno, row, None
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        yield lineno, None, str(exc)
            return
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or any(k not in reader.fieldnames for k in FIELDS):
                raise ValueError(f"CSV header must contain {', '.join(FIELDS)}")
            width = len(reader.fieldnames)
            for row in reader:
                if any(row[k] is None for k in FIELDS):
                    # DictReader's fill for a short record; no header here
                    # repeats a name, so the other values are its fields
                    fields = sum(v is not None for v in row.values())
                    yield reader.line_num, None, f"{fields} fields for {width} header columns"
                else:
                    yield reader.line_num, row, None

    with open(rejects_path, "w", encoding="utf-8") as rejects:
        rows_out, extra = [], []
        total = rejected = 0
        try:
            for lineno, row, err in rows():
                total += 1
                if err is None:
                    try:
                        rows_out.append(process(row))
                        extra += [k for k in row if k not in FIELDS + RESULTS + tuple(extra)]
                        continue
                    except (ValueError, ArithmeticError, KeyError, TypeError) as exc:
                        err = str(exc)
                rejected += 1
                print(f"line {lineno}: {err}", file=rejects)
        except (OSError, ValueError):
            return 2
    if total and rejected * 2 > total:
        return 2
    if fmt == "jsonl":
        with open(output, "w", encoding="utf-8") as fh:
            for out in rows_out:
                fh.write(json.dumps(out) + "\n")
    else:
        header = extra + list(FIELDS) + list(RESULTS)
        with open(output, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for out in rows_out:
                writer.writerow([out.get(k, "") for k in header])
    return 0


def run_both(tmp_path, capsys, text, fmt, chunk=None):
    """batch and the reference loop on the same input; returns the exit
    code after asserting identical exit codes, outputs and rejects."""
    inp = tmp_path / f"in.{fmt}"
    inp.write_text(text, encoding="utf-8")
    files = {side: (tmp_path / f"{side}.out", tmp_path / f"{side}.rej") for side in ("new", "ref")}
    for out, _ in files.values():
        out.write_text("previous\n")
    expect = reference_batch(inp, files["ref"][0], fmt, files["ref"][1])
    saved = bulk.CHUNK_ROWS
    bulk.CHUNK_ROWS = chunk or saved
    try:
        code, out, err, elapsed = run_cli_bounded(
            capsys, "batch", "--input", str(inp), "--output", str(files["new"][0]),
            "--format", fmt, "--rejects", str(files["new"][1]),
        )
    finally:
        bulk.CHUNK_ROWS = saved
    assert elapsed < 5.0
    assert code == expect and code in (0, 2)
    assert out == ""
    for new, ref in zip(files["new"], files["ref"]):
        assert new.read_bytes() == ref.read_bytes()
    return code


def stratified_text(n, seed, fmt, max_aspect=20.0):
    rows = []
    for i, c in enumerate(oracle.stratified_configurations(n, seed, max_aspect)):
        values = (c.shape1.a, c.shape1.b, c.shape2.a, c.shape2.b,
                  math.degrees(c.k1.angle()), math.degrees(c.k2.angle()),
                  math.degrees(c.dhat.angle()))
        rows.append({"id": f"r{i}", **dict(zip(FIELDS, values))})
    if fmt == "jsonl":
        return "".join(json.dumps(r) + "\n" for r in rows)
    lines = [",".join(rows[0])] + [",".join(str(v) for v in r.values()) for r in rows]
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_batch_matches_reference_on_stratified_rows(tmp_path, capsys, fmt):
    # 2,500 rows: three chunks, one of them partial
    assert run_both(tmp_path, capsys, stratified_text(2500, 7, fmt), fmt) == 0


def test_batch_answers_deferred_rows_through_the_scalar_api(tmp_path, capsys, angle_calls):
    # at aspect up to 10^3 the closed-form root of twelve of these rows is
    # rejected; the array kernel solves them on the contact angle and
    # leaves none to the scalar API, and batch writes every row as the
    # per-row loop does
    text = stratified_text(400, 11, "csv", max_aspect=1e3)
    rows = list(csv.DictReader(io.StringIO(text)))
    a1, b1, a2, b2, t1, t2, td = np.array([[float(r[k]) for k in FIELDS] for r in rows]).T
    cols = (a1, b1, a2, b2, *unit_vectors(t1), *unit_vectors(t2), *unit_vectors(td))
    assert not contact_arrays(*cols).scalar.any()
    reach = []
    for i in range(len(rows)):
        calls = len(angle_calls.arrays)
        contact_arrays(*(c[i:i + 1] for c in cols))
        if len(angle_calls.arrays) > calls:
            reach.append(i)
    assert reach == [18, 56, 78, 126, 171, 194, 219, 246, 258, 316, 356, 373]
    assert run_both(tmp_path, capsys, text, "csv") == 0
    with open(tmp_path / "new.out", newline="") as fh:
        assert [r["id"] for r in csv.DictReader(fh)] == [r["id"] for r in rows]


FUZZ_VALUES = st.sampled_from([
    "5e-324", "1e-308", "1e308", "1e-300", "1e300", "1e-160", "1e160",
    "0", "-1", "inf", "-inf", "nan", "x", "", " 2", "1_0", "0x1p1", "2.5", "-30",
])


ID_VALUES = st.sampled_from([None, None, None, "a,b", 'say "hi"', "", "two\nlines"])


@st.composite
def batch_input(draw):
    """A CSV or JSONL file of at most 40 rows: valid rows, rows with fuzzed
    or non-numeric values, short rows and missing keys, blank lines and
    junk lines; the majority may be rejected.  Valid values come from a
    drawn seed, which keeps the draws few."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = list(FIELDS)
    # an extra column is echoed; one named like a result column holds the result
    extra = draw(st.sampled_from([None, "id", "d"]))
    if extra:
        columns.insert(draw(st.integers(0, len(columns))), extra)
    lines = []
    for i in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["good", "good", "fuzzed", "short", "blank", "junk"]))
        b1, a1, b2, a2 = np.sort(rng.uniform(0.1, 10.0, 2)).tolist() + np.sort(
            rng.uniform(0.1, 10.0, 2)).tolist()
        values = [a1, b1, a2, b2, *rng.uniform(-720.0, 720.0, 3).tolist()]
        # some ids the csv module must quote
        ident = draw(ID_VALUES)
        row = dict(zip(FIELDS, map(repr, values)))
        if extra:
            row[extra] = f"r{i}" if ident is None else ident
        if kind == "fuzzed":
            for k in draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3)):
                row[k] = draw(FUZZ_VALUES)
        values = [row[k] for k in columns]
        if kind == "short":
            values = values[:draw(st.integers(1, len(values) - 1))]
        if fmt == "csv":
            line = io.StringIO()
            csv.writer(line, lineterminator="").writerow(values)
            lines.append({"blank": "", "junk": "x,y"}.get(kind, line.getvalue()))
        elif kind == "blank":
            lines.append("")
        elif kind == "junk":
            lines.append(draw(st.sampled_from(["not json", "[1, 2]", "5", "null"])))
        else:
            record = {}
            for k, v in zip(columns, values):
                try:
                    record[k] = float(v)
                except ValueError:
                    record[k] = v
            lines.append(json.dumps(record))
    if fmt == "csv":
        lines.insert(0, ",".join(columns))
    return fmt, "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=batch_input(), chunk=st.sampled_from([5, 1024]))
def test_fuzzed_batch_matches_reference(tmp_path, capsys, case, chunk):
    fmt, text = case
    run_both(tmp_path, capsys, text, fmt, chunk)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_bad_input_leaves_output_untouched(tmp_path, capsys, fmt):
    # undecodable bytes after a rejected row and more than one read buffer
    # (the error surfaces when its buffer is decoded), all in one chunk:
    # exit 2, the output as it was, the rejects of the rows read before
    inp = tmp_path / f"in.{fmt}"
    rows = [dict(zip(FIELDS, ("2", "1", "2", "1", "0", "30", str(i)))) for i in range(1000)]
    rows[4]["a1"] = "x"
    if fmt == "csv":
        text = ",".join(FIELDS) + "\n" + "".join(",".join(r.values()) + "\n" for r in rows)
    else:
        # JSON numbers, but for the string "x"
        text = "".join(
            json.dumps({k: v if v == "x" else float(v) for k, v in r.items()}) + "\n" for r in rows
        )
    inp.write_bytes(text.encode() + b"\xff\xfe\n")
    for side in ("new", "ref"):
        (tmp_path / f"{side}.out").write_text("previous\n")
    assert reference_batch(inp, tmp_path / "ref.out", fmt, tmp_path / "ref.rej") == 2
    code, out, err = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(tmp_path / "new.out"),
        "--format", fmt, "--rejects", str(tmp_path / "new.rej"),
    )
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert (tmp_path / "new.out").read_text() == "previous\n"
    rejects = (tmp_path / "new.rej").read_text()
    assert rejects == (tmp_path / "ref.rej").read_text()
    assert rejects.startswith("line 6:" if fmt == "csv" else "line 5:")
