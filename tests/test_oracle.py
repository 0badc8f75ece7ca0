import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ellipse_contact import (
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    closest_approach,
    oracle_distance,
)
from ellipse_contact import bulk, oracle
from ellipse_contact.oracle import (
    stratified_configuration,
    stratified_configurations,
    support_distances,
    verify_random,
)
from conftest import (
    bisected_normal_angles, columns, mp_perram_wertheim_distance, mp_support_distance,
    oracle_circle_ellipse_distance,
)


def test_two_circles():
    cfg = PairConfiguration(
        EllipseShape(1.0, 1.0), EllipseShape(2.0, 2.0),
        UnitVec2(1.0, 0.0), UnitVec2(0.0, 1.0), UnitVec2.from_angle(0.3),
    )
    assert abs(oracle_distance(cfg) - 3.0) <= 1e-9 * 3.0


def test_identical_parallel_major_axis():
    cfg = PairConfiguration(
        EllipseShape(2.0, 1.0), EllipseShape(2.0, 1.0),
        UnitVec2(1.0, 0.0), UnitVec2(1.0, 0.0), UnitVec2(1.0, 0.0),
    )
    assert abs(oracle_distance(cfg) - 4.0) <= 1e-9 * 4.0


def test_circle_ellipse_unit_circle():
    d = oracle_circle_ellipse_distance(
        1.0, 1.0, UnitVec2(1.0, 0.0), UnitVec2.from_angle(1.0)
    )
    assert abs(d - 2.0) <= 1e-9 * 2.0


def test_circle_ellipse_special_case():
    # circular "ellipse" of radius 0.5 against the unit circle
    d = oracle_circle_ellipse_distance(
        0.5, 0.5, UnitVec2.from_angle(0.4), UnitVec2.from_angle(2.0)
    )
    assert abs(d - 1.5) <= 1e-9 * 1.5


def test_matches_analytic_on_small_sweep():
    for i in range(150):
        cfg = stratified_configuration(31337, i)
        d_analytic = closest_approach(cfg).d
        d_oracle = oracle_distance(cfg)
        assert abs(d_analytic - d_oracle) <= 1e-7 * d_oracle


def bits(cols) -> list[np.ndarray]:
    """The columns' doubles as their bit patterns: equal means hex-equal."""
    return [np.asarray(c, dtype=np.float64).view(np.uint64) for c in cols]


@pytest.mark.parametrize("seed, start, stop, max_aspect", [
    # 20,000 indices each at four (seed, aspect) pairs
    (3, 0, 20000, 20.0),
    (11, 0, 20000, 1e3),
    (7, 0, 20000, 1e4),
    (0, 0, 20000, 20.0),
    # a block off the stratum cycle that crosses CHUNK_ROWS
    (3, bulk.CHUNK_ROWS - 7, 2 * bulk.CHUNK_ROWS + 50, 20.0),
    # blocks far down the stream: one across 2^32, one at 2^40
    (3, (1 << 32) - 5, (1 << 32) + 5, 20.0),
    (11, 1 << 40, (1 << 40) + 50, 1e3),
    # seeds of two, four and five 32-bit words
    ((1 << 32) + 5, 0, 500, 20.0),
    ((1 << 96) + 7, 0, 500, 20.0),
    ((1 << 128) + 1, 0, 500, 20.0),
    # a sequence of ints
    ([3, 7], 0, 500, 20.0),
    # circles, and near-circles in stratum 2
    (5, 0, 500, 1.0),
])
def test_stratified_columns_match_the_scalar_stream(seed, start, stop, max_aspect):
    # the block's strata masks against the scalar function's branches, one
    # index at a time, on the same draws
    got = oracle._stratified_columns(seed, start, stop, max_aspect)
    expect = columns(stratified_configuration(seed, i, max_aspect) for i in range(start, stop))
    for g, e in zip(bits(got), bits(expect)):
        assert np.array_equal(g, e)


def test_stream_rejects_negative_indices():
    # PCG64.advance would wrap a negative step round the period
    with pytest.raises(ValueError):
        stratified_configuration(3, -1)
    with pytest.raises(ValueError):
        oracle._stratified_columns(3, -1, 5)


@pytest.mark.parametrize("max_aspect", [0.5, 0.0, -1.0, math.nan, math.inf])
def test_stream_rejects_max_aspect_below_one_or_not_finite(max_aspect):
    # below 1 a shape could come out with a < b, or as a circle
    with pytest.raises(ValueError, match="max_aspect"):
        stratified_configuration(3, 0, max_aspect)
    with pytest.raises(ValueError, match="max_aspect"):
        oracle._stratified_columns(3, 0, 10, max_aspect)
    with pytest.raises(ValueError, match="max_aspect"):
        next(stratified_configurations(10, 3, max_aspect))


def test_stratified_configurations_match_the_scalar_stream():
    n = bulk.CHUNK_ROWS + 30
    got = list(stratified_configurations(n, 13, 1e3))
    expect = [stratified_configuration(13, i, 1e3) for i in range(n)]
    assert got == expect
    for g, e in zip(bits(columns(got)), bits(columns(expect))):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("seed", [[3, 7], (1 << 40, 5), np.array([3, 7], dtype=np.uint32)])
def test_stratified_configurations_take_any_entropy(seed):
    # numpy takes a sequence of ints as a seed; the blocks take it too
    got = list(stratified_configurations(7, seed))
    assert got == [stratified_configuration(seed, i) for i in range(7)]


def fresh_draws(seed, start, stop):
    """oracle._draws as a PCG64 seeded for the call gives them."""
    bits = np.random.PCG64(np.random.SeedSequence(seed)).advance(oracle._DRAWS * start)
    return np.random.Generator(bits).random((stop - start, oracle._DRAWS))


def test_draws_equal_a_freshly_seeded_generator():
    # an int seed's seeded state is cached and loaded into one PCG64 per
    # thread: interleaved int, bool and sequence seeds, scalar calls and
    # blocks must still draw what a PCG64 seeded for the call draws
    calls = [(3, 0, 5), (7, 2, 3), (3, 1, 2), ([3, 7], 0, 4), (3, 4, 5), (True, 0, 3),
             ((1 << 70) + 1, 10, 12), (7, 0, 1), (3, 0, 2000), (7, 1 << 40, (1 << 40) + 3)]
    for seed, start, stop in calls:
        assert oracle._draws(seed, start, stop, 20.0).tobytes() == fresh_draws(seed, start, stop).tobytes()
        stratified_configuration(seed, stop + 3)
    # a block right after a scalar call of the same seed, against the
    # uncached chain of the sequence seed [3] (the same entropy as 3)
    stratified_configuration(3, 17)
    got = oracle._stratified_columns(3, 0, 30)
    expect = columns(stratified_configuration([3], i) for i in range(30))
    for g, e in zip(bits(got), bits(expect)):
        assert np.array_equal(g, e)


def test_draws_in_threads_at_once():
    # more threads than cores, each drawing its own seed's blocks, switched
    # as often as the interpreter allows so that they interleave in _draws
    seeds = (3, 7, 11, 13)
    expect = {(s, i): fresh_draws(s, i, i + 2).tobytes() for s in seeds for i in range(150)}
    start, wrong = threading.Barrier(len(seeds)), []

    def work(seed):
        start.wait()
        for i in range(150):
            wrong.extend([(seed, i)] * (oracle._draws(seed, i, i + 2, 20.0).tobytes() != expect[seed, i]))

    threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_verify_random_report():
    report = verify_random(trials=60, seed=5, tolerance=1e-7, workers=1)
    assert report.trials == 60
    assert report.max_rel_err <= 1e-7
    assert not report.failures


def test_verify_zero_tolerance_fails():
    report = verify_random(trials=10, seed=5, tolerance=0.0, workers=1)
    assert report.failures  # float arithmetic cannot meet an exact match


def test_verify_parallel_consistent():
    # three blocks, the last one short, over one or two processes; a
    # zero tolerance lists every trial, so the failure lists compare too
    trials = 2 * bulk.CHUNK_ROWS + 7
    serial = verify_random(trials=trials, seed=9, tolerance=0.0, workers=1)
    parallel = verify_random(trials=trials, seed=9, tolerance=0.0, workers=2)
    assert serial == parallel
    assert serial.trials == trials and serial.max_rel_err <= 1e-7


def test_verify_keeps_no_block_once_counted():
    # each block is folded into the report as it arrives, so the peak
    # memory does not grow with the trial count
    def peak(blocks):
        tracemalloc.start()
        try:
            verify_random(trials=blocks * bulk.CHUNK_ROWS, seed=3, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verify_random(trials=10, seed=3, workers=1)
    assert peak(8) < peak(2) + 128 * bulk.CHUNK_ROWS


@pytest.mark.parametrize("trials, tolerance", [
    (0, 1e-7),
    (-1, 1e-7),
    (2, float("nan")),
    (2, float("inf")),
    (2, -1e-7),
])
def test_verify_rejects_vacuous_runs(trials, tolerance):
    # no trials, or a tolerance no error can exceed, would pass on no work
    with pytest.raises(ValueError):
        verify_random(trials=trials, seed=3, tolerance=tolerance, workers=1)


def test_verify_solves_deferred_rows_with_the_scalar_kernel(monkeypatch):
    # no row of the stream is left to the scalar path; were every row left
    # to it, closest_approach would answer each and the report be the same
    expect = verify_random(trials=4, seed=7, tolerance=1.0, workers=1)
    real, calls = oracle.closest_approach, []

    def all_scalar(*cols):
        res = real_arrays(*cols)
        return res._replace(scalar=np.ones_like(res.scalar))

    real_arrays = oracle.bulk.contact_arrays
    monkeypatch.setattr(oracle.bulk, "contact_arrays", all_scalar)
    monkeypatch.setattr(oracle, "closest_approach", lambda cfg: calls.append(cfg) or real(cfg))
    assert verify_random(trials=4, seed=7, tolerance=1.0, workers=1) == expect
    assert len(calls) == 4
    cfgs = list(stratified_configurations(4, 7))
    ref = support_distances(*columns(cfgs)).tolist()
    errs = [abs(real(cfg).d - r) / r for cfg, r in zip(cfgs, ref)]
    assert expect.max_rel_err == max(errs) and expect.mean_rel_err == sum(errs) / 4


@pytest.mark.parametrize(
    "max_aspect, seed", [(20.0, 11), (1e3, 3), (1e4, 5), (1e6, 11), (1e6, 5)]
)
def test_support_distances_against_mpmath(max_aspect, seed):
    # the oracle's own reference: 60-digit arithmetic at the bisected angle;
    # at 10^6 measured 4.3e-16 and 2.9e-16, where a fixed 44 halvings of
    # the bracket read 1.1e-15 and 1.9e-15
    mp = pytest.importorskip("mpmath")
    cfgs = list(stratified_configurations(200, seed, max_aspect))
    got = support_distances(*columns(cfgs))
    worst = max(abs(g - float(ref)) / float(ref)
                for g, ref in zip(got.tolist(), mp_support_distance(cfgs, mp)))
    assert worst <= 1e-15


@pytest.mark.parametrize("max_aspect, seed", [(20.0, 11), (1e3, 3), (1e4, 5)])
def test_support_distances_within_4e16_of_mpmath(max_aspect, seed):
    # a tighter gate beside the one above: the Newton iteration stops with
    # the normal's angle off by far less than its last step of at most
    # 2^-36 rad, and that error enters the stationary quotient only
    # squared, so what is left is the quotient's own rounding; measured
    # 3.7e-16, 4.0e-16 and 3.8e-16
    mp = pytest.importorskip("mpmath")
    cfgs = list(stratified_configurations(200, seed, max_aspect))
    got = support_distances(*columns(cfgs))
    worst = max(abs(g - float(ref)) / float(ref)
                for g, ref in zip(got.tolist(), mp_support_distance(cfgs, mp)))
    assert worst <= 4e-16


@pytest.mark.parametrize("max_aspect", [20.0, 1e3, 1e4])
def test_support_distances_match_a_64_halving_bisection(max_aspect):
    # on 20,000 rows, the oracle against its quotient at the normal angle
    # of 64 midpoint halvings; measured <= 6.3e-16 on seeds 11 and 5
    cols = columns(list(stratified_configurations(20_000, 11, max_aspect)))
    a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy = cols
    t = bisected_normal_angles(cols)
    nx, ny = np.cos(t), np.sin(t)
    total = 0.0
    for a, b, kx, ky in ((a1, b1, k1x, k1y), (a2, b2, k2x, k2y)):
        knorm = np.hypot(kx, ky)
        c, s = oracle._dot2(kx, nx, ky, ny) / knorm, oracle._dot2(kx, ny, -ky, nx) / knorm
        total = total + np.sqrt(a * a * c * c + b * b * s * s)
    ref = total * np.hypot(dx, dy) / oracle._dot2(nx, dx, ny, dy)
    assert np.max(abs(support_distances(*cols) - ref) / ref) <= 1e-15


@pytest.mark.parametrize("max_aspect, seed", [(20.0, 11), (1e3, 3), (1e4, 5), (1e6, 11)])
def test_support_distances_against_perram_wertheim(max_aspect, seed):
    # the check that shares no formula with the support function: Perram
    # and Wertheim's contact function in 60 digits; measured 3.7e-16,
    # 2.8e-16, 3.2e-16 and 3.4e-16 off.  The two 60-digit references
    # differ by 1.4e-26, 5.5e-26, 6.5e-25 and 5.1e-21
    mp = pytest.importorskip("mpmath")
    cfgs = list(stratified_configurations(100, seed, max_aspect))
    pw = mp_perram_wertheim_distance(cfgs, mp)
    got = support_distances(*columns(cfgs))
    assert max(abs(g - float(p)) / float(p) for g, p in zip(got.tolist(), pw)) <= 1e-15
    assert max(abs(p - q) / q for p, q in zip(pw, mp_support_distance(cfgs, mp))) <= 1e-18


def test_oracle_distance_is_support_distances_of_one_row():
    # bit for bit; a block of rows steps until its slowest row stops, so
    # each row is solved on its own here
    for cfg in stratified_configurations(1000, 29, 1e4):
        assert oracle_distance(cfg) == support_distances(*columns([cfg]))[0]


def test_support_distances_scale_free_in_directions():
    # directions of any length give the distance of the unit ones
    cfgs = list(stratified_configurations(40, 23))
    a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy = columns(cfgs)
    unit = support_distances(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy)
    scaled = support_distances(a1, b1, a2, b2, 3.0 * k1x, 3.0 * k1y,
                               0.25 * k2x, 0.25 * k2y, 7.0 * dx, 7.0 * dy)
    assert np.all(abs(scaled - unit) <= 1e-15 * unit)


def test_support_distances_closed_forms():
    # circles: r1 + r2; parallel ellipses: a1 + a2 along the axis, b1 + b2
    # across it; at the scales of the aspect-10^6 stream too, and with dhat
    # exactly perpendicular to k
    x = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    got = support_distances(
        [1.0, 2.0, 2.0, 2.0, 1e6, 3e5, 1e-6],
        [1.0, 2.0, 1.0, 1.0, 1.0, 0.3, 1e-6],
        [2.0, 0.5, 2.0, 2.0, 2e6, 2.7e6, 1e6],
        [2.0, 0.5, 1.0, 1.0, 2.0, 2.7, 1e6],
        x, y, x, y,
        np.array([0.6, -0.8, 1.0, 1.0, 1.0, 0.0, 0.0]),
        np.array([0.8, 0.6, 0.0, 0.0, 0.0, 1.0, 1.0]),
    )
    want = [3.0, 2.5, 4.0, 2.0, 3e6, 0.3 + 2.7, 1e-6 + 1e6]
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def test_support_distances_scale_with_the_shapes():
    # d scales with the semi-axes, far beyond the stream's scales
    cols = [np.array(c) for c in columns(list(stratified_configurations(200, 13, 1e3)))]
    ref = support_distances(*cols)
    for scale in (1e-100, 1e100):
        got = support_distances(*(c * scale for c in cols[:4]), *cols[4:]) / scale
        assert np.all(abs(got - ref) <= 1e-15 * ref)


def test_support_distances_of_an_empty_block():
    got = support_distances(*([np.array([])] * 10))
    assert got.shape == (0,) and got.dtype == np.float64


def support_steps(monkeypatch, cols):
    """support_distances of the columns, and the Newton steps it took: one
    np.cos call per step, and one for the final quotient."""
    cos, calls = np.cos, []
    with monkeypatch.context() as m:
        m.setattr(np, "cos", lambda t: calls.append(1) or cos(t))
        got = support_distances(*cols)
    return got, len(calls) - 1


def test_support_distances_nan_row_holds_no_block(monkeypatch):
    # a row with a nan input comes out nan, and the other rows take the
    # same steps, to the same bits, as without it
    cols = [np.array(c) for c in columns(list(stratified_configurations(100, 3)))]
    clean, clean_steps = support_steps(monkeypatch, cols)
    cols[0][7] = cols[9][9] = math.nan
    got, nan_steps = support_steps(monkeypatch, cols)
    assert np.flatnonzero(np.isnan(got)).tolist() == [7, 9]
    keep = ~np.isnan(got)
    assert np.array_equal(got[keep], clean[keep])
    assert nan_steps == clean_steps < oracle._MAX_STEPS


@pytest.mark.parametrize("max_aspect, most", [(20.0, 16), (1e6, 32)])
def test_support_distances_steps_per_block(monkeypatch, max_aspect, most):
    # 100-row blocks of the stream converge in a few Newton steps: measured
    # at most 13 at aspect 20 and 27 at 10^6 on 20,000 rows each of seeds
    # 11 and 5
    for start in range(0, 2000, 100):
        cols = oracle._stratified_columns(11, start, start + 100, max_aspect)
        assert support_steps(monkeypatch, cols)[1] <= most
