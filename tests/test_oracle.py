import math

import pytest

from ellipse_contact import (
    EllipseShape,
    NoPhysicalRoot,
    NonConvergence,
    OracleSettings,
    PairConfiguration,
    UnitVec2,
    closest_approach,
    oracle_circle_ellipse_distance,
    oracle_distance,
)
from ellipse_contact import oracle
from ellipse_contact.oracle import (
    MAX_BOUNDARY_SAMPLES,
    stratified_configuration,
    verify_random,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        OracleSettings(boundary_samples=32)
    with pytest.raises(ValueError):
        OracleSettings(bisection_tol=0.0)
    with pytest.raises(ValueError):
        OracleSettings(refine_iters=0)
    # the sample cap is checked before any table is built
    OracleSettings(boundary_samples=MAX_BOUNDARY_SAMPLES)
    for samples in (MAX_BOUNDARY_SAMPLES + 1, 2_000_000_000):
        with pytest.raises(ValueError):
            OracleSettings(boundary_samples=samples)


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


def test_cauchy_self_consistency():
    # halving the tolerance changes the result by less than the coarser one
    cfg = stratified_configuration(12, 7)
    coarse = oracle_distance(cfg, OracleSettings(bisection_tol=1e-8))
    fine = oracle_distance(cfg, OracleSettings(bisection_tol=5e-9))
    assert abs(coarse - fine) <= 1e-8 * coarse


def test_non_convergence_budget():
    cfg = stratified_configuration(12, 3)
    with pytest.raises(NonConvergence):
        oracle_distance(cfg, OracleSettings(bisection_tol=1e-12, refine_iters=5))


def test_matches_analytic_on_small_sweep():
    settings = OracleSettings()
    for i in range(150):
        cfg = stratified_configuration(31337, i)
        d_analytic = closest_approach(cfg).d
        d_oracle = oracle_distance(cfg, settings)
        assert abs(d_analytic - d_oracle) <= 1e-7 * d_oracle


def test_verify_random_report():
    report = verify_random(trials=60, seed=5, tolerance=1e-7, workers=1)
    assert report.trials == 60
    assert report.max_rel_err <= 1e-7
    assert not report.failures
    assert report.root_failures == 0


def test_verify_zero_tolerance_fails():
    report = verify_random(trials=10, seed=5, tolerance=0.0, workers=1)
    assert report.failures  # float arithmetic cannot meet an exact match


def test_verify_parallel_consistent():
    serial = verify_random(trials=24, seed=9, tolerance=1e-7, workers=1)
    parallel = verify_random(trials=24, seed=9, tolerance=1e-7, workers=2)
    assert serial.max_rel_err == parallel.max_rel_err
    assert serial.mean_rel_err == parallel.mean_rel_err


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


def test_verify_counts_root_failures(monkeypatch):
    # every other kernel call raises; those trials count as root failures
    # and are listed with an infinite error, the others compare as usual
    real = oracle.closest_approach
    calls = []

    def sometimes_no_root(cfg):
        calls.append(cfg)
        if len(calls) % 2 == 0:
            raise NoPhysicalRoot("no bracket root")
        return real(cfg)

    monkeypatch.setattr(oracle, "closest_approach", sometimes_no_root)
    report = verify_random(trials=4, seed=7, tolerance=1.0, workers=1)
    assert len(calls) == 4
    assert report.root_failures == 2
    assert report.failures == [(1, math.inf), (3, math.inf)]
    assert report.max_rel_err <= 1e-7
