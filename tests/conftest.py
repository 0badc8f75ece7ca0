import math
import signal
import time
import warnings

import numpy as np
import pytest

from ellipse_contact import (
    EllipseShape,
    mcsim,
    PairConfiguration,
    QuarticCoeffs,
    UnitVec2,
    oracle_distance,
)
from ellipse_contact import bulk, quartic
from ellipse_contact.cli import main
from ellipse_contact.geometry import _ellipse_form


def form(shape: EllipseShape, k: UnitVec2) -> tuple[float, float, float]:
    """Entries (m11, m12, m22) of the quadratic form p.M.p = 1 of the
    boundary of shape with major axis k."""
    return _ellipse_form(shape.a, shape.b, k.x, k.y)


def mat_as_array(m: tuple[float, float, float]) -> np.ndarray:
    m11, m12, m22 = m
    return np.array([[m11, m12], [m12, m22]])


def on_form(m: tuple[float, float, float], p) -> float:
    """p.M.p for the form entries m, as the kernel evaluates it."""
    m11, m12, m22 = m
    return m11 * p.x * p.x + 2.0 * m12 * p.x * p.y + m22 * p.y * p.y


def flipped(u: UnitVec2) -> UnitVec2:
    """The opposite direction, -u."""
    return UnitVec2(-u.x, -u.y)


def rotated(u: UnitVec2, theta: float) -> UnitVec2:
    """u turned counter-clockwise by theta radians."""
    c, s = math.cos(theta), math.sin(theta)
    return UnitVec2(c * u.x - s * u.y, s * u.x + c * u.y)


class AngleCalls:
    """Records the arguments of every call of quartic._angle_root, which
    solves the quartics whose Ferrari root is not accepted: those of the
    scalar kernel and those of the array kernel (bulk) apart."""

    def __init__(self, monkeypatch) -> None:
        self.scalar: list[tuple[float, float, float]] = []
        self.arrays: list[tuple[float, float, float]] = []
        real = quartic._angle_root

        def spy(log):
            return lambda *args: log.append(args) or real(*args)

        monkeypatch.setattr(quartic, "_angle_root", spy(self.scalar))
        monkeypatch.setattr(bulk, "_angle_root", spy(self.arrays))


@pytest.fixture
def angle_calls(monkeypatch) -> AngleCalls:
    return AngleCalls(monkeypatch)


def random_pair(rng: np.random.Generator, max_aspect: float = 10.0) -> PairConfiguration:
    """Uniform, non-adversarial random configuration."""
    def shape():
        scale = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        aspect = math.exp(rng.uniform(0.0, math.log(max_aspect)))
        return EllipseShape(scale * aspect, scale)

    th = rng.uniform(0.0, 2.0 * math.pi, 3)
    return PairConfiguration(
        shape(), shape(),
        UnitVec2.from_angle(th[0]), UnitVec2.from_angle(th[1]),
        UnitVec2.from_angle(th[2]),
    )


def oracle_circle_ellipse_distance(
    a2p: float,
    b2p: float,
    axis: UnitVec2,
    dhat: UnitVec2,
) -> float:
    """Contact distance of the unit circle and an (a2p, b2p) ellipse.

    Validates the transformed-frame stage in isolation: oracle_distance
    with shape1 pinned to the unit circle.
    """
    cfg = PairConfiguration(
        EllipseShape(1.0, 1.0), EllipseShape(a2p, b2p), UnitVec2(1.0, 0.0), axis, dhat
    )
    return oracle_distance(cfg)


def oracle_quartic_roots(c: QuarticCoeffs) -> list[complex]:
    """All four roots by the companion-matrix method, residual-checked."""
    if c.a == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = [complex(r) for r in np.roots(c)]
    for r in roots:
        res = abs((((c.a * r + c.b) * r + c.c) * r + c.d) * r + c.e)
        scale = max(abs(c[i]) * abs(r) ** (4 - i) for i in range(5))
        if res > 1e-9 * max(scale, abs(c.e)):
            raise ArithmeticError(f"companion root {r!r} residual {res!r} too large")
    return roots


def columns(cfgs) -> list[np.ndarray]:
    """The ten columns of contact_arrays and support_distances, one row per
    configuration."""
    return [np.array(c) for c in zip(*(
        (c.shape1.a, c.shape1.b, c.shape2.a, c.shape2.b,
         c.k1.x, c.k1.y, c.k2.x, c.k2.y, c.dhat.x, c.dhat.y) for c in cfgs
    ))]


def bisected_normal_angles(cols) -> np.ndarray:
    """The angle of the contact normal of each row of the ten columns, by
    64 midpoint halvings of (theta - pi/2, theta + pi/2) in floats, theta
    the angle of dhat.

    The excluded region is K1 + K2, whose support function is h1 + h2 with
    h = sqrt(a^2 (k.n)^2 + b^2 (k x n)^2), so d = min (h1 + h2) / (n.dhat)
    over normals n with n.dhat > 0.  The minimizing normal is the one whose
    support point s1 + s2, s = (a^2 (k.n) k + b^2 (k x n) kperp) / h, lies
    along dhat, and the sign of dhat x (s1 + s2) is monotone in the angle
    of n.  Unlike oracle.support_distances, the support points are summed
    as vectors and the bracket's ends are kept."""
    a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy = cols
    theta = np.arctan2(dy, dx)
    lo, hi = theta - 0.5 * math.pi, theta + 0.5 * math.pi
    for _ in range(64):
        t = 0.5 * (lo + hi)
        nx, ny = np.cos(t), np.sin(t)
        px = py = 0.0
        for a, b, kx, ky in ((a1, b1, k1x, k1y), (a2, b2, k2x, k2y)):
            c, s = kx * nx + ky * ny, kx * ny - ky * nx
            h = np.sqrt(a * a * c * c + b * b * s * s)
            px = px + (a * a * c * kx - b * b * s * ky) / h
            py = py + (a * a * c * ky + b * b * s * kx) / h
        below = dx * py - dy * px < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
    return 0.5 * (lo + hi)


def mp_support_distance(cfgs, mp):
    """Contact distances from the support functions alone, to 60 digits:
    the quotient (h1 + h2) / (n.dhat) in 60-digit mpmath at the angle of
    bisected_normal_angles.  The quotient is stationary there, so the
    angle's rounding enters at second order, far below 1e-20 here.  It
    shares nothing with the transform or the quartic."""
    cols = columns(cfgs)
    a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy = cols
    out = []
    with mp.workdps(60):
        for i, ti in enumerate(bisected_normal_angles(cols).tolist()):
            n = (mp.cos(ti), mp.sin(ti))
            total = 0
            for a, b, kx, ky in ((a1, b1, k1x, k1y), (a2, b2, k2x, k2y)):
                k = (mp.mpf(kx[i]), mp.mpf(ky[i]))
                norm = mp.sqrt(k[0] ** 2 + k[1] ** 2)
                c = (k[0] * n[0] + k[1] * n[1]) / norm
                s = (k[0] * n[1] - k[1] * n[0]) / norm
                total += mp.sqrt(mp.mpf(a[i]) ** 2 * c ** 2 + mp.mpf(b[i]) ** 2 * s ** 2)
            along = (n[0] * dx[i] + n[1] * dy[i]) / mp.sqrt(mp.mpf(dx[i]) ** 2 + mp.mpf(dy[i]) ** 2)
            out.append(total / along)
    return out


def mp_mean_excluded_area(shape1, shape2, mp):
    """Cauchy's mean of the excluded area over a uniform relative angle,
    A1 + A2 + P1 P2 / (2 pi) (Santalo 1976; Vieillard-Baron 1972), in 40
    digits.  Each perimeter is 4 a E(1 - b^2 / a^2) from mpmath's ellipe,
    so nothing is shared with analysis._unit_perimeter."""
    with mp.workdps(40):
        (a1, b1), (a2, b2) = ((mp.mpf(s.a), mp.mpf(s.b)) for s in (shape1, shape2))
        p1, p2 = (4 * a * mp.ellipe(1 - (b / a) ** 2) for a, b in ((a1, b1), (a2, b2)))
        return float(mp.pi * (a1 * b1 + a2 * b2) + p1 * p2 / (2 * mp.pi))


def mp_perram_wertheim_distance(cfgs, mp):
    """Contact distances from Perram and Wertheim's contact function (J.
    Comput. Phys. 58:409, 1985), to 60 digits: it shares no formula with
    the support function or the quartic.

    For unit k and dhat, F(l) = l (1 - l) dhat.C(l)^-1.dhat with
    C(l) = (1 - l) A1^-1 + l A2^-1 and A^-1 = a^2 k k^T + b^2 kperp kperp^T,
    and d = 1 / sqrt(max of F over l in [0, 1]).  In 2x2 form both parts
    of F are sums of non-negative terms, F = l (1 - l) ((1 - l) N1 + l N2)
    / det C, with N = b^2 (k.dhat)^2 + a^2 (k x dhat)^2 and
    det C = (1 - l)^2 a1^2 b1^2 + l^2 a2^2 b2^2 + l (1 - l) M,
    M = (a1^2 b2^2 + b1^2 a2^2) c^2 + (a1^2 a2^2 + b1^2 b2^2) s^2 for
    c = k1.k2 and s = k1 x k2.  F is concave, and 60 golden-section steps
    find its maximum; F is stationary there, so the error in l enters d
    only squared."""
    out = []
    with mp.workdps(60):
        golden = (mp.sqrt(5) - 1) / 2

        def unit(x, y):
            norm = mp.sqrt(mp.mpf(x) ** 2 + mp.mpf(y) ** 2)
            return mp.mpf(x) / norm, mp.mpf(y) / norm

        for a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy in zip(
            *(c.tolist() for c in columns(cfgs))
        ):
            aa1, bb1, aa2, bb2 = (mp.mpf(v) ** 2 for v in (a1, b1, a2, b2))
            (u1x, u1y), (u2x, u2y), (ex, ey) = unit(k1x, k1y), unit(k2x, k2y), unit(dx, dy)
            n1 = bb1 * (u1x * ex + u1y * ey) ** 2 + aa1 * (u1x * ey - u1y * ex) ** 2
            n2 = bb2 * (u2x * ex + u2y * ey) ** 2 + aa2 * (u2x * ey - u2y * ex) ** 2
            c, s = u1x * u2x + u1y * u2y, u1x * u2y - u1y * u2x
            m = (aa1 * bb2 + bb1 * aa2) * c ** 2 + (aa1 * aa2 + bb1 * bb2) * s ** 2

            def f(lam):
                mu = 1 - lam
                det = mu ** 2 * aa1 * bb1 + lam ** 2 * aa2 * bb2 + lam * mu * m
                return lam * mu * (mu * n1 + lam * n2) / det

            lo, hi = mp.mpf(0), mp.mpf(1)
            x1, x2 = hi - golden, lo + golden
            f1, f2 = f(x1), f(x2)
            for _ in range(60):
                if f1 > f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - golden * (hi - lo)
                    f1 = f(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + golden * (hi - lo)
                    f2 = f(x2)
            out.append(1 / mp.sqrt(max(f1, f2)))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def plant_overlap(monkeypatch):
    """Call with a sweep number n: from then on mc_sweep, after its n-th
    call, moves particle 1 onto particle 0."""

    def plant(sweep_no):
        real_sweep = mcsim.mc_sweep
        calls = []

        def sweep(state, cfg, rng):
            stats = real_sweep(state, cfg, rng)
            calls.append(None)
            if len(calls) == sweep_no:
                state.positions[1] = state.positions[0]
            return stats

        monkeypatch.setattr(mcsim, "mc_sweep", sweep)

    return plant


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_bounded(capsys, *argv, seconds=5.0):
    """run_cli, but a call that outlives ``seconds`` raises instead of
    hanging the suite, and a RuntimeWarning (which a user would see on
    stderr) fails; returns the elapsed time as a fourth value."""
    def expire(signum, frame):
        raise TimeoutError(f"cli.main{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, f"cli.main{argv} warned: {runtime}"
    return code, out, err, time.monotonic() - start


def assert_input_error(capsys, *argv):
    """Exit 2 within the time bound, nothing on stdout, and one ``error:``
    line on stderr, which is returned."""
    code, out, err, elapsed = run_cli_bounded(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:")
    assert elapsed < 5.0
    return err
