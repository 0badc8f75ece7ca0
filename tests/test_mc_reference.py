"""The MC hot path against a reference loop and against the kernel verdict.

The reference below is the plain form of the sweep and the audit: numpy
scalar reads, every particle a candidate (no cell list, no sort in x), one
``Generator.uniform`` call per draw, and a pair predicate
that only prefilters on b_i + b_j <= d <= a_i + a_j before calling the
contact kernel.  The production loop must reproduce it byte for byte, and
its support-function bounds must never change a kernel verdict.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipse_contact import (
    EllipseShape,
    MCConfig,
    OverlapVerdict,
    PairConfiguration,
    UnitVec2,
    Vec2,
    closest_approach,
    init_state,
    mcsim,
    overlap,
)
from ellipse_contact.contact import TANGENT_RTOL


# ---------------------------------------------------------------------------
# reference loop

def ref_pair_clear(shape_i, shape_j, ui, uj, dx, dy):
    sep_sq = dx * dx + dy * dy
    reach = shape_i.a + shape_j.a
    if sep_sq >= reach * reach:
        return True
    core = shape_i.b + shape_j.b
    if sep_sq < core * core * (1.0 - 4.0 * TANGENT_RTOL):
        return False
    cfg = PairConfiguration(
        shape_i, shape_j, UnitVec2(ui[0], ui[1]), UnitVec2(uj[0], uj[1]),
        UnitVec2(dx, dy),
    )
    return math.hypot(dx, dy) >= closest_approach(cfg).d * (1.0 - TANGENT_RTOL)


def ref_min_image(dx, dy, lx, ly):
    return dx - lx * round(dx / lx), dy - ly * round(dy / ly)


def ref_shape(state, i):
    return state.shapes[state.species_index[i]]


def ref_mc_sweep(state, cfg, rng):
    lx, ly = state.box
    sweep_stats = mcsim.MoveStats()
    for i in range(state.n_particles()):
        disp = rng.uniform(-cfg.max_translation, cfg.max_translation, 2)
        angle = rng.uniform(-cfg.max_rotation, cfg.max_rotation)
        x = (state.positions[i, 0] + disp[0]) % lx
        y = (state.positions[i, 1] + disp[1]) % ly
        c, s = math.cos(angle), math.sin(angle)
        ux0, uy0 = state.orientations[i]
        ux, uy = c * ux0 - s * uy0, s * ux0 + c * uy0
        ok = True
        for j in range(state.n_particles()):  # every particle, not the stencil's
            if j == i:
                continue
            dx, dy = ref_min_image(
                state.positions[j, 0] - x, state.positions[j, 1] - y, lx, ly
            )
            if not ref_pair_clear(
                ref_shape(state, i), ref_shape(state, j), (ux, uy),
                (state.orientations[j, 0], state.orientations[j, 1]), dx, dy,
            ):
                ok = False
                break
        sweep_stats.attempted += 1
        if ok:
            sweep_stats.accepted += 1
            state.positions[i, 0] = x
            state.positions[i, 1] = y
            state.orientations[i, 0] = ux
            state.orientations[i, 1] = uy
            state.move_to_cell(i, state.cell_index(x, y))
        state.rotations_since_renorm += 1
        if state.rotations_since_renorm >= mcsim._RENORM_EVERY:
            norms = np.hypot(state.orientations[:, 0], state.orientations[:, 1])
            state.orientations /= norms[:, None]
            state.rotations_since_renorm = 0
    state.stats.attempted += sweep_stats.attempted
    state.stats.accepted += sweep_stats.accepted
    return sweep_stats


def ref_species_order(counts):
    n = sum(counts)
    quota = [0.0] * len(counts)
    assigned = [0] * len(counts)
    order = []
    for _ in range(n):
        for s in range(len(counts)):
            quota[s] += counts[s] / n
        pick = max(
            (s for s in range(len(counts)) if assigned[s] < counts[s]),
            key=lambda s: quota[s] - assigned[s],
        )
        assigned[pick] += 1
        order.append(pick)
    return order


def ref_audit_calls(state):
    """The pairs the audit must check, in order, each with the arguments
    of its pair check."""
    lx, ly = state.box
    pos = state.positions
    dx = pos[:, 0][None, :] - pos[:, 0][:, None]
    dy = pos[:, 1][None, :] - pos[:, 1][:, None]
    dx -= lx * np.round(dx / lx)
    dy -= ly * np.round(dy / ly)
    reach = max(s.a for s in state.shapes) * 2.0
    ii, jj = np.nonzero(np.triu(dx * dx + dy * dy < reach * reach, k=1))
    calls = []
    for i, j in zip(ii.tolist(), jj.tolist()):
        ddx, ddy = ref_min_image(
            pos[j, 0] - pos[i, 0], pos[j, 1] - pos[i, 1], lx, ly
        )
        calls.append(((i, j), (
            ref_shape(state, i), ref_shape(state, j),
            (state.orientations[i, 0], state.orientations[i, 1]),
            (state.orientations[j, 0], state.orientations[j, 1]), ddx, ddy,
        )))
    return calls


def ref_audit_overlaps(state):
    return [pair for pair, args in ref_audit_calls(state) if not ref_pair_clear(*args)]


# ---------------------------------------------------------------------------
# byte-identical trajectories and audit lists

E21 = EllipseShape(2.0, 1.0)


def mc_config(species, packing, n=48, translation=0.35, rotation=0.35):
    area = math.fsum(f * s.area() for s, f in species)
    side = math.sqrt(n * area / packing)
    return MCConfig(
        n_particles=n, species=tuple(species), box=(side, side),
        max_translation=translation, max_rotation=rotation, seed=2024,
        sweeps=30, sample_every=7,
    )


CONFIGS = {
    "2:1 at 0.4": mc_config([(E21, 1.0)], 0.4),
    "2:1 at 0.6": mc_config([(E21, 1.0)], 0.6),
    "6:1 at 0.3": mc_config([(EllipseShape(6.0, 1.0), 1.0)], 0.3),
    "(2,1)+(1.5,1.5)": mc_config(
        [(E21, 0.5), (EllipseShape(1.5, 1.5), 0.5)], 0.4),
    "(3,1)+circle": mc_config(
        [(EllipseShape(3.0, 1.0), 0.5), (EllipseShape(1.0, 1.0), 0.5)], 0.3),
    "zero translation": mc_config([(E21, 1.0)], 0.4, translation=0.0),
    "zero rotation": mc_config([(E21, 1.0)], 0.4, rotation=0.0),
    "frozen": mc_config([(E21, 1.0)], 0.4, translation=0.0, rotation=0.0),
}


def box_config(box, n, species=((E21, 1.0),)):
    return MCConfig(
        n_particles=n, species=tuple(species), box=box, max_translation=1.0,
        max_rotation=0.5, seed=2024, sweeps=30, sample_every=7,
    )


# cell grids under four cells a side, where the stencil lists a cell more
# than once or wraps both ways, and the grid a dilute box is halved to;
# each with the grid it must get
GRIDS = {
    "2x2": (box_config((10.0, 10.0), 6), (2, 2)),
    "2x5": (box_config((10.0, 22.0), 14), (2, 5)),
    "3x3": (box_config((13.0, 13.0), 14), (3, 3)),
    "4x4": (box_config((17.0, 17.0), 24), (4, 4)),
    "15x1": (box_config((121.0, 9.0), 12), (15, 1)),
    "1x15": (box_config((9.0, 121.0), 12), (1, 15)),
    "three species": (box_config((15.0, 15.0), 12, [
        (E21, 0.5), (EllipseShape(1.5, 1.5), 0.25), (EllipseShape(1.0, 0.4), 0.25),
    ]), (3, 3)),
    # exactly twice the reach 2 * a_max wide: the least box MCConfig admits
    "box of 2 reach": (box_config((8.0, 24.0), 10), (2, 6)),
}


def run_text(cfg):
    out = io.StringIO()
    summary = mcsim.run_simulation(cfg, out, audit=True)
    assert summary["audit_failures"] == 0
    return out.getvalue()


@pytest.mark.parametrize("name", CONFIGS)
def test_trajectory_matches_reference_loop(name, monkeypatch):
    cfg = CONFIGS[name]
    fast = run_text(cfg)
    monkeypatch.setattr(mcsim, "mc_sweep", ref_mc_sweep)
    monkeypatch.setattr(mcsim, "audit_overlaps", ref_audit_overlaps)
    assert fast == run_text(cfg)


def test_renormalization_matches_reference_loop(monkeypatch):
    # renormalize mid-sweep every few dozen moves instead of every million
    monkeypatch.setattr(mcsim, "_RENORM_EVERY", 37)
    cfg = CONFIGS["2:1 at 0.4"]
    fast = run_text(cfg)
    monkeypatch.setattr(mcsim, "mc_sweep", ref_mc_sweep)
    monkeypatch.setattr(mcsim, "audit_overlaps", ref_audit_overlaps)
    assert fast == run_text(cfg)


@pytest.mark.parametrize("name", GRIDS)
def test_small_grid_trajectory_matches_all_pairs_reference(name, monkeypatch):
    cfg, cells = GRIDS[name]
    assert init_state(cfg).n_cells == cells
    calls, pair_clear = [], mcsim._pair_clear

    def counting(*args):
        calls.append(args)
        return pair_clear(*args)

    monkeypatch.setattr(mcsim, "mc_sweep", ref_mc_sweep)
    monkeypatch.setattr(mcsim, "audit_overlaps", ref_audit_overlaps)
    reference = run_text(cfg)
    monkeypatch.undo()
    monkeypatch.setattr(mcsim, "_pair_clear", counting)
    assert run_text(cfg) == reference
    assert calls, "no pair came within reach"


def test_species_order_matches_reference():
    rng = np.random.default_rng(5)
    cases = [[1], [3, 3, 3], [0, 4], [7, 0, 2], [1, 1, 1, 1]]
    for _ in range(3000):
        counts = rng.integers(0, 13, rng.integers(1, 5)).tolist()
        if sum(counts):
            cases.append(counts)
    for counts in cases:
        assert mcsim._species_order(counts) == ref_species_order(counts), counts


@pytest.mark.parametrize("name", [*CONFIGS, *GRIDS])
def test_lattice_matches_scalar_arithmetic(name):
    cfg = CONFIGS[name] if name in CONFIGS else GRIDS[name][0]
    state = init_state(cfg)
    lx, ly = cfg.box
    positions = state.positions.tolist()
    gx = len({x for x, _ in positions})
    gy = math.ceil(cfg.n_particles / gx)
    assert positions == [
        [(i % gx + 0.5) * lx / gx, (i // gx + 0.5) * ly / gy] for i in range(cfg.n_particles)
    ]
    assert state.species_index.tolist() == ref_species_order(cfg.species_counts())


@pytest.mark.parametrize("name", CONFIGS)
def test_audit_lists_match_reference(name):
    # scramble an equilibrated state so that it holds many overlaps, then
    # compare the two audits pair for pair
    cfg = CONFIGS[name]
    state = init_state(cfg)
    rng = np.random.default_rng(7)
    for _ in range(5):
        mcsim.mc_sweep(state, cfg, rng)
    n = state.n_particles()
    movers = rng.choice(n, size=n // 3, replace=False)
    state.positions[movers] = (
        state.positions[movers] + rng.uniform(-1.5, 1.5, (len(movers), 2))
    ) % np.array(state.box)
    theta = rng.uniform(0.0, 2.0 * math.pi, len(movers))
    state.orientations[movers] = np.column_stack([np.cos(theta), np.sin(theta)])
    bad = mcsim.audit_overlaps(state)
    assert bad, "scrambled state should overlap somewhere"
    assert bad == ref_audit_overlaps(state)


@pytest.mark.parametrize("name", GRIDS)
def test_audit_calls_match_reference(name, monkeypatch):
    # the audit's x window must hand the predicate every pair within reach,
    # in (i, j) order, once, with the all-pairs table's separation: on a
    # scrambled state, with particles at x = 0, x = L and y = L, a pair
    # exactly reach apart in x and a pair one ulp closer (in the box of
    # 2 reach, that pair is also reach + 1 ulp apart across the wrap)
    cfg, _ = GRIDS[name]
    state = init_state(cfg)
    rng = np.random.default_rng(11)
    for _ in range(3):
        mcsim.mc_sweep(state, cfg, rng)
    n = state.n_particles()
    state.positions[:] = (
        state.positions + rng.uniform(-1.5, 1.5, (n, 2))
    ) % np.array(state.box)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    state.orientations[:] = np.column_stack([np.cos(theta), np.sin(theta)])
    lx, ly = state.box
    reach = 2.0 * max(s.a for s in state.shapes)
    pins = [
        (0.0, 1.0), (lx, 1.5),  # a pair across the wrap in x
        (3.0, ly), (3.2, 0.3),  # a pair across the wrap in y
        (1.0, 5.0), (1.0 + reach, 5.0),
        (1.0, 7.5), (math.nextafter(1.0 + reach, 0.0), 7.5),
    ]
    for i, pin in zip(range(n), pins):
        state.positions[i] = pin

    calls, pair_clear = [], mcsim._pair_clear

    def counting(*args):
        calls.append(args)
        return pair_clear(*args)

    monkeypatch.setattr(mcsim, "_pair_clear", counting)
    bad = mcsim.audit_overlaps(state)
    expected = ref_audit_calls(state)
    assert [(si, sj, tuple(ui), tuple(uj), dx, dy) for si, sj, ui, uj, dx, dy in calls] == [
        args for _, args in expected
    ]
    assert bad == ref_audit_overlaps(state)
    assert (0, 1) in [pair for pair, _ in expected]


@pytest.mark.parametrize("name", ["2:1 at 0.4", "6:1 at 0.3"])
def test_bounds_leave_few_pairs_to_the_kernel(name, monkeypatch):
    # with a radial lower bound in place of the refined bounds, the ladder
    # called the kernel 0.353 and 1.006 times per trial move on these runs;
    # with them, none of their pairs comes within the bounds' band
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return closest_approach(cfg)

    monkeypatch.setattr(mcsim, "closest_approach", counting)
    cfg = CONFIGS[name]
    summary = mcsim.run_simulation(cfg, io.StringIO())
    assert summary["attempted"] == cfg.n_particles * cfg.sweeps
    assert len(calls) <= 0.01 * summary["attempted"]


# ---------------------------------------------------------------------------
# the bounds never change a kernel verdict

def support(shape, k, u):
    c, s = k[0] * u[0] + k[1] * u[1], k[0] * u[1] - k[1] * u[0]
    return math.sqrt((shape.a * c) ** 2 + (shape.b * s) ** 2)


def radial(shape, k, u):
    c, s = k[0] * u[0] + k[1] * u[1], k[0] * u[1] - k[1] * u[0]
    return shape.a * shape.b / math.sqrt((shape.b * c) ** 2 + (shape.a * s) ** 2)


def support_point(shape, k, n):
    """h(n), the support point and the radius of curvature there, for the
    ellipse along k and a unit normal n."""
    kn, pn = k[0] * n[0] + k[1] * n[1], k[0] * n[1] - k[1] * n[0]
    h = math.sqrt((shape.a * kn) ** 2 + (shape.b * pn) ** 2)
    a2, b2 = shape.a ** 2, shape.b ** 2
    point = ((a2 * kn * k[0] - b2 * pn * k[1]) / h, (a2 * kn * k[1] + b2 * pn * k[0]) / h)
    return h, point, (shape.a * shape.b) ** 2 / h ** 3


def refined_bounds(shape_i, shape_j, ki, kj, u):
    """The least upper bound H(n) / n.u and the greatest chord crossing
    along the Newton steps of _pair_clear's fourth rung, written with
    vectors: n at angle t from u, support points P(n) of K = K_i + K_j."""
    perp = (-u[1], u[0])
    core = shape_i.b + shape_j.b
    points = {}  # the latest point of K on each side of the line
    upper, lower = math.inf, 0.0
    t = 0.0
    for step in range(mcsim._NEWTON_STEPS + 1):
        n = (math.cos(t) * u[0] + math.sin(t) * perp[0],
             math.cos(t) * u[1] + math.sin(t) * perp[1])
        h_i, p_i, rho_i = support_point(shape_i, ki, n)
        h_j, p_j, rho_j = support_point(shape_j, kj, n)
        p = (p_i[0] + p_j[0], p_i[1] + p_j[1])
        along, across = p[0] * u[0] + p[1] * u[1], p[0] * perp[0] + p[1] * perp[1]
        if step == 0:
            t_max = math.acos(min(core / (h_i + h_j), 1.0))
            bracket = {True: 0.0, False: -t_max} if across >= 0.0 else {True: t_max, False: 0.0}
            points[across < 0.0] = (0.0, core if across < 0.0 else -core)
        else:
            upper = min(upper, (h_i + h_j) / math.cos(t))
            bracket[across >= 0.0] = t
        points[across >= 0.0] = (along, across)
        (nx, ny), (px, py) = points[False], points[True]
        if step > 0:
            lower = max(lower, px + (nx - px) * (py / (py - ny)))
        t -= across / ((rho_i + rho_j) * math.cos(t))
        if not bracket[False] <= t <= bracket[True]:
            t = 0.5 * (bracket[False] + bracket[True])
    return upper, lower


@st.composite
def shapes(draw):
    b = draw(st.floats(0.3, 3.0))
    aspect = draw(st.one_of(st.just(1.0), st.just(20.0), st.floats(1.0, 20.0)))
    return EllipseShape(b * aspect, b)


@st.composite
def directions(draw, ref):
    """A unit vector: exactly parallel or perpendicular to ``ref``, along an
    axis, or at an arbitrary angle."""
    kind = draw(st.sampled_from(["parallel", "perpendicular", "axis", "any"]))
    if kind == "parallel":
        return ref
    if kind == "perpendicular":
        return (-ref[1], ref[0])
    if kind == "axis":
        return draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    return (math.cos(theta), math.sin(theta))


@st.composite
def pair_cases(draw):
    shape_i, shape_j = draw(shapes()), draw(shapes())
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    ki = draw(st.sampled_from([(1.0, 0.0), (math.cos(theta), math.sin(theta))]))
    kj = draw(directions(ki))
    u = draw(directions(ki))
    h = support(shape_i, ki, u) + support(shape_j, kj, u)
    r = radial(shape_i, ki, u) + radial(shape_j, kj, u)
    upper, lower = refined_bounds(shape_i, shape_j, ki, kj, u)
    edges = [
        bound * (1.0 + sign * 4.0 * TANGENT_RTOL)
        for bound in (h, r, upper, lower) if 0.0 < bound < math.inf
        for sign in (1.0, -1.0)
    ]
    sep = draw(st.one_of(
        st.sampled_from(edges),
        st.floats(shape_i.b + shape_j.b, shape_i.a + shape_j.a),
    ))
    for _ in range(draw(st.integers(0, 1))):
        sep = math.nextafter(sep, draw(st.sampled_from([0.0, math.inf])))
    return shape_i, shape_j, ki, kj, u, sep


@settings(max_examples=600, deadline=None)
@given(pair_cases())
def test_bounds_keep_kernel_verdict(case):
    shape_i, shape_j, ki, kj, u, sep = case
    dx, dy = sep * u[0], sep * u[1]
    cfg = PairConfiguration(
        shape_i, shape_j, UnitVec2(*ki), UnitVec2(*kj), UnitVec2(dx, dy)
    )
    d = closest_approach(cfg).d
    kernel_clear = math.hypot(dx, dy) >= d * (1.0 - TANGENT_RTOL)
    assert mcsim._pair_clear(shape_i, shape_j, ki, kj, dx, dy) == kernel_clear
    # the kernel's relative error stays below 1e-13 on these pairs (it was
    # ~1e-11 for 20:1 pairs meeting at right angles before lambda_minus
    # came from the determinant), so the bounds hold to 1e-12: far inside
    # the 3 * TANGENT_RTOL margin that keeps the prefilter verdicts exact
    h = support(shape_i, ki, u) + support(shape_j, kj, u)
    r = radial(shape_i, ki, u) + radial(shape_j, kj, u)
    assert r <= d * (1.0 + 1e-12)
    assert d <= h * (1.0 + 1e-12)
    # the refined bounds of the fourth rung hold to the same 1e-12
    upper, lower = refined_bounds(shape_i, shape_j, ki, kj, u)
    assert lower <= d * (1.0 + 1e-12)
    assert d <= upper * (1.0 + 1e-12)


def test_pair_clear_and_overlap_agree_at_the_band_edge():
    # (2,1) pairs at separations within 4 ulps of d (1 - TANGENT_RTOL),
    # where only the kernel rung decides: _pair_clear calls a pair clear
    # exactly where overlap() does not say OVERLAPPING
    shape = EllipseShape(2.0, 1.0)
    ki = UnitVec2(math.cos(0.3), math.sin(0.3))
    u = UnitVec2(math.cos(1.1), math.sin(1.1))
    verdicts = []
    for deg in range(0, 180, 7):
        kj = UnitVec2(math.cos(math.radians(deg)), math.sin(math.radians(deg)))
        sep = closest_approach(PairConfiguration(shape, shape, ki, kj, u)).d * (1.0 - TANGENT_RTOL)
        for _ in range(4):
            sep = math.nextafter(sep, 0.0)
        for _ in range(9):
            dx, dy = sep * u.x, sep * u.y
            verdict = overlap(shape, shape, ki, kj, Vec2(dx, dy))
            clear = mcsim._pair_clear(shape, shape, (ki.x, ki.y), (kj.x, kj.y), dx, dy)
            assert clear == (verdict is not OverlapVerdict.OVERLAPPING), (deg, sep)
            verdicts.append(verdict)
            sep = math.nextafter(sep, math.inf)
    assert len(verdicts) == 234
    assert set(verdicts) == {OverlapVerdict.OVERLAPPING, OverlapVerdict.TANGENT}
