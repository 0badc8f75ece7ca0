"""NVT hard-ellipse Monte Carlo with cell-list neighbor search.

Hard-particle Metropolis: a trial move is accepted exactly when it creates
no overlap, decided by the analytic contact distance along each pair's
center line under the minimum image convention.  Supports binary (or
n-ary) mixtures of different sizes.  kT is irrelevant for hard cores; the
only control parameters are the move amplitudes.

Conventions:
  * positions live in [0, Lx] x [0, Ly], periodic in both directions; L
    itself is reached only by wrap rounding, (x + dx) % L == L for a tiny
    negative sum, and cell_index clamps it to the last cell;
  * one sweep = one trial move (translation plus rotation) per particle,
    particles visited in index order;
  * the cell size is at least max(a_i + a_j) over species pairs, so any
    overlapping pair is always within adjacent cells (the kernel bound
    d <= a1 + a2 makes this safe); a grid has at most 4N + 9 cells;
  * each cell's 3x3 block of neighbors is a fixed stencil of
    (cell, shift_x, shift_y), the shift being L, 0.0 or -L as that
    neighbor wraps, and (x_j - x) - shift is the minimum image of every
    pair within reach: the box is at least twice the reach wide, so any
    other image is at least L/2 away, out of reach.  On grids 1 or 2
    cells wide a cell appears up to three times with different shifts;
    at most one of those images is within reach;
  * a fixed seed reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .contact import TANGENT_RTOL, _overlapping, closest_approach
from .geometry import EllipseShape, PairConfiguration, UnitVec2

__all__ = [
    "PackingInfeasible",
    "AuditFailure",
    "HEX_PACKING_LIMIT",
    "MCConfig",
    "MCState",
    "MoveStats",
    "load_mc_config",
    "init_state",
    "mc_sweep",
    "order_parameter",
    "audit_overlaps",
    "run_simulation",
]

# densest packing of congruent ellipses (affine image of the hexagonal
# circle packing); configurations above it are rejected outright
HEX_PACKING_LIMIT = math.pi / (2.0 * math.sqrt(3.0))

_RENORM_EVERY = 1_000_000  # rotation moves between orientation renormalizations
_AUDIT_PAIRS = 1 << 16  # candidate pairs audit_overlaps holds at once


class PackingInfeasible(ValueError):
    """Requested density cannot be realized (bound or lattice construction)."""


class AuditFailure(AssertionError):
    """The per-sweep overlap audit found overlapping pairs."""


@dataclass(frozen=True)
class MCConfig:
    """Run parameters.  species maps shape -> number fraction; fractions
    must sum to one.  max_rotation is in radians."""

    n_particles: int
    species: tuple[tuple[EllipseShape, float], ...]
    box: tuple[float, float]
    max_translation: float
    max_rotation: float
    seed: int
    sweeps: int
    sample_every: int = 100

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if not self.species:
            raise ValueError("need at least one species")
        total = math.fsum(f for _, f in self.species)
        if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails too
            raise ValueError(f"species fractions sum to {total!r}, not 1")
        if min(f for _, f in self.species) < 0.0:
            raise ValueError("species fractions must be non-negative")
        amplitudes = (self.max_translation, self.max_rotation)
        # a move is drawn from [-x, x], so its width 2x must be finite too
        if not all(x >= 0.0 and math.isfinite(2.0 * x) for x in amplitudes):
            raise ValueError(
                f"move amplitudes must be >= 0 with [-x, x] finite, got {amplitudes}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sweeps < 1 or self.sample_every < 1:
            raise ValueError(
                f"sweeps and sample_every must be >= 1, got {self.sweeps} "
                f"and {self.sample_every}"
            )
        lx, ly = self.box
        if not (math.isfinite(lx) and math.isfinite(ly)):
            raise ValueError(f"box {self.box} must be finite")
        reach = 2.0 * max(s.a for s, _ in self.species)
        if lx < 2.0 * reach or ly < 2.0 * reach:
            raise ValueError(
                f"box {self.box} too small for minimum image; need >= {2.0 * reach}"
            )
        if not self.packing_fraction() < HEX_PACKING_LIMIT:  # NaN included
            raise PackingInfeasible(
                f"packing fraction {self.packing_fraction():.4f} exceeds "
                f"{HEX_PACKING_LIMIT:.4f}"
            )

    def species_counts(self) -> list[int]:
        """Particles per species by largest remainder, summing exactly."""
        quotas = [self.n_particles * f for _, f in self.species]
        counts = [int(q) for q in quotas]
        remainders = sorted(
            range(len(quotas)), key=lambda i: quotas[i] - counts[i], reverse=True
        )
        short = self.n_particles - sum(counts)
        for i in remainders[:short]:
            counts[i] += 1
        return counts

    def packing_fraction(self) -> float:
        counts = self.species_counts()
        area = math.fsum(c * s.area() for c, (s, _) in zip(counts, self.species))
        return area / (self.box[0] * self.box[1])


@dataclass
class MoveStats:
    attempted: int = 0
    accepted: int = 0

    @property
    def acceptance(self) -> float:
        return self.accepted / self.attempted if self.attempted else 0.0


@dataclass(eq=False)
class MCState:
    """Mutable simulation state: single writer, not internally parallel."""

    positions: np.ndarray  # (N, 2)
    orientations: np.ndarray  # (N, 2), unit rows
    species_index: np.ndarray  # (N,)
    shapes: tuple[EllipseShape, ...]
    box: tuple[float, float]
    n_cells: tuple[int, int]
    cell_members: list[list[int]]
    cell_of: list[int]
    # per cell, its 3x3 block as (cell, shift_x, shift_y); see the module notes
    stencil: list[tuple[tuple[int, float, float], ...]]
    stats: MoveStats = field(default_factory=MoveStats)
    rotations_since_renorm: int = 0

    def n_particles(self) -> int:
        return len(self.positions)

    def particle_shapes(self) -> list[EllipseShape]:
        """The shape of every particle, in index order."""
        return [self.shapes[k] for k in self.species_index.tolist()]

    def cell_index(self, x: float, y: float) -> int:
        nx, ny = self.n_cells
        ix = int(x / self.box[0] * nx)
        iy = int(y / self.box[1] * ny)
        # guard against x == Lx after wrap rounding
        if ix >= nx:
            ix = nx - 1
        if iy >= ny:
            iy = ny - 1
        return ix + nx * iy

    def move_to_cell(self, i: int, new_cell: int) -> None:
        old = self.cell_of[i]
        if old == new_cell:
            return
        self.cell_members[old].remove(i)
        self.cell_members[new_cell].append(i)
        self.cell_of[i] = new_cell


# prefilter band edges, relative; _pair_clear says why they keep verdicts exact
_CLEAR_BAND = 1.0 + 4.0 * TANGENT_RTOL
_OVERLAP_BAND = 1.0 - 4.0 * TANGENT_RTOL
_NEWTON_STEPS = 8  # refinements of the contact normal before the kernel runs


def _pair_clear(
    shape_i: EllipseShape,
    shape_j: EllipseShape,
    ui: Sequence[float],
    uj: Sequence[float],
    dx: float,
    dy: float,
) -> bool:
    """True when the pair does not overlap (tangency counts as clear).

    ui and uj are the major-axis directions and (dx, dy) the minimum-image
    separation.  The verdict is overlap()'s (contact._overlapping): clear
    when hypot(dx, dy) >= d * (1 - TANGENT_RTOL), d the contact distance.
    A ladder of bounds on d settles most pairs before the kernel runs:

      1. reach: d <= a_i + a_j, so a pair at least that far apart is clear
         (mc_sweep applies this rung itself, before the call);
      2. core: d >= b_i + b_j, so a pair inside that is overlapping;
      3. upper bound: d <= h_i(u) + h_j(u), the support functions along the
         unit center line u, h = sqrt(a^2 c^2 + b^2 s^2) with c = k.u and
         s = k x u;
      4. refined bounds: d * u lies on the boundary of the excluded region
         K = K_i + K_j, whose support function is H = h_i + h_j and whose
         support point for the unit normal n is P(n) = P_i(n) + P_j(n).
         So d <= H(n) / n.u for every n with n.u > 0, with equality at the
         contact normal; and K holds every chord between two of its
         points, so a chord between points on either side of the center
         line crosses it at some L <= d.  Up to _NEWTON_STEPS Newton steps
         on the angle t between n and u drive u x P(n) to zero, its
         derivative being n.u times the sum of the radii of curvature
         a^2 b^2 / h^3; a step that leaves the bracket of angles on either
         side of the root bisects it.  After each step the pair is clear
         if sep is at least the upper bound, and overlapping if it is
         inside the chord between the latest support points on either
         side of the line (the core disc's point at b_i + b_j stands in
         for the side none has reached yet);
      5. the contact kernel for the pairs still between the bounds.

    Steps 2-4 decide only outside a band of 4 * TANGENT_RTOL (relative),
    three times wider than the kernel's tangency band and far wider than
    the kernel's error (under 1e-13 relative up to aspect 20), the rounding
    of the bounds and the drift of orientation vectors between
    renormalizations, so every decision matches the kernel verdict exactly
    and cell-list, brute-force and audit checks agree.
    """
    sep_sq = dx * dx + dy * dy
    ai, bi, aj, bj = shape_i.a, shape_i.b, shape_j.a, shape_j.b
    reach = ai + aj
    if sep_sq >= reach * reach:
        return True
    core = bi + bj
    if sep_sq < core * core * _OVERLAP_BAND:
        return False
    sep = math.sqrt(sep_sq)
    cx, cy = dx / sep, dy / sep
    kx, ky = ui
    ci, si = kx * cx + ky * cy, kx * cy - ky * cx
    kx, ky = uj
    cj, sj = kx * cx + ky * cy, kx * cy - ky * cx
    aci, bsi = ai * ci, bi * si
    acj, bsj = aj * cj, bj * sj
    hi, hj = math.sqrt(aci * aci + bsi * bsi), math.sqrt(acj * acj + bsj * bsj)
    h = hi + hj
    if sep >= h * _CLEAR_BAND:
        return True
    # rung 4, in the frame (u, u_perp) with u_perp = u turned by +90 degrees:
    # n = (cos t, sin t), k.n = c cos t - s sin t, k_perp.n = s cos t + c sin t
    ai2, bi2, aj2, bj2 = ai * ai, bi * bi, aj * aj, bj * bj
    side = (bi2 - ai2) * ci * si / hi + (bj2 - aj2) * cj * sj / hj  # u x P(u)
    # (pos_x, pos_y) and (neg_x, neg_y): the latest points of K found on
    # either side of the line, and t_pos, t_neg their angles.  u x P(n)
    # grows with t, and the contact normal lies within acos(core / H(u)) of
    # u, as d cos t = H(n) >= core there
    t = 0.0
    t_max = math.acos(min(core / h, 1.0))
    if side >= 0.0:
        pos_x, pos_y, neg_x, neg_y = h, side, 0.0, -core
        t_neg, t_pos = -t_max, t
    else:
        pos_x, pos_y, neg_x, neg_y = 0.0, core, h, side
        t_neg, t_pos = t, t_max
    cos_t, sin_t = 1.0, 0.0
    for _ in range(_NEWTON_STEPS):
        curv = ai2 * bi2 / (hi * hi * hi) + aj2 * bj2 / (hj * hj * hj)
        t -= side / (curv * cos_t)
        if not t_neg <= t <= t_pos:  # an overshoot: bisect the bracket
            t = 0.5 * (t_neg + t_pos)
        cos_t, sin_t = math.cos(t), math.sin(t)
        cti, sti = ci * cos_t - si * sin_t, si * cos_t + ci * sin_t
        ctj, stj = cj * cos_t - sj * sin_t, sj * cos_t + cj * sin_t
        hi = math.sqrt(ai2 * cti * cti + bi2 * sti * sti)
        hj = math.sqrt(aj2 * ctj * ctj + bj2 * stj * stj)
        h = hi + hj
        if sep * cos_t >= h * _CLEAR_BAND:
            return True
        side = (bi2 * sti * ci - ai2 * cti * si) / hi + (bj2 * stj * cj - aj2 * ctj * sj) / hj
        if side >= 0.0:
            pos_x, pos_y, t_pos = (h - sin_t * side) / cos_t, side, t
        else:
            neg_x, neg_y, t_neg = (h - sin_t * side) / cos_t, side, t
        # the chord's crossing, as a weighted mean that stays between the two
        # points even when pos_y and neg_y are subnormal
        if sep < (pos_x + (neg_x - pos_x) * (pos_y / (pos_y - neg_y))) * _OVERLAP_BAND:
            return False
    cfg = PairConfiguration(
        shape_i,
        shape_j,
        UnitVec2(ui[0], ui[1]),
        UnitVec2(uj[0], uj[1]),
        UnitVec2(dx, dy),
    )
    return not _overlapping(dx, dy, closest_approach(cfg).d)


def _species_order(counts: list[int]) -> list[int]:
    """The species of each lattice site, interleaved by Bresenham-style
    quotas: a site goes to the species furthest behind its quota that still
    has particles left, the first such species on ties."""
    n = sum(counts)
    rates = [c / n for c in counts]
    quota = [0.0] * len(counts)
    assigned = [0] * len(counts)
    order = []
    for _ in range(n):
        pick, lag = 0, -math.inf
        for s, rate in enumerate(rates):
            quota[s] += rate
            if assigned[s] < counts[s] and quota[s] - assigned[s] > lag:
                pick, lag = s, quota[s] - assigned[s]
        assigned[pick] += 1
        order.append(pick)
    return order


def init_state(cfg: MCConfig) -> MCState:
    """Particles on a dilated rectangular lattice, all oriented along x.

    Lattice pitches of twice the largest semi-axes guarantee a start with
    zero overlaps; PackingInfeasible if the box cannot hold the particles
    that way.
    """
    lx, ly = cfg.box
    max_a = max(s.a for s, _ in cfg.species)
    max_b = max(s.b for s, _ in cfg.species)
    pitch_x = 2.0 * max_a * (1.0 + 1e-9)
    pitch_y = 2.0 * max_b * (1.0 + 1e-9)
    nx_max = int(lx / pitch_x)
    ny_max = int(ly / pitch_y)
    n = cfg.n_particles
    if nx_max * ny_max < n:
        raise PackingInfeasible(
            f"lattice holds at most {nx_max * ny_max} particles of pitch "
            f"({pitch_x:.3g}, {pitch_y:.3g}) in box {cfg.box}; need {n}"
        )
    # grid as close to the box aspect as feasibility allows
    gx = max(1, min(nx_max, round(math.sqrt(n * (lx / pitch_x) / max(ly / pitch_y, 1e-300)))))
    while gx <= nx_max and math.ceil(n / gx) > ny_max:
        gx += 1
    gx = min(gx, nx_max)
    gy = math.ceil(n / gx)

    idx = np.arange(n)
    positions = np.column_stack(((idx % gx + 0.5) * lx / gx, (idx // gx + 0.5) * ly / gy))
    orientations = np.zeros((n, 2))
    orientations[:, 0] = 1.0

    species_index = np.array(_species_order(cfg.species_counts()), dtype=np.int64)

    shapes = tuple(s for s, _ in cfg.species)
    reach = 2.0 * max_a
    nx = max(1, int(lx / reach))
    ny = max(1, int(ly / reach))
    # a dilute box gains nothing from more cells than particles, and a box
    # of 1e6 around (2,1) ellipses would ask for 6e10 cell lists; halving
    # keeps the cells at least reach wide
    while nx * ny > 4 * n + 9:
        nx, ny = max(1, nx // 2), max(1, ny // 2)

    def around(count: int, side: float) -> list[list[tuple[int, float]]]:
        # the three columns (or rows) around each one, with the shift that
        # brings a neighbor across the box edge back next to it
        return [
            [((k + d) % count, side if k + d < 0 else -side if k + d >= count else 0.0)
             for d in (-1, 0, 1)]
            for k in range(count)
        ]

    cols, rows = around(nx, lx), around(ny, ly)
    state = MCState(
        positions=positions,
        orientations=orientations,
        species_index=species_index,
        shapes=shapes,
        box=cfg.box,
        n_cells=(nx, ny),
        cell_members=[[] for _ in range(nx * ny)],
        cell_of=[],
        stencil=[
            tuple((cx + nx * cy, sx, sy) for cy, sy in row for cx, sx in col)
            for row in rows
            for col in cols
        ],
    )
    for i, (x, y) in enumerate(positions.tolist()):
        c = state.cell_index(x, y)
        state.cell_of.append(c)
        state.cell_members[c].append(i)

    bad = audit_overlaps(state)
    if bad:
        raise PackingInfeasible(f"lattice construction produced overlaps: {bad[:3]}")
    return state


def mc_sweep(state: MCState, cfg: MCConfig, rng: np.random.Generator) -> MoveStats:
    """One sweep: a translation-plus-rotation trial per particle.

    Acceptance requires the trial to be clear of every particle in the
    stencil of its cell; the state never contains an overlapping pair.  A
    neighbor's separation is (x_j - x) - shift, the same float as the
    minimum image, and a pair at least a_i + a_j apart is passed over
    before _pair_clear is called, with the expression of its first rung.
    The sweep works on Python floats read from the arrays once and writes
    them back once, at its end (the orientations also before a
    renormalization, which reads them).  Each move consumes three uniform
    doubles (x, y, angle), drawn for the whole sweep at once and scaled as
    Generator.uniform scales them.
    """
    lx, ly = state.box
    sweep_stats = MoveStats()
    n = state.n_particles()
    xs = state.positions[:, 0].tolist()
    ys = state.positions[:, 1].tolist()
    orient = state.orientations.tolist()
    shapes = state.particle_shapes()
    a_of = [shape.a for shape in shapes]
    stencil, members = state.stencil, state.cell_members
    pair_clear = _pair_clear  # read per sweep, so a wrapper on the module sees every call
    t_low, r_low = -cfg.max_translation, -cfg.max_rotation
    t_range = cfg.max_translation - t_low
    r_range = cfg.max_rotation - r_low
    draws = rng.random(3 * n).tolist()
    try:
        for i in range(n):
            x = (xs[i] + (t_low + t_range * draws[3 * i])) % lx
            y = (ys[i] + (t_low + t_range * draws[3 * i + 1])) % ly
            angle = r_low + r_range * draws[3 * i + 2]
            c, s = math.cos(angle), math.sin(angle)
            ux0, uy0 = orient[i]
            ui = (c * ux0 - s * uy0, s * ux0 + c * uy0)

            shape_i, ai = shapes[i], a_of[i]
            cell = state.cell_index(x, y)
            ok = True
            for near, shift_x, shift_y in stencil[cell]:
                for j in members[near]:
                    if j == i:
                        continue
                    dx = (xs[j] - x) - shift_x
                    dy = (ys[j] - y) - shift_y
                    reach = ai + a_of[j]
                    if dx * dx + dy * dy >= reach * reach:
                        continue
                    if not pair_clear(shape_i, shapes[j], ui, orient[j], dx, dy):
                        ok = False
                        break
                if not ok:
                    break

            sweep_stats.attempted += 1
            if ok:
                sweep_stats.accepted += 1
                xs[i], ys[i], orient[i] = x, y, ui
                state.move_to_cell(i, cell)

            state.rotations_since_renorm += 1
            if state.rotations_since_renorm >= _RENORM_EVERY:
                state.orientations[:] = orient
                norms = np.hypot(state.orientations[:, 0], state.orientations[:, 1])
                state.orientations /= norms[:, None]
                orient = state.orientations.tolist()
                state.rotations_since_renorm = 0
    finally:  # the arrays agree with the cell lists even if a pair check raised
        state.positions[:, 0] = xs
        state.positions[:, 1] = ys
        state.orientations[:] = orient

    state.stats.attempted += sweep_stats.attempted
    state.stats.accepted += sweep_stats.accepted
    return sweep_stats


def order_parameter(state: MCState) -> float:
    """2D nematic order S = |mean of (cos 2t, sin 2t)| over orientations;
    1 for perfect alignment, O(1/sqrt(N)) for an isotropic system."""
    ux = state.orientations[:, 0]
    uy = state.orientations[:, 1]
    c2 = float(np.mean(ux * ux - uy * uy))
    s2 = float(np.mean(2.0 * ux * uy))
    return math.hypot(c2, s2)


def audit_overlaps(state: MCState) -> list[tuple[int, int]]:
    """All-pairs overlap audit under minimum image; empty list = clean.

    A pair within reach 2 * a_max is within reach in x, so the candidates
    are found by sort and sweep: with the particles sorted by x and the
    sorted list repeated shifted by +Lx for the wrap, a particle's
    candidates are the next slots up to reach further in x (and a few
    ulps of Lx, for the rounding of the shifted copy), at most n - 1 of
    them.  Candidates are walked _AUDIT_PAIRS at a time, so memory stays
    linear in N even when every pair is within reach in x.  Each gets the
    minimum-image separation of the all-pairs table, (x_j - x_i) rounded
    by Lx for i < j, and only pairs within reach are checked individually,
    with the same predicate the sweep uses, so audit and cell-list
    decisions cannot diverge.  Pairs are listed, and checked, in (i, j)
    order, each once.
    """
    n = state.n_particles()
    lx, ly = state.box
    px, py = state.positions[:, 0], state.positions[:, 1]
    reach = max(s.a for s in state.shapes) * 2.0
    order = np.argsort(px, kind="stable")
    sorted_x = px[order]
    with np.errstate(over="ignore"):  # inf: a copy past the largest float, out of reach
        slot_x = np.concatenate((sorted_x, sorted_x + lx))
    # slot k's candidates are slots k + 1 .. last[k] - 1; numbered in slot
    # order, candidate p of row k sits at slot p + offset[k]
    first = np.arange(1, n + 1)
    window = reach + 4.0 * float(np.spacing(lx))
    last = np.minimum(np.searchsorted(slot_x, sorted_x + window, side="right"), first + n - 1)
    ends = np.cumsum(last - first)
    offset = last - ends
    total = int(ends[-1])
    keys, near_dx, near_dy = [], [], []
    for lo in range(0, total, _AUDIT_PAIRS):
        pair = np.arange(lo, min(lo + _AUDIT_PAIRS, total))
        row = np.searchsorted(ends, pair, side="right")
        a, b = order[row], order[(pair + offset[row]) % n]
        i, j = np.minimum(a, b), np.maximum(a, b)
        dx = px[j] - px[i]
        dy = py[j] - py[i]
        dx -= lx * np.round(dx / lx)
        dy -= ly * np.round(dy / ly)
        with np.errstate(over="ignore"):  # inf: a pair in a huge box, out of reach
            near = dx * dx + dy * dy < reach * reach
        keys.append(i[near] * n + j[near])
        near_dx.append(dx[near])
        near_dy.append(dy[near])
    if not keys:
        return []
    # a pair can be a candidate directly and across the wrap: keep it once
    keys, at = np.unique(np.concatenate(keys), return_index=True)
    shapes = state.particle_shapes()
    orient = state.orientations.tolist()
    bad = []
    for key, pdx, pdy in zip(
        keys.tolist(), np.concatenate(near_dx)[at].tolist(), np.concatenate(near_dy)[at].tolist()
    ):
        i, j = divmod(key, n)
        if not _pair_clear(shapes[i], shapes[j], orient[i], orient[j], pdx, pdy):
            bad.append((i, j))
    return bad


# ---------------------------------------------------------------------------
# run configuration files and the trajectory writer

def _parse_species(text: str) -> list[tuple[EllipseShape, float]]:
    out = []
    for part in text.split(","):
        a, b, frac = (float(x) for x in part.strip().split(":"))
        out.append((EllipseShape(a, b), frac))
    return out


def _count(value) -> int:
    """int(value), refusing booleans and non-integral numbers (4.9, NaN)
    that int() would truncate or read as 1."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def load_mc_config(path: str) -> MCConfig:
    """Read a run configuration from JSON or key=value text.

    JSON schema: {"n_particles": int, "species": [{"a", "b", "fraction"}],
    "box": [Lx, Ly], "max_translation": float, "max_rotation_deg": float,
    "seed": int, "sweeps": int, "sample_every": int}; the four counts
    may be integral floats (256.0) but not booleans or fractions.
    The key=value form uses the same keys with species as
    "a:b:fraction[, a:b:fraction...]" and box as "Lx Ly".
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        raw = json.loads(text)
        species = [
            (EllipseShape(float(s["a"]), float(s["b"])), float(s["fraction"]))
            for s in raw["species"]
        ]
        box = (float(raw["box"][0]), float(raw["box"][1]))
        data = raw
    else:
        data = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            data[key.strip()] = value.strip()
        species = _parse_species(data["species"])
        box_parts = data["box"].replace(",", " ").split()
        box = (float(box_parts[0]), float(box_parts[1]))
    return MCConfig(
        n_particles=_count(data["n_particles"]),
        species=tuple(species),
        box=box,
        max_translation=float(data["max_translation"]),
        max_rotation=math.radians(float(data["max_rotation_deg"])),
        seed=_count(data["seed"]),
        sweeps=_count(data["sweeps"]),
        sample_every=_count(data.get("sample_every", 100)),
    )


def run_simulation(
    cfg: MCConfig,
    trajectory,
    audit: bool = False,
) -> dict:
    """Drive a full run, streaming snapshot records to ``trajectory``
    (any file-like object) as JSON lines and returning the summary dict.

    With audit=True an all-pairs overlap check runs after every sweep.  Any
    hit ends the run: the summary, with the sweeps completed and
    audit_failures counting the overlapping pairs, is written and then
    AuditFailure is raised.
    """
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)

    def write(record: dict) -> None:
        trajectory.write(json.dumps(record) + "\n")

    def snapshot(sweep: int, acceptance: float) -> dict:
        return {
            "sweep": sweep,
            "positions": state.positions.tolist(),
            "orientations": state.orientations.tolist(),
            "S": order_parameter(state),
            "acceptance": acceptance,
        }

    def summary(sweeps: int, audit_failures: int) -> dict:
        record = {
            "summary": True,
            "sweeps": sweeps,
            "n_particles": cfg.n_particles,
            "packing_fraction": cfg.packing_fraction(),
            "attempted": state.stats.attempted,
            "accepted": state.stats.accepted,
            "acceptance": state.stats.acceptance,
            "S": order_parameter(state),
            "audit_failures": audit_failures,
        }
        write(record)
        return record

    write(snapshot(0, 0.0))
    for sweep in range(1, cfg.sweeps + 1):
        stats = mc_sweep(state, cfg, rng)
        if audit:
            bad = audit_overlaps(state)
            if bad:
                summary(sweep, len(bad))
                raise AuditFailure(
                    f"overlap audit failed at sweep {sweep}: pairs {bad[:5]}"
                )
        if sweep % cfg.sample_every == 0 or sweep == cfg.sweeps:
            write(snapshot(sweep, stats.acceptance))

    return summary(cfg.sweeps, 0)
