"""NVT hard-ellipse Monte Carlo with cell-list neighbor search.

Hard-particle Metropolis: a trial move is accepted exactly when it creates
no overlap, decided by the analytic contact distance along each pair's
center line under the minimum image convention.  Supports binary (or
n-ary) mixtures of different sizes.  kT is irrelevant for hard cores; the
only control parameters are the move amplitudes.

Conventions:
  * positions live in [0, Lx) x [0, Ly), periodic in both directions;
  * one sweep = one trial move (translation plus rotation) per particle,
    particles visited in index order;
  * the cell size is at least max(a_i + a_j) over species pairs, so any
    overlapping pair is always within adjacent cells (the kernel bound
    d <= a1 + a2 makes this safe); a grid has at most 4N + 9 cells, and
    grids thinner than 3 cells fall back to all-pairs;
  * a fixed seed reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .contact import closest_approach, TANGENT_RTOL
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
_AUDIT_BLOCK = 256  # rows of the pair table audit_overlaps holds at once


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
    cell_of: np.ndarray  # (N,)
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

    def neighbor_candidates(self, x: float, y: float) -> list[int]:
        nx, ny = self.n_cells
        if nx < 3 or ny < 3:
            return list(range(self.n_particles()))
        ix = min(int(x / self.box[0] * nx), nx - 1)
        iy = min(int(y / self.box[1] * ny), ny - 1)
        out: list[int] = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                out.extend(self.cell_members[(ix + dx) % nx + nx * ((iy + dy) % ny)])
        return out

    def move_to_cell(self, i: int, new_cell: int) -> None:
        old = int(self.cell_of[i])
        if old == new_cell:
            return
        self.cell_members[old].remove(i)
        self.cell_members[new_cell].append(i)
        self.cell_of[i] = new_cell


# prefilter band edges, relative; _pair_clear says why they keep verdicts exact
_CLEAR_BAND = 1.0 + 4.0 * TANGENT_RTOL
_OVERLAP_BAND = 1.0 - 4.0 * TANGENT_RTOL


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
    separation.  The verdict is the kernel's,
    sep >= d * (1 - TANGENT_RTOL), and a ladder of bounds on the contact
    distance d settles most pairs before the kernel runs:

      1. reach: d <= a_i + a_j, so a pair at least that far apart is clear;
      2. core: d >= b_i + b_j, so a pair inside that is overlapping;
      3. upper bound: d <= h_i(u) + h_j(u), the support functions along the
         unit center line u, h = sqrt(a^2 c^2 + b^2 s^2) with c = k.u and
         s = k x u;
      4. lower bound: d >= r_i(u) + r_j(u), the radial extents along u,
         r = ab / sqrt(b^2 c^2 + a^2 s^2);
      5. the contact kernel for the annulus between the two.

    Steps 2-4 decide only outside a band of 4 * TANGENT_RTOL (relative),
    three times wider than the kernel's tangency band and far wider than
    the kernel's error (under 1e-11 relative up to aspect 20) and the drift
    of orientation vectors between renormalizations, so every decision
    matches the kernel verdict exactly and cell-list, brute-force and audit
    checks agree.
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
    h = math.sqrt(aci * aci + bsi * bsi) + math.sqrt(acj * acj + bsj * bsj)
    if sep >= h * _CLEAR_BAND:
        return True
    bci, asi = bi * ci, ai * si
    bcj, asj = bj * cj, aj * sj
    r = (ai * bi / math.sqrt(bci * bci + asi * asi)
         + aj * bj / math.sqrt(bcj * bcj + asj * asj))
    if sep < r * _OVERLAP_BAND:
        return False
    cfg = PairConfiguration(
        shape_i,
        shape_j,
        UnitVec2(ui[0], ui[1]),
        UnitVec2(uj[0], uj[1]),
        UnitVec2(dx, dy),
    )
    d = closest_approach(cfg).d
    return sep >= d * (1.0 - TANGENT_RTOL)


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

    positions = np.empty((n, 2))
    for i in range(n):
        ix, iy = i % gx, i // gx
        positions[i, 0] = (ix + 0.5) * lx / gx
        positions[i, 1] = (iy + 0.5) * ly / gy
    orientations = np.zeros((n, 2))
    orientations[:, 0] = 1.0

    # interleave species deterministically (Bresenham-style quotas)
    counts = cfg.species_counts()
    quota = [0.0] * len(counts)
    assigned = [0] * len(counts)
    species_index = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for s in range(len(counts)):
            quota[s] += counts[s] / n
        pick = max(
            (s for s in range(len(counts)) if assigned[s] < counts[s]),
            key=lambda s: quota[s] - assigned[s],
        )
        assigned[pick] += 1
        species_index[i] = pick

    shapes = tuple(s for s, _ in cfg.species)
    reach = 2.0 * max_a
    nx = max(1, int(lx / reach))
    ny = max(1, int(ly / reach))
    # a dilute box gains nothing from more cells than particles, and a box
    # of 1e6 around (2,1) ellipses would ask for 6e10 cell lists; halving
    # keeps the cells at least reach wide
    while nx * ny > 4 * n + 9:
        nx, ny = max(1, nx // 2), max(1, ny // 2)
    state = MCState(
        positions=positions,
        orientations=orientations,
        species_index=species_index,
        shapes=shapes,
        box=cfg.box,
        n_cells=(nx, ny),
        cell_members=[[] for _ in range(nx * ny)],
        cell_of=np.zeros(n, dtype=np.int64),
    )
    for i in range(n):
        c = state.cell_index(positions[i, 0], positions[i, 1])
        state.cell_of[i] = c
        state.cell_members[c].append(i)

    bad = audit_overlaps(state)
    if bad:
        raise PackingInfeasible(f"lattice construction produced overlaps: {bad[:3]}")
    return state


def mc_sweep(state: MCState, cfg: MCConfig, rng: np.random.Generator) -> MoveStats:
    """One sweep: a translation-plus-rotation trial per particle.

    Acceptance requires the trial to be clear of every cell-list neighbor;
    the state never contains an overlapping pair.  The sweep works on Python
    floats read from the arrays once, and writes back accepted moves.  Each
    move consumes three uniform doubles (x, y, angle), drawn for the whole
    sweep at once and scaled as Generator.uniform scales them.
    """
    lx, ly = state.box
    sweep_stats = MoveStats()
    n = state.n_particles()
    xs = state.positions[:, 0].tolist()
    ys = state.positions[:, 1].tolist()
    orient = state.orientations.tolist()
    shapes = state.particle_shapes()
    t_low, r_low = -cfg.max_translation, -cfg.max_rotation
    t_range = cfg.max_translation - t_low
    r_range = cfg.max_rotation - r_low
    draws = rng.random(3 * n).tolist()
    for i in range(n):
        x = (xs[i] + (t_low + t_range * draws[3 * i])) % lx
        y = (ys[i] + (t_low + t_range * draws[3 * i + 1])) % ly
        angle = r_low + r_range * draws[3 * i + 2]
        c, s = math.cos(angle), math.sin(angle)
        ux0, uy0 = orient[i]
        ui = (c * ux0 - s * uy0, s * ux0 + c * uy0)

        shape_i = shapes[i]
        ok = True
        for j in state.neighbor_candidates(x, y):
            if j == i:
                continue
            dx = xs[j] - x
            dy = ys[j] - y
            dx -= lx * round(dx / lx)
            dy -= ly * round(dy / ly)
            if not _pair_clear(shape_i, shapes[j], ui, orient[j], dx, dy):
                ok = False
                break

        sweep_stats.attempted += 1
        if ok:
            sweep_stats.accepted += 1
            xs[i], ys[i], orient[i] = x, y, ui
            state.positions[i] = x, y
            state.orientations[i] = ui
            state.move_to_cell(i, state.cell_index(x, y))

        state.rotations_since_renorm += 1
        if state.rotations_since_renorm >= _RENORM_EVERY:
            norms = np.hypot(state.orientations[:, 0], state.orientations[:, 1])
            state.orientations /= norms[:, None]
            orient = state.orientations.tolist()
            state.rotations_since_renorm = 0

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

    Pair separations are prefiltered in a vectorized pass over blocks of
    _AUDIT_BLOCK rows of the pair table (i < j), so memory stays linear
    in N; only pairs within kernel range are checked individually, with
    the same predicate the sweep uses, so audit and cell-list decisions
    cannot diverge.  Pairs are listed in (i, j) order.
    """
    n = state.n_particles()
    lx, ly = state.box
    px, py = state.positions[:, 0], state.positions[:, 1]
    reach = max(s.a for s in state.shapes) * 2.0
    shapes = state.particle_shapes()
    orient = state.orientations.tolist()
    bad = []
    for lo in range(0, n, _AUDIT_BLOCK):
        # the block's rows against columns lo..n-1, which hold every j > i
        dx = px[lo:] - px[lo:lo + _AUDIT_BLOCK, None]
        dy = py[lo:] - py[lo:lo + _AUDIT_BLOCK, None]
        dx -= lx * np.round(dx / lx)
        dy -= ly * np.round(dy / ly)
        with np.errstate(over="ignore"):  # inf: a pair in a huge box, out of reach
            sep_sq = dx * dx + dy * dy
        ii, jj = np.nonzero(np.triu(sep_sq < reach * reach, k=1))
        for i, j, pdx, pdy in zip(
            (ii + lo).tolist(), (jj + lo).tolist(), dx[ii, jj].tolist(), dy[ii, jj].tolist()
        ):
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


def load_mc_config(path: str) -> MCConfig:
    """Read a run configuration from JSON or key=value text.

    JSON schema: {"n_particles": int, "species": [{"a", "b", "fraction"}],
    "box": [Lx, Ly], "max_translation": float, "max_rotation_deg": float,
    "seed": int, "sweeps": int, "sample_every": int}.
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
        n_particles=int(data["n_particles"]),
        species=tuple(species),
        box=box,
        max_translation=float(data["max_translation"]),
        max_rotation=math.radians(float(data["max_rotation_deg"])),
        seed=int(data["seed"]),
        sweeps=int(data["sweeps"]),
        sample_every=int(data.get("sample_every", 100)),
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
            "positions": [[float(x), float(y)] for x, y in state.positions],
            "orientations": [[float(x), float(y)] for x, y in state.orientations],
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
