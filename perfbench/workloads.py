"""The four benchmark workloads.

Each workload builds its inputs from the seed, then the runner alternates a
primary and a secondary unit of timed work.  Every unit repeats the same
work on the same inputs, so per-unit counts repeat exactly.  A unit is a
generator: each step does part of the work and yields the number of work
items it did (moves, rows, areas, curve points, trials), and the runner
times each step on its own.  The checks run outside the timed region and
count attempted and failed operations.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path
from typing import Iterator

import numpy as np

import ellipse_contact as ec
from ellipse_contact import cli, mcsim, oracle

SIZES = {
    "full": {
        "mc_particles": 256, "mc_sweeps": 4,
        "batch_rows": 2000, "oracle_sample": 6,
        "panels": None, "curve_points": 720,
        "verify_trials": 100, "analytic_trials": 2000,
    },
    "tiny": {
        "mc_particles": 32, "mc_sweeps": 2,
        "batch_rows": 40, "oracle_sample": 2,
        "panels": 128, "curve_points": 32,
        "verify_trials": 3, "analytic_trials": 50,
    },
}

E21 = ec.EllipseShape(2.0, 1.0)
RESIDUAL_LIMIT = 1e-9  # criterion 4 boundary-residual gate
ORACLE_RTOL = 1e-7  # criterion 3 oracle gate
REFERENCE_AREAS = {30.0: 26.4, 45.0: 27.6, 90.0: 29.7}  # criterion 1, (2,1) pair
STEP_ROWS = 500  # rows per timed step where the benchmark drives the loop


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _f17(x: float) -> str:
    return format(float(x), ".17g")


class Workload:
    name = ""
    primary_name = ""  # the workload's name for primary_per_s
    secondary_name = ""  # the workload's name for secondary_per_s
    moves_per_unit = 0
    rows_per_unit = 0

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{failed}/{attempted} {what}")

    def primary(self) -> Iterator[int]:
        raise NotImplementedError

    def secondary(self) -> Iterator[int]:
        raise NotImplementedError

    def check_primary(self, traced: bool) -> None:
        raise NotImplementedError

    def check_secondary(self, traced: bool) -> None:
        raise NotImplementedError

    def final_check(self) -> None:
        """Untimed checks made once per run."""


# ---------------------------------------------------------------------------

def mc_config(seed: int, size: dict) -> mcsim.MCConfig:
    n = size["mc_particles"]
    side = math.sqrt(n * E21.area() / 0.4)
    sweeps = size["mc_sweeps"]
    return mcsim.MCConfig(
        n_particles=n, species=((E21, 1.0),), box=(side, side),
        max_translation=0.35, max_rotation=0.35, seed=seed,
        sweeps=sweeps, sample_every=max(1, sweeps // 2),
    )


class _DigestSink:
    """Trajectory sink: hashes what run_simulation writes."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self._sha.update(text.encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class McNvt(Workload):
    """run_simulation of N monodisperse (2,1) ellipses at packing 0.4, once
    without and once with the per-sweep audit, from the same seed."""

    name = "mc_nvt"
    primary_name = "mc_moves_per_s"
    secondary_name = "mc_audited_moves_per_s"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        super().__init__()
        self.cfg = mc_config(seed, size)
        self.moves_per_unit = 2 * self.cfg.n_particles * self.cfg.sweeps
        self.reference: str | None = None
        self.last: tuple[str | None, dict | None] = (None, None)

    @staticmethod
    def setup(seed: int, size: dict) -> None:
        mcsim.init_state(mc_config(seed, size))

    def _simulate(self, audit: bool) -> int:
        sink = _DigestSink()
        try:
            summary = mcsim.run_simulation(self.cfg, sink, audit=audit)
        except AssertionError:  # the audit found an overlap
            self.last = (None, None)
            return self.cfg.n_particles * self.cfg.sweeps
        self.last = (sink.hexdigest(), summary)
        return summary["attempted"]

    def primary(self) -> Iterator[int]:
        yield self._simulate(False)

    def secondary(self) -> Iterator[int]:
        yield self._simulate(True)

    def _check(self, what: str) -> None:
        digest, summary = self.last
        if self.reference is None:
            self.reference = digest
        bad = (
            digest is None
            or digest != self.reference
            or summary["audit_failures"] != 0
            or summary["attempted"] != self.cfg.n_particles * self.cfg.sweeps
        )
        self.tally(1, int(bad), what)

    def check_primary(self, traced: bool) -> None:
        self._check("traced unaudited trajectories differ" if traced
                    else "unaudited trajectories differ")

    def check_secondary(self, traced: bool) -> None:
        self._check("audited runs failed or differ from the unaudited trajectory")


# ---------------------------------------------------------------------------

_BATCH_INPUTS = ("a1", "b1", "a2", "b2", "theta1", "theta2", "theta_d")
_BATCH_FLOATS = ("d", "d_prime", "q", "rc_x", "rc_y", "residual_e1", "residual_e2")


def _pair_from_floats(a1, b1, a2, b2, t1, t2, td):
    """The configuration the batch command builds from one input row."""
    return ec.make_pair_configuration(
        a1, b1, a2, b2,
        ec.UnitVec2.from_angle(math.radians(t1)),
        ec.UnitVec2.from_angle(math.radians(t2)),
        ec.UnitVec2.from_angle(math.radians(td)),
    )


class BatchStratified(Workload):
    """``batch`` on a CSV of the stratified stream (degenerate strata
    over-sampled); the secondary unit recomputes every output row through
    the library API and must reproduce it bit for bit."""

    name = "batch_stratified"
    primary_name = "batch_rows_per_s"
    secondary_name = "api_rows_per_s"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        super().__init__()
        self.seed = seed
        self.rows = size["batch_rows"]
        self.rows_per_unit = self.rows
        self.oracle_sample = size["oracle_sample"]
        self.input = workdir / "batch_in.csv"
        self.output = workdir / "batch_out.csv"
        self.rejects = workdir / "batch_rejects.txt"
        with open(self.input, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_BATCH_INPUTS)
            for cfg in oracle.stratified_configurations(self.rows, seed):
                writer.writerow([
                    _f17(cfg.shape1.a), _f17(cfg.shape1.b),
                    _f17(cfg.shape2.a), _f17(cfg.shape2.b),
                    _f17(math.degrees(cfg.k1.angle())),
                    _f17(math.degrees(cfg.k2.angle())),
                    _f17(math.degrees(cfg.dhat.angle())),
                ])
        self.parsed: list = []
        self.recomputed: list = []

    @staticmethod
    def setup(seed: int, size: dict) -> None:
        cli.build_parser()

    def primary(self) -> Iterator[int]:
        self.code, _ = _run_cli([
            "batch", "--input", str(self.input), "--output", str(self.output),
            "--rejects", str(self.rejects),
        ])
        yield self.rows

    def check_primary(self, traced: bool) -> None:
        rejected = self.rejects.read_text(encoding="utf-8").count("\n")
        with open(self.output, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        over = sum(
            float(r["residual_e1"]) > RESIDUAL_LIMIT or float(r["residual_e2"]) > RESIDUAL_LIMIT
            for r in rows
        )
        # a rejected row is also missing from the output
        bad = self.rows if self.code != 0 else self.rows - len(rows) + over
        self.tally(self.rows, bad, f"batch rows rejected ({rejected}), missing or with residual > 1e-9")
        self.parsed = [
            (tuple(float(r[k]) for k in _BATCH_INPUTS),
             tuple(float(r[k]) for k in _BATCH_FLOATS), r["branch"])
            for r in rows
        ]

    def secondary(self) -> Iterator[int]:
        self.recomputed = []
        for lo in range(0, len(self.parsed), STEP_ROWS):
            chunk = self.parsed[lo:lo + STEP_ROWS]
            for inputs, _, _ in chunk:
                cfg = _pair_from_floats(*inputs)
                sol = ec.closest_approach(cfg)
                r1, r2, _ = ec.tangency_residuals(cfg, sol)
                self.recomputed.append((sol, r1, r2))
            yield len(chunk)

    def check_secondary(self, traced: bool) -> None:
        bad = 0
        for (_, expect, branch), (sol, r1, r2) in zip(self.parsed, self.recomputed):
            got = (sol.d, sol.d_prime, sol.q, sol.contact_point.x, sol.contact_point.y, r1, r2)
            bad += got != expect or sol.branch.value != branch
        self.tally(len(self.parsed), bad, "batch rows not reproduced bit for bit")

    def final_check(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(1,)))
        picks = rng.choice(len(self.parsed), size=min(self.oracle_sample, len(self.parsed)), replace=False)
        bad = 0
        for i in picks.tolist():
            inputs, expect, _ = self.parsed[i]
            d_oracle = oracle.oracle_distance(_pair_from_floats(*inputs))
            bad += abs(expect[0] - d_oracle) > ORACLE_RTOL * d_oracle
        self.tally(len(picks), bad, "batch rows disagree with the oracle beyond 1e-7")


# ---------------------------------------------------------------------------

def _read_csv_body(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


class ExcludedArea(Workload):
    """``excluded-area --sweep`` for the (2,1) reference pair and for a seeded
    pair of aspect >= 6, then ``boundary`` and ``locus`` of a seeded pair."""

    name = "excluded_area"
    primary_name = "areas_per_s"
    secondary_name = "curve_points_per_s"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        b = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        self.long = (b * rng.uniform(6.0, 10.0), b)
        theta1, theta2, theta_d = (_f17(x) for x in rng.uniform(0.0, 360.0, 3))
        panels = [] if size["panels"] is None else ["--panels", str(size["panels"])]
        self.ref_out = workdir / "area_ref.csv"
        self.long_out = workdir / "area_long.csv"
        self.area_argv = [
            ["excluded-area", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
             "--sweep", "30:90:15", "--output", str(self.ref_out)] + panels,
            ["excluded-area", "--a1", _f17(self.long[0]), "--b1", _f17(self.long[1]),
             "--a2", _f17(self.long[0]), "--b2", _f17(self.long[1]), "--theta1", theta1,
             "--sweep", "0:90:45", "--output", str(self.long_out)] + panels,
        ]
        self.area_counts = (5, 3)
        self.areas = sum(self.area_counts)
        self.n = size["curve_points"]
        pair = ["--a1", _f17(self.long[0]), "--b1", _f17(self.long[1]),
                "--a2", "2", "--b2", "1", "--theta1", theta1, "--theta2", theta2]
        self.curve_out = [workdir / "boundary.csv", workdir / "locus.csv"]
        self.curve_argv = [
            ["boundary"] + pair + ["--n", str(self.n), "--output", str(self.curve_out[0])],
            ["locus"] + pair + ["--theta-d", theta_d, "--n", str(self.n),
                                "--output", str(self.curve_out[1])],
        ]

    @staticmethod
    def setup(seed: int, size: dict) -> None:
        cli.build_parser()

    def primary(self) -> Iterator[int]:
        self.codes = []
        for argv, areas in zip(self.area_argv, self.area_counts):
            self.codes.append(_run_cli(argv)[0])
            yield areas

    def secondary(self) -> Iterator[int]:
        self.codes = []
        for argv in self.curve_argv:
            self.codes.append(_run_cli(argv)[0])
            yield self.n

    def check_primary(self, traced: bool) -> None:
        ref = {float(a): float(v) for a, v in _read_csv_body(self.ref_out)}
        long = {float(a): float(v) for a, v in _read_csv_body(self.long_out)}
        bad = sum(code != 0 for code in self.codes)
        bad += sum(round(ref.get(a, math.nan), 1) != v for a, v in REFERENCE_AREAS.items())
        # identical parallel ellipses exclude four times their area
        expect = 4.0 * math.pi * self.long[0] * self.long[1]
        bad += not abs(long.get(0.0, math.nan) - expect) <= 1e-6 * expect
        bad += len(ref) + len(long) != self.areas
        self.tally(self.areas, min(bad, self.areas), "areas wrong or missing")

    def check_secondary(self, traced: bool) -> None:
        bad = sum(code != 0 for code in self.codes)
        for path in self.curve_out:
            rows = _read_csv_body(path)
            bad += len(rows) != self.n
            bad += not all(math.isfinite(float(x)) for row in rows for x in row)
        self.tally(2, min(bad, 2), "curves failed or malformed")


# ---------------------------------------------------------------------------

class VerifyOracle(Workload):
    """``verify --workers 1`` against the sampled-boundary oracle; the
    secondary unit is the analytic side alone on the same stream."""

    name = "verify_oracle"
    primary_name = "verify_trials_per_s"
    secondary_name = "analytic_trials_per_s"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        super().__init__()
        self.seed = seed
        self.trials = size["verify_trials"]
        self.analytic = size["analytic_trials"]

    @staticmethod
    def setup(seed: int, size: dict) -> None:
        cli.build_parser()
        oracle.OracleSettings()

    def primary(self) -> Iterator[int]:
        self.code, self.stdout = _run_cli([
            "verify", "--workers", "1", "--trials", str(self.trials), "--seed", str(self.seed),
        ])
        yield self.trials

    def check_primary(self, traced: bool) -> None:
        fields = dict(line.split(None, 1) for line in self.stdout.splitlines()
                      if line and not line.startswith(" ") and " " in line)
        failures = int(fields.get("failures", self.trials))
        bad = self.trials if self.code != 0 else min(failures, self.trials)
        self.tally(self.trials, bad, "verify trials failed")

    def secondary(self) -> Iterator[int]:
        self.solved = []
        for lo in range(0, self.analytic, STEP_ROWS):
            hi = min(lo + STEP_ROWS, self.analytic)
            for i in range(lo, hi):
                cfg = ec.stratified_configuration(self.seed, i)
                self.solved.append((cfg, ec.closest_approach(cfg).d))
            yield hi - lo

    def check_secondary(self, traced: bool) -> None:
        # the contact distance lies between b1+b2 and a1+a2
        bad = sum(
            not (cfg.shape1.b + cfg.shape2.b) * (1.0 - 1e-12) <= d
            <= (cfg.shape1.a + cfg.shape2.a) * (1.0 + 1e-12)
            for cfg, d in self.solved
        )
        self.tally(self.analytic, bad, "analytic distances outside [b1+b2, a1+a2]")


WORKLOADS = {w.name: w for w in (McNvt, BatchStratified, ExcludedArea, VerifyOracle)}
