"""Command-line front end.

Angles cross this boundary in degrees and are converted to unit vectors
immediately; nothing downstream sees an angle.  Every float is written
as its shortest round-trip repr, through json.dumps, csv.writer or print,
so every value parses back to the same float.
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import operator
import shutil
import sys
import tempfile

import numpy as np

from . import analysis, bulk, mcsim, oracle
from .contact import (
    ConcentricCenters,
    OverlapVerdict,
    _overlap_distance,
    closest_approach,
    tangency_residuals,
)
from .geometry import UnitVec2, Vec2, make_pair_configuration

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2

# largest --panels and --n: excluded_area holds a few float arrays of this
# length (~8 MB each); a curve holds this many points
MAX_PANELS = 1 << 20


def _add_pair_args(p: argparse.ArgumentParser, with_dhat: bool = True) -> None:
    p.add_argument("--a1", type=float, required=True, help="semi-major axis of ellipse 1")
    p.add_argument("--b1", type=float, required=True, help="semi-minor axis of ellipse 1")
    p.add_argument("--a2", type=float, required=True, help="semi-major axis of ellipse 2")
    p.add_argument("--b2", type=float, required=True, help="semi-minor axis of ellipse 2")
    p.add_argument("--theta1", type=float, default=0.0,
                   help="major-axis angle of ellipse 1, degrees (default 0)")
    p.add_argument("--theta2", type=float, default=0.0,
                   help="major-axis angle of ellipse 2, degrees (default 0)")
    if with_dhat:
        p.add_argument("--theta-d", type=float, default=0.0,
                       help="center-line direction, degrees (default 0)")


def _pair_from_args(args):
    return make_pair_configuration(
        args.a1, args.b1, args.a2, args.b2,
        UnitVec2.from_angle(math.radians(args.theta1)),
        UnitVec2.from_angle(math.radians(args.theta2)),
        UnitVec2.from_angle(math.radians(getattr(args, "theta_d", 0.0))),
    )


def _solution_record(cfg, sol) -> dict:
    r1, r2, cross = tangency_residuals(cfg, sol)
    return {
        "d": sol.d,
        "d_prime": sol.d_prime,
        "q": sol.q,
        "branch": sol.branch.value,
        "contact_point": [sol.contact_point.x, sol.contact_point.y],
        "contact_normal": [sol.contact_normal.x, sol.contact_normal.y],
        "residual_e1": r1,
        "residual_e2": r2,
        "normal_cross": cross,
    }


def _print_record(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record))
        return
    for key, value in record.items():
        if isinstance(value, list):
            value = f"({', '.join(map(str, value))})"
        print(f"{key:15s} {value}")


def cmd_distance(args) -> int:
    cfg = _pair_from_args(args)
    sol = closest_approach(cfg)
    _print_record(_solution_record(cfg, sol), args.json)
    return EXIT_OK


def cmd_contact(args) -> int:
    cfg = _pair_from_args(args)
    sol = closest_approach(cfg)
    record = _solution_record(cfg, sol)
    record = {
        "contact_point": record["contact_point"],
        "contact_normal": record["contact_normal"],
        "sin_psi": sol.sin_psi,
        "cos_psi": sol.cos_psi,
        "sin_gamma": sol.sin_gamma,
        "cos_gamma": sol.cos_gamma,
        "d": sol.d,
        "branch": sol.branch.value,
        "residual_e1": record["residual_e1"],
        "residual_e2": record["residual_e2"],
    }
    _print_record(record, args.json)
    return EXIT_OK


def cmd_overlap(args) -> int:
    cfg = _pair_from_args(args)
    r12 = Vec2(
        args.sep * math.cos(math.radians(args.theta_d)),
        args.sep * math.sin(math.radians(args.theta_d)),
    )
    try:
        verdict, d = _overlap_distance(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, r12)
        record = {"verdict": verdict.value, "separation": args.sep, "d": d}
    except ConcentricCenters:
        record = {"verdict": OverlapVerdict.OVERLAPPING.value, "concentric": True}
    _print_record(record, args.json)
    return EXIT_OK


_BATCH_FIELDS = ("a1", "b1", "a2", "b2", "theta1", "theta2", "theta_d")
_RESULT_FIELDS = (
    "d", "d_prime", "q", "branch", "rc_x", "rc_y", "residual_e1", "residual_e2",
)
# rows that batch reads, computes and writes per step
BATCH_CHUNK = 1024


def _process_batch_row(row: dict) -> tuple:
    """The _RESULT_FIELDS values of one row through the scalar API."""
    cfg = make_pair_configuration(
        float(row["a1"]), float(row["b1"]), float(row["a2"]), float(row["b2"]),
        UnitVec2.from_angle(math.radians(float(row["theta1"]))),
        UnitVec2.from_angle(math.radians(float(row["theta2"]))),
        UnitVec2.from_angle(math.radians(float(row["theta_d"]))),
    )
    sol = closest_approach(cfg)
    r1, r2, _ = tangency_residuals(cfg, sol)
    return (
        sol.d, sol.d_prime, sol.q, sol.branch.value,
        sol.contact_point.x, sol.contact_point.y, r1, r2,
    )


def _iter_batch_chunks(path: str, fmt: str):
    """Yield lists of at most BATCH_CHUNK (line number, row dict or None,
    error or None) triples.  On a read error the rows read before it are
    yielded first, then the error is raised."""
    with open(path, "r", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
        chunk = []
        try:
            for item in (_jsonl_rows if fmt == "jsonl" else _csv_rows)(fh):
                chunk.append(item)
                if len(chunk) == BATCH_CHUNK:
                    yield chunk
                    chunk = []
        except (OSError, ValueError, csv.Error):
            if chunk:
                yield chunk
            raise
        if chunk:
            yield chunk


def _jsonl_rows(fh):
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            missing = [k for k in _BATCH_FIELDS if k not in row]
            if missing:
                raise KeyError(f"missing fields {missing}")
            yield lineno, row, None
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            yield lineno, None, str(exc)


def _csv_rows(fh):
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or any(k not in reader.fieldnames for k in _BATCH_FIELDS):
        raise ValueError(f"CSV header must contain {', '.join(_BATCH_FIELDS)}")
    width = len(reader.fieldnames)
    for row in reader:
        lineno = reader.line_num  # the file line the record ends on
        if None in row:  # DictReader files the fields beyond the header here
            yield lineno, None, f"{width + len(row[None])} fields for {width} header columns"
        else:
            yield lineno, row, None


def _batch_results(chunk: list):
    """(line number, row, results or None, error or None) for each entry of
    a chunk, in order.  Rows go through bulk.contact_arrays together; the
    rows it leaves to the scalar path, and rows whose fields do not parse,
    go through _process_batch_row, which gives the same floats or raises."""
    fields = operator.itemgetter(*_BATCH_FIELDS)
    todo, values = [], []
    for i, (_, row, err) in enumerate(chunk):
        if err is None:
            try:
                values.append(list(map(float, fields(row))))
                todo.append(i)
            except (ValueError, ArithmeticError, KeyError, TypeError):
                pass
    results: list = [None] * len(chunk)
    if todo:
        a1, b1, a2, b2, t1, t2, td = np.array(values, dtype=np.float64).T
        res = bulk.contact_arrays(
            a1, b1, a2, b2,
            *bulk.unit_vectors(t1), *bulk.unit_vectors(t2), *bulk.unit_vectors(td),
        )
        branch = [bulk.BRANCHES[code].value for code in res.branch.tolist()]
        rows = zip(
            res.d.tolist(), res.d_prime.tolist(), res.q.tolist(), branch,
            res.rc_x.tolist(), res.rc_y.tolist(),
            res.residual_e1.tolist(), res.residual_e2.tolist(),
        )
        for i, result, scalar in zip(todo, rows, res.scalar.tolist()):
            if not scalar:
                results[i] = result
    for (lineno, row, err), result in zip(chunk, results):
        if err is None and result is None:
            try:
                result = _process_batch_row(row)
            except (ValueError, ArithmeticError, KeyError, TypeError) as exc:
                err = str(exc)
        yield lineno, row, result, err


def cmd_batch(args) -> int:
    """Rows are read, computed and written BATCH_CHUNK at a time.  The
    output goes to a temporary file first, so a read error, which reaches
    main after the rows before it are done, leaves --output untouched; the
    CSV header is written last because its extra columns appear only when
    some row is accepted."""
    csv_format = args.format == "csv"
    newline = "" if csv_format else None
    header = None
    total = rejected = 0
    rejects = open(args.rejects, "w", encoding="utf-8") if args.rejects else sys.stderr
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline=newline) as body:
            for chunk in _iter_batch_chunks(args.input, args.format):
                outs = []
                for lineno, row, result, err in _batch_results(chunk):
                    total += 1
                    if err is None:
                        out = dict(row)
                        out.update(zip(_RESULT_FIELDS, result))
                        outs.append(out)
                        if header is None:
                            extra = [k for k in row if k not in _BATCH_FIELDS]
                            header = extra + list(_BATCH_FIELDS) + list(_RESULT_FIELDS)
                    else:
                        rejected += 1
                        print(f"line {lineno}: {err}", file=rejects)
                if not outs:
                    continue
                if csv_format:
                    csv.writer(body).writerows(map(operator.itemgetter(*header), outs))
                else:
                    body.write("".join([json.dumps(out) + "\n" for out in outs]))

            body.seek(0)
            with open(args.output, "w", encoding="utf-8", newline=newline) as fh:
                if csv_format:
                    csv.writer(fh).writerow(header or _BATCH_FIELDS + _RESULT_FIELDS)
                shutil.copyfileobj(body, fh)
        if total and rejected * 2 > total:
            raise ValueError(f"{rejected}/{total} rows rejected")
        return EXIT_OK
    finally:
        if args.rejects:
            rejects.close()


def _parse_sweep(text: str) -> tuple[float, float, float]:
    """START:STOP:STEP in degrees; ValueError with a one-line reason."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError("--sweep expects START:STOP:STEP") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("--sweep START, STOP and STEP must be finite")
    if step <= 0.0:
        raise ValueError("--sweep STEP must be positive")
    if start > stop:
        raise ValueError("--sweep START must not exceed STOP")
    if start + step == start or stop + step == stop:
        # the accumulated angle would stop advancing before it passes STOP
        raise ValueError("--sweep STEP is too small to advance the angle")
    return start, stop, step


def _check_count(flag: str, value: int) -> None:
    if not analysis.MIN_SAMPLES <= value <= MAX_PANELS:
        raise ValueError(f"{flag} must be between {analysis.MIN_SAMPLES} and {MAX_PANELS}")


def _open_output(path):
    """The --output file for writing, or stdout (left open) without one."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def cmd_excluded_area(args) -> int:
    cfg = _pair_from_args(args)
    _check_count("--panels", args.panels)

    def area_at(angle_deg: float) -> float:
        k2 = UnitVec2.from_angle(math.radians(args.theta1 + angle_deg))
        return analysis.excluded_area(cfg.shape1, cfg.shape2, cfg.k1, k2, args.panels)

    if args.sweep:
        start, stop, step = _parse_sweep(args.sweep)
        with _open_output(args.output) as out:
            print("angle_deg,area", file=out)
            angle = start
            while angle <= stop + 1e-12:
                print(f"{angle},{area_at(angle)}", file=out)
                angle += step
        return EXIT_OK

    if args.angle is None:
        # fall back to the orientation difference given by the theta flags
        value = analysis.excluded_area(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, args.panels)
    else:
        value = area_at(args.angle)
    print(value)
    return EXIT_OK


def _write_curve(
    curve: list[tuple[float, Vec2]], output, angle_label: str, as_json: bool
) -> None:
    with _open_output(output) as out:
        if as_json:
            payload = {
                "angle_label": angle_label,
                "samples": [
                    [math.degrees(theta), p.x, p.y] for theta, p in curve
                ],
            }
            print(json.dumps(payload), file=out)
        else:
            print(f"{angle_label},x,y", file=out)
            for theta, p in curve:
                print(f"{math.degrees(theta)},{p.x},{p.y}", file=out)


def cmd_boundary(args) -> int:
    cfg = _pair_from_args(args)
    _check_count("--n", args.n)
    curve = analysis.excluded_boundary(cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, args.n)
    _write_curve(curve, args.output, "theta_d_deg", args.json)
    return EXIT_OK


def cmd_locus(args) -> int:
    cfg = _pair_from_args(args)
    _check_count("--n", args.n)
    curve = analysis.contact_locus(cfg.shape1, cfg.shape2, cfg.k2, cfg.dhat, args.n)
    _write_curve(curve, args.output, "theta1_deg", args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    settings = oracle.OracleSettings(boundary_samples=args.samples)
    report = oracle.verify_random(
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
        settings=settings,
        workers=args.workers,
    )
    print(f"trials        {report.trials}")
    print(f"max rel err   {report.max_rel_err}")
    print(f"mean rel err  {report.mean_rel_err}")
    print(f"root failures {report.root_failures}")
    print(f"failures      {len(report.failures)}")
    for idx, err in report.failures[:20]:
        print(f"  trial {idx}: rel err {err}")
    return EXIT_OK if not report.failures else EXIT_VERIFY_FAIL


def cmd_simulate(args) -> int:
    try:
        cfg = mcsim.load_mc_config(args.config)
    except (OSError, KeyError, ValueError, TypeError, IndexError, ArithmeticError) as exc:
        print(f"error: bad run configuration: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            summary = mcsim.run_simulation(cfg, fh, audit=args.audit)
    except mcsim.AuditFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(json.dumps(summary))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ellipse-contact",
        description="Analytic contact distance, overlap and excluded area "
        "for hard ellipses in 2D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance of closest approach along a direction")
    _add_pair_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("contact", help="contact point and normal at tangency")
    _add_pair_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("overlap", help="overlap verdict at a given separation")
    _add_pair_args(p)
    p.add_argument("--sep", type=float, required=True, help="center separation")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("batch", help="process a CSV or JSONL file of configurations")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--rejects", default=None,
                   help="write rejected line numbers here instead of stderr")

    p = sub.add_parser("excluded-area", help="excluded area at one angle or a sweep")
    _add_pair_args(p, with_dhat=False)
    p.add_argument("--angle", type=float, default=None,
                   help="angle between major axes, degrees")
    p.add_argument("--sweep", default=None, help="START:STOP:STEP angle sweep, degrees")
    p.add_argument("--panels", type=int, default=2048,
                   help="quadrature nodes over the normal angle (default 2048)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("boundary", help="excluded-area boundary curve as CSV")
    _add_pair_args(p, with_dhat=False)
    p.add_argument("--n", type=int, default=720)
    p.add_argument("--output", default=None)
    p.add_argument("--json", action="store_true", help="JSON curve payload")

    p = sub.add_parser("locus", help="contact-point locus as ellipse 1 rotates")
    _add_pair_args(p)
    p.add_argument("--n", type=int, default=720)
    p.add_argument("--output", default=None)
    p.add_argument("--json", action="store_true", help="JSON curve payload")

    p = sub.add_parser("verify", help="compare the kernel against the brute-force oracle")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--samples", type=int, default=4096,
                   help="oracle boundary samples per ellipse")
    p.add_argument("--workers", type=int, default=1, help="process count (default 1)")

    p = sub.add_parser("simulate", help="run the hard-ellipse Monte Carlo driver")
    p.add_argument("--config", required=True, help="JSON or key=value run file")
    p.add_argument("--output", required=True, help="trajectory JSONL path")
    p.add_argument("--audit", action="store_true",
                   help="all-pairs overlap audit after every sweep")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced module attribute is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, ArithmeticError, OSError, csv.Error) as exc:
        # bad shapes, directions and counts, NoPhysicalRoot, an infeasible
        # packing, the overflow, zero division or math domain errors of
        # non-finite or extreme inputs, files that cannot be opened, and
        # batch input that cannot be read or parsed or is mostly rejected
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
