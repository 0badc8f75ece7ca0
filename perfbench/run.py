"""Benchmark of the ellipse-contact package: one workload per invocation.

    python3 perfbench/run.py --workload mc_nvt --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The measurement runs in this one process with no threads or
worker processes: it alternates the workload's primary and secondary unit
of work until ``--seconds`` have passed, checks every output, and reports
medians over units.  Set-up time is the median over fresh interpreter
processes started one at a time between units.  ``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics from in-memory spans instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "ellipse_contact" / "__init__.py").is_file():
    sys.exit(f"error: no package source under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MIN_UNITS = 3
PHASES = ("primary", "secondary")
REF_ITERATIONS = 40_000
REF_PER_SECOND = 2_000_000  # about one second on a 2-core Xeon VM


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input size; 'tiny' is for the self-check")
    p.add_argument("--setup-probe", action="store_true",
                   help="build the program's state, print the wall-clock time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(args) -> float:
    """Process start through import and state building, in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def reference_second() -> float:
    """Wall time, in seconds, that this process needs right now for
    REF_PER_SECOND iterations of a fixed pure-Python loop (float math,
    object and tuple allocation, dict stores), timed on REF_ITERATIONS.

    The host's speed drifts by tens of percent over seconds on a shared
    VM.  Rates per reference second cancel that drift, because the loop
    slows down with the program; the loop shares no code with it.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(REF_ITERATIONS):
        p = _Point(math.sqrt(i + 1.0), i * 0.5)
        table[i & 255] = (p.x, p.y)
        acc += p.x * p.y
    return (time.perf_counter() - start) * (REF_PER_SECOND / REF_ITERATIONS)


def measure(wl, seconds: float, trace: bool, probe_setup):
    """Alternate primary and secondary units until the time is up.

    Returns, per phase and for untraced and traced units apart, one sample
    per unit of (work per second, work per reference second), the span
    totals of the traced units, and SETUP_REPEATS set-up times.  The
    reference loop runs between steps; a step's time in reference seconds
    uses the mean of the loops either side.  The set-up probes run between
    units, spread evenly over the run, so that their median sees the same
    drift of the host as the rates.
    """
    samples = {(traced, phase): [] for traced in (False, True) for phase in PHASES}
    totals = spans.LayerTotals()
    tracer = spans.Tracer()
    min_units = MIN_UNITS * (2 if trace else 1)
    setup: list[float] = []
    begin = time.perf_counter()
    unit = 0
    ref_before = reference_second()
    while unit < min_units or time.perf_counter() < begin + seconds:
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= begin + seconds * len(setup) / SETUP_REPEATS:
            setup.append(probe_setup())
            ref_before = reference_second()
        traced = trace and unit % 2 == 1
        for phase in PHASES:
            gc.collect()
            work = elapsed = ref_elapsed = 0.0
            with tracer if traced else contextlib.nullcontext():
                steps = getattr(wl, phase)()
                while True:
                    start = time.perf_counter()
                    done = next(steps, None)
                    step = time.perf_counter() - start
                    if done is None:
                        break
                    ref_after = reference_second()
                    work += done
                    elapsed += step
                    ref_elapsed += step / (0.5 * (ref_before + ref_after))
                    ref_before = ref_after
            samples[(traced, phase)].append((work / elapsed, work / ref_elapsed))
            getattr(wl, "check_" + phase)(traced)
        if traced:
            totals.fold(tracer.spans)
        unit += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup())
    if trace:
        wl.tally(1, int(not totals.counts_repeat), "span counts differ between traced units")
    return samples, totals, setup


def context(args) -> dict:
    """Recorded with every run and never gated."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "src_lines": lines, "src_sha256": digest.hexdigest(),
        "commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    size = SIZES[args.size]
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls.setup(args.seed, size)
        print(repr(time.time()))
        return 0

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        wl = cls(args.seed, size, workdir)
        samples, totals, setup = measure(wl, args.seconds, bool(args.trace), lambda: setup_seconds(args))
        wl.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("context " + json.dumps(context(args)))
    names = {"primary": cls.primary_name, "secondary": cls.secondary_name}
    for (traced, phase), pairs in samples.items():
        if pairs:
            raw = [r for r, _ in pairs]
            label = "traced " if traced else ""
            print(f"{label}{names[phase]} = {statistics.median(raw)!r} 1/s  [{_summary(raw)}]")

    per_ref = {key: [n for _, n in pairs] for key, pairs in samples.items()}
    e2e = {
        f"{phase}_per_ref_s": (statistics.median(per_ref[(False, phase)]), "1/ref_s", per_ref[(False, phase)])
        for phase in PHASES
    }
    e2e.update({
        "setup_s": (statistics.median(setup), "s", setup),
        "peak_rss_mb": (peak_rss_mb, "MB", [peak_rss_mb]),
        "ok_frac": (1.0 - wl.failed / wl.attempted, "fraction", None),
    })
    for name, (value, unit, values) in e2e.items():
        base = f"{wl.failed} failed of {wl.attempted} attempted" if values is None else _summary(values)
        print(f"{name} = {value!r} {unit}  [{base}]")
    for problem in wl.problems:
        print(f"FAILED: {problem}")

    if args.trace:
        metrics = spans.layer_metrics(totals, wl.moves_per_unit, wl.rows_per_unit)
        for phase in PHASES:
            untraced, traced = (statistics.median(per_ref[(t, phase)]) for t in (False, True))
            metrics[f"traced.{phase}_per_ref_s"] = (traced, "1/ref_s")
            metrics[f"trace_overhead.{phase}_frac"] = (untraced / traced - 1.0, "fraction")
        print(f"per-layer metrics over {totals.units} traced units:")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value!r} {unit}")
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
