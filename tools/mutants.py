"""Mutation audit of the test suite's gates: which constants and guards of
the kernel, the excluded area and the Monte Carlo can the tests tell apart
from a changed version?

Each mutant is one textual replacement in one file under src/.  For each,
the script copies src/, tests/, perfbench/ (which a test loads) and
pyproject.toml into a temporary directory, applies the replacement there
(the text must occur exactly as often as the mutant says, so a stale
mutant fails loudly instead of testing nothing), and runs
``python -m pytest -x -q`` in that copy.  A mutant is killed when a test
fails, and the first failing test is reported; it survives when the whole
suite passes.  The checkout itself is never modified.

This is not part of the Tier-1 suite: a full run takes about as long as
the suite times the number of surviving mutants (a killed mutant stops at
its first failure).

Usage, from the root of a checkout:

    python tools/mutants.py               # every mutant
    python tools/mutants.py --list        # names only
    python tools/mutants.py NAME [NAME..] # the named ones
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
QUARTIC = "src/ellipse_contact/quartic.py"
BULK = "src/ellipse_contact/bulk.py"
CONTACT = "src/ellipse_contact/contact.py"
GEOMETRY = "src/ellipse_contact/geometry.py"
ORACLE = "src/ellipse_contact/oracle.py"
ANALYSIS = "src/ellipse_contact/analysis.py"
MCSIM = "src/ellipse_contact/mcsim.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    count: int = 1


MUTANTS = (
    # quartic.py: the closed-form rule and its root test
    Mutant("bracket-tol-1e-7", QUARTIC, "BRACKET_TOL = 1e-9", "BRACKET_TOL = 1e-7"),
    Mutant("polish-steps-2", QUARTIC, "POLISH_STEPS = 3", "POLISH_STEPS = 2"),
    Mutant("polish-steps-6", QUARTIC, "POLISH_STEPS = 3", "POLISH_STEPS = 6"),
    Mutant("residual-rtol-1e-6", QUARTIC, "RESIDUAL_RTOL = 1e-8", "RESIDUAL_RTOL = 1e-6"),
    Mutant("near-biquadratic-1e-13", QUARTIC, "(small < 1e-11) | (small < 1e-11 *",
           "(small < 1e-13) | (small < 1e-13 *"),
    Mutant("no-s1-exit", QUARTIC, "m.sqrt(where(s1 > 0.0, s1, math.nan))", "m.sqrt(s1)"),
    Mutant("cardano-small-u-1e-14", QUARTIC, "abs(u) < 1e-12 *", "abs(u) < 1e-14 *"),
    Mutant("cardano-small-u-1e-9", QUARTIC, "abs(u) < 1e-12 *", "abs(u) < 1e-9 *"),
    Mutant("larger-root-tie", QUARTIC, "where((r_m > r_p) |", "where((r_m >= r_p) |"),
    # quartic.py: the solve on the contact angle, its step cap and its stop
    Mutant("angle-steps-8", QUARTIC, "_ANGLE_STEPS = 64", "_ANGLE_STEPS = 8"),
    Mutant("angle-rtol-2^-20", QUARTIC, "_ANGLE_RTOL = 2.0 ** -40", "_ANGLE_RTOL = 2.0 ** -20"),
    Mutant("angle-rtol-0", QUARTIC, "_ANGLE_RTOL = 2.0 ** -40", "_ANGLE_RTOL = 0.0"),
    Mutant("angle-no-stop", QUARTIC, "            psi = to\n            break\n",
           "            psi = to\n"),
    Mutant("angle-open-bracket", QUARTIC, "psi = to if lo <= to <= hi else",
           "psi = to if lo < to < hi else"),
    Mutant("angle-start-0", QUARTIC, "    psi = math.atan(t * (1.0 + b2p) / (1.0 + big))\n",
           "    psi = 0.0\n"),
    # the closed-form rule once restated in bulk.py's angle-solve rows, now
    # quartic._closed_form_root's for both kernels: near-biquadratic
    # quartics keep their resolvent and their Ferrari root
    Mutant("bulk-angle-rows-keep-biquadratic", QUARTIC,
           "near = _near_biquadratic(c, beta)", "near = False"),
    # bulk.py: the guards on the normals' magnitudes are deliberate
    # conservative margins inside the float edges where the scalar code
    # raises (bulk.py says so where they are), and all four mutants are
    # expected to survive: at the edges (off, 1e-320) no test row lies
    # between margin and edge, and tightened (1e300, 1e-250) they only
    # defer more rows, which the scalar path answers alike
    Mutant("bulk-big-n-off", BULK, "(big_n > 1e307)", "(big_n > 1.7e308)"),
    Mutant("bulk-big-n-1e300", BULK, "(big_n > 1e307)", "(big_n > 1e300)"),
    Mutant("bulk-nn-1e-320", BULK, "(big_nn < 1e-300)", "(big_nn < 1e-320)"),
    Mutant("bulk-nn-1e-250", BULK, "(big_nn < 1e-300)", "(big_nn < 1e-250)"),
    Mutant("bulk-angle-rows-with-bad", BULK, "rows = np.flatnonzero(~bad & ~ok)",
           "rows = np.flatnonzero(~ok)"),
    # bulk.py: _unit's square screen, loosened twofold (2^-51 keeps rows
    # whose math.hypot UnitVec2 would divide by)
    Mutant("unit-screen-loose", BULK, "_UNIT_SCREEN = 2.0**-52", "_UNIT_SCREEN = 2.0**-51"),
    # geometry.py: the kernels' hypot with its ratio inverted, and the shape
    # check and the branch choice that both kernels call
    Mutant("hypot-swap", GEOMETRY, "small / (big + (big == 0.0))", "big / (small + (small == 0.0))"),
    Mutant("valid-axes-no-inf", GEOMETRY, " & (a < math.inf)", ""),
    Mutant("branches-inclusive", CONTACT, "    circle = delta < DELTA_CIRCLE_TOL\n"
           "    return circle, circle | (abs(cos_phi) < COS_PHI_TOL)",
           "    circle = delta <= DELTA_CIRCLE_TOL\n"
           "    return circle, circle | (abs(cos_phi) <= COS_PHI_TOL)"),
    # oracle.py: support_distances' stop, its last quotient and its Newton guard
    Mutant("support-angle-tol-2^-20", ORACLE, "_ANGLE_TOL = 2.0 ** -36", "_ANGLE_TOL = 2.0 ** -20"),
    Mutant("support-plain-final-dot", ORACLE, "/ _dot2(nx, dx, ny, dy)", "/ (nx * dx + ny * dy)"),
    Mutant("support-no-half-step-rule", ORACLE, " & (size + size <= before))", ")"),
    # analysis.py: the perimeter series' stop and the choice of the ellipse
    # mapped onto the unit disk (the larger, for range)
    Mutant("perimeter-stop-2^-20", ANALYSIS, "if c2 <= 2.0**-54 * a * a:",
           "if c2 <= 2.0**-20 * a * a:"),
    Mutant("area-size-swap-inverted", ANALYSIS, "if shape1.a * shape1.b > shape2.a * shape2.b:",
           "if shape1.a * shape1.b < shape2.a * shape2.b:"),
    # mcsim.py: the stencil's shifts across the box edge, the proposal's
    # width, the audit's minimum image and the clear-side band of the bounds
    Mutant("stencil-shift-flipped", MCSIM,
           "side if k + d < 0 else -side if k + d >= count else 0.0",
           "-side if k + d < 0 else side if k + d >= count else 0.0"),
    Mutant("proposal-half-width", MCSIM, "t_range = cfg.max_translation - t_low",
           "t_range = cfg.max_translation"),
    Mutant("audit-trunc-image", MCSIM, "np.round(d", "np.trunc(d", count=2),
    Mutant("clear-band-0", MCSIM, "_CLEAR_BAND = 1.0 + 4.0 * TANGENT_RTOL",
           "_CLEAR_BAND = 1.0 + 0.0 * TANGENT_RTOL"),
    Mutant("clear-band-2", MCSIM, "_CLEAR_BAND = 1.0 + 4.0 * TANGENT_RTOL",
           "_CLEAR_BAND = 1.0 + 2.0 * TANGENT_RTOL"),
)


def apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != mutant.count:
        raise SystemExit(
            f"{mutant.name}: {mutant.old!r} occurs {found} times in {mutant.path}, "
            f"expected {mutant.count}"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant | None, timeout: float) -> tuple[str, str, float]:
    """(verdict, first failing test or '', seconds) for one mutant, or for
    the unmutated copy when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return "timeout", "", time.monotonic() - start
        elapsed = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", elapsed
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}", elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="seconds per suite run before it counts as a timeout")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(m.name)
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    verdict, test, seconds = run(None, args.timeout)
    if verdict != "survived":
        print(f"the unmutated suite does not pass ({verdict} {test}); no mutant can be judged")
        return 1
    print(f"unmutated suite passes in {seconds:.0f} s", flush=True)
    survivors = 0
    for m in chosen:
        verdict, test, seconds = run(m, args.timeout)
        survivors += verdict != "killed"
        print(f"{m.name:36s} {verdict:8s} {seconds:6.0f} s  {test}", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} not killed, of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
