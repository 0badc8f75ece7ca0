"""In-memory spans around the layer entry points, and the per-layer metrics
derived from them.

A wrapper replaces the name that a consumer module imported (for example
``mcsim.closest_approach``), so a span opens exactly where the consumer
calls into the next layer and nothing under ``src/`` changes.  Several
bindings of one function share a span name.  Spans of one unit of work are
kept in a list, folded into totals when the unit ends, and dropped.
"""

from __future__ import annotations

import time
from collections import defaultdict

import ellipse_contact
from ellipse_contact import analysis, cli, contact, mcsim, oracle

# (module, imported name, span name); the package's own names are the ones
# the benchmark calls directly
BINDINGS = (
    (ellipse_contact, "make_pair_configuration", "make_pair_configuration"),
    (ellipse_contact, "closest_approach", "closest_approach"),
    (ellipse_contact, "tangency_residuals", "tangency_residuals"),
    (ellipse_contact, "stratified_configuration", "stratified_configuration"),
    (mcsim, "run_simulation", "run_simulation"),
    (mcsim, "init_state", "init_state"),
    (mcsim, "mc_sweep", "mc_sweep"),
    (mcsim, "audit_overlaps", "audit_overlaps"),
    (mcsim, "_pair_clear", "pair_clear"),
    (mcsim, "closest_approach", "closest_approach"),
    (contact, "closest_approach", "closest_approach"),
    (contact, "transformed_pair", "transformed_pair"),
    (contact, "solve_contact_quartic", "solve_contact_quartic"),
    (cli, "cmd_batch", "cmd_batch"),
    (cli, "make_pair_configuration", "make_pair_configuration"),
    (cli, "closest_approach", "closest_approach"),
    (cli, "tangency_residuals", "tangency_residuals"),
    (analysis, "excluded_area", "excluded_area"),
    (analysis, "excluded_boundary", "excluded_boundary"),
    (analysis, "contact_locus", "contact_locus"),
    (analysis, "closest_approach", "closest_approach"),
    (analysis, "contact_point", "contact_point"),
    (oracle, "verify_random", "verify_random"),
    (oracle, "closest_approach", "closest_approach"),
    (oracle, "oracle_distance", "oracle_distance"),
    (oracle, "stratified_configuration", "stratified_configuration"),
)

# A span belongs to the outermost of these that encloses it, so the lattice
# audit inside init_state is told apart from the per-sweep audits.
CONTEXTS = ("init_state", "mc_sweep", "audit_overlaps", "excluded_area", "verify_random")

BRANCHES = ("general", "circle-like", "phi-right-angle", "parallel-axes-2a", "parallel-axes-2b")


class Tracer:
    """Installs the wrappers while entered; records spans into ``spans`` as
    (name, parent index, start, end, kernel branch or None)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_branch = name == "closest_approach"

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                branch = result.branch.value if tag_branch and result is not None else None
                spans[index] = (name, parent, start, end, branch)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class LayerTotals:
    """Span counts and times summed over traced units.

    Keys are (context, span name).  Counts of every unit must match those
    of the first unit, because every unit repeats the same work.
    """

    def __init__(self) -> None:
        self.count: dict = defaultdict(int)
        self.time: dict = defaultdict(float)
        self.child_time: dict = defaultdict(float)
        self.branches: dict = defaultdict(int)
        self.units = 0
        self.unit_counts: dict | None = None
        self.counts_repeat = True

    def fold(self, spans: list) -> None:
        """Add one unit's spans to the totals and clear the list."""
        ctx: list = [None] * len(spans)
        count: dict = defaultdict(int)
        for i, (name, parent, start, end, branch) in enumerate(spans):
            c = ctx[parent] if parent >= 0 else None
            if c is None and name in CONTEXTS:
                c = name
            ctx[i] = c
            key = (c, name)
            count[key] += 1
            self.time[key] += end - start
            if parent >= 0:
                self.child_time[(ctx[parent], spans[parent][0])] += end - start
            if branch is not None:
                count[("branch", branch)] += 1
        spans.clear()
        for key, n in count.items():
            if key[0] == "branch":
                self.branches[key[1]] += n
            else:
                self.count[key] += n
        self.units += 1
        if self.unit_counts is None:
            self.unit_counts = dict(count)
        elif dict(count) != self.unit_counts:
            self.counts_repeat = False

    def calls(self, name: str, ctx: str | None = "*") -> int:
        return sum(n for (c, s), n in self.count.items() if s == name and ctx in ("*", c))

    def seconds(self, name: str, ctx: str | None = "*") -> float:
        return sum(t for (c, s), t in self.time.items() if s == name and ctx in ("*", c))

    def self_seconds(self, name: str, ctx: str | None = "*") -> float:
        child = sum(t for (c, s), t in self.child_time.items() if s == name and ctx in ("*", c))
        return self.seconds(name, ctx) - child


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: LayerTotals, moves_per_unit: int, rows_per_unit: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.  A layer the workload does
    not reach reads 0.  Counts are per unit; their ratios are exact."""
    u = max(t.units, 1)
    moves = moves_per_unit * t.units
    sweep_checks = t.calls("pair_clear", "mc_sweep")
    sweep_kernel = t.calls("closest_approach", "mc_sweep")
    audits = t.calls("audit_overlaps", "audit_overlaps")
    audit_kernel = t.calls("closest_approach", "audit_overlaps")
    kernel = t.calls("closest_approach")
    areas = t.calls("excluded_area")
    m = {
        "mc.moves_per_unit": (moves_per_unit if t.units else 0, "count"),
        "pair_clear.calls_per_unit": (sweep_checks // u, "count"),
        "pair_clear.calls_per_move": (_ratio(sweep_checks, moves), "calls/move"),
        "pair_clear.us_per_call": (1e6 * _ratio(t.seconds("pair_clear", "mc_sweep"), sweep_checks), "us"),
        "pair_clear.kernel_frac": (_ratio(sweep_kernel, sweep_checks), "fraction"),
        "closest_approach.calls_per_move": (_ratio(sweep_kernel, moves), "calls/move"),
        "mc_sweep.ms_per_call": (1e3 * _ratio(t.seconds("mc_sweep"), t.calls("mc_sweep")), "ms"),
        "mc_sweep.self_frac": (_ratio(t.self_seconds("mc_sweep"), t.seconds("mc_sweep")), "fraction"),
        "run_simulation.self_frac": (
            _ratio(t.self_seconds("run_simulation"), t.seconds("run_simulation")), "fraction"),
        "audit_overlaps.calls_per_unit": (audits // u, "count"),
        "audit_overlaps.ms_per_call": (
            1e3 * _ratio(t.seconds("audit_overlaps", "audit_overlaps"), audits), "ms"),
        "audit_overlaps.kernel_calls_per_call": (_ratio(audit_kernel, audits), "calls/call"),
        "closest_approach.calls_per_unit": (kernel // u, "count"),
        "closest_approach.us_per_call": (1e6 * _ratio(t.seconds("closest_approach"), kernel), "us"),
        "closest_approach.self_us_per_call": (
            1e6 * _ratio(t.self_seconds("closest_approach"), kernel), "us"),
        "transformed_pair.us_per_call": (
            1e6 * _ratio(t.seconds("transformed_pair"), t.calls("transformed_pair")), "us"),
        "solve_contact_quartic.us_per_call": (
            1e6 * _ratio(t.seconds("solve_contact_quartic"), t.calls("solve_contact_quartic")), "us"),
        "solve_contact_quartic.calls_per_kernel_call": (
            _ratio(t.calls("solve_contact_quartic"), kernel), "calls/call"),
    }
    for b in BRANCHES:
        m[f"closest_approach.branch_frac.{b}"] = (_ratio(t.branches[b], kernel), "fraction")
    m.update({
        "batch.rows_per_unit": (rows_per_unit if t.units else 0, "count"),
        "make_pair_configuration.us_per_call": (
            1e6 * _ratio(t.seconds("make_pair_configuration"), t.calls("make_pair_configuration")), "us"),
        "tangency_residuals.us_per_call": (
            1e6 * _ratio(t.seconds("tangency_residuals"), t.calls("tangency_residuals")), "us"),
        "cmd_batch.self_us_per_row": (
            1e6 * _ratio(t.self_seconds("cmd_batch"), rows_per_unit * t.units), "us"),
        "excluded_area.calls_per_unit": (areas // u, "count"),
        "excluded_area.ms_per_call": (1e3 * _ratio(t.seconds("excluded_area"), areas), "ms"),
        "excluded_area.kernel_calls_per_call": (
            _ratio(t.calls("closest_approach", "excluded_area"), areas), "calls/call"),
        "excluded_area.self_frac": (
            _ratio(t.self_seconds("excluded_area"), t.seconds("excluded_area")), "fraction"),
        "excluded_boundary.ms_per_call": (
            1e3 * _ratio(t.seconds("excluded_boundary"), t.calls("excluded_boundary")), "ms"),
        "contact_locus.ms_per_call": (
            1e3 * _ratio(t.seconds("contact_locus"), t.calls("contact_locus")), "ms"),
        "oracle_distance.ms_per_call": (
            1e3 * _ratio(t.seconds("oracle_distance"), t.calls("oracle_distance")), "ms"),
        "stratified_configuration.us_per_call": (
            1e6 * _ratio(t.seconds("stratified_configuration"), t.calls("stratified_configuration")), "us"),
        "verify_random.kernel_frac": (
            _ratio(t.seconds("closest_approach", "verify_random"), t.seconds("verify_random")), "fraction"),
    })
    return m
