"""The array kernel against the scalar API, and ``batch`` against the
per-row loop it replaced.

contact_arrays must reproduce make_pair_configuration + closest_approach +
tangency_residuals bit for bit on every row it does not leave to the
scalar path, and must leave every row the scalar path rejects.  The batch
command must write the same bytes as the per-row loop kept below.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_cli, run_cli_bounded
from ellipse_contact import (
    UnitVec2,
    closest_approach,
    make_pair_configuration,
    oracle,
    tangency_residuals,
)
from ellipse_contact import bulk, cli, quartic, transformed_pair
from ellipse_contact.bulk import BRANCHES, contact_arrays, unit_vectors
from ellipse_contact.contact import COS_PHI_TOL, DELTA_CIRCLE_TOL


def scalar_row(a1, b1, a2, b2, k1, k2, dhat):
    """The scalar API's values as hex strings plus the branch, or None
    where it raises."""
    try:
        cfg = make_pair_configuration(a1, b1, a2, b2, k1, k2, dhat)
        sol = closest_approach(cfg)
        r1, r2, _ = tangency_residuals(cfg, sol)
    except (ValueError, ArithmeticError):
        return None
    values = (sol.d, sol.d_prime, sol.q, sol.contact_point.x, sol.contact_point.y, r1, r2)
    return tuple(v.hex() for v in values) + (sol.branch,)


def array_rows(rows):
    """contact_arrays over rows of (a1, b1, a2, b2, k1, k2, dhat) with
    (x, y) directions: per row the hex strings plus the branch, or None
    for a row left to the scalar path."""
    cols = [np.array(c, dtype=float) for c in zip(*(
        (a1, b1, a2, b2, *k1, *k2, *dh) for a1, b1, a2, b2, k1, k2, dh in rows
    ))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel must not warn
        res = contact_arrays(*cols)
    out = []
    for i in range(len(rows)):
        if res.scalar[i]:
            out.append(None)
            continue
        values = (res.d[i], res.d_prime[i], res.q[i], res.rc_x[i], res.rc_y[i],
                  res.residual_e1[i], res.residual_e2[i])
        out.append(tuple(float(v).hex() for v in values) + (BRANCHES[res.branch[i]],))
    return out


def assert_matches_scalar(rows):
    """Every resolved row equals the scalar API; every row the scalar API
    rejects is left to it.  Returns the indices left to the scalar path."""
    deferred = []
    for i, (got, row) in enumerate(zip(array_rows(rows), rows)):
        expect = scalar_row(*row)
        if got is None:
            deferred.append(i)
        else:
            assert got == expect, (i, row)
    return deferred


def stream_rows(configurations):
    return [
        (c.shape1.a, c.shape1.b, c.shape2.a, c.shape2.b,
         (c.k1.x, c.k1.y), (c.k2.x, c.k2.y), (c.dhat.x, c.dhat.y))
        for c in configurations
    ]


@pytest.mark.parametrize("seed, n, max_aspect, deferred", [
    (11, 10_000, 20.0, []),
    (7, 5_000, 1000.0, None),
])
def test_contact_arrays_match_scalar_on_streams(seed, n, max_aspect, deferred):
    rows = stream_rows(oracle.stratified_configurations(n, seed, max_aspect))
    got = assert_matches_scalar(rows)
    if deferred is not None:
        assert got == deferred
    else:
        # extreme aspect: the companion-matrix fallback takes ~2%
        assert len(got) < 0.05 * n


def test_contact_arrays_defer_the_fallback_row():
    # the one configuration in 20,000 (seed 11) the closed form leaves to
    # np.roots goes to the scalar path
    rows = stream_rows([oracle.stratified_configuration(11, 14928)])
    assert assert_matches_scalar(rows) == [0]


def test_assembly_order_matches_scalar_when_several_accepted(monkeypatch):
    # with these tolerances most quartics have several accepted Ferrari
    # assemblies, so a row's q depends on the order they are tried in
    for module in (quartic, bulk):
        monkeypatch.setattr(module, "RESIDUAL_RTOL", 10.0)
        monkeypatch.setattr(module, "BRACKET_TOL", 100.0)
    cfgs = list(oracle.stratified_configurations(3000, seed=11))
    several = 0
    for cfg in cfgs:
        tp = transformed_pair(cfg)
        if tp.delta < DELTA_CIRCLE_TOL or abs(tp.cos_phi) < COS_PHI_TOL:
            continue
        c = quartic.quartic_coefficients(
            tp.b2p, tp.delta, tp.sin_phi ** 2 / tp.cos_phi ** 2
        )
        designated, others = quartic._ferrari_candidates(c)
        hi = math.sqrt(1.0 + tp.delta)
        accepted = [quartic._accept(c, r, hi) for r in (designated, *others)]
        several += sum(q is not None for q in accepted) > 1
    assert several > 2000
    assert assert_matches_scalar(stream_rows(cfgs)) == []


def edge_rows():
    x, y = (1.0, 0.0), (0.0, 1.0)
    diag = (math.sqrt(0.5), math.sqrt(0.5))
    rows = []
    for dh_deg in (0.0, 17.0, 45.0, 90.0, 133.0, 180.0, 270.0):
        dh = (math.cos(math.radians(dh_deg)), math.sin(math.radians(dh_deg)))
        rows += [
            (2.0, 1.0, 3.0, 1.0, x, x, dh),            # exactly parallel axes
            (2.0, 1.0, 1.2, 1.0, x, x, dh),            # the other eigenpairing
            (2.0, 1.0, 3.0, 1.0, x, (-1.0, 0.0), dh),  # anti-parallel axes
            (2.0, 1.0, 2.0, 1.0, diag, diag, dh),      # identical, parallel
            (1.0, 1.0, 1.0, 1.0, x, y, dh),            # circles
            (1.5, 1.5, 2.0, 1.0, x, diag, dh),         # circle and ellipse
            (2.0, 1.0, 3.0, 1.0, x, y, dh),            # right angle
            (35.0, 1.75, 20.0, 1.0, x, y, dh),         # 20:1 at right angles
            (2.0, 1.0, 3.0, 1.0, (3.0, 4.0), (-0.5, 2.0), (dh[0] * 7, dh[1] * 7)),
        ]
    rows.append((35.0, 1.75, 20.0, 1.0, x, y, y))
    return rows


def test_contact_arrays_edge_cases():
    rows = edge_rows()
    assert assert_matches_scalar(rows) == []
    branches = {row[-1] for row in array_rows(rows)}
    assert branches == set(BRANCHES)  # all five branches answered


def test_contact_arrays_leave_invalid_rows():
    x = (1.0, 0.0)
    rows = [
        (1.0, 2.0, 1.0, 1.0, x, x, x),        # a < b
        (2.0, 0.0, 1.0, 1.0, x, x, x),        # b = 0
        (math.inf, 1.0, 1.0, 1.0, x, x, x),
        (2.0, 1.0, math.nan, 1.0, x, x, x),
        (2.0, 1.0, 2.0, 1.0, (0.0, 0.0), x, x),
        (2.0, 1.0, 2.0, 1.0, x, (math.nan, 1.0), x),
        (2.0, 1.0, 2.0, 1.0, x, x, (math.inf, 0.0)),
        (2.0, 1e-300, 2.0, 1e-300, x, x, x),  # ZeroDivisionError
        (1e308, 1.0, 2.0, 1.0, x, x, x),      # OverflowError
    ]
    assert assert_matches_scalar(rows) == list(range(len(rows)))


def test_contact_arrays_unequal_lengths():
    with pytest.raises(ValueError):
        contact_arrays(*[[2.0, 2.0]] * 9, [1.0])


LENGTHS = st.sampled_from([
    5e-324, 1e-308, 1e-300, 1e-160, 1e-3, 0.5, 1.0, 2.0, 7.5, 1e3,
    1e160, 1e300, 1e308, 0.0, -1.0, math.inf, math.nan,
]) | st.floats(1e-3, 1e3)
COMPONENTS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 1e308, math.inf, math.nan,
]) | st.floats(-2.0, 2.0)


@st.composite
def fuzzed_row(draw):
    a1, b1 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    a2, b2 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    vectors = [draw(st.tuples(COMPONENTS, COMPONENTS)) for _ in range(3)]
    return (a1, b1, a2, b2, *vectors)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(fuzzed_row(), min_size=1, max_size=30))
def test_contact_arrays_fuzzed_rows_match_or_defer(rows):
    assert_matches_scalar(rows)


def test_unit_vectors_match_from_angle():
    angles = [0.0, 30.0, -45.0, 90.0, 180.0, 1e-300, 1e16, 1e300, -1e300,
              math.inf, -math.inf, math.nan]
    angles += np.random.default_rng(5).uniform(-720.0, 720.0, 2000).tolist()
    xs, ys = unit_vectors(angles)
    for deg, x, y in zip(angles, xs.tolist(), ys.tolist()):
        try:
            u = UnitVec2.from_angle(math.radians(deg))
        except ValueError:
            assert math.isnan(x) and math.isnan(y)
            continue
        assert (x.hex(), y.hex()) == (u.x.hex(), u.y.hex())


# ---------------------------------------------------------------------------
# batch against the per-row loop

FIELDS = ("a1", "b1", "a2", "b2", "theta1", "theta2", "theta_d")
RESULTS = ("d", "d_prime", "q", "branch", "rc_x", "rc_y", "residual_e1", "residual_e2")


def reference_batch(path, output, fmt, rejects_path):
    """The batch command as it was before the array kernel: one scalar
    call per row, every output row held until the end."""
    def process(row):
        cfg = make_pair_configuration(
            float(row["a1"]), float(row["b1"]), float(row["a2"]), float(row["b2"]),
            UnitVec2.from_angle(math.radians(float(row["theta1"]))),
            UnitVec2.from_angle(math.radians(float(row["theta2"]))),
            UnitVec2.from_angle(math.radians(float(row["theta_d"]))),
        )
        sol = closest_approach(cfg)
        r1, r2, _ = tangency_residuals(cfg, sol)
        out = dict(row)
        out.update(
            d=sol.d, d_prime=sol.d_prime, q=sol.q, branch=sol.branch.value,
            rc_x=sol.contact_point.x, rc_y=sol.contact_point.y,
            residual_e1=r1, residual_e2=r2,
        )
        return out

    def rows():
        if fmt == "jsonl":
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                        missing = [k for k in FIELDS if k not in row]
                        if missing:
                            raise KeyError(f"missing fields {missing}")
                        yield lineno, row, None
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        yield lineno, None, str(exc)
            return
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or any(k not in reader.fieldnames for k in FIELDS):
                raise ValueError(f"CSV header must contain {', '.join(FIELDS)}")
            for row in reader:
                yield reader.line_num, row, None

    with open(rejects_path, "w", encoding="utf-8") as rejects:
        rows_out, extra = [], []
        total = rejected = 0
        try:
            for lineno, row, err in rows():
                total += 1
                if err is None:
                    try:
                        rows_out.append(process(row))
                        extra += [k for k in row if k not in FIELDS and k not in extra]
                        continue
                    except (ValueError, ArithmeticError, KeyError, TypeError) as exc:
                        err = str(exc)
                rejected += 1
                print(f"line {lineno}: {err}", file=rejects)
        except (OSError, ValueError):
            return 2
    if fmt == "jsonl":
        with open(output, "w", encoding="utf-8") as fh:
            for out in rows_out:
                fh.write(json.dumps(out) + "\n")
    else:
        header = extra + list(FIELDS) + list(RESULTS)
        with open(output, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for out in rows_out:
                writer.writerow([out.get(k, "") for k in header])
    return 2 if total and rejected * 2 > total else 0


def run_both(tmp_path, capsys, text, fmt, chunk=None):
    """batch and the reference loop on the same input; returns the exit
    code after asserting identical exit codes, outputs and rejects."""
    inp = tmp_path / f"in.{fmt}"
    inp.write_text(text, encoding="utf-8")
    files = {side: (tmp_path / f"{side}.out", tmp_path / f"{side}.rej") for side in ("new", "ref")}
    expect = reference_batch(inp, files["ref"][0], fmt, files["ref"][1])
    saved = cli.BATCH_CHUNK
    cli.BATCH_CHUNK = chunk or saved
    try:
        code, out, err, elapsed = run_cli_bounded(
            capsys, "batch", "--input", str(inp), "--output", str(files["new"][0]),
            "--format", fmt, "--rejects", str(files["new"][1]),
        )
    finally:
        cli.BATCH_CHUNK = saved
    assert elapsed < 5.0
    assert code == expect and code in (0, 2)
    assert out == ""
    for new, ref in zip(files["new"], files["ref"]):
        assert new.read_bytes() == ref.read_bytes()
    return code


def stratified_text(n, seed, fmt):
    rows = []
    for i, c in enumerate(oracle.stratified_configurations(n, seed)):
        values = (c.shape1.a, c.shape1.b, c.shape2.a, c.shape2.b,
                  math.degrees(c.k1.angle()), math.degrees(c.k2.angle()),
                  math.degrees(c.dhat.angle()))
        rows.append({"id": f"r{i}", **dict(zip(FIELDS, values))})
    if fmt == "jsonl":
        return "".join(json.dumps(r) + "\n" for r in rows)
    lines = [",".join(rows[0])] + [",".join(str(v) for v in r.values()) for r in rows]
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_batch_matches_reference_on_stratified_rows(tmp_path, capsys, fmt):
    # 2,500 rows: three chunks, one of them partial
    assert run_both(tmp_path, capsys, stratified_text(2500, 7, fmt), fmt) == 0


FUZZ_VALUES = st.sampled_from([
    "5e-324", "1e-308", "1e308", "1e-300", "1e300", "1e-160", "1e160",
    "0", "-1", "inf", "-inf", "nan", "x", "", " 2", "1_0", "0x1p1", "2.5", "-30",
])


ID_VALUES = st.sampled_from([None, None, None, "a,b", 'say "hi"', "", "two\nlines"])


@st.composite
def batch_input(draw):
    """A CSV or JSONL file of at most 40 rows: valid rows, rows with fuzzed
    or non-numeric values, short rows and missing keys, blank lines and
    junk lines; the majority may be rejected.  Valid values come from a
    drawn seed, which keeps the draws few."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = list(FIELDS)
    # an extra column is echoed; one named like a result column holds the result
    extra = draw(st.sampled_from([None, "id", "d"]))
    if extra:
        columns.insert(draw(st.integers(0, len(columns))), extra)
    lines = []
    for i in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["good", "good", "fuzzed", "short", "blank", "junk"]))
        b1, a1, b2, a2 = np.sort(rng.uniform(0.1, 10.0, 2)).tolist() + np.sort(
            rng.uniform(0.1, 10.0, 2)).tolist()
        values = [a1, b1, a2, b2, *rng.uniform(-720.0, 720.0, 3).tolist()]
        # some ids the csv module must quote
        ident = draw(ID_VALUES)
        row = dict(zip(FIELDS, map(repr, values)))
        if extra:
            row[extra] = f"r{i}" if ident is None else ident
        if kind == "fuzzed":
            for k in draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3)):
                row[k] = draw(FUZZ_VALUES)
        values = [row[k] for k in columns]
        if kind == "short":
            values = values[:draw(st.integers(1, len(values) - 1))]
        if fmt == "csv":
            line = io.StringIO()
            csv.writer(line, lineterminator="").writerow(values)
            lines.append({"blank": "", "junk": "x,y"}.get(kind, line.getvalue()))
        elif kind == "blank":
            lines.append("")
        elif kind == "junk":
            lines.append(draw(st.sampled_from(["not json", "[1, 2]", "5", "null"])))
        else:
            record = {}
            for k, v in zip(columns, values):
                try:
                    record[k] = float(v)
                except ValueError:
                    record[k] = v
            lines.append(json.dumps(record))
    if fmt == "csv":
        lines.insert(0, ",".join(columns))
    return fmt, "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=batch_input(), chunk=st.sampled_from([5, 1024]))
def test_fuzzed_batch_matches_reference(tmp_path, capsys, case, chunk):
    fmt, text = case
    run_both(tmp_path, capsys, text, fmt, chunk)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_bad_input_leaves_output_untouched(tmp_path, capsys, fmt):
    # undecodable bytes after a rejected row and more than one read buffer
    # (the error surfaces when its buffer is decoded), all in one chunk:
    # exit 2, the output as it was, the rejects of the rows read before
    inp = tmp_path / f"in.{fmt}"
    rows = [dict(zip(FIELDS, ("2", "1", "2", "1", "0", "30", str(i)))) for i in range(1000)]
    rows[4]["a1"] = "x"
    if fmt == "csv":
        text = ",".join(FIELDS) + "\n" + "".join(",".join(r.values()) + "\n" for r in rows)
    else:
        text = "".join(json.dumps(r) + "\n" for r in rows)
    inp.write_bytes(text.encode() + b"\xff\xfe\n")
    for side in ("new", "ref"):
        (tmp_path / f"{side}.out").write_text("previous\n")
    assert reference_batch(inp, tmp_path / "ref.out", fmt, tmp_path / "ref.rej") == 2
    code, out, err = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(tmp_path / "new.out"),
        "--format", fmt, "--rejects", str(tmp_path / "new.rej"),
    )
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert (tmp_path / "new.out").read_text() == "previous\n"
    rejects = (tmp_path / "new.rej").read_text()
    assert rejects == (tmp_path / "ref.rej").read_text()
    assert rejects.startswith("line 6:" if fmt == "csv" else "line 5:")
