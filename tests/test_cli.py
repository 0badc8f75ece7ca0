import csv
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import assert_input_error, run_cli, run_cli_bounded
from ellipse_contact import analysis, cli
from ellipse_contact.cli import main

PAIR_21 = ("--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1")


def test_distance_circles(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1",
        "--theta1", "0", "--theta2", "0", "--theta-d", "0", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert math.isclose(record["d"], 2.0, rel_tol=1e-12)


def test_distance_tip_to_tip(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta1", "0", "--theta2", "0", "--theta-d", "0", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert math.isclose(record["d"], 4.0, rel_tol=1e-12)
    assert record["residual_e1"] <= 1e-9
    assert record["residual_e2"] <= 1e-9


@pytest.mark.parametrize("argv, expect, rtol", [
    # 60-digit references; lambda_minus = avg - h put the first 4.8e-5 off
    # and made the second divide by zero
    (("--a1", "1000", "--b1", "1", "--a2", "929", "--b2", "1",
      "--theta1", "178", "--theta2", "104", "--theta-d", "74"), 921.25522380327441, 1e-12),
    (("--a1", "10000", "--b1", "1", "--a2", "8798", "--b2", "1",
      "--theta1", "44", "--theta2", "124", "--theta-d", "77"), 13466.274800599297, 1e-11),
])
def test_distance_high_aspect(capsys, argv, expect, rtol):
    code, out, _ = run_cli(capsys, "distance", *argv, "--json")
    assert code == 0
    assert abs(json.loads(out)["d"] - expect) <= rtol * expect


def test_distance_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta2", "30", "--theta-d", "10",
    )
    assert code == 0
    assert "d " in out or out.startswith("d")
    assert "branch" in out


def test_distance_invalid_shape_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "distance", "--a1", "1", "--b1", "2", "--a2", "1", "--b2", "1",
    )
    assert code == 2
    assert "DegenerateShape" in err


def test_json_17_digits_roundtrip(capsys):
    _, out, _ = run_cli(
        capsys, "distance", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta1", "12.5", "--theta2", "73.1", "--theta-d", "41.7", "--json",
    )
    record = json.loads(out)
    from ellipse_contact import closest_approach, make_pair_configuration, UnitVec2

    cfg = make_pair_configuration(
        2, 1, 2, 1,
        UnitVec2.from_angle(math.radians(12.5)),
        UnitVec2.from_angle(math.radians(73.1)),
        UnitVec2.from_angle(math.radians(41.7)),
    )
    assert record["d"] == closest_approach(cfg).d  # bit-exact round-trip


def test_contact_command(capsys):
    code, out, _ = run_cli(
        capsys, "contact", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta2", "30", "--theta-d", "45", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["residual_e1"] <= 1e-9
    assert record["residual_e2"] <= 1e-9


def test_overlap_verdicts(capsys):
    base = ["overlap", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1"]
    code, out, _ = run_cli(capsys, *base, "--sep", "1.5", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "overlapping"
    code, out, _ = run_cli(capsys, *base, "--sep", "2.5", "--json")
    assert json.loads(out)["verdict"] == "disjoint"
    code, out, _ = run_cli(capsys, *base, "--sep", "2.0", "--json")
    assert json.loads(out)["verdict"] == "tangent"
    code, out, _ = run_cli(capsys, *base, "--sep", "0", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "overlapping" and record["concentric"] is True


def test_overlap_concentric_cut_scales_with_the_shapes(capsys):
    # 1e-15 apart is 25,000 contact distances at the 1e-20 scale: disjoint,
    # and a separation inside b1 + b2 overlaps through the kernel
    base = ["overlap", "--a1", "2e-20", "--b1", "1e-20", "--a2", "2e-20", "--b2", "1e-20", "--json"]
    code, out, _ = run_cli(capsys, *base, "--sep", "1e-15")
    assert code == 0 and json.loads(out)["verdict"] == "disjoint"
    code, out, _ = run_cli(capsys, *base, "--sep", "1.5e-20")
    record = json.loads(out)
    assert code == 0 and record["verdict"] == "overlapping" and "concentric" not in record


def test_overlap_one_kernel_call_prints_the_compared_distance(monkeypatch, capsys):
    # the printed d is the distance the verdict compared |sep| against,
    # along the reversed direction for a negative --sep
    from ellipse_contact import contact

    real = contact.closest_approach
    calls = []

    def counted(cfg):
        sol = real(cfg)
        calls.append((cfg.dhat, sol.d))
        return sol

    monkeypatch.setattr(contact, "closest_approach", counted)
    monkeypatch.setattr(cli, "closest_approach", counted)
    t = math.radians(15.0)
    for sep in (3.2, -3.2):
        calls.clear()
        code, out, _ = run_cli(
            capsys, "overlap", *PAIR_21, "--sep", repr(sep), "--theta-d", "15", "--json",
        )
        assert code == 0 and len(calls) == 1
        (dhat, d), record = calls[0], json.loads(out)
        assert record["d"] == d and record["separation"] == sep
        assert record["verdict"] == ("overlapping" if abs(sep) < d else "disjoint")
        assert math.isclose(dhat.x, math.copysign(math.cos(t), sep), rel_tol=1e-15)
        assert math.isclose(dhat.y, math.copysign(math.sin(t), sep), rel_tol=1e-15)


def test_overlap_parallel_tangent(capsys):
    code, out, _ = run_cli(
        capsys, "overlap", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--sep", "4.0", "--theta-d", "0", "--json",
    )
    assert json.loads(out)["verdict"] == "tangent"


def test_batch_csv_roundtrip(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    outp = tmp_path / "out.csv"
    rows = [
        {"id": "r1", "a1": 1, "b1": 1, "a2": 1, "b2": 1,
         "theta1": 0, "theta2": 0, "theta_d": 0},
        {"id": "r2", "a1": 2, "b1": 1, "a2": 2, "b2": 1,
         "theta1": 0, "theta2": 30, "theta_d": 10},
        {"id": "r3", "a1": 2, "b1": 1, "a2": 1.5, "b2": 0.5,
         "theta1": 15, "theta2": 100, "theta_d": 200},
    ]
    with open(inp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp)
    )
    assert code == 0
    with open(outp, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 3
    assert got[0]["id"] == "r1"
    assert math.isclose(float(got[0]["d"]), 2.0, rel_tol=1e-12)

    # re-parse and recompute: bit-identical
    from ellipse_contact import closest_approach, make_pair_configuration, UnitVec2

    for row in got:
        cfg = make_pair_configuration(
            float(row["a1"]), float(row["b1"]), float(row["a2"]), float(row["b2"]),
            UnitVec2.from_angle(math.radians(float(row["theta1"]))),
            UnitVec2.from_angle(math.radians(float(row["theta2"]))),
            UnitVec2.from_angle(math.radians(float(row["theta_d"]))),
        )
        assert float(row["d"]) == closest_approach(cfg).d


def test_batch_rejects_bad_rows(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    outp = tmp_path / "out.csv"
    rej = tmp_path / "rejects.txt"
    inp.write_text(
        "a1,b1,a2,b2,theta1,theta2,theta_d\n"
        "1,1,1,1,0,0,0\n"
        "2,3,1,1,0,0,0\n"      # a1 < b1
        "x,1,1,1,0,0,0\n"      # not a number
        "2,1,2,1,0,0,0\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp),
        "--rejects", str(rej),
    )
    assert code == 0  # 2 of 4 rejected: not over the half threshold
    lines = rej.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("line 3:")
    assert lines[1].startswith("line 4:")
    with open(outp, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_batch_rejects_arithmetic_rows(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    outp = tmp_path / "out.csv"
    rej = tmp_path / "rej.txt"
    inp.write_text(
        "a1,b1,a2,b2,theta1,theta2,theta_d\n"
        "2,1,2,1,0,30,10\n"
        "1e308,1,2,1,0,0,0\n"            # ZeroDivisionError (dhat_scale)
        "2,1e-300,2,1e-300,0,0,0\n"      # ZeroDivisionError
        "2,1,2,1,inf,0,0\n"              # math domain error
        "1,1,1,1,0,0,0\n"
        "2,1,3,1,0,90,45\n"
        "2,1,2,1,0,0,0\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp),
        "--rejects", str(rej),
    )
    assert code == 0  # 3 of 7 rejected: not over the half threshold
    lines = rej.read_text().strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["line 3", "line 4", "line 5"]
    with open(outp, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 4


# aspect 3.8e69: the closed form misses this pair's root (the quartic's
# coefficients run from 2e-54 to 2e278); the angle solve answers, within
# 3e-17 of a 300-digit support-function solve, 2.06298606506724124e44
ROOTS_OVERFLOW = (
    "--a1", "1.3960396648826036e+16", "--b1", "1.3960394716893794e+16",
    "--a2", "1.7023807787871663e+113", "--b2", "4.425377349627024e+43",
    "--theta1", "62.29497744621404", "--theta2", "309.4771385037617",
    "--theta-d", "297.0901693199237",
)


def test_distance_fallback_overflow_one_line(capsys):
    # a result, with no warning and no error line
    code, out, err, _ = run_cli_bounded(capsys, "distance", *ROOTS_OVERFLOW, "--json")
    assert (code, err) == (0, "")
    d = json.loads(out)["d"]
    assert d == 2.0629860650672418e44
    assert abs(d - 2.06298606506724124e44) <= 1e-15 * d


def test_batch_fallback_overflow_one_reject_line(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    inp.write_text(
        "a1,b1,a2,b2,theta1,theta2,theta_d\n"
        + ",".join(ROOTS_OVERFLOW[1::2]) + "\n"
        "2,1,2,1,0,30,10\n"
    )
    code, out, err, _ = run_cli_bounded(
        capsys, "batch", "--input", str(inp), "--output", str(tmp_path / "out.csv")
    )
    assert (code, out, err) == (0, "", "")  # no row rejected
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["d"] for r in rows] == ["2.0629860650672418e+44", "3.860366845133059"]


def test_batch_rejects_surplus_field_rows(tmp_path, capsys):
    # csv.DictReader would file the eighth field under the key None and
    # break the output header; the row is rejected on its own line instead
    inp = tmp_path / "in.csv"
    outp = tmp_path / "out.csv"
    rej = tmp_path / "rej.txt"
    inp.write_text(
        "a1,b1,a2,b2,theta1,theta2,theta_d\n"
        "2,1,2,1,0,30,10,5\n"
        "2,1,2,1,0,30,10\n"
        "1,1,1,1,0,0,0\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp),
        "--rejects", str(rej),
    )
    assert code == 0
    assert rej.read_text() == "line 2: 8 fields for 7 header columns\n"
    lines = outp.read_text().splitlines()
    assert lines[0] == (
        "a1,b1,a2,b2,theta1,theta2,theta_d,"
        "d,d_prime,q,branch,rc_x,rc_y,residual_e1,residual_e2"
    )
    assert len(lines) == 3


def test_batch_short_rows(tmp_path, capsys):
    # a row that ends before an input column is rejected like a surplus
    # row; one that ends among the extra columns echoes them as empty cells
    inp, outp, rej = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "rej.txt"
    inp.write_text(
        "id,a1,b1,a2,b2,theta1,theta2,theta_d,note,tag\n"
        "r1,2,1,2,1,0,30\n"
        "r2,2,1,2,1,0,30,10,n2\n"
        "r3,2,1,2,1,0,30,10\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp), "--rejects", str(rej),
    )
    assert code == 0
    assert rej.read_text() == "line 2: 7 fields for 10 header columns\n"
    with open(outp, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0][:10] == ["id", "note", "tag", "a1", "b1", "a2", "b2", "theta1", "theta2", "theta_d"]
    assert [row[:3] for row in got[1:]] == [["r2", "n2", ""], ["r3", "", ""]]
    assert got[1][3:] == got[2][3:]


def test_batch_rejects_report_file_lines(tmp_path, capsys):
    # a blank line and a quoted two-line field: each reject names the file
    # line its record ends on, not its record count
    inp = tmp_path / "in.csv"
    rej = tmp_path / "rej.txt"
    inp.write_text(
        "id,a1,b1,a2,b2,theta1,theta2,theta_d\n"
        "\n"
        "r1,2,3,1,1,0,0,0\n"
        '"two\nlines",x,1,1,1,0,0,0\n'
        "r3,2,1,2,1,0,0,0\n"
        "r4,1,1,1,1,0,0,0\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(tmp_path / "out.csv"),
        "--rejects", str(rej),
    )
    assert code == 0
    assert [line.split(":")[0] for line in rej.read_text().splitlines()] == [
        "line 3", "line 5",
    ]


def test_batch_majority_rejected_exit_2(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    inp.write_text(
        "a1,b1,a2,b2,theta1,theta2,theta_d\n"
        "1,2,1,1,0,0,0\n"
        "1,3,1,1,0,0,0\n"
        "2,1,2,1,0,0,0\n"
    )
    outp = tmp_path / "out.csv"
    outp.write_text("previous\n")
    err = assert_input_error(
        capsys, "batch", "--input", str(inp), "--output", str(outp),
        "--rejects", str(inp) + ".rej",
    )
    assert err == "error: ValueError: 2/3 rows rejected\n"
    assert outp.read_text() == "previous\n"


BATCH_HEADER = "a1,b1,a2,b2,theta1,theta2,theta_d\n"


@pytest.mark.parametrize("text, error, rejects", [
    ("a1,b1,a2,b2,theta1,theta2\n2,1,2,1,0,30\n",
     "error: ValueError: CSV header must contain", ""),
    # the rows before an oversized field are still read and reported
    (BATCH_HEADER + "2,3,1,1,0,0,0\n2,1,2,1,0,30," + "9" * (csv.field_size_limit() + 1) + "\n",
     "error: Error: field larger than field limit", "line 2: "),
], ids=["missing-column", "oversized-field"])
def test_batch_unreadable_csv_exit_2(tmp_path, capsys, text, error, rejects):
    inp, outp, rej = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "rej"
    inp.write_text(text)
    outp.write_text("previous\n")
    err = assert_input_error(
        capsys, "batch", "--input", str(inp), "--output", str(outp), "--rejects", str(rej),
    )
    assert err.startswith(error)
    assert outp.read_text() == "previous\n"
    assert rej.read_text().startswith(rejects)
    assert len(rej.read_text().splitlines()) == (1 if rejects else 0)


def test_batch_jsonl(tmp_path, capsys):
    inp = tmp_path / "in.jsonl"
    outp = tmp_path / "out.jsonl"
    inp.write_text(
        json.dumps({"a1": 2, "b1": 1, "a2": 2, "b2": 1,
                    "theta1": 0, "theta2": 0, "theta_d": 0}) + "\n"
        + "not json\n"
    )
    code, _, _ = run_cli(
        capsys, "batch", "--input", str(inp), "--output", str(outp),
        "--format", "jsonl", "--rejects", str(tmp_path / "rej"),
    )
    assert code == 0
    records = [json.loads(line) for line in outp.read_text().splitlines()]
    assert len(records) == 1
    assert math.isclose(records[0]["d"], 4.0, rel_tol=1e-12)


def test_batch_jsonl_rejects_boolean_fields(tmp_path, capsys):
    rows = [
        {"a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 30, "theta_d": 45},
        {"a1": 3, "b1": 1, "a2": 2, "b2": 1, "theta1": 10, "theta2": 0, "theta_d": 90},
    ]
    flagged = {"a1": True, "b1": True, "a2": 2, "b2": 1,
               "theta1": 0, "theta2": False, "theta_d": 0}
    outputs = []
    for name, lines in (("plain", rows), ("flagged", [rows[0], flagged, rows[1]])):
        inp, rej = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.rej"
        inp.write_text("".join(json.dumps(r) + "\n" for r in lines))
        outp = tmp_path / f"{name}.out"
        code, _, _ = run_cli(
            capsys, "batch", "--input", str(inp), "--output", str(outp),
            "--format", "jsonl", "--rejects", str(rej),
        )
        assert code == 0
        outputs.append(outp.read_text())
    assert rej.read_text() == "line 2: boolean fields ['a1', 'b1', 'theta2']\n"
    assert outputs[1] == outputs[0]


def test_batch_jsonl_rejects_string_fields(tmp_path, capsys):
    # float() would strip and parse "2", " 0 " and "1e1", but a JSON string
    # is no number: the row is rejected, naming the fields, and the rows
    # around it come out as they do without it
    rows = [
        {"a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 30, "theta_d": 45},
        {"a1": 3, "b1": 1, "a2": 2, "b2": 1, "theta1": 10, "theta2": 0, "theta_d": 90},
    ]
    quoted = {"a1": "2", "b1": "1", "a2": 2, "b2": 1,
              "theta1": " 0 ", "theta2": "1e1", "theta_d": 0}
    outputs = []
    for name, lines in (("plain", rows), ("quoted", [rows[0], quoted, rows[1]])):
        inp, rej = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.rej"
        inp.write_text("".join(json.dumps(r) + "\n" for r in lines))
        outp = tmp_path / f"{name}.out"
        code, _, _ = run_cli(
            capsys, "batch", "--input", str(inp), "--output", str(outp),
            "--format", "jsonl", "--rejects", str(rej),
        )
        assert code == 0
        outputs.append(outp.read_text())
    assert rej.read_text() == "line 2: string fields ['a1', 'b1', 'theta1', 'theta2']\n"
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("argv", [
    ("batch", "--input", "{dir}/in.csv", "--output", "{dir}/missing/x.csv"),
    ("batch", "--input", "{dir}/in.csv", "--output", "{dir}/x.csv",
     "--rejects", "{dir}/missing/r"),
    ("excluded-area", *PAIR_21, "--sweep", "0:90:45", "--output", "{dir}/missing/a"),
    ("boundary", *PAIR_21, "--n", "16", "--output", "{dir}/missing/b"),
    ("locus", *PAIR_21, "--n", "16", "--output", "{dir}/missing/l"),
    ("simulate", "--config", "{dir}/run.json", "--output", "{dir}/missing/t.jsonl"),
])
def test_unwritable_file_exit_2(tmp_path, capsys, argv):
    (tmp_path / "in.csv").write_text("a1,b1,a2,b2,theta1,theta2,theta_d\n2,1,2,1,0,30,10\n")
    write_run_config(tmp_path / "run.json")
    err = assert_input_error(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert "FileNotFoundError" in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("override", [
    {"species": 5},                 # TypeError: not iterable
    {"species": [[2, 1, 1.0]]},     # TypeError: list indices
    {"box": [20]},                  # IndexError
    {"max_rotation_deg": math.nan},
    {"max_rotation_deg": math.inf},
    {"max_translation": math.nan},
    {"max_translation": 1e308},     # finite, but 2x overflows the move range
    {"box": [math.nan, 30.0]},
    {"box": [math.inf, math.inf]},
    {"seed": -1},
    {"n_particles": math.inf},      # OverflowError
    # int() would truncate these or read true as 1
    {"n_particles": 4.9},
    {"seed": 2.5},
    {"sweeps": True},
    {"sample_every": 1.5},
    {"n_particles": math.nan},
])
def test_simulate_malformed_config_exit_2(tmp_path, capsys, override):
    cfgp = write_run_config(tmp_path / "run.json", **override)
    err = assert_input_error(
        capsys, "simulate", "--config", cfgp, "--output", str(tmp_path / "t.jsonl"),
    )
    assert err.startswith("error: bad run configuration:")
    assert not (tmp_path / "t.jsonl").exists()


def test_excluded_area_single(capsys):
    code, out, _ = run_cli(
        capsys, "excluded-area", "--a1", "2", "--b1", "1", "--a2", "2",
        "--b2", "1", "--angle", "30",
    )
    assert code == 0
    assert abs(float(out.strip()) - 26.4) <= 0.05


def test_excluded_area_zero_angle(capsys):
    code, out, _ = run_cli(
        capsys, "excluded-area", "--a1", "2", "--b1", "1", "--a2", "2",
        "--b2", "1", "--angle", "0", "--panels", "2048",
    )
    assert abs(float(out.strip()) - 8.0 * math.pi) <= 1e-3


def test_excluded_area_sweep(tmp_path, capsys):
    outp = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "excluded-area", "--a1", "2", "--b1", "1", "--a2", "2",
        "--b2", "1", "--sweep", "0:90:30", "--panels", "256",
        "--output", str(outp),
    )
    assert code == 0
    lines = outp.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,area"
    assert len(lines) == 5  # 0, 30, 60, 90
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)  # monotone in the angle


@pytest.mark.parametrize("argv, expect", [
    (("--a1", "1e300", "--b1", "1", "--a2", "1e300", "--b2", "1"), 4.0 * math.pi * 1e300),
    # the mapped ellipse's semi-axis ratio, 1e-600, underflows to 0: a segment
    (("--a1", "1e150", "--b1", "1e-150", "--a2", "1e150", "--b2", "1e-150", "--angle", "30"),
     2e300),
    # the small disk mapped by the large one underflows to a point, in either order
    (("--a1", "1e-300", "--b1", "1e-300", "--a2", "1e100", "--b2", "1e100", "--angle", "30"),
     math.pi * 1e200),
    (("--a1", "1e100", "--b1", "1e100", "--a2", "1e-300", "--b2", "1e-300", "--angle", "30"),
     math.pi * 1e200),
])
def test_excluded_area_huge_finite_pair(capsys, argv, expect):
    # no intermediate overflows: the true area is finite
    code, out, _ = run_cli(capsys, "excluded-area", *argv)
    assert code == 0
    assert abs(float(out) - expect) <= 1e-12 * expect


def test_excluded_area_aspect_1000(capsys):
    # a 2,048-node quadrature of h1 rho2 gives 1113407.3015332143 here, 45% low
    code, out, _ = run_cli(
        capsys, "excluded-area", "--a1", "1000", "--b1", "1", "--a2", "700", "--b2", "0.7",
        "--theta1", "17.188733853924695", "--theta2", "63.02535746439056",
    )
    assert code == 0
    assert abs(float(out) - 2013279.92224690) <= 1e-12 * 2013279.92224690


@pytest.mark.parametrize("angle", [(), ("--angle", "30")])
def test_excluded_area_single_value_to_output(tmp_path, capsys, angle):
    outp = tmp_path / "area.txt"
    code, out, _ = run_cli(
        capsys, "excluded-area", *PAIR_21, "--theta2", "30", *angle, "--output", str(outp),
    )
    assert code == 0 and out == ""
    assert abs(float(outp.read_text()) - 26.4) <= 0.05


def test_excluded_area_single_value_exit_2_leaves_output(tmp_path, capsys):
    outp = tmp_path / "area.txt"
    outp.write_text("previous\n")
    err = assert_input_error(
        capsys, "excluded-area", "--a1", "1e160", "--b1", "1e160", "--a2", "2", "--b2", "1",
        "--angle", "0", "--output", str(outp),
    )
    assert err.startswith("error: OverflowError:")
    assert outp.read_text() == "previous\n"


@pytest.mark.parametrize("sweep, rows, last", [
    ("0:90:0.1", 901, "90.0"),
    ("0:1000:0.01", 100001, "1000.0"),
    ("0:1e-13:1e-14", 11, "1e-13"),
])
def test_excluded_area_sweep_reaches_stop(tmp_path, capsys, sweep, rows, last):
    # angle i is START + i * STEP, so no rounding error accumulates
    outp = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "excluded-area", *PAIR_21, "--sweep", sweep, "--output", str(outp),
    )
    assert code == 0
    lines = outp.read_text().splitlines()[1:]
    assert len(lines) == rows
    assert lines[-1].split(",")[0] == last


@pytest.mark.parametrize("sweep", [
    "0:90:0",        # zero step
    "0:90:-5",       # negative step
    "0:90:nan",      # nan step
    "nan:90:5",
    "0:inf:5",
    "90:0:5",        # START > STOP
    "1e20:1e20:1",   # STEP below the spacing of doubles at START
    "0:1e9:1",       # more angles than MAX_PANELS
    "0:90",
    "a:b:c",
])
def test_excluded_area_bad_sweep_exit_2(capsys, sweep):
    assert_input_error(capsys, "excluded-area", *PAIR_21, "--sweep", sweep)


@pytest.mark.parametrize("argv", [
    ("excluded-area", *PAIR_21, "--panels", "8"),
    ("excluded-area", *PAIR_21, "--panels", "8", "--sweep", "0:90:30"),
    ("excluded-area", *PAIR_21, "--panels", str(10**8)),
    ("boundary", *PAIR_21, "--n", "8"),
    ("locus", *PAIR_21, "--n", "8"),
    ("boundary", *PAIR_21, "--n", str(10**9)),
    ("locus", *PAIR_21, "--n", str(10**9)),
])
def test_bad_sample_count_exit_2(capsys, argv):
    assert_input_error(capsys, *argv)


def test_boundary_and_locus(tmp_path, capsys):
    bout = tmp_path / "boundary.csv"
    code, _, _ = run_cli(
        capsys, "boundary", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta2", "30", "--n", "64", "--output", str(bout),
    )
    assert code == 0
    lines = bout.read_text().strip().splitlines()
    assert lines[0] == "theta_d_deg,x,y"
    assert len(lines) == 65

    lout = tmp_path / "locus.csv"
    code, _, _ = run_cli(
        capsys, "locus", "--a1", "2", "--b1", "1", "--a2", "2", "--b2", "1",
        "--theta2", "0", "--theta-d", "0", "--n", "64", "--output", str(lout),
    )
    assert code == 0
    lines = lout.read_text().strip().splitlines()
    assert lines[0] == "theta1_deg,x,y"
    assert len(lines) == 65


CURVE_PAIR = ("--a1", "7.25", "--b1", "1.1", "--a2", "2", "--b2", "1",
              "--theta1", "33.5", "--theta2", "171.25")


@pytest.mark.parametrize("n", [16, 720])
@pytest.mark.parametrize("command", ["boundary", "locus"])
def test_curve_csv_is_one_formatted_line_per_sample(tmp_path, capsys, command, n):
    # the exact bytes: the header, then "theta_deg,x,y" in Python's float
    # repr for each sample, to --output and to stdout alike
    cfg = cli._configuration(7.25, 1.1, 2.0, 1.0, 33.5, 171.25, 80.5)
    if command == "boundary":
        header, curve = "theta_d_deg", analysis.excluded_boundary(
            cfg.shape1, cfg.shape2, cfg.k1, cfg.k2, n)
        argv = (command, *CURVE_PAIR, "--n", str(n))
    else:
        header, curve = "theta1_deg", analysis.contact_locus(
            cfg.shape1, cfg.shape2, cfg.k2, cfg.dhat, n)
        argv = (command, *CURVE_PAIR, "--theta-d", "80.5", "--n", str(n))
    expect = f"{header},x,y\n" + "".join(
        f"{math.degrees(t)},{p.x},{p.y}\n" for t, p in curve
    )
    out_file = tmp_path / "curve.csv"
    assert run_cli(capsys, *argv, "--output", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == expect.encode()
    assert run_cli(capsys, *argv) == (0, expect, "")


def test_boundary_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1",
        "--n", "32", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 32
    for theta, x, y in payload["samples"]:
        assert math.isclose(math.hypot(x, y), 2.0, rel_tol=1e-9)


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "40", "--seed", "7")
    assert code == 0
    assert "failures      0" in out


# three blocks of trials, the last one short
VERIFY_GOLDEN = {
    3: ("9.413540131516687e-15", "2.8924146665600854e-16"),
    11: ("2.047024242173268e-14", "3.0156350664889735e-16"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
def test_verify_stdout_golden(capsys, seed):
    max_err, mean_err = VERIFY_GOLDEN[seed]
    code, out, _ = run_cli(capsys, "verify", "--trials", "2100", "--seed", str(seed))
    assert code == 0
    assert out == (
        "trials        2100\n"
        f"max rel err   {max_err}\n"
        f"mean rel err  {mean_err}\n"
        "failures      0\n"
    )


def test_verify_zero_tolerance_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "10", "--seed", "7", "--tol", "0"
    )
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--trials", "0"),
    ("verify", "--trials", "-1"),
    ("verify", "--trials", "2", "--tol", "nan"),
    ("verify", "--trials", "2", "--tol", "inf"),
    ("verify", "--trials", "2", "--tol=-1e-7"),
])
def test_verify_vacuous_run_exit_2(capsys, argv):
    # no trials, or a tolerance no error can exceed, would pass on no work
    assert assert_input_error(capsys, *argv).startswith("error: ValueError:")


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("verify started a process pool")


@pytest.mark.parametrize("workers", ["0", "-1", "3"])
def test_verify_worker_count_exit_2(monkeypatch, capsys, workers):
    # below one, or above the CPU count (all workers would start at the
    # first submit), is rejected before any process starts
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.oracle, "ProcessPoolExecutor", _NoPool)
    err = assert_input_error(capsys, "verify", "--trials", "2", "--workers", workers)
    assert err.startswith("error: ValueError:")


def test_verify_one_worker_starts_no_pool(monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.oracle, "ProcessPoolExecutor", _NoPool)
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--workers", "1")
    assert code == 0 and "trials        2" in out


def test_verify_one_block_starts_no_pool(monkeypatch, capsys):
    # 100 trials are one block, so a second worker would have nothing to do
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.oracle, "ProcessPoolExecutor", _NoPool)
    code, out, _ = run_cli(capsys, "verify", "--trials", "100", "--workers", "2")
    assert code == 0 and "trials        100\n" in out


@pytest.mark.parametrize("argv", [
    ("overlap", *PAIR_21, "--sep", "nan"),
    ("overlap", *PAIR_21, "--sep", "inf"),
    ("excluded-area", *PAIR_21, "--angle", "inf"),
    ("distance", *PAIR_21, "--theta-d", "inf"),
    ("distance", "--a1", "1e308", "--b1", "1", "--a2", "2", "--b2", "1"),
    ("distance", "--a1", "2", "--b1", "1e-300", "--a2", "2", "--b2", "1e-300"),
    # the area overflows to inf
    ("excluded-area", "--a1", "1e160", "--b1", "1e160", "--a2", "2", "--b2", "1"),
    # the area, pi 1e600, overflows to inf
    ("excluded-area", "--a1", "1e300", "--b1", "1e300", "--a2", "1e-300", "--b2", "1e-300"),
])
def test_arithmetic_input_errors_exit_2(capsys, argv):
    # each raised ValueError or ArithmeticError inside the command
    assert_input_error(capsys, *argv)


LENGTHS = st.sampled_from([
    5e-324, 1e-308, 1e-300, 1e-160, 1e-3, 0.5, 1.0, 2.0, 7.5, 1e3,
    1e160, 1e300, 1e308, 1.7976931348623157e308, 0.0, -1.0, math.inf, math.nan,
]) | st.floats(1e-3, 1e3)
ANGLES = st.sampled_from([
    math.nan, math.inf, -math.inf, 1e300, -1e300, 1e16, 0.0, 30.0, -45.0,
    90.0, 180.0, 5e-324,
]) | st.floats(-720.0, 720.0)


@st.composite
def fuzzed_command(draw):
    command = draw(st.sampled_from(
        ["distance", "contact", "overlap", "excluded-area", "boundary", "locus"]
    ))
    a1, b1 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    a2, b2 = sorted(draw(st.tuples(LENGTHS, LENGTHS)), reverse=True)
    argv = [command]
    # the --flag=value form keeps argparse from reading -inf as a flag
    for flag, value in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        argv.append(f"--{flag}={value!r}")
    for flag in ("theta1", "theta2"):
        argv.append(f"--{flag}={draw(ANGLES)!r}")
    if command in ("distance", "contact", "overlap", "locus"):
        argv.append(f"--theta-d={draw(ANGLES)!r}")
    if command == "overlap":
        argv.append(f"--sep={draw(LENGTHS)!r}")
    if command == "excluded-area":
        argv += [f"--angle={draw(ANGLES)!r}", "--panels", "64"]
    if command in ("boundary", "locus"):
        argv += ["--n", "16"]
    return argv


# a transformed contact with q = inf: printed as "q inf", exit 0, before
# closest_approach checked d_prime and q as well as d
Q_OVERFLOW = [
    "--a1=3.0", "--b1=0.5", "--a2=1e+160", "--b2=1.0",
    "--theta1=1e+300", "--theta2=1e+300", "--theta-d=1e+300",
]
# finite d and q, but residual_e2 ~ 1e264 and a nan normal cross product
CROSS_NAN = [
    "--a1=1.616559583881382e-82", "--b1=2.301130347800641e-104",
    "--a2=28036000160614.68", "--b2=1.787250134103986e-119",
    "--theta1=-1.4037467509250792", "--theta2=28.722991122578758",
    "--theta-d=137.90833851197695",
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_command())
@example(argv=["distance", *Q_OVERFLOW])
@example(argv=["distance", *CROSS_NAN])
def test_fuzzed_geometry_commands_exit_0_or_2(capsys, argv):
    # any exception escaping main fails the test with its traceback
    code, out, err, elapsed = run_cli_bounded(capsys, *argv)
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")
    else:
        assert "inf" not in out.lower() and "nan" not in out.lower()
    assert elapsed < 5.0


@pytest.mark.parametrize("flags, error", [
    (Q_OVERFLOW, "error: OverflowError: transformed contact is not finite"),
    (CROSS_NAN, "error: ValueError: non-finite tangency residuals"),
], ids=["q-overflow", "cross-nan"])
@pytest.mark.parametrize("command", ["distance", "contact"])
def test_non_finite_contact_exit_2(capsys, command, flags, error):
    err = assert_input_error(capsys, command, *flags)
    assert err.startswith(error)


def test_batch_rejects_non_finite_contact_rows(tmp_path, capsys):
    # the array kernel leaves both rows to the scalar API, which rejects them
    inp, outp = tmp_path / "in.csv", tmp_path / "out.csv"
    rows = [",".join(flag.split("=")[1] for flag in flags) for flags in (Q_OVERFLOW, CROSS_NAN)]
    inp.write_text("a1,b1,a2,b2,theta1,theta2,theta_d\n2,1,2,1,0,30,10\n" + "\n".join(rows)
                   + "\n2,1,3,1,0,90,45\n")
    code, out, err, _ = run_cli_bounded(capsys, "batch", "--input", str(inp), "--output", str(outp))
    assert code == 0  # 2 of 4 rejected: not over the half threshold
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("line 3: transformed contact is not finite")
    assert lines[1].startswith("line 4: non-finite tangency residuals")
    with open(outp, newline="") as fh:
        written = list(csv.DictReader(fh))
    assert [(r["a1"], r["theta2"]) for r in written] == [("2", "30"), ("2", "90")]
    assert all(math.isfinite(float(r[k])) for r in written for k in cli._RESULT_FIELDS if k != "branch")


def test_overlap_non_finite_distance_exit_2(capsys):
    # found by the fuzz above: the nan contact distance printed as "d nan"
    err = assert_input_error(
        capsys, "overlap", "--a1=1.0", "--b1=1.0", "--a2=0.001", "--b2=1e-160",
        "--theta1=-1e+300", "--theta2=-1e+300", "--theta-d=-1e+300", "--sep=0.001",
    )
    assert err.startswith("error: OverflowError:")


def test_simulate_command(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({
        "n_particles": 12,
        "species": [{"a": 2.0, "b": 1.0, "fraction": 1.0}],
        "box": [30.0, 30.0],
        "max_translation": 0.3,
        "max_rotation_deg": 15.0,
        "seed": 11,
        "sweeps": 5,
        "sample_every": 1,
    }))
    outp = tmp_path / "traj.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfgp), "--output", str(outp),
        "--audit",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["audit_failures"] == 0
    assert len(outp.read_text().strip().splitlines()) >= 6


def test_simulate_integral_float_counts(tmp_path, capsys):
    # 12.0 is the count 12: the same trajectory as the integer run file
    outputs = []
    for kind in (int, float):
        cfgp = write_run_config(
            tmp_path / "run.json", n_particles=kind(12), seed=kind(11), sweeps=kind(5),
            sample_every=kind(1),
        )
        outp = tmp_path / f"{kind.__name__}.jsonl"
        code, _, _ = run_cli(capsys, "simulate", "--config", cfgp, "--output", str(outp))
        assert code == 0
        outputs.append(outp.read_text())
    assert outputs[0] == outputs[1]


def test_simulate_infeasible_exit_2(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({
        "n_particles": 64,
        "species": [{"a": 2.0, "b": 1.0, "fraction": 1.0}],
        "box": [22.0, 22.0],   # packing ~0.83: legal bound, infeasible lattice
        "max_translation": 0.3,
        "max_rotation_deg": 15.0,
        "seed": 11,
        "sweeps": 5,
    }))
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfgp),
        "--output", str(tmp_path / "t.jsonl"),
    )
    assert code == 2


def test_excluded_area_exit_2_leaves_output(tmp_path, capsys):
    # the first area of the sweep overflows; the file must not be truncated
    outp = tmp_path / "areas.csv"
    outp.write_text("previous\n")
    err = assert_input_error(
        capsys, "excluded-area", "--a1", "1e160", "--b1", "1e160", "--a2", "2", "--b2", "1",
        "--sweep", "0:90:45", "--output", str(outp),
    )
    assert err.startswith("error: OverflowError:")
    assert outp.read_text() == "previous\n"


def test_simulate_infeasible_exit_2_leaves_output(tmp_path, capsys):
    outp = tmp_path / "t.jsonl"
    outp.write_text("previous\n")
    cfgp = write_run_config(tmp_path / "run.json", n_particles=64, box=[22.0, 22.0])
    err = assert_input_error(capsys, "simulate", "--config", cfgp, "--output", str(outp))
    assert err.startswith("error: PackingInfeasible:")
    assert outp.read_text() == "previous\n"


def write_run_config(path, **overrides):
    record = {
        "n_particles": 12,
        "species": [{"a": 2.0, "b": 1.0, "fraction": 1.0}],
        "box": [30.0, 30.0],
        "max_translation": 0.3,
        "max_rotation_deg": 15.0,
        "seed": 11,
        "sweeps": 5,
        "sample_every": 1,
    }
    record.update(overrides)
    path.write_text(json.dumps(record))
    return str(path)


def test_simulate_bad_sweep_counts_exit_2(tmp_path, capsys):
    for key, value in (("sample_every", 0), ("sweeps", -2)):
        cfgp = write_run_config(tmp_path / "run.json", **{key: value})
        outp = tmp_path / "t.jsonl"
        code, out, err = run_cli(
            capsys, "simulate", "--config", cfgp, "--output", str(outp),
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not outp.exists()


def test_simulate_audit_failure_exit_1(tmp_path, capsys, plant_overlap):
    plant_overlap(2)
    outp = tmp_path / "t.jsonl"
    code, out, err = run_cli(
        capsys, "simulate", "--config", write_run_config(tmp_path / "run.json"),
        "--output", str(outp), "--audit",
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("verification failed:")
    summary = json.loads(outp.read_text().strip().splitlines()[-1])
    assert summary["summary"] is True
    assert summary["audit_failures"] >= 1


RUN_VALUES = {
    "n_particles": [12, 1, 16, 0, -3, 2.5, "8", None, True, math.nan, math.inf],
    "species": [
        [{"a": 2.0, "b": 1.0, "fraction": 1.0}],
        [{"a": 1.5, "b": 0.5, "fraction": 0.5}, {"a": 1.0, "b": 1.0, "fraction": 0.5}],
        [{"a": 1e-300, "b": 1e-300, "fraction": 1.0}],
        [{"a": math.nan, "b": 1.0, "fraction": 1.0}],
        [{"a": 2.0, "b": 0.0, "fraction": 1.0}],
        [{"a": 2.0, "b": 1.0, "fraction": math.nan}],
        [{"a": 2.0, "b": 1.0, "fraction": math.inf},
         {"a": 2.0, "b": 1.0, "fraction": -math.inf}],
        [{"a": 2.0, "b": 1.0, "fraction": 0.5}],
        [{"a": "x", "b": 1, "fraction": 1}],
        {"a": 2.0, "b": 1.0, "fraction": 1.0},
        [], 5, "2:1:1", None, [[2, 1, 1.0]],
    ],
    "box": [
        [30.0, 30.0], [12.0, 40.0], [1e300, 1e300], [math.nan, 30.0],
        [math.inf, math.inf], [0, 0], [-30, 30], [20], "30", None, [30, "y"],
    ],
    "max_translation": [
        0.3, 0.0, 5.0, 1e308, -1.0, math.nan, math.inf, -math.inf, "x", None, [1],
    ],
    "max_rotation_deg": [15.0, 0, 360, 1e300, -5.0, math.nan, math.inf, True, "x"],
    "seed": [11, 0, -1, 2.5, 10**30, "7", None, math.nan],
    "sweeps": [3, 1, 0, -2, 2.5, math.nan, "2"],
    "sample_every": [1, 2, 0, -1, math.inf],
}


@st.composite
def run_file(draw):
    """A JSON run file of at most 16 particles and 3 sweeps: a valid one
    with up to three keys valid otherwise, oddly typed, non-finite, zero or
    negative, and maybe one key missing."""
    record = {key: values[0] for key, values in RUN_VALUES.items()}
    for key in draw(st.lists(st.sampled_from(sorted(RUN_VALUES)), max_size=3, unique=True)):
        record[key] = draw(st.sampled_from(RUN_VALUES[key]))
    if draw(st.integers(0, 3)) == 0:
        del record[draw(st.sampled_from(sorted(RUN_VALUES)))]
    return record


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=run_file(), audit=st.booleans())
def test_fuzzed_run_files_exit_0_or_2(tmp_path, capsys, record, audit):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps(record))
    outp = tmp_path / "t.jsonl"
    outp.unlink(missing_ok=True)
    argv = ["simulate", "--config", str(cfgp), "--output", str(outp)]
    code, out, err, elapsed = run_cli_bounded(capsys, *argv + ["--audit"] * audit)
    assert code in (0, 2)
    assert len(err.splitlines()) <= 1
    assert elapsed < 5.0
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
    else:
        summary = json.loads(out)
        assert summary["summary"] is True
        assert "NaN" not in out and "Infinity" not in out
        assert out == outp.read_text().splitlines(keepends=True)[-1]


@pytest.mark.parametrize("argv", [
    ("distance", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1", "--json"),
    ("distance", *PAIR_21, "--theta2", "30", "--theta-d", "10", "--json"),
    ("contact", *PAIR_21, "--theta2", "90", "--json"),
    ("overlap", *PAIR_21, "--sep", "4", "--json"),
    ("overlap", *PAIR_21, "--sep", "0", "--json"),
    ("boundary", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1", "--n", "16", "--json"),
    ("locus", *PAIR_21, "--n", "16", "--json"),
])
def test_json_output_parses(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 1
    json.loads(out)


def test_zero_and_integral_floats_stay_floats(capsys):
    # circles meeting tip to tip: d is exactly 2, the normal (1, 0) and the
    # residuals 0; the old 17-digit writer printed them as the ints 2, 1, 0
    _, out, _ = run_cli(
        capsys, "distance", "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1", "--json",
    )
    record = json.loads(out)
    assert record["d"] == 2.0 and type(record["d"]) is float
    assert record["contact_normal"] == [1.0, 0.0]
    assert all(type(v) is float for v in record["contact_normal"])
    assert type(record["residual_e1"]) is float
    _, out, _ = run_cli(capsys, "overlap", *PAIR_21, "--sep", "4", "--json")
    record = json.loads(out)
    assert (record["separation"], record["d"]) == (4.0, 4.0)
    assert type(record["separation"]) is float and type(record["d"]) is float
    _, out, _ = run_cli(capsys, "boundary", *PAIR_21, "--n", "16", "--json")
    theta, x, y = json.loads(out)["samples"][0]
    assert (theta, y) == (0.0, 0.0) and type(theta) is float and type(y) is float


def test_simulate_stdout_is_the_trajectory_summary(tmp_path, capsys):
    # max_translation 0: every move is a pure rotation of a lone-standing
    # particle, so the acceptance is exactly 1.0
    outp = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", "--config",
        write_run_config(tmp_path / "run.json", n_particles=4, max_translation=0.0),
        "--output", str(outp),
    )
    assert code == 0
    assert out.encode() == outp.read_bytes().splitlines(keepends=True)[-1]
    summary = json.loads(out)
    assert summary["acceptance"] == 1.0 and type(summary["acceptance"]) is float


def test_batch_jsonl_echoed_non_finite_fields_feed_back(tmp_path, capsys):
    # NaN and 1e400 (inf) ids are echoed as NaN and Infinity, which
    # json.loads reads back; the output fed to batch again comes out the same
    inp = tmp_path / "in.jsonl"
    row = {"a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 30, "theta_d": 10}
    inp.write_text('{"id": NaN, %s\n{"id": 1e400, %s\n' % ((json.dumps(row)[1:],) * 2))
    outputs = [tmp_path / "once.jsonl", tmp_path / "twice.jsonl"]
    for src, dst in zip([inp] + outputs, outputs):
        code, _, err = run_cli(
            capsys, "batch", "--input", str(src), "--output", str(dst), "--format", "jsonl",
        )
        assert (code, err) == (0, "")
    records = [json.loads(line) for line in outputs[0].read_text().splitlines()]
    assert math.isnan(records[0]["id"]) and records[1]["id"] == math.inf
    assert '"id": NaN' in outputs[0].read_text()
    assert outputs[1].read_bytes() == outputs[0].read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_batch_second_pass_reproduces_first(tmp_path, capsys, fmt):
    # batch fed its own output recomputes the result columns in place: the
    # input's result-named columns are not extra columns to echo
    rows = [
        {"id": "r1", "a1": 2, "b1": 1, "a2": 2, "b2": 1,
         "theta1": 0, "theta2": 30, "theta_d": 10},
        {"id": "r2", "a1": 2, "b1": 1, "a2": 1.5, "b2": 0.5,
         "theta1": 15, "theta2": 100, "theta_d": 200},
    ]
    inp = tmp_path / f"in.{fmt}"
    if fmt == "csv":
        with open(inp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        inp.write_text("".join(json.dumps(row) + "\n" for row in rows))
    outputs = [tmp_path / f"once.{fmt}", tmp_path / f"twice.{fmt}"]
    for src, dst in zip([inp] + outputs, outputs):
        code, _, err = run_cli(
            capsys, "batch", "--input", str(src), "--output", str(dst), "--format", fmt,
        )
        assert (code, err) == (0, "")
    assert outputs[1].read_bytes() == outputs[0].read_bytes()


# one edge corpus, in CSV and JSONL: extra columns before and after the
# inputs, a quoted comma and line break, a blank line, a repeated name, an
# input column named d, surplus and short rows, an unparsable number, a row
# the kernel raises on and the ROOTS_OVERFLOW row
EDGE_CSV = (
    "id,a1,b1,a2,b2,theta1,theta2,theta_d,d,note,id\n"
    'r1,2,1,2,1,0,30,10,old,"a, b",R1\n'
    'r2,2,1,1.5,0.5,15,100,200,,"two\nlines",R2\n'
    "\n"
    "r3,1,1,1,1,0,0,0,5,n3,R3\n"
    "r4,2,1,2,1,0,30,10,1,2,3,4\n"
    "r5,2,1,2,1,0,30,10,,n5\n"
    "r6,2,1,2,1,0\n"
    "r7,x,1,1,1,0,0,0,,n7,R7\n"
    "r8,1e308,1,2,1,0,0,0,,n8,R8\n"
    "r9," + ",".join(ROOTS_OVERFLOW[1::2]) + ",,n9,R9\n"
    "r10,2,1,3,1,0,90,45,,n10,R10\n"
)
_EDGE_ROW = '"a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 30, "theta_d": 10'
_EDGE_ZEROS = '"b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 0, "theta_d": 0'
EDGE_JSONL = "".join(line + "\n" for line in (
    '{"id": "j1", %s, "note": "x, y"}' % _EDGE_ROW,
    "",
    '{"id": "j2", "d": 7, %s, "id": "J2"}' % _EDGE_ROW,
    "not json",
    '{"a1": 2, "b1": 1}',
    '{"a1": "x", %s}' % _EDGE_ZEROS,
    '{"a1": null, %s}' % _EDGE_ZEROS,
    '{"a1": 1e308, %s}' % _EDGE_ZEROS,
    '{"id": "j9", %s}' % ", ".join(
        f'"{k}": {v}' for k, v in zip(cli._BATCH_FIELDS, ROOTS_OVERFLOW[1::2])),
    '{"id": "j10", "a1": 2, "b1": 1, "a2": 3, "b2": 1, "theta1": 0, "theta2": 90, "theta_d": 45}',
    '{"id": "j11", "a1": 2, "b1": 1, "a2": 1.5, "b2": 0.5, '
    '"theta1": 15, "theta2": 100, "theta_d": 200}',
))
# written by the record-per-dict reader this one replaced; only the short
# row's reject (CSV line 9) changed, from "float() argument must be a string
# or a real number, not 'NoneType'"
EDGE_CSV_OUT = (
    "id,note,a1,b1,a2,b2,theta1,theta2,theta_d,d,d_prime,q,branch,rc_x,rc_y,"
    "residual_e1,residual_e2",
    'R1,"a, b",2,1,2,1,0,30,10,3.860366845133059,2.0155968174432637,1.2790972110947743,'
    "general,1.9995620107554288,-0.02092704675597651,2.220446049250313e-16,6.661338147750939e-16",
    'R2,"two\nlines",2,1,1.5,0.5,15,100,200,2.523099991138927,1.2758433580057775,'
    "1.0130092949613783,general,-1.934923871933509,-0.5055736484534059,2.220446049250313e-16,"
    "8.881784197001252e-16",
    "R3,n3,1,1,1,1,0,0,0,2.0,2.0,1.0,circle-like,1.0,0.0,0.0,0.0",
    ",n5,2,1,2,1,0,30,10,3.860366845133059,2.0155968174432637,1.2790972110947743,general,"
    "1.9995620107554288,-0.02092704675597651,2.220446049250313e-16,6.661338147750939e-16",
    "R9,n9,1.3960396648826036e+16,1.3960394716893794e+16,1.7023807787871663e+113,"
    "4.425377349627024e+43,62.29497744621404,309.4771385037617,297.0901693199237,"
    "2.0629860650672418e+44,1.4777418633352444e+28,1.0,general,-1.0775726444336958e+16,"
    "-8875606237160816.0,2.220446049250313e-16,2.6645352591003757e-15",
    "R10,n10,2,1,3,1,0,90,45,3.6372910812209316,2.8755310824186604,1.5879340571339573,general,"
    "1.9560445636230592,0.20850039875302123,1.1102230246251565e-16,6.661338147750939e-16",
)
EDGE_CSV_REJECTS = (
    "line 7: 12 fields for 11 header columns",
    "line 9: 6 fields for 11 header columns",
    "line 10: could not convert string to float: 'x'",
    "line 11: float division by zero",
)
EDGE_JSONL_OUT = (
    '{"id": "j1", "a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, "theta2": 30, "theta_d": 10, '
    '"note": "x, y", "d": 3.860366845133059, "d_prime": 2.0155968174432637, '
    '"q": 1.2790972110947743, "branch": "general", "rc_x": 1.9995620107554288, '
    '"rc_y": -0.02092704675597651, "residual_e1": 2.220446049250313e-16, '
    '"residual_e2": 6.661338147750939e-16}',
    '{"id": "J2", "d": 3.860366845133059, "a1": 2, "b1": 1, "a2": 2, "b2": 1, "theta1": 0, '
    '"theta2": 30, "theta_d": 10, "d_prime": 2.0155968174432637, "q": 1.2790972110947743, '
    '"branch": "general", "rc_x": 1.9995620107554288, "rc_y": -0.02092704675597651, '
    '"residual_e1": 2.220446049250313e-16, "residual_e2": 6.661338147750939e-16}',
    '{"id": "j9", "a1": 1.3960396648826036e+16, "b1": 1.3960394716893794e+16, '
    '"a2": 1.7023807787871663e+113, "b2": 4.425377349627024e+43, "theta1": 62.29497744621404, '
    '"theta2": 309.4771385037617, "theta_d": 297.0901693199237, "d": 2.0629860650672418e+44, '
    '"d_prime": 1.4777418633352444e+28, "q": 1.0, "branch": "general", '
    '"rc_x": -1.0775726444336958e+16, "rc_y": -8875606237160816.0, '
    '"residual_e1": 2.220446049250313e-16, "residual_e2": 2.6645352591003757e-15}',
    '{"id": "j10", "a1": 2, "b1": 1, "a2": 3, "b2": 1, "theta1": 0, "theta2": 90, "theta_d": 45, '
    '"d": 3.6372910812209316, "d_prime": 2.8755310824186604, "q": 1.5879340571339573, '
    '"branch": "general", "rc_x": 1.9560445636230592, "rc_y": 0.20850039875302123, '
    '"residual_e1": 1.1102230246251565e-16, "residual_e2": 6.661338147750939e-16}',
    '{"id": "j11", "a1": 2, "b1": 1, "a2": 1.5, "b2": 0.5, "theta1": 15, "theta2": 100, '
    '"theta_d": 200, "d": 2.523099991138927, "d_prime": 1.2758433580057775, '
    '"q": 1.0130092949613783, "branch": "general", "rc_x": -1.934923871933509, '
    '"rc_y": -0.5055736484534059, "residual_e1": 2.220446049250313e-16, '
    '"residual_e2": 8.881784197001252e-16}',
)
EDGE_JSONL_REJECTS = (
    "line 4: Expecting value: line 1 column 1 (char 0)",
    "line 5: \"missing fields ['a2', 'b2', 'theta1', 'theta2', 'theta_d']\"",
    "line 6: string fields ['a1']",
    "line 7: float() argument must be a string or a real number, not 'NoneType'",
    "line 8: float division by zero",
)


@pytest.mark.parametrize("fmt, text, out, rejects, eol", [
    ("csv", EDGE_CSV, EDGE_CSV_OUT, EDGE_CSV_REJECTS, "\r\n"),
    ("jsonl", EDGE_JSONL, EDGE_JSONL_OUT, EDGE_JSONL_REJECTS, "\n"),
], ids=["csv", "jsonl"])
def test_batch_edge_corpus_bytes(tmp_path, capsys, fmt, text, out, rejects, eol):
    inp = tmp_path / f"in.{fmt}"
    inp.write_bytes(text.encode())
    outputs = [tmp_path / f"once.{fmt}", tmp_path / f"twice.{fmt}"]
    rejected = []
    for src, dst in zip([inp] + outputs, outputs):
        rej = dst.with_suffix(".rej")
        code, _, _ = run_cli(
            capsys, "batch", "--input", str(src), "--output", str(dst), "--format", fmt,
            "--rejects", str(rej),
        )
        assert code == 0
        rejected.append(rej.read_bytes())
    assert outputs[0].read_bytes() == "".join(line + eol for line in out).encode()
    assert rejected == ["".join(line + "\n" for line in rejects).encode(), b""]
    # a second pass over the output writes it again
    assert outputs[1].read_bytes() == outputs[0].read_bytes()


def test_distance_text_output_round_trips(capsys):
    from ellipse_contact import (
        UnitVec2, closest_approach, make_pair_configuration, tangency_residuals,
    )

    _, out, _ = run_cli(
        capsys, "distance", *PAIR_21, "--theta1", "12.5", "--theta2", "73.1",
        "--theta-d", "41.7",
    )
    text = dict(line.split(None, 1) for line in out.splitlines())
    cfg = make_pair_configuration(
        2, 1, 2, 1,
        UnitVec2.from_angle(math.radians(12.5)),
        UnitVec2.from_angle(math.radians(73.1)),
        UnitVec2.from_angle(math.radians(41.7)),
    )
    sol = closest_approach(cfg)
    r1, r2, cross = tangency_residuals(cfg, sol)
    expect = {
        "d": sol.d, "d_prime": sol.d_prime, "q": sol.q,
        "residual_e1": r1, "residual_e2": r2, "normal_cross": cross,
    }
    for key, value in expect.items():
        assert float(text[key]).hex() == value.hex()
    for key, vec in (("contact_point", sol.contact_point), ("contact_normal", sol.contact_normal)):
        x, y = (float(v) for v in text[key].strip("()").split(","))
        assert (x.hex(), y.hex()) == (vec.x.hex(), vec.y.hex())
    assert text["branch"] == sol.branch.value


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "ellipse_contact.cli", "distance",
         "--a1", "1", "--b1", "1", "--a2", "1", "--b2", "1", "--json"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert math.isclose(json.loads(result.stdout)["d"], 2.0, rel_tol=1e-12)


def test_main_dispatches_through_module_globals(monkeypatch, capsys):
    # a replaced cmd_* attribute is the one main runs
    seen = []
    monkeypatch.setattr(cli, "cmd_distance", lambda args: seen.append(args.a1) or 0)
    assert main(["distance", *PAIR_21]) == 0
    assert seen == [2.0]
    assert capsys.readouterr().out == ""


def test_parser_built_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["distance", *PAIR_21]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
