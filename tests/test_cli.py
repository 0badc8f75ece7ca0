import csv
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_input_error, run_cli, run_cli_bounded
from ellipse_contact import cli
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
        "1e308,1,2,1,0,0,0\n"            # OverflowError
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
    err = assert_input_error(
        capsys, "batch", "--input", str(inp), "--output", str(inp) + ".out",
        "--rejects", str(inp) + ".rej",
    )
    assert err == "error: ValueError: 2/3 rows rejected\n"


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


@pytest.mark.parametrize("sweep", [
    "0:90:0",        # zero step
    "0:90:-5",       # negative step
    "0:90:nan",      # nan step
    "nan:90:5",
    "0:inf:5",
    "90:0:5",        # START > STOP
    "1e20:1e20:1",   # STEP below the spacing of doubles at START
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


def test_verify_zero_tolerance_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "10", "--seed", "7", "--tol", "0"
    )
    assert code == 1


def test_verify_root_failure_exit_1(monkeypatch, capsys):
    # a trial whose kernel call raises NoPhysicalRoot fails verification
    from ellipse_contact import NoPhysicalRoot, oracle

    def no_root(cfg):
        raise NoPhysicalRoot("no bracket root")

    monkeypatch.setattr(oracle, "closest_approach", no_root)
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--samples", "64")
    assert code == 1
    assert "root failures 2" in out and "trial 1: rel err inf" in out


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


@pytest.mark.parametrize("argv", [
    ("overlap", *PAIR_21, "--sep", "nan"),
    ("overlap", *PAIR_21, "--sep", "inf"),
    ("excluded-area", *PAIR_21, "--angle", "inf"),
    ("distance", *PAIR_21, "--theta-d", "inf"),
    ("verify", "--samples", "10"),
    ("distance", "--a1", "1e308", "--b1", "1", "--a2", "2", "--b2", "1"),
    ("distance", "--a1", "2", "--b1", "1e-300", "--a2", "2", "--b2", "1e-300"),
    # the area overflows to inf; the second one used to warn on the way
    ("excluded-area", "--a1", "1e160", "--b1", "1e160", "--a2", "2", "--b2", "1"),
    ("excluded-area", "--a1", "1e300", "--b1", "1", "--a2", "1e300", "--b2", "1"),
    # rejected before any oracle table is allocated
    ("verify", "--trials", "1", "--samples", str((1 << 20) + 1)),
    ("verify", "--trials", "1", "--samples", "2000000000"),
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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_command())
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
