import os
import subprocess
import sys

import pytest

import reorderchan
from reorderchan import cli
from reorderchan import (
    FrameConfig,
    channel_preset,
    errorless_capacity,
    oracle_capacity,
    secondary_capacity,
)
from reorderchan.cli import (
    CSV_HEADER,
    SweepSpec,
    fmt,
    format_sweep_csv,
    parse_f_values,
    parse_prob_list,
    run_cli,
    sweep_rows,
)


def child_env(**extra):
    """Environment for a `python -m reorderchan` child that imports this same package."""
    src = os.path.dirname(os.path.dirname(reorderchan.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def keyvals(out):
    return dict(line.split(" ", 1) for line in out.strip().split("\n"))


def test_parse_f_values():
    assert parse_f_values("4") == [4]
    assert parse_f_values("2..6") == [2, 3, 4, 5, 6]
    assert parse_f_values("1,3..5,8") == [1, 3, 4, 5, 8]
    with pytest.raises(ValueError):
        parse_f_values("x")
    # spans are refused before they are expanded
    for bad in ("1..1000000000000", "0..3", "5..3"):
        with pytest.raises(ValueError):
            parse_f_values(bad)


def test_parse_prob_list():
    assert parse_prob_list("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(ValueError):
        parse_prob_list("0.1;0.2")


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("erasure", [], [0.5], [2])
    with pytest.raises(ValueError):
        SweepSpec("erasure", [1.5], [0.5], [2])
    with pytest.raises(ValueError):
        SweepSpec("erasure", [0.2], [0.5], [14, 21])


def test_fmt_significant_digits():
    assert fmt(0.5) == "0.5"
    assert fmt(1.9693609377704335) == "1.96936093777"


def test_construct_command(capsys):
    assert run_cli(["construct", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 12
    assert lines[0] == "0000,0001,0011,0111,1111"
    for line in lines:
        fields = line.split(",")
        assert len(fields) == 5
        assert all(len(f) == 4 and set(f) <= {"0", "1"} for f in fields)


def test_construct_f7_count(capsys):
    assert run_cli(["construct", "7"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 105


def test_capacity_command(capsys):
    assert run_cli(["capacity", "--preset", "erasure", "--p", "0", "--a", "0.5", "--F", "4"]) == 0
    vals = keyvals(capsys.readouterr().out)
    assert vals["method"] == "constructed"
    assert vals["preset"] == "erasure"
    assert vals["F"] == "4"
    assert float(vals["i_ty"]) == pytest.approx(1.9693609377704335, abs=1e-9)
    assert vals["i_ty"] == vals["c_errorless"]
    assert float(vals["c_xy"]) == pytest.approx(4.0)


def test_capacity_per_packet(capsys):
    args = ["capacity", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "2"]
    run_cli(args)
    whole = keyvals(capsys.readouterr().out)
    run_cli(args + ["--per-packet"])
    per = keyvals(capsys.readouterr().out)
    assert float(per["i_ty"]) == pytest.approx(float(whole["i_ty"]) / 2, rel=1e-10)
    # the per-packet outer bound is the one-slot rate
    assert float(per["outer_bound"]) == pytest.approx(0.8)


def test_capacity_matches_library(capsys):
    run_cli(["capacity", "--preset", "z", "--p", "0.1", "--a", "0.5", "--F", "3"])
    vals = keyvals(capsys.readouterr().out)
    report = secondary_capacity(channel_preset("z", 0.1), FrameConfig(3, 0.5))
    assert float(vals["i_ty"]) == pytest.approx(report.i_ty, abs=1e-9)
    assert float(vals["i_xy"]) == pytest.approx(report.i_xy, abs=1e-9)
    assert float(vals["i_xy_given_t"]) == pytest.approx(report.i_xy_given_t, abs=1e-9)


def test_oracle_command(capsys):
    assert run_cli(["oracle", "--preset", "z", "--p", "0.1", "--a", "0.5", "--F", "3"]) == 0
    vals = keyvals(capsys.readouterr().out)
    want = oracle_capacity(channel_preset("z", 0.1), FrameConfig(3, 0.5))
    assert float(vals["capacity"]) == pytest.approx(want, abs=1e-9)
    assert float(vals["gap"]) < 1e-10
    assert int(vals["iterations"]) >= 1


def test_simulate_command_deterministic(capsys):
    args = [
        "simulate", "--preset", "erasure", "--p", "0.2", "--a", "0.5",
        "--F", "3", "--frames", "5000", "--seed", "7",
    ]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    run_cli(args)
    second = capsys.readouterr().out
    assert first == second
    vals = keyvals(first)
    assert vals["frames"] == "5000"
    assert vals["seed"] == "7"
    assert abs(float(vals["empirical_mi"]) - float(vals["analytical_mi"])) < 0.05


def test_simulate_trace_flag(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    run_cli([
        "simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5",
        "--F", "2", "--frames", "40", "--seed", "3", "--trace", str(path),
    ])
    capsys.readouterr()
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frame,s,t,x,y,t_hat"
    assert len(lines) == 41


def test_sweep_command(capsys):
    assert run_cli(["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "1..4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "F,a,p,preset,c_constructed,c_oracle,c_xy,outer_bound,c_errorless"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(i + 1)
        assert fields[3] == "erasure"
        c_constructed = float(fields[4])
        c_oracle = float(fields[5])
        c_xy = float(fields[6])
        outer = float(fields[7])
        assert abs(c_oracle - c_constructed) < 1e-6
        assert c_constructed <= c_xy + 1e-9 <= outer + 2e-9
        assert c_xy == pytest.approx(0.8 * (i + 1), abs=1e-9)


def test_sweep_is_stable(capsys):
    args = ["sweep", "--preset", "bsc", "--p", "0.1,0.3", "--a", "0.3,0.5", "--F", "2"]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    assert capsys.readouterr().out == first
    assert len(first.strip().split("\n")) == 5


def test_sweep_oracle_column_empty_over_limit(capsys):
    # the F=6 strategy table is over the default enumeration ceiling
    assert run_cli(["sweep", "--preset", "z", "--p", "0.1", "--a", "0.5", "--F", "6"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    fields = line.split(",")
    assert fields[5] == ""
    assert float(fields[4]) > 0


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    args = ["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "2", "--out", str(path)]
    assert run_cli(args) == 0
    assert capsys.readouterr().out == ""
    run_cli(args[:-2])
    stdout_text = capsys.readouterr().out
    assert path.read_text() == stdout_text


def test_sweep_per_packet(capsys):
    run_cli(["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "2"])
    whole = capsys.readouterr().out.strip().split("\n")[1].split(",")
    run_cli(["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "2", "--per-packet"])
    per = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert float(per[4]) == pytest.approx(float(whole[4]) / 2, rel=1e-10)
    assert float(per[8]) == pytest.approx(float(whole[8]) / 2, rel=1e-10)


def test_sweep_rows_match_library():
    grid = SweepSpec("erasure", [0.2], [0.5], [2])
    rows = sweep_rows(grid)
    assert len(rows) == 1
    text = format_sweep_csv(rows)
    assert text.startswith(CSV_HEADER + "\n")
    want = errorless_capacity(FrameConfig(2, 0.5))
    assert float(text.strip().split("\n")[1].split(",")[8]) == pytest.approx(want, rel=1e-10)


def test_sweep_evaluates_repeated_values_once(capsys, monkeypatch):
    calls = []
    real = cli.sweep_point

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "sweep_point", counted)
    argv = ["sweep", "--preset", "bsc", "--p", "0.2,0.2", "--a", "0.5", "--F", "2,2"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert calls == [("bsc", 0.2, 0.5, 2)]


def test_missing_required_flags_exit_2():
    assert run_cli(["capacity", "--preset", "erasure", "--F", "3"]) == 2
    assert run_cli(["capacity", "--preset", "laplace", "--p", "0.1", "--a", "0.5", "--F", "3"]) == 2
    assert run_cli([]) == 2


def test_invalid_values_exit_1(capsys):
    assert run_cli(["capacity", "--preset", "erasure", "--p", "1.5", "--a", "0.5", "--F", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert run_cli(["capacity", "--preset", "erasure", "--p", "0.1", "--a", "0.5", "--F", "0"]) == 1
    assert run_cli(["capacity", "--preset", "erasure", "--p", "0.1", "--a", "0.5", "--F", "25"]) == 1
    assert run_cli(["sweep", "--preset", "erasure", "--p", "0.2,1.5", "--a", "0.5", "--F", "2"]) == 1


def test_oracle_respects_env_limit(capsys, monkeypatch):
    # the erasure F=2 strategy table holds 2 x 9 entries
    monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", "10")
    args = ["oracle", "--preset", "erasure", "--p", "0.1", "--a", "0.5", "--F", "2"]
    assert run_cli(args) == 1
    assert "REORDERCHAN_ORACLE_MAX_ENTRIES" in capsys.readouterr().err
    monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", "1000")
    assert run_cli(args) == 0
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_oracle_limit_env_is_one_line_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", raw)
    assert run_cli(["construct", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: REORDERCHAN_ORACLE_MAX_ENTRIES")
    assert captured.err.count("\n") == 1


def test_bad_oracle_limit_env_exits_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "reorderchan", "construct", "2"],
        capture_output=True,
        text=True,
        env=child_env(REORDERCHAN_ORACLE_MAX_ENTRIES="abc"),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reorderchan", "construct", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n") == ["00,01,11", "00,10,11"]


@pytest.mark.parametrize("F", ["0", "21"])
def test_construct_rejects_out_of_range_f(capsys, F):
    assert run_cli(["construct", F]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: F must be an integer in 1..20\n"


@pytest.mark.parametrize("F", ["1..1000000000000", "14,21"])
def test_sweep_rejects_bad_f_before_any_work(capsys, monkeypatch, F):
    def never(*args, **kwargs):
        raise AssertionError("sweep evaluated a point before validating F")

    monkeypatch.setattr(cli, "sweep_point", never)
    assert run_cli(["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", F]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--F", "2", "--frames", "40", "--trace"],
        ["sweep", "--F", "2", "--out"],
    ],
)
def test_unwritable_output_file_is_one_line_error(tmp_path, capsys, args):
    argv = args[:1] + ["--preset", "bsc", "--p", "0.1", "--a", "0.5"] + args[1:]
    assert run_cli(argv + [str(tmp_path / "missing" / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
