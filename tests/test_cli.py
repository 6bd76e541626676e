import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest

import reorderchan
from reorderchan import capacity, cli, frame_space
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


# sha256 of `construct F` stdout, F = 1..12: the set's rows, in peel order
CONSTRUCT_DIGESTS = {
    1: "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c",
    2: "0788ea7403dc4c4997075128fd80e57de6a4457ac530320919c46bc048861f16",
    3: "e6fcc506b565fec5283e8e63a84471a42021cedc7941fc95ee93876e75c4a155",
    4: "155a1e5fb06d49d28e3c907b36e10e749dfb7670b6aadb0444ee3889e0eef846",
    5: "db14b4c547b11dedf1748ce5edbd2531c60ff6bc69ab17d4ae8cbec720be9a96",
    6: "f39cda0ffbaa9dfaa9f06c1797797ba9fc897f444a9ae8fca1210a383d6147de",
    7: "49d486c9be12597c948d00263d3719e67a2520bfe45bf81586e5fd6ce3aadfb8",
    8: "a38f86eb34179626a58f65020a93c5bec384f981ccfd8586797a417d6bc724cb",
    9: "133501e4808ba3fb653ecbe8e8f3bcda34806db90c660ad221115d1cbb5b2c58",
    10: "caaaaff166a28345a7d5a5a8d299d0cc8b847a046b75fd9cd385dd6683540568",
    11: "7c2a05850d292f02701d36849dd399057ed533590b9e9df27e0441c66f1f829b",
    12: "00a6b5ebc12f48c3fe5a0ba6a26b39a1940dffc40582f38cd1a7ee3cfbc724fc",
}


@pytest.mark.parametrize("F", sorted(CONSTRUCT_DIGESTS))
def test_construct_keeps_its_bytes(capsys, F):
    assert run_cli(["construct", str(F)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[F]


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


@pytest.mark.parametrize(
    "preset, p, a, F",
    [
        ("bsc", "0.5", "0.3", "5"),
        ("bsc", "0.3", "0", "3"),
        ("erasure", "0.2", "1", "5"),
        ("z", "1", "0.3", "2"),
    ],
)
def test_oracle_prints_zero_capacity_without_residue(capsys, preset, p, a, F):
    # each orbit density D_t is 0 here, a difference of two equal sums that
    # rounds to about +-1e-15 unless clipped into [0, outer_bound]
    assert run_cli(["oracle", "--preset", preset, "--p", p, "--a", a, "--F", F]) == 0
    assert "capacity 0" in capsys.readouterr().out.split("\n")


def test_capacity_and_sweep_print_no_negative_rate(capsys):
    # I(T;Y) and I(X;Y|T) are never below zero, but at p or a in {0, 1} their
    # exact value is often 0, which rounds to -0 or -2.2e-16 unless clipped.
    # Neither passes I(X;Y), so where the outer bound is 0 both print 0, not
    # a residue such as 1.42e-14
    p_values, a_values = ("0", "0.1", "0.5", "1"), ("0", "0.3", "1")
    for preset in ("erasure", "bsc", "z"):
        for F in ("1", "3", "6"):
            for p in p_values:
                for a in a_values:
                    argv = ["capacity", "--preset", preset, "--p", p, "--a", a, "--F", F]
                    assert run_cli(argv) == 0
                    vals = keyvals(capsys.readouterr().out)
                    for key in ("i_ty", "i_xy", "i_xy_given_t", "c_xy", "outer_bound"):
                        assert not vals[key].startswith("-"), (argv, key, vals[key])
                    if vals["outer_bound"] == "0":
                        assert vals["i_ty"] == vals["i_xy_given_t"] == "0", (argv, vals)
        grid = ["--p", ",".join(p_values), "--a", ",".join(a_values), "--F", "1..6"]
        assert run_cli(["sweep", "--preset", preset, *grid]) == 0
        for line in capsys.readouterr().out.strip().split("\n")[1:]:
            cells = line.split(",")
            assert not any(cell.startswith("-") for cell in cells[4:]), line
            if cells[7] == "0":
                assert cells[4] == cells[5] == "0", line


def test_capacity_and_sweep_never_build_the_set(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the constructed set was built")

    for name, module in list(sys.modules.items()):
        if name == "reorderchan" or name.startswith("reorderchan."):
            for fn in ("build_weighted_graph", "decompose_paths"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    argv = ["--preset", "erasure", "--p", "0.2", "--a", "0.5"]
    assert run_cli(["capacity"] + argv + ["--F", "6"]) == 0
    assert "method constructed" in capsys.readouterr().out.split("\n")
    assert run_cli(["sweep"] + argv + ["--F", "2..4"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4
    # construct builds a set once per process, so the control starts from an empty cache
    reorderchan.strategy._built_set.cache_clear()
    with pytest.raises(AssertionError, match="built"):
        run_cli(["construct", "3"])


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
    # the F=9 orbit partition is over the 2 GiB byte budget
    assert run_cli(["sweep", "--preset", "z", "--p", "0.1", "--a", "0.5", "--F", "9"]) == 0
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


def test_sweep_refuses_a_bad_out_path_before_any_point(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.sweep_point

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "sweep_point", counted)
    argv = ["sweep", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "2"]
    assert run_cli(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert calls == []


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


def test_oracle_respects_the_byte_budget(capsys, monkeypatch):
    # the erasure F=2 orbit partition is sized at S // F! = 2 // 2 = 1 orbit
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", capacity.ORBIT_BYTES - 1)
    args = ["oracle", "--preset", "erasure", "--p", "0.1", "--a", "0.5", "--F", "2"]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: orbit partition needs 1 x {capacity.ORBIT_BYTES} bytes")
    assert captured.err.endswith(f", over {capacity.ORBIT_BYTES - 1} bytes\n")
    assert captured.err.count("\n") == 1
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", capacity.ORBIT_BYTES)
    assert run_cli(args) == 0
    capsys.readouterr()


# every point of test_capacity's ORACLE_P x ORACLE_A grid, 3 presets, F = 1..5,
# where Blahut-Arimoto iterated from the uniform law ran out of its 100 000 steps
UNCONVERGED = [
    ("erasure", 5, 0.05, 0.1), ("erasure", 5, 0.05, 0.9), ("bsc", 4, 0.4, 0.1),
    ("bsc", 4, 0.4, 0.9), ("bsc", 5, 0.1, 0.1), ("bsc", 5, 0.1, 0.9), ("bsc", 5, 0.2, 0.1),
    ("bsc", 5, 0.2, 0.9), ("bsc", 5, 0.3, 0.1), ("bsc", 5, 0.3, 0.9), ("bsc", 5, 0.4, 0.1),
    ("bsc", 5, 0.4, 0.2), ("bsc", 5, 0.4, 0.8), ("bsc", 5, 0.4, 0.9), ("bsc", 5, 0.7, 0.1),
    ("bsc", 5, 0.7, 0.9), ("z", 4, 0.7, 0.9), ("z", 5, 0.2, 0.9), ("z", 5, 0.3, 0.9),
    ("z", 5, 0.4, 0.9), ("z", 5, 0.5, 0.9), ("z", 5, 0.7, 0.9),
]


def test_oracle_answers_where_an_iterated_solve_ran_out(capsys):
    for preset, F, p, a in UNCONVERGED:
        argv = ["oracle", "--preset", preset, "--p", str(p), "--a", str(a), "--F", str(F)]
        assert run_cli(argv) == 0, argv
        vals = keyvals(capsys.readouterr().out)
        want = secondary_capacity(channel_preset(preset, p), FrameConfig(F, a)).i_ty
        assert float(vals["capacity"]) == pytest.approx(want, abs=1e-11), argv
        assert (vals["gap"], vals["iterations"]) == ("0.000e+00", "1"), argv
    argv = ["sweep", "--preset", "bsc", "--p", "0.4", "--a", "0.1", "--F", "1..5"]
    assert run_cli(argv) == 0
    for line in capsys.readouterr().out.strip().split("\n")[1:]:
        c_constructed, c_oracle = line.split(",")[4:6]
        assert c_oracle == c_constructed, line


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reorderchan", "construct", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n") == ["00,01,11", "00,10,11"]


def test_simulate_reuses_one_set_object_per_f(monkeypatch, capsys):
    sent, run = [], cli.run_monte_carlo

    def spy(channel, config, sset, *args, **kwargs):
        sent.append(sset)
        return run(channel, config, sset, *args, **kwargs)

    monkeypatch.setattr(cli, "run_monte_carlo", spy)
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--frames", "20"]
    outs = []
    for F in ("4", "5", "4"):
        assert run_cli(argv + ["--F", F]) == 0
        outs.append(capsys.readouterr().out)
    assert sent[0] is sent[2] is reorderchan.strategy.constructed_set(4)
    assert sent[1] is reorderchan.strategy.constructed_set(5)
    assert outs[0] == outs[2]


@pytest.mark.parametrize("F", ["0", "21"])
def test_construct_rejects_out_of_range_f(capsys, F):
    assert run_cli(["construct", F]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: F must be an integer in 1..20\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "18"],
        ["construct", "20"],
        ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "20", "--frames", "9"],
    ],
)
def test_oversized_set_is_refused_before_it_is_built(capsys, argv):
    tracemalloc.start()
    try:
        assert run_cli(argv) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "strategies" in captured.err


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


def _cli_bytes(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CAPACITY_ARGV = ["capacity", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "4"]
HELP_ARGVS = [["--help"]] + [
    [cmd, "--help"] for cmd in ("construct", "capacity", "oracle", "simulate", "sweep")
]


def test_repeated_calls_under_one_ceiling_build_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for argv in (CAPACITY_ARGV, ["construct", "3"], ["construct", "0"], ["--help"], []):
        run_cli(argv)
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@pytest.mark.parametrize(
    "bad",
    [
        ["capacity", "--preset", "erasure", "--F", "3"],
        ["capacity", "--preset", "laplace", "--p", "0.1", "--a", "0.5", "--F", "3"],
        ["oracle", "--F", "x"],
        ["nosuchcommand"],
        [],
    ],
)
def test_a_failed_parse_leaves_the_next_call_as_a_fresh_one(capsys, bad):
    cli.build_parser.cache_clear()
    fresh = [_cli_bytes(capsys, argv) for argv in (CAPACITY_ARGV, ["capacity", "--help"])]
    cli.build_parser.cache_clear()
    code, out, err = _cli_bytes(capsys, bad)
    assert code == 2 and out == "" and err.startswith("usage: reorderchan")
    again = [_cli_bytes(capsys, argv) for argv in (CAPACITY_ARGV, ["capacity", "--help"])]
    assert cli.build_parser.cache_info().misses == 1
    assert again == fresh


# the environment variable that set the oracle's old entry ceiling: left set, it changes nothing
@pytest.mark.parametrize("stale", [None, "777"])
def test_help_from_the_shared_parser_matches_a_fresh_process(capsys, monkeypatch, stale):
    monkeypatch.setenv("COLUMNS", "80")
    if stale is None:
        monkeypatch.delenv("REORDERCHAN_ORACLE_MAX_ENTRIES", raising=False)
    else:
        monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", stale)
    run_cli(CAPACITY_ARGV)  # the parser in use has already parsed a call
    capsys.readouterr()
    for argv in HELP_ARGVS:
        in_process = _cli_bytes(capsys, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "reorderchan", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
        assert "REORDERCHAN" not in proc.stdout, argv
