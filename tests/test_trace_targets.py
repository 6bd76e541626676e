"""The benchmark reads package names from outside; keep them in place and working.

Its traced run rebinds package functions, and its general workload builds
strategy sets from Multisymbol objects.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from reorderchan import StrategySet, cli, mutual_info_TY

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    for module_name, attr in _load("tracing").TARGETS:
        module = importlib.import_module("reorderchan." + module_name)
        assert callable(getattr(module, attr, None)), f"reorderchan.{module_name}.{attr}"


def _traced_metrics(argv):
    """Per-layer metrics of one in-process CLI run under the benchmark's tracer."""
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert cli.run_cli(argv) == 0
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, {0: 1.0})


def test_traced_simulation_sees_decode_and_trace_file(tmp_path, capsys):
    # 50 frames observe at most 50 of the 256 outputs, too few for the dense decoder
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "8"]
    metrics = _traced_metrics(argv + ["--frames", "50", "--trace", str(tmp_path / "t.csv")])
    capsys.readouterr()
    assert metrics["cli.run_cli.calls"][0] == 1
    # likelihood_rows called straight from run_monte_carlo is the MAP decode, one
    # column per distinct output
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert metrics["simulate.decode_columns"][0] == len({row.split(",")[4] for row in rows})
    assert metrics["capacity.mutual_info_TY.calls"][0] == 1
    assert metrics["simulate.trace_bytes"][0] == (tmp_path / "t.csv").stat().st_size


def test_traced_dense_simulation_calls_no_likelihood_rows(tmp_path, capsys):
    # 50 frames observe most of the 8 outputs, so the MAP decode is one law pass
    # over all of them, from the split tables
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "3"]
    metrics = _traced_metrics(argv + ["--frames", "50", "--trace", str(tmp_path / "t.csv")])
    capsys.readouterr()
    assert metrics["cli.run_cli.calls"][0] == 1
    assert metrics["simulate.frames"][0] == 50
    assert metrics["frame_space.likelihood_rows.calls"][0] == 0
    assert metrics["simulate.decode_columns"][0] == 0
    assert metrics["simulate.trace_bytes"][0] == (tmp_path / "t.csv").stat().st_size


def test_traced_oracle_runs_no_blahut_arimoto(capsys):
    argv = ["oracle", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "4"]
    metrics = _traced_metrics(argv)
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert metrics["cli.run_cli.calls"][0] == 1
    # the best orbit's density is returned as it is, with no solver step behind it
    assert metrics["capacity.blahut_arimoto.iterations"][0] == 0
    assert printed["gap"] == "0.000e+00"
    assert printed["iterations"] == "1"


def test_general_op_builds_the_set_its_table_gives(monkeypatch):
    # workloads.py imports perfbench's reference module, not this directory's
    monkeypatch.setitem(sys.modules, "reference", _load("reference"))
    workloads = _load("workloads")
    op = workloads.warmup_op(workloads.WORKLOADS["exact_general"])
    channel, config, sset = op.call
    assert sset.reps.tolist() == op.reps.tolist()
    workloads.run_op(op)
    workloads.check_op(op)
    assert not op.problems, op.problems
    table = StrategySet(op.reps, op.pmf / op.pmf.sum())
    assert op.value == mutual_info_TY(channel, config, table)
