"""The benchmark's traced run rebinds package names from outside; keep them in place."""

import importlib
import importlib.util
from pathlib import Path

from reorderchan import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    for module_name, attr in _load_tracing().TARGETS:
        module = importlib.import_module("reorderchan." + module_name)
        assert callable(getattr(module, attr, None)), f"reorderchan.{module_name}.{attr}"


def _traced_metrics(argv):
    """Per-layer metrics of one in-process CLI run under the benchmark's tracer."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert cli.run_cli(argv) == 0
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, {0: 1.0})


def test_traced_simulation_sees_decode_and_trace_file(tmp_path, capsys):
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "3"]
    metrics = _traced_metrics(argv + ["--frames", "50", "--trace", str(tmp_path / "t.csv")])
    capsys.readouterr()
    assert metrics["cli.run_cli.calls"][0] == 1
    # likelihood_rows called straight from run_monte_carlo is the MAP decode
    assert metrics["simulate.decode_columns"][0] > 0
    assert metrics["capacity.mutual_info_TY.calls"][0] == 1
    assert metrics["simulate.trace_bytes"][0] == (tmp_path / "t.csv").stat().st_size


def test_traced_oracle_counts_the_printed_iterations(capsys):
    argv = ["oracle", "--preset", "erasure", "--p", "0.2", "--a", "0.5", "--F", "4"]
    metrics = _traced_metrics(argv)
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert metrics["capacity.blahut_arimoto.iterations"][0] == int(printed["iterations"]) > 1
