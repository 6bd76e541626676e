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


def test_traced_simulation_sees_decode_and_trace_file(tmp_path, capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "3"]
        assert cli.run_cli(argv + ["--frames", "50", "--trace", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans, {0: 1.0})
    assert metrics["cli.run_cli.calls"][0] == 1
    # likelihood_rows called straight from run_monte_carlo is the MAP decode
    assert metrics["simulate.decode_columns"][0] > 0
    assert metrics["capacity.mutual_info_TY.calls"][0] == 1
    assert metrics["simulate.trace_bytes"][0] == (tmp_path / "t.csv").stat().st_size
