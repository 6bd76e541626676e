"""Spans around the package's public functions, for the traced run only.

`Tracer.install` wraps each function in TARGETS and rebinds the wrapper under
that name in every reorderchan module that imported it (`likelihood_rows`
lives in frame_space, capacity, simulate and multisymbol), so calls between
modules are seen too. It also shadows `open` inside `reorderchan.simulate`,
which gives the per-frame trace writer a span from open to close. Spans stay
in memory as (name, start, end, parent, op id, counts) and are written once,
at exit. Counts come from arguments and return values only, so they repeat
exactly between two traced runs with the same seed.
"""

import builtins
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = (
    ("cli", "run_cli"),
    ("strategy", "build_weighted_graph"),
    ("strategy", "decompose_paths"),
    ("capacity", "mutual_info_TY"),
    ("capacity", "c_xy"),
    ("capacity", "equivalent_channel_matrix"),
    ("capacity", "blahut_arimoto"),
    ("simulate", "run_monte_carlo"),
    ("frame_space", "likelihood_rows"),
)
TRACE_FILE = "simulate.trace_file"


def _counts(name, args, result):
    if name == "frame_space.likelihood_rows":
        return {"cells": result.size, "cols": result.shape[1], "bytes": result.nbytes}
    if name == "capacity.mutual_info_TY":
        channel, config, sset = args[:3]
        used = {x for m in sset.multisymbols for x in m.reps}
        # the table mutual_info_TY keeps for the whole output space, float64
        return {"table_bytes": len(used) * channel.J**config.F * 8}
    if name == "capacity.equivalent_channel_matrix":
        return {"entries": result.size}
    if name == "capacity.blahut_arimoto":
        return {"iterations": result.iterations}
    if name == "strategy.decompose_paths":
        return {"strategies": len(result)}
    if name == "simulate.run_monte_carlo":
        return {"frames": result.frames, "strategies": len(args[2])}
    return {}


class Tracer:
    """Records spans while installed; `op` names the op that later spans belong to."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _enter(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _leave(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span)
            span[5] = _counts(name, args, result)
            return result

        return traced

    def _open(self, path, *args, **kwargs):
        span = self._enter(TRACE_FILE)
        fh = builtins.open(path, *args, **kwargs)
        real_close = fh.close

        def close():
            real_close()
            self._leave(span)
            span[5] = {"bytes": os.path.getsize(path)}

        fh.close = close
        return fh

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("reorderchan.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules["reorderchan." + module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
        simulate = sys.modules["reorderchan.simulate"]
        simulate.open = self._open
        self._undo.append((simulate, "open", None))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._undo.clear()

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _under(spans, i, name):
    """Whether span i has an ancestor called name."""
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, op_seconds):
    """Per-layer metrics of one traced pass; op_seconds maps op id to its wall time.

    Returns {name: (value, unit)}. Byte and cell figures computed from array
    shapes rather than measured carry a `_computed` unit.
    """
    busy, self_time = defaultdict(float), defaultdict(float)
    calls, total = defaultdict(int), defaultdict(int)
    covered = dict.fromkeys(op_seconds, 0.0)
    for name, start, end, parent, op, counts in spans:
        busy[name] += end - start
        self_time[name] += end - start
        calls[name] += 1
        for key, value in counts.items():
            total[f"{name}.{key}"] += value
        if parent is None:
            covered[op] += end - start
        else:
            self_time[spans[parent][0]] -= end - start

    lr = "frame_space.likelihood_rows"
    mi = "capacity.mutual_info_TY"
    ecm = "capacity.equivalent_channel_matrix"
    ba = "capacity.blahut_arimoto"
    mc = "simulate.run_monte_carlo"
    output_columns = sum(
        s[5]["cols"] for i, s in enumerate(spans) if s[0] == lr and _under(spans, i, mi)
    )
    decode = defaultdict(int)  # run_monte_carlo span -> columns of its own decode call
    for s in spans:
        if s[0] == lr and s[3] is not None and spans[s[3]][0] == mc:
            decode[s[3]] += s[5]["cols"]
    joint_cells = sum(spans[i][5]["strategies"] * cols for i, cols in decode.items())
    iterations = total[f"{ba}.iterations"]
    return {
        "cli.run_cli.calls": (calls["cli.run_cli"], "count"),
        "cli.self_s": (self_time["cli.run_cli"], "s"),
        "strategy.build_weighted_graph.busy_s": (busy["strategy.build_weighted_graph"], "s"),
        "strategy.decompose_paths.busy_s": (busy["strategy.decompose_paths"], "s"),
        "strategy.strategies": (total["strategy.decompose_paths.strategies"], "count"),
        f"{lr}.calls": (calls[lr], "count"),
        f"{lr}.cells": (total[f"{lr}.cells"], "count"),
        f"{lr}.busy_s": (busy[lr], "s"),
        f"{lr}.bytes_computed": (total[f"{lr}.bytes"], "bytes_computed"),
        f"{mi}.calls": (calls[mi], "count"),
        f"{mi}.busy_s": (busy[mi], "s"),
        f"{mi}.self_s": (self_time[mi], "s"),
        "capacity.output_columns": (output_columns, "count"),
        "capacity.c_xy.calls": (calls["capacity.c_xy"], "count"),
        "capacity.peak_table_bytes": (
            max((s[5]["table_bytes"] for s in spans if s[0] == mi), default=0),
            "bytes_computed",
        ),
        f"{ecm}.busy_s": (busy[ecm], "s"),
        f"{ecm}.entries": (total[f"{ecm}.entries"], "count"),
        f"{ba}.busy_s": (busy[ba], "s"),
        f"{ba}.iterations": (iterations, "count"),
        f"{ba}.s_per_iteration": (busy[ba] / iterations if iterations else 0.0, "s"),
        f"{mc}.busy_s": (busy[mc], "s"),
        "simulate.self_s": (self_time[mc], "s"),
        "simulate.frames": (total[f"{mc}.frames"], "count"),
        "simulate.decode_columns": (sum(decode.values()), "count"),
        # the dense strategy x observed-output histogram of each run
        "simulate.joint_cells": (joint_cells, "cells_computed"),
        "simulate.trace_s": (busy[TRACE_FILE], "s"),
        "simulate.trace_bytes": (total[f"{TRACE_FILE}.bytes"], "bytes"),
        "trace.uncovered_s": (sum(op_seconds[op] - covered[op] for op in op_seconds), "s"),
    }
