"""One workload in a fresh process: set up, signal ready, run the op list, check it.

Started by run.py, never by hand. Prints `ready` once reorderchan is
imported and the warm-up op has returned, then (unless --mode setup) one
JSON line with the measurements. Op outputs are captured in-process and
never reach this process's stdout.

--mode run    times the op list with tracing off.
--mode trace  runs the op list untraced, traced, then untraced again, and
              reports per-layer metrics of the traced pass plus its time
              over the last untraced pass (the first one fills the allocator
              and page tables, which would otherwise be charged to one side).
"""

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import reorderchan

import tracing
import workloads


def run_pass(ops, tracer=None):
    """Run the ops in order, one at a time; returns total and per-op wall seconds."""
    seconds = {}
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        t = perf_counter()
        try:
            workloads.run_op(op)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            op.rc, op.err = -1, repr(exc)
        seconds[op.index] = perf_counter() - t
    return perf_counter() - start, seconds


def check_all(ops):
    """Check every op; returns the number that failed and one line per problem."""
    for op in ops:
        op.problems.clear()
        workloads.check_op(op)
    lines = [f"op {op.index} ({op.cls.label}): {msg}" for op in ops for msg in op.problems]
    return sum(bool(op.problems) for op in ops), lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    src = Path("src").resolve()
    if src not in Path(reorderchan.__file__).resolve().parents:
        sys.exit(f"reorderchan was imported from {reorderchan.__file__}, not from {src}")
    workload = workloads.WORKLOADS[args.workload]
    warm = workloads.warmup_op(workload)
    workloads.run_op(warm)
    workloads.check_op(warm)
    if warm.problems:
        sys.exit(f"warm-up op failed: {warm.problems}")
    print("ready", flush=True)
    if args.mode == "setup":
        return

    work_dir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        ops = workloads.make_ops(workload, args.seed, args.rounds, work_dir)
        result = {"ops": len(ops), "f_only_repeat_share": workloads.f_only_repeat_share(ops)}
        if args.mode == "run":
            run_s, seconds = run_pass(ops)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            failed, problems = check_all(ops)
            repeat = next((op for op in ops if op.trace_path and not op.problems), None)
            if repeat is not None:
                workloads.check_repeat(repeat)
                failed += bool(repeat.problems)
                problems += [f"op {repeat.index} repeat: {msg}" for msg in repeat.problems]
            result.update(
                run_s=run_s, op_seconds=list(seconds.values()), peak_rss_mb=peak_kib * 1024 / 1e6
            )
        else:
            tracer = tracing.Tracer()
            failed, problems = 0, []
            for traced in (False, True, False):
                if traced:
                    tracer.install()
                try:
                    pass_s, op_s = run_pass(ops, tracer if traced else None)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_s, seconds = pass_s, op_s
                pass_failed, pass_problems = check_all(ops)
                failed += pass_failed
                problems += pass_problems
            tracer.dump(os.path.join(args.out_dir, f"spans-{workload.name}-seed{args.seed}.json"))
            metrics = tracing.layer_metrics(tracer.spans, seconds)
            metrics["trace.overhead_ratio"] = (traced_s / pass_s, "ratio")
            layers = {name: metrics[name] for name in workload.layers}
            result.update(ops=3 * len(ops), layers=layers)
        result.update(failed=failed, problems=problems[:5])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
