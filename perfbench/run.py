"""Benchmark of the reorderchan package: four seeded, closed-loop workloads.

Run from the root of a checkout (the directory holding src/reorderchan):

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 14 --trace 0

Workloads: exact_constructed, exact_general, oracle, monte_carlo (see
workloads.py and BENCHMARK.json for why each exists). One client sends one op
at a time and the next only after the previous returns. Each workload runs
in a fresh child process with BLAS pinned to one thread and REORDERCHAN_*
variables cleared; nothing is timed inside the package.

--trace 0 prints the end-to-end metrics of the named workload. --trace 1
traces every workload, in turn, so that every per-layer metric (named
`<workload>.<module>.<metric>`) comes from the workload that exercises it.
--seconds sets how much work a run holds: a whole number of rounds of the
op mix, sized to take about that long on the machine noted in workloads.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Spans of a traced run are written to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7  # children timed to ready; the last one also runs the ops
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REORDERCHAN_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = f"{root / 'src'}{os.pathsep}{HERE}"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_file(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(root, env):
    """What the numbers depend on besides the code: versions, threads, CPU."""
    import numpy

    commit = _read_file(root / ".git" / "HEAD") or ""
    if commit.startswith("ref: "):
        commit = _read_file(root / ".git" / commit[5:]) or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_file(index / f) for f in ("level", "type", "size"))
        if size:
            caches[f"L{level} {kind}"] = size
    return {
        "commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "child_env": {k: env[k] for k in THREAD_VARS},
        "cleared": sorted(k for k in os.environ if k.startswith("REORDERCHAN_")),
    }


class ChildFailed(Exception):
    pass


def run_child(root, env, deadline, workload, seed, rounds, mode):
    """Start one worker; returns (seconds from start to ready, its JSON result or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--rounds", str(rounds), "--mode", mode, "--out-dir", str(root / ".perfbench_out"),
    ]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        fd = proc.stdout.fileno()
        head = b""
        while b"\n" not in head:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ChildFailed(f"{workload} {mode}: not ready in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ChildFailed(f"{workload} {mode}: exited before ready (code {proc.wait()})")
            head += chunk
        ready = perf_counter() - start
        line, _, rest = head.partition(b"\n")
        if line != b"ready":
            raise ChildFailed(f"{workload} {mode}: unexpected output {line[:200]!r}")
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{workload} {mode}: out of time") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} {mode}: exit code {proc.returncode}")
        lines = (rest + out).decode().split("\n")
        text = [ln for ln in lines if ln.strip()]
        return ready, json.loads(text[-1]) if text else None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def end_to_end(root, env, deadline, args, workload):
    rounds = workload.rounds(args.seconds)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(root, env, deadline, workload.name, args.seed, rounds, "setup")[0])
    ready, res = run_child(root, env, deadline, workload.name, args.seed, rounds, "run")
    setups.append(ready)
    lat = res["op_seconds"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (res["run_s"], "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        # 1 - fail_ratio: a ratio that is never 0, so a bound can apply to it
        "ok_ratio": (1.0 - res["failed"] / res["ops"], "ratio"),
    }
    notes = {
        "ops": res["ops"],
        "rounds": rounds,
        "fail_ratio": res["failed"] / res["ops"],
        "f_only_repeat_share": res["f_only_repeat_share"],
        "setup_samples_s": setups,
    }
    return res, metrics, notes


def traced(root, env, deadline, args):
    attempted = failed = 0
    metrics, problems, notes = {}, [], {}
    for name in sorted(workloads.WORKLOADS):
        _, res = run_child(root, env, deadline, name, args.seed, 1, "trace")
        attempted += res["ops"]
        failed += res["failed"]
        problems += res["problems"]
        notes[f"{name}.ops"] = res["ops"]
        for metric, (value, unit) in res["layers"].items():
            metrics[f"{name}.{metric}"] = (value, unit)
    return {"ops": attempted, "failed": failed, "problems": problems}, metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "reorderchan" / "__init__.py").is_file():
        sys.exit("perfbench: no src/reorderchan here; run from the root of a reorderchan checkout")
    deadline = perf_counter() + TIME_LIMIT_S
    env = child_env(root)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    print("environment " + json.dumps(environment(root, env)))

    try:
        if args.trace:
            res, metrics, notes = traced(root, env, deadline, args)
        else:
            workload = workloads.WORKLOADS[args.workload]
            res, metrics, notes = end_to_end(root, env, deadline, args, workload)
    except (ChildFailed, json.JSONDecodeError, KeyError, TypeError) as exc:
        sys.exit(f"perfbench: {exc}")

    title = "all workloads, traced" if args.trace else args.workload
    print(f"{title}: seed {args.seed}, {res['ops']} ops, {res['failed']} failed")
    for key, value in notes.items():
        print(f"  {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for line in res["problems"]:
        print(f"  FAILED {line}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["ops"],
                "failed": res["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
