"""Seeded op lists of the four workloads, how to run one op, and how to check it.

An op is one user-level call: a `reorderchan capacity|oracle|simulate`
command run in-process through `reorderchan.cli.run_cli` with its output
captured, or a library `mutual_info_TY` call where no command exists.
Names are looked up on the package modules at call time, so the traced run
sees its wrappers.

Each workload is a list of input classes (preset, F, ranges). A round holds a
fixed number of ops of each class; a run is a whole number of rounds. Inside
a class, (p, a[, frames]) are stratified draws: one point uniform in each
cell of a grid over (p, a), frames stratified on their own. Every draw is
continuous and seed-dependent, but each class covers its ranges evenly, so
the per-run cost depends little on the seed.

reorderchan is imported inside the functions that call it: run.py reads the
workload table without the package on its path.
"""

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import reference

TOL = 1e-9
BA_GAP = 1e-10


@dataclass(frozen=True)
class OpClass:
    """One input class of a workload and how many ops of it a round holds."""

    preset: str
    F: int
    per_round: int
    p: tuple
    a: tuple
    frames: tuple = (0, 0)
    trace: bool = False

    @property
    def label(self):
        return f"{self.preset} F={self.F}" + (" trace" if self.trace else "")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # capacity, general, oracle or simulate
    classes: tuple
    round_seconds: float  # nominal cost of one round on a 2-CPU Xeon (Sapphire Rapids) box
    layers: tuple  # per-layer metrics of the traced run that this workload exercises

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_seconds))


P_EXACT = (0.05, 0.4)
A_EXACT = (0.2, 0.8)
# Blahut-Arimoto iterations climb steeply towards small p (erasure, z), large
# p (bsc) and a far from 1/2: at F = 5 one bsc solve at p = 0.3, a = 0.8 takes
# 43 000 iterations, 19.6 s. These ranges keep iterations within a factor of
# about 7 inside a class, so the few F = 5 ops do not make a run seed-bound.
P_ORACLE = (0.1, 0.25)
A_ORACLE_F4 = (0.3, 0.7)
A_ORACLE_F5 = (0.4, 0.6)
P_SIM = (0.05, 0.3)
A_SIM = (0.2, 0.8)
FRAMES = (100_000, 200_000)
GENERAL_STRATEGIES = 200
GENERAL_MINIMAL = 20  # of them random position permutations of the staircase


def _exact(preset, F, n):
    return OpClass(preset, F, n, P_EXACT, A_EXACT)


def _orc(preset, F, n):
    return OpClass(preset, F, n, P_ORACLE, A_ORACLE_F4 if F == 4 else A_ORACLE_F5)


def _sim(preset, F, n, trace=False):
    return OpClass(preset, F, n, P_SIM, A_SIM, FRAMES, trace)


TRACE_LAYERS = (
    "frame_space.likelihood_rows.calls",
    "frame_space.likelihood_rows.cells",
    "frame_space.likelihood_rows.busy_s",
    "frame_space.likelihood_rows.bytes_computed",
    "trace.overhead_ratio",
    "trace.uncovered_s",
)
CLI_LAYERS = ("cli.run_cli.calls", "cli.self_s")
STRATEGY_LAYERS = (
    "strategy.build_weighted_graph.busy_s",
    "strategy.decompose_paths.busy_s",
    "strategy.strategies",
)
EXACT_LAYERS = (
    "capacity.mutual_info_TY.calls",
    "capacity.mutual_info_TY.busy_s",
    "capacity.mutual_info_TY.self_s",
    "capacity.output_columns",
    "capacity.c_xy.calls",
    "capacity.peak_table_bytes",
)
ORACLE_LAYERS = (
    "capacity.equivalent_channel_matrix.busy_s",
    "capacity.equivalent_channel_matrix.entries",
    "capacity.blahut_arimoto.busy_s",
    "capacity.blahut_arimoto.iterations",
    "capacity.blahut_arimoto.s_per_iteration",
)
SIMULATE_LAYERS = (
    "simulate.run_monte_carlo.busy_s",
    "simulate.self_s",
    "simulate.frames",
    "simulate.decode_columns",
    "simulate.joint_cells",
    "simulate.trace_s",
    "simulate.trace_bytes",
)

# Shares are set so that op_p50_s and op_p90_s sit inside one latency band,
# several ranks away from any jump between bands (ops sorted by latency).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_constructed",
            "capacity",
            (  # p50 in erasure F=7 / z F=9, p90 in bsc F=9; erasure F=8, 9 are the top 4%
                _exact("bsc", 6, 2), _exact("z", 6, 2), _exact("erasure", 6, 2),
                _exact("bsc", 7, 2), _exact("z", 7, 2), _exact("z", 8, 2),
                _exact("bsc", 8, 4),
                _exact("erasure", 7, 10), _exact("z", 9, 10),
                _exact("bsc", 9, 10),
                _exact("erasure", 8, 1), _exact("erasure", 9, 1),
            ),
            3.4,
            TRACE_LAYERS + CLI_LAYERS + STRATEGY_LAYERS + EXACT_LAYERS,
        ),
        Workload(
            "exact_general",
            "general",
            (  # p50 in erasure F=7, p90 in erasure F=8
                _exact("bsc", 6, 1), _exact("z", 6, 1), _exact("erasure", 6, 1),
                _exact("bsc", 7, 1), _exact("z", 7, 1), _exact("bsc", 8, 1), _exact("z", 8, 2),
                _exact("erasure", 7, 7),
                _exact("erasure", 8, 5),
            ),
            2.0,
            TRACE_LAYERS + EXACT_LAYERS,
        ),
        Workload(
            "oracle",
            "oracle",
            (  # p50 in F=4, p90 in erasure F=5
                _orc("erasure", 4, 6), _orc("bsc", 4, 6), _orc("z", 4, 6),
                _orc("bsc", 5, 2), _orc("z", 5, 2),
                _orc("erasure", 5, 5),
            ),
            3.0,
            TRACE_LAYERS + CLI_LAYERS + ORACLE_LAYERS,
        ),
        Workload(
            "monte_carlo",
            "simulate",
            (  # p50 and p90 in untraced ops; the traced ones are the top 5%
                _sim("erasure", 6, 4), _sim("erasure", 7, 4),
                _sim("bsc", 7, 3), _sim("bsc", 8, 3),
                _sim("z", 7, 3), _sim("z", 8, 2),
                _sim("erasure", 6, 1, trace=True),
            ),
            2.8,
            TRACE_LAYERS + CLI_LAYERS + STRATEGY_LAYERS + EXACT_LAYERS + SIMULATE_LAYERS,
        ),
    )
}


@dataclass
class Op:
    """One call with its inputs, filled in with its outcome once run."""

    index: int
    kind: str
    cls: OpClass
    p: float
    a: float
    frames: int = 0
    seed: int = 0
    trace_path: str = ""
    reps: object = None  # general ops: (n_t, F+1) representatives
    pmf: object = None  # general ops: strategy law
    call: object = None  # general ops: (channel, config, strategy set)
    rc: int = -1
    out: str = ""
    err: str = ""
    value: object = None
    problems: list = field(default_factory=list)

    @property
    def F(self):
        return self.cls.F

    def argv(self):
        base = ["--preset", self.cls.preset, "--p", repr(self.p), "--a", repr(self.a)]
        base += ["--F", str(self.F)]
        if self.kind == "capacity":
            return ["capacity", *base]
        if self.kind == "oracle":
            return ["oracle", *base]
        argv = ["simulate", *base, "--frames", str(self.frames), "--seed", str(self.seed)]
        if self.trace_path:
            argv += ["--trace", self.trace_path]
        return argv


def stratified_points(rng, n):
    """n points in the unit cube: (u0, u1) one per cell of a k x n/k grid, u2 by strata.

    k is the largest divisor of n not above sqrt(n).
    """
    k = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    row, col = np.divmod(np.arange(n), n // k)
    return np.stack(
        [
            (row + rng.random(n)) / k,
            (col + rng.random(n)) / (n // k),
            (rng.permutation(n) + rng.random(n)) / n,
        ],
        axis=1,
    )


def _scale(u, bounds):
    lo, hi = bounds
    return lo + u * (hi - lo)


def make_ops(workload, seed, rounds, work_dir):
    """The run's op list: every class's ops, drawn and then shuffled from the seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    ops = []
    for cls in workload.classes:
        n = cls.per_round * rounds
        for u in stratified_points(rng, n):
            op = Op(0, workload.kind, cls, float(_scale(u[0], cls.p)), float(_scale(u[1], cls.a)))
            if workload.kind == "simulate":
                op.frames = int(_scale(u[2], cls.frames))
                op.seed = int(rng.integers(2**31))
            ops.append(op)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    for i, op in enumerate(ops):
        op.index = i
        if op.cls.trace:
            op.trace_path = os.path.join(work_dir, f"trace-{i}.csv")
        if workload.kind == "general":
            _general_inputs(op, rng)
    return ops


def warmup_op(workload):
    """The untimed op that ends set-up: the workload's cheapest class, mid-range."""
    cls = min(workload.classes, key=lambda c: (c.trace, c.F, c.preset != "bsc"))
    op = Op(0, workload.kind, cls, sum(cls.p) / 2, 0.5, frames=cls.frames[0], seed=1)
    if workload.kind == "general":
        _general_inputs(op, np.random.default_rng(0))
    return op


def weight_class(F, s):
    return [x for x in range(1 << F) if bin(x).count("1") == s]


def _general_inputs(op, rng):
    """A strategy set the construction never builds, as package objects.

    Most strategies pick a random representative per state (almost never
    minimal); a few are random position permutations of the staircase. One
    symbol of every inner weight class is never used, so the set never
    covers all 2^F symbols and the pmf is non-uniform.
    """
    import reorderchan

    F = op.F
    classes = [weight_class(F, s) for s in range(F + 1)]
    unused = {classes[s].pop(int(rng.integers(len(classes[s])))) for s in range(1, F)}
    reps = np.empty((GENERAL_STRATEGIES, F + 1), dtype=np.int64)
    for t in range(GENERAL_STRATEGIES - GENERAL_MINIMAL):
        reps[t] = [c[int(rng.integers(len(c)))] for c in classes]
    t = GENERAL_STRATEGIES - GENERAL_MINIMAL
    while t < GENERAL_STRATEGIES:
        order = rng.permutation(F)
        chain = [sum(1 << int(b) for b in order[:s]) for s in range(F + 1)]
        if unused.isdisjoint(chain):
            reps[t] = chain
            t += 1
    pmf = rng.dirichlet(np.ones(GENERAL_STRATEGIES))
    op.reps, op.pmf = reps, pmf
    multis = tuple(reorderchan.Multisymbol(F, tuple(int(x) for x in row)) for row in reps)
    op.call = (
        reorderchan.channel_preset(op.cls.preset, op.p),
        reorderchan.FrameConfig(F, op.a),
        reorderchan.StrategySet(multis, tuple(pmf / pmf.sum())),
    )


def run_op(op):
    """Make the op's one call; its outcome goes into the op."""
    import reorderchan.capacity
    import reorderchan.cli

    if op.kind == "general":
        op.value = reorderchan.capacity.mutual_info_TY(*op.call)
        op.rc = 0
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        op.rc = reorderchan.cli.run_cli(op.argv())
    op.out, op.err = out.getvalue(), err.getvalue()


def f_only_repeat_share(ops):
    """Share of ops whose F-only work (graph, strategy set, map enumeration) an earlier op did.

    A general op's strategy set is drawn afresh, so it has no F-only work.
    """
    if ops[0].kind == "general":
        return 0.0
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op.F in seen
        seen.add(op.F)
    return repeats / len(ops)


def _parse(out):
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def _near(op, name, got, want, tol=TOL):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        op.problems.append(f"{name} {got!r} differs from {want!r}")


def check_op(op):
    """Check one op's outcome against values computed in `reference`."""
    if op.rc != 0:
        op.problems.append(f"exit code {op.rc}: {op.err.strip()[:200]}")
        return
    preset, p, a, F = op.cls.preset, op.p, op.a, op.F
    q = reference.channel_rows(preset, p)
    outer = F * reference.slot_rate(q, a)
    try:
        if op.kind == "general":
            got = op.value
            want = reference.dense_rates(preset, p, a, F, op.reps, op.pmf / op.pmf.sum())
            for name, value in want.items():
                _near(op, name, getattr(got, name), value)
            _near(op, "c_xy", got.c_xy, outer)
            _near(op, "outer_bound", got.outer_bound, outer)
            return
        fields = _parse(op.out)
        if op.kind != "simulate":
            echoes = {"preset": preset, "F": str(F), "a": f"{a:.12g}", "p": f"{p:.12g}"}
            for key, want in echoes.items():
                if fields.get(key) != want:
                    op.problems.append(f"{key} echoed as {fields.get(key)!r}, sent {want!r}")
        stair = reference.staircase_rate(preset, p, a, F)
        if op.kind == "capacity":
            _near(op, "i_ty", float(fields["i_ty"]), stair)
            _near(op, "c_xy", float(fields["c_xy"]), outer)
            _near(op, "outer_bound", float(fields["outer_bound"]), outer)
            _near(op, "c_errorless", float(fields["c_errorless"]), reference.errorless_rate(F, a))
        elif op.kind == "oracle":
            _near(op, "capacity", float(fields["capacity"]), stair)
            # the gap is printed to 4 digits, so a gap just under BA_GAP reads as BA_GAP
            if not float(fields["gap"]) <= BA_GAP or int(fields["iterations"]) < 1:
                op.problems.append(f"gap {fields['gap']} after {fields['iterations']} iterations")
        else:
            _near(op, "analytical_mi", float(fields["analytical_mi"]), stair)
            errors = int(fields["symbol_errors"])
            if int(fields["frames"]) != op.frames or int(fields["seed"]) != op.seed:
                op.problems.append("frames or seed echoed wrong")
            if not 0 <= errors <= op.frames or not float(fields["empirical_mi"]) >= 0.0:
                op.problems.append("symbol_errors or empirical_mi out of range")
            if op.trace_path:
                with open(op.trace_path) as fh:
                    lines = fh.read().splitlines()
                if lines[0] != "frame,s,t,x,y,t_hat" or len(lines) != op.frames + 1:
                    op.problems.append("trace header or row count wrong")
    except (KeyError, ValueError, OSError) as exc:
        op.problems.append(f"unreadable output: {exc!r}")


def check_repeat(op):
    """Run a traced simulate op again with its seed: stdout and trace must match byte for byte."""
    with open(op.trace_path, "rb") as fh:
        first_trace = fh.read()
    first_out = op.out
    run_op(op)
    with open(op.trace_path, "rb") as fh:
        if fh.read() != first_trace or op.out != first_out:
            op.problems.append("repeat with the same seed gave different bytes")
