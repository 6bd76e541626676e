"""Command line front end: construct, capacity, oracle, simulate, sweep."""

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .capacity import errorless_capacity, oracle_solve, secondary_capacity, sweep_point
from .channel import PRESET_KINDS, channel_preset
from .frame_space import MAX_FRAME_LEN, FrameConfig, check_frame_len
from .simulate import TRACE_CHUNK, bit_field, csv_rows, run_monte_carlo
from .strategy import constructed_set

CSV_HEADER = "F,a,p,preset,c_constructed,c_oracle,c_xy,outer_bound,c_errorless"


@dataclass
class SweepSpec:
    """Grid of a comparison sweep: one preset and its value lists."""

    preset: str
    p_values: list
    a_values: list
    f_values: list

    def __post_init__(self):
        if not (self.p_values and self.a_values and self.f_values):
            raise ValueError("sweep needs at least one value for each of p, a, F")
        for v in self.p_values + self.a_values:
            if not 0.0 <= v <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        for F in self.f_values:
            check_frame_len(F)


def fmt(v):
    return f"{v:.12g}"


def parse_f_values(text):
    """Accept '4', '2..6', or comma lists mixing both."""
    vals = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = (int(v) for v in part.split("..", 1))
            if not 1 <= lo <= hi <= MAX_FRAME_LEN:
                raise ValueError(f"F span {part} must run upward within 1..{MAX_FRAME_LEN}")
            vals.extend(range(lo, hi + 1))
        else:
            vals.append(int(part))
    if not vals:
        raise ValueError("empty F list")
    return vals


def parse_prob_list(text):
    return [float(v) for v in text.split(",")]


def _cmd_construct(args):
    reps = constructed_set(args.F).reps
    # the set sends every F-bit symbol, so each is rendered once and rows gather the names
    names = bit_field(args.F, np.arange(1 << args.F))
    for lo in range(0, len(reps), TRACE_CHUNK):  # bounds the formatted rows held at once
        chunk = reps[lo : lo + TRACE_CHUNK]
        sys.stdout.write(csv_rows([(names.take(col, axis=0), None) for col in chunk.T]))
    return 0


def _cmd_capacity(args):
    ch = channel_preset(args.preset, args.p)
    cfg = FrameConfig(args.F, args.a)
    report = secondary_capacity(ch, cfg)
    scale = 1.0 / args.F if args.per_packet else 1.0
    print(f"method {report.method}")
    print(f"preset {args.preset}")
    print(f"F {args.F}")
    print(f"a {fmt(args.a)}")
    print(f"p {fmt(args.p)}")
    print(f"i_ty {fmt(report.i_ty * scale)}")
    print(f"i_xy {fmt(report.i_xy * scale)}")
    print(f"i_xy_given_t {fmt(report.i_xy_given_t * scale)}")
    print(f"c_xy {fmt(report.c_xy * scale)}")
    print(f"outer_bound {fmt(report.outer_bound * scale)}")
    print(f"c_errorless {fmt(errorless_capacity(cfg) * scale)}")
    return 0


def _cmd_oracle(args):
    ch = channel_preset(args.preset, args.p)
    cfg = FrameConfig(args.F, args.a)
    result = oracle_solve(ch, cfg)
    print(f"preset {args.preset}")
    print(f"F {args.F}")
    print(f"a {fmt(args.a)}")
    print(f"p {fmt(args.p)}")
    print(f"capacity {fmt(result.capacity)}")
    print(f"gap {result.gap:.3e}")
    print(f"iterations {result.iterations}")
    return 0


def _cmd_simulate(args):
    ch = channel_preset(args.preset, args.p)
    cfg = FrameConfig(args.F, args.a)
    sset = constructed_set(args.F)
    report = run_monte_carlo(ch, cfg, sset, args.frames, args.seed, trace=args.trace)
    print(f"frames {report.frames}")
    print(f"symbol_errors {report.symbol_errors}")
    print(f"empirical_mi {fmt(report.empirical_mi)}")
    print(f"analytical_mi {fmt(report.analytical_mi)}")
    print(f"seed {report.seed}")
    return 0


def sweep_rows(grid):
    """Evaluate a SweepSpec once per distinct point; rows come back sorted by (F, a, p)."""
    rows = []
    for F in sorted(set(grid.f_values)):
        for a in sorted(set(grid.a_values)):
            for p in sorted(set(grid.p_values)):
                rows.append(sweep_point(grid.preset, p, a, F))
    return rows


def format_sweep_csv(rows, normalize=False):
    lines = [CSV_HEADER]
    for row in rows:
        scale = 1.0 / row.F if normalize else 1.0
        rates = (row.c_constructed, row.c_oracle, row.c_xy, row.outer_bound, row.c_errorless)
        cells = ["" if v is None else fmt(v * scale) for v in rates]  # c_oracle may be None
        lines.append(",".join([str(row.F), fmt(row.a), fmt(row.p), row.preset, *cells]))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args):
    grid = SweepSpec(
        preset=args.preset,
        p_values=parse_prob_list(args.p),
        a_values=parse_prob_list(args.a),
        f_values=parse_f_values(args.F),
    )
    if args.out:  # refuse a bad path before the grid runs; append mode truncates nothing
        open(args.out, "a").close()
    text = format_sweep_csv(sweep_rows(grid), normalize=args.per_packet)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="reorderchan",
        description="Capacity and strategy construction for the packet-reordering channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="print the constructed multisymbol set")
    p_construct.add_argument("F", type=int)
    p_construct.set_defaults(func=_cmd_construct)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=PRESET_KINDS, required=True)
    common.add_argument("--p", type=float, required=True)
    common.add_argument("--a", type=float, required=True)

    p_capacity = sub.add_parser("capacity", parents=[common], help="rates of the constructed set")
    p_capacity.add_argument("--F", type=int, required=True)
    p_capacity.add_argument("--per-packet", action="store_true", help="divide rates by F")
    p_capacity.set_defaults(func=_cmd_capacity)

    p_oracle = sub.add_parser("oracle", parents=[common], help="brute-force capacity")
    p_oracle.add_argument("--F", type=int, required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sim = sub.add_parser("simulate", parents=[common], help="seeded frame simulation")
    p_sim.add_argument("--F", type=int, required=True)
    p_sim.add_argument("--frames", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trace", help="write per-frame records to this CSV file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--preset", choices=PRESET_KINDS, required=True)
    p_sweep.add_argument("--p", required=True, help="comma list of probabilities")
    p_sweep.add_argument("--a", required=True, help="comma list of probabilities")
    p_sweep.add_argument("--F", required=True, help="integer, comma list, or lo..hi span")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.add_argument("--per-packet", action="store_true", help="divide rates by F")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def run_cli(argv=None):
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        return _fail(exc)


def _fail(exc):
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))
