"""Seeded frame simulation: encode by reordering, add noise, decode, count.

Reproducibility contract: one PCG64 generator seeded from the report's seed
drives state draws, strategy draws, and per-position channel noise, in that
order, so a seed pins the whole trace on any platform. Noise is drawn in
blocks of whole frames; `Generator.random` yields the same stream whether it
is called once or block by block, so the block size moves no draw.
"""

import os
from dataclasses import dataclass

import numpy as np

from .capacity import SLAB_CELLS, mutual_info_TY
from .frame_space import (
    likelihood_rows,
    mix_states,
    output_digits,
    output_string,
    state_pmf,
    symbol_string,
)
from .strategy import strategy_table

# Bytes a run holds per frame: the draws, the sent-symbol index, the output,
# np.unique's sort and inverse, the decoded strategy and the histogram key.
# The tracemalloc peak of a whole run is 74.6 bytes per frame at bsc F = 8
# with 2e5 frames, and 73.2 at z F = 1 with 1e6 frames (numpy 2.4). The noise
# block is a fixed size, and the decoder works in blocks of at most SLAB_CELLS
# posterior cells. The joint histogram grows with the distinct outputs
# observed, not with the frames, and is sized on its own against the ceiling.
FRAME_BYTES = 80
# n_frames x FRAME_BYTES above this is refused before any draw, and so is a
# joint histogram of more than this many bytes before it is counted
MAX_FRAME_BYTES = 1 << 31
# noise uniforms drawn per block, whole frames at a time: 512 KiB of float64
NOISE_CHUNK = 1 << 16
# trace rows formatted per writelines call, which bounds the writer's strings
TRACE_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimReport:
    """Counts and rate estimates from one simulation run."""

    frames: int
    symbol_errors: int
    empirical_mi: float
    analytical_mi: float
    seed: int


def _draw_index(pmf, u):
    """min(searchsorted(cumsum(pmf), u, "right"), len(pmf) - 1) through a guide table.

    Bucket k of m = len(pmf) equal buckets starts the walk at the answer for
    the bucket edge (k - 1) / m, one bucket back, so rounding in u * m cannot
    start it past the answer. The walk then steps while cum[idx] <= u; the
    last entry is +inf, which both stops it and clamps to len(pmf) - 1.
    """
    cum = np.cumsum(pmf)
    cum[-1] = np.inf
    m = len(cum)
    start = np.searchsorted(cum, np.arange(-1, m) / m, side="right")
    idx = start[(u * m).astype(np.intp)]
    # the step back leaves most draws an entry short: one pass over all, then walk the rest
    idx += cum[idx] <= u
    late = np.flatnonzero(cum[idx] <= u)
    while late.size:
        idx[late] += 1
        late = late[cum[idx[late]] <= u[late]]
    return idx


def _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y):
    """MAP strategy index for each observed output, smallest index on ties.

    used and rep_idx are the set's `strategy_table`. Outputs are decoded in
    blocks of SLAB_CELLS // (number of strategies) columns, so no posterior
    slab passes SLAB_CELLS cells.
    """
    pmf_t = sset.pmf[:, None]
    width = max(1, SLAB_CELLS // len(pmf_t))
    t_hat = np.empty(len(uniq_y), dtype=np.int64)
    for lo in range(0, len(uniq_y), width):
        rows = likelihood_rows(channel, config.F, used, uniq_y[lo : lo + width])
        posterior = mix_states(rows, rep_idx, pmf_s)
        posterior *= pmf_t
        best = posterior.argmax(axis=0)  # the first maximum: ties go to the smallest index
        if not np.all(posterior[best, np.arange(len(best))] > 0):
            raise ValueError("received output has zero probability under every strategy")
        t_hat[lo : lo + width] = best
    return t_hat


def run_monte_carlo(channel, config, sset, n_frames, seed, trace=None):
    """Simulate frames end to end and report counts plus a plug-in rate estimate.

    The estimate histograms (strategy, output) pairs. Plug-in mutual
    information is biased high, by about (|T| - 1)(|Y_obs| - 1) / (2 n ln 2)
    bits, which is far from negligible once the observed outputs number
    near n: at erasure F = 8 with 1e5 frames it overshoots the exact rate by
    about 0.9 bits. Pass trace as a path or file object to dump per-frame
    records.
    """
    F, J = config.F, channel.J
    if sset.F != F:
        raise ValueError("strategy set and frame config disagree on F")
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if n_frames * FRAME_BYTES > MAX_FRAME_BYTES:
        raise ValueError(
            f"{n_frames} frames x {FRAME_BYTES} bytes per frame exceed {MAX_FRAME_BYTES} bytes"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    pmf_s = state_pmf(config)
    n_t = len(sset)

    s_draw = _draw_index(pmf_s, rng.random(n_frames))
    t_draw = _draw_index(sset.pmf, rng.random(n_frames))
    used, rep_idx = strategy_table(sset)
    xi = rep_idx[t_draw, s_draw]

    # letter = min(searchsorted(cum[bit], u, "right"), J - 1), summed into y by Horner's rule
    cum = np.cumsum(channel.matrix(), axis=1)
    bit_table = output_digits(F, 2, used).astype(np.uint8)
    y = np.empty(n_frames, dtype=np.int64)
    block = max(1, NOISE_CHUNK // F)
    for lo in range(0, n_frames, block):
        hi = min(lo + block, n_frames)
        u = rng.random((hi - lo, F))
        bits = bit_table[xi[lo:hi]]
        letters = np.zeros(u.shape, dtype=np.uint8)
        for j in range(J - 1):
            letters += u >= cum[:, j][bits]
        y_block = y[lo:hi]
        y_block[:] = letters[:, 0]
        for f in range(1, F):
            y_block *= J
            y_block += letters[:, f]

    uniq_y, inverse = np.unique(y, return_inverse=True)
    # the joint histogram holds int64 counts, their float copy, a mask and np.outer
    cells = n_t * len(uniq_y)
    if cells * 25 > MAX_FRAME_BYTES:
        raise ValueError(
            f"{n_t} strategies x {len(uniq_y)} observed outputs x 25 bytes per cell "
            f"exceed {MAX_FRAME_BYTES} bytes"
        )
    t_hat = _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y)[inverse]
    symbol_errors = int(np.sum(t_hat != t_draw))

    joint = np.bincount(
        t_draw.astype(np.int64) * len(uniq_y) + inverse, minlength=cells
    ).reshape(n_t, len(uniq_y)) / n_frames
    pt = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / np.outer(pt, py)[mask]
    empirical = float(np.sum(joint[mask] * np.log2(ratio)))

    analytical = mutual_info_TY(channel, config, sset).i_ty

    if trace is not None:
        fh = open(trace, "w") if isinstance(trace, (str, os.PathLike)) else trace
        try:
            fh.write("frame,s,t,x,y,t_hat\n")
            x_text = np.array([symbol_string(F, v) for v in used.tolist()], dtype=object)
            y_text = np.array([output_string(F, v, channel) for v in uniq_y.tolist()], dtype=object)
            row = "{},{},{},{},{},{}\n".format
            for lo in range(0, n_frames, TRACE_CHUNK):
                part = slice(lo, lo + TRACE_CHUNK)
                s_c, t_c = s_draw[part], t_draw[part]
                cols = (s_c, t_c, x_text[xi[part]], y_text[inverse[part]], t_hat[part])
                fh.writelines(map(row, range(lo, n_frames), *(c.tolist() for c in cols)))
        finally:
            if fh is not trace:
                fh.close()

    return SimReport(
        frames=int(n_frames),
        symbol_errors=symbol_errors,
        empirical_mi=empirical,
        analytical_mi=analytical,
        seed=int(seed),
    )
