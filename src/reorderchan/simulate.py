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

from . import frame_space
from .capacity import SLAB_CELLS, mutual_info_TY
from .frame_space import likelihood_rows, mix_states, state_pmf
from .strategy import strategy_table

# Bytes a run holds per frame: the draws, the sent-symbol index, the output
# and its rank among the outputs observed, the decoded strategy and the
# histogram key. Outputs are ranked through a presence table only when it has
# no more entries than there are frames, and by np.unique's sort otherwise.
# The tracemalloc peak of a whole run is 51.5 bytes per frame at bsc F = 8
# with 2e5 frames, and 48.0 at z F = 1 with 1e6 frames (numpy 2.4). The noise
# block is a fixed size, and the decoder works in blocks of at most SLAB_CELLS
# posterior cells. The joint histogram grows with the distinct outputs
# observed, not with the frames, and is sized on its own against the ceiling.
# The trace writer adds nothing per frame: it holds one TRACE_CHUNK of rows.
# n_frames x FRAME_BYTES above frame_space.MAX_TABLE_BYTES is refused before any
# draw, and so is a joint histogram of more bytes than that before it is counted.
FRAME_BYTES = 80
# noise uniforms drawn per block, whole frames at a time: 512 KiB of float64
NOISE_CHUNK = 1 << 16
# least number of guide-table buckets in _draw_index, 32 KiB of intp starts
GUIDE_BUCKETS = 1 << 12
# rows per trace write. A chunk's fields, byte matrix, keep mask and text take
# about 150 bytes a row, 1.2 MiB at erasure F = 6 (26-byte rows), and are made
# after the noise and decoder buffers are freed: a traced erasure F = 6 run of
# 2e5 frames peaks about 0.1 MB above an untraced one, by tracemalloc.
# `construct` prints its rows in chunks of the same size
TRACE_CHUNK = 1 << 13
# posteriors within this relative distance of an output's top count as tied with it
TIE_RTOL = 1e-12


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

    Bucket k of max(len(pmf), GUIDE_BUCKETS) equal buckets starts the walk at
    the answer for the bucket edge one bucket back, so rounding in u * buckets
    cannot start it past the answer. A draw starts short only when a cum value
    lies between that edge and u, which for len(pmf) well under the bucket
    count is about 1.5 len(pmf) / buckets of the draws. Only those walk,
    stepping while cum[idx] <= u; the last entry is +inf, which both stops
    the walk and clamps to len(pmf) - 1.
    """
    cum = np.cumsum(pmf)
    cum[-1] = np.inf
    buckets = max(len(cum), GUIDE_BUCKETS)
    start = np.searchsorted(cum, np.arange(-1, buckets) / buckets, side="right")
    idx = start[(u * buckets).astype(np.intp)]
    late = np.flatnonzero(cum[idx] <= u)
    while late.size:
        idx[late] += 1
        late = late[cum[idx[late]] <= u[late]]
    return idx


def _noisy_outputs(rng, channel, F, used, xi):
    """Base-J channel output of each frame's sent symbol used[xi], noise from rng.

    Position f of a frame reads letter min(searchsorted(cum[bit], u, "right"),
    J - 1), where bit is the sent bit there, cum the channel's cumulative rows
    and u the frame's f-th uniform: the count of thresholds cum[bit, j],
    j < J - 1, that u reaches. Uniforms come from rng.random in blocks of
    whole frames.
    """
    J = channel.J
    cum = np.cumsum(channel.matrix(), axis=1)
    bit_table = (used[:, None] >> np.arange(F - 1, -1, -1)) & 1  # leftmost position first
    # thresholds per sent symbol and position, so a block gathers whole rows
    thresholds = [cum[:, j][bit_table] for j in range(J - 1)]
    # letters @ place is the output's value in float64, exact as J**F <= 3**20 < 2**53
    place = float(J) ** np.arange(F - 1, -1, -1)
    y = np.empty(len(xi), dtype=np.int64)
    block = max(1, NOISE_CHUNK // F)
    for lo in range(0, len(xi), block):
        xi_block = xi[lo : lo + block]
        u = rng.random((len(xi_block), F))
        letters = np.zeros(u.shape, dtype=np.uint8)
        for thr in thresholds:
            letters += u >= thr.take(xi_block, axis=0)
        y[lo : lo + block] = letters @ place
    return y


def _rank_outputs(y, n_outputs):
    """np.unique(y, return_inverse=True) for outputs y in range(n_outputs).

    With no more possible outputs than frames, a presence table ranks them in
    two linear passes; past that the table would outgrow the per-frame
    arrays, and np.unique sorts instead.
    """
    if n_outputs > len(y):
        return np.unique(y, return_inverse=True)
    seen = np.bincount(y, minlength=n_outputs) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[y]


def _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y):
    """MAP strategy index for each observed output: the smallest index within TIE_RTOL of the top.

    The relative TIE_RTOL lets strategies whose posteriors are equal in exact
    arithmetic tie however the float sums round. used and rep_idx are the
    set's `strategy_table`. Outputs are decoded in blocks of SLAB_CELLS //
    (number of strategies) columns, one `likelihood_rows` call each, so no
    posterior slab passes SLAB_CELLS cells.
    """
    pmf_t = sset.pmf[:, None]
    width = max(1, SLAB_CELLS // len(pmf_t))
    t_hat = np.empty(len(uniq_y), dtype=np.int64)
    for lo in range(0, len(uniq_y), width):
        rows = likelihood_rows(channel, config.F, used, uniq_y[lo : lo + width])
        posterior = mix_states(rows, rep_idx, pmf_s)
        posterior *= pmf_t
        top = posterior.max(axis=0)
        if not np.all(top > 0):
            raise ValueError("received output has zero probability under every strategy")
        # argmax of a boolean column is its first True
        t_hat[lo : lo + width] = np.argmax(posterior >= top * (1.0 - TIE_RTOL), axis=0)
    return t_hat


def _four_digits():
    """(text, shown) uint32 tables of 0..9 999, one byte per decimal digit.

    text[v] holds v's four ASCII digits, zero-padded; shown[v] is 1 at the
    digits v prints alone, its leading zeros 0. Built per trace, in about
    0.1 ms, not cached: a table kept from the middle of a run pins the heap
    above it, which raised later runs' peak RSS.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)
    shown = np.arange(10_000)[:, None] >= np.array([1000, 100, 10, 0])
    return text.reshape(10_000, 4).view(np.uint32).ravel(), shown.view(np.uint32).ravel()


def _digit_field(values, top, tables):
    """(bytes, keep) field of nonnegative ints up to top, in decimal.

    bytes holds each value zero-padded to the width of top and keep marks its
    printed digits, both looked up four digits at a time in `_four_digits`
    tables. A group prints every digit under a nonzero higher part, and none
    when it and every higher part are zero, except the units group.
    """
    text, shown = tables
    width = len(str(top))
    words, keep, rest = [], [], values
    for g in range(-(-width // 4)):  # least significant four digits first
        high = rest // 10_000
        low = rest - high * 10_000
        words.append(text.take(low))
        group_keep = np.where(high > 0, shown[9_999], shown.take(low))  # 9 999 prints all four
        keep.append(group_keep * (rest > 0) if g else group_keep)
        rest = high
    return (
        np.stack(words[::-1], axis=1).view(np.uint8)[:, -width:],
        np.stack(keep[::-1], axis=1).view(bool)[:, -width:],
    )


def bit_field(F, symbols):
    """uint8 matrix of each symbol's ASCII bit string, leftmost position first."""
    bits = (symbols[:, None] >> np.arange(F - 1, -1, -1)) & 1
    return bits.astype(np.uint8) + ord("0")


def _label_field(channel, F, outputs):
    """(bytes, keep) field of each base-J output spelled in the channel's UTF-8 labels.

    A letter takes as many columns as the longest label, and keep marks the
    bytes its own label fills; keep is None when every label has one length.
    Lengths are counted, not read off the bytes, so a label may hold a NUL.
    """
    encoded = [label.encode() for label in channel.output_labels]
    lengths = np.array([len(e) for e in encoded])
    table = np.zeros((channel.J, lengths.max()), dtype=np.uint8)
    for row, e in zip(table, encoded):
        row[: len(e)] = np.frombuffer(e, dtype=np.uint8)
    letters = outputs[:, None] // channel.J ** np.arange(F - 1, -1, -1) % channel.J
    field = table.take(letters, axis=0).reshape(len(outputs), -1)
    if np.all(lengths == lengths[0]):
        return field, None
    keep = np.arange(table.shape[1]) < lengths[:, None]
    return field, keep.take(letters, axis=0).reshape(len(outputs), -1)


def _put_rows(dst, src):
    """dst[:] = src for same-shape (rows, w) byte blocks, moving each row as one w-byte item.

    numpy copies a narrow uint8 block one byte at a time; through the void
    view each row is one item, about 2 to 7 times faster at w = 6 and 2.
    """
    if src.shape[1]:
        item = f"V{src.shape[1]}"
        dst.view(item)[:, 0] = src.view(item)[:, 0]


def csv_rows(fields):
    """One str of CSV lines, the i-th built from row i of every (bytes, keep) field.

    bytes is a uint8 matrix of UTF-8 and keep a same-shape mask of the bytes
    that print, or None when all do. The fields and their separators go into
    one matrix, and one boolean index drops the unkept bytes of every line.
    """
    n_rows = len(fields[0][0])
    line = np.empty((n_rows, sum(b.shape[1] + 1 for b, _ in fields)), dtype=np.uint8)
    keep = None if all(k is None for _, k in fields) else np.ones(line.shape, dtype=bool)
    lo = 0
    for b, k in fields:
        hi = lo + b.shape[1]
        _put_rows(line[:, lo:hi], b)
        line[:, hi] = ord(",")
        if k is not None:
            _put_rows(keep[:, lo:hi], k)
        lo = hi + 1
    line[:, -1] = ord("\n")
    return (line if keep is None else line[keep]).tobytes().decode()


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
    limit = frame_space.MAX_TABLE_BYTES
    if n_frames * FRAME_BYTES > limit:
        raise ValueError(f"{n_frames} frames x {FRAME_BYTES} bytes per frame exceed {limit} bytes")
    if isinstance(trace, (str, os.PathLike)):
        # a bad path fails here, before the first draw. The rows are written
        # once the run's numbers are known, through a second open, so that the
        # writer's open-to-close span in perfbench/tracing.py times only them
        open(trace, "w").close()
    rng = np.random.Generator(np.random.PCG64(seed))
    pmf_s = state_pmf(config)
    n_t = len(sset)

    s_draw = _draw_index(pmf_s, rng.random(n_frames))
    t_draw = _draw_index(sset.pmf, rng.random(n_frames))
    used, rep_idx = strategy_table(sset)
    xi = rep_idx[t_draw, s_draw]

    uniq_y, inverse = _rank_outputs(_noisy_outputs(rng, channel, F, used, xi), J**F)
    # the joint histogram holds int64 counts and their float copy, 16 bytes a
    # cell, then 48 bytes of index and ratio arrays per nonzero cell; 25 a
    # cell covers them while about a third of the cells or fewer are observed
    cells = n_t * len(uniq_y)
    if cells * 25 > limit:
        raise ValueError(
            f"{n_t} strategies x {len(uniq_y)} observed outputs x 25 bytes per cell "
            f"exceed {limit} bytes"
        )
    t_hat = _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y)[inverse]
    symbol_errors = int(np.sum(t_hat != t_draw))

    joint = np.bincount(
        t_draw.astype(np.int64) * len(uniq_y) + inverse, minlength=cells
    ).reshape(n_t, len(uniq_y)) / n_frames
    pt = joint.sum(axis=1)
    py = joint.sum(axis=0)
    ti, yi = np.nonzero(joint)
    p_ty = joint[ti, yi]
    empirical = float(np.sum(p_ty * np.log2(p_ty / (pt[ti] * py[yi]))))

    analytical = mutual_info_TY(channel, config, sset).i_ty

    if trace is not None:
        fh = open(trace, "w") if isinstance(trace, (str, os.PathLike)) else trace
        try:
            fh.write("frame,s,t,x,y,t_hat\n")
            x_bytes = bit_field(F, used)
            y_bytes, y_keep = _label_field(channel, F, uniq_y)
            tables = _four_digits()
            for lo in range(0, n_frames, TRACE_CHUNK):
                part = slice(lo, lo + TRACE_CHUNK)
                y_i = inverse[part]
                y_keep_part = None if y_keep is None else y_keep.take(y_i, axis=0)
                frame = np.arange(lo, min(lo + TRACE_CHUNK, n_frames))
                fields = [
                    _digit_field(frame, n_frames - 1, tables),
                    _digit_field(s_draw[part], F, tables),
                    _digit_field(t_draw[part], n_t - 1, tables),
                    (x_bytes.take(xi[part], axis=0), None),
                    (y_bytes.take(y_i, axis=0), y_keep_part),
                    _digit_field(t_hat[part], n_t - 1, tables),
                ]
                fh.write(csv_rows(fields))
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
