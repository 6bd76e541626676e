"""Seeded frame simulation: encode by reordering, add noise, decode, count.

Reproducibility contract: one PCG64 generator seeded from the report's seed
drives state draws, strategy draws, and per-position channel noise, in that
order, so a seed pins the whole trace on any platform. Every draw is taken
in blocks of whole frames; `Generator.random` yields the same stream whether
it is called once or block by block, so the block size moves no draw.
"""

import os
from dataclasses import dataclass

import numpy as np

from .capacity import SLAB_CELLS, mutual_info_TY
from .frame_space import check_table_bytes, likelihood_rows, mix_states, split_tables, state_pmf
from .strategy import strategy_table

# Bytes a run may hold per frame. It keeps three arrays of frame length: the
# state draw (uint8), the strategy draw and the output, each in the narrowest
# unsigned type that holds it, the output replaced in place by its rank among
# the outputs observed. Every other stage works one noise block of frames at a
# time, in buffers reused across blocks; the joint counts take steps of at
# least as many frames as the histogram has cells. Outputs are ranked through
# a presence table when it has no more entries than there are frames, at most
# 13 bytes a frame, and by np.unique's sort otherwise, whose own peak is 29.1,
# 34.8 and 44.6 bytes an output on uint16, uint32 and 64-bit outputs. The
# tracemalloc peak of a whole run of 1e6 frames is 6.3 bytes per frame at
# z F = 1, 6.0 at bsc F = 8 and 9.6 at erasure F = 7 (numpy 2.4); on the sort,
# 52 at erasure F = 12 with one strategy and 2e5 frames. Either decoder works in
# blocks of at most SLAB_CELLS posterior cells; the dense one also holds the J^F
# picks and its gathered suffix rows, under the joint's claim (_decodes_dense).
# The joint histogram grows with the distinct outputs observed, not with the
# frames, and is sized on its own through check_table_bytes. The trace writer
# holds one TRACE_CHUNK of rows.
# n_frames x FRAME_BYTES goes through check_table_bytes before any draw.
FRAME_BYTES = 80
# noise uniforms drawn per block, whole frames at a time: 512 KiB of float64.
# Every per-frame stage works in blocks of the same number of frames, or of
# the joint histogram's cells where they are more
NOISE_CHUNK = 1 << 16
# least number of guide-table buckets in _draw_index, 32 KiB of intp starts
GUIDE_BUCKETS = 1 << 12
# rows per trace write. A chunk's fields, byte matrix, keep mask and text take
# about 150 bytes a row, 1.2 MiB at erasure F = 6 (26-byte rows), and are made
# after the noise and decoder buffers are freed: a traced erasure F = 6 run of
# 2e5 frames peaks no higher than an untraced one, 2.8 MB by tracemalloc.
# `construct` prints its rows in chunks of the same size
TRACE_CHUNK = 1 << 13
# posteriors within this relative distance of an output's top count as tied with it
TIE_RTOL = 1e-12
# bytes the joint histogram claims per (strategy, observed output) cell; see run_monte_carlo
JOINT_CELL_BYTES = 25
# the dense decoder runs once the observed share of the J^F outputs reaches 1/2, or
# DENSE_FILL times the share of SLAB_CELLS that one prefix row of every strategy
# fills, whichever is more; see _decodes_dense for the measured crossover
DENSE_FILL = 1.1


@dataclass(frozen=True)
class SimReport:
    """Counts and rate estimates from one simulation run."""

    frames: int
    symbol_errors: int
    empirical_mi: float
    analytical_mi: float
    seed: int


def _draw_index(pmf, rng, out, block):
    """out[i] = min(searchsorted(cumsum(pmf), u_i, "right"), len(pmf) - 1), through a guide table.

    u_i is the i-th uniform of rng, drawn block at a time into one reused
    buffer, which is the stream of one rng.random(len(out)) call. Bucket k of
    max(len(pmf), GUIDE_BUCKETS) equal buckets starts the walk at the answer
    for the bucket edge one bucket back, so rounding in u * buckets cannot
    start it past the answer. A draw starts short only when a cum value lies
    between that edge and u, which for len(pmf) well under the bucket count
    is about 1.5 len(pmf) / buckets of the draws. Only those walk, stepping
    while cum[idx] <= u; the last entry is +inf, which both stops the walk
    and clamps to len(pmf) - 1.
    """
    cum = np.cumsum(pmf)
    cum[-1] = np.inf
    buckets = max(len(cum), GUIDE_BUCKETS)
    start = np.searchsorted(cum, np.arange(-1, buckets) / buckets, side="right")
    u_buf = np.empty(min(block, len(out)))
    for lo in range(0, len(out), block):
        dst = out[lo : lo + block]
        u = rng.random(out=u_buf[: len(dst)])
        idx = start[(u * buckets).astype(np.intp)]
        late = np.flatnonzero(cum[idx] <= u)
        while late.size:
            idx[late] += 1
            late = late[cum[idx[late]] <= u[late]]
        dst[:] = idx
    return out


def _noisy_outputs(rng, channel, F, used, rep_idx, s_draw, t_draw, out, block):
    """Fill out[i] with the base-J channel output of frame i's sent symbol, noise from rng.

    Frame i sends used[rep_idx[t_draw[i], s_draw[i]]]. Position f of a frame
    reads letter min(searchsorted(cum[bit], u, "right"), J - 1), where bit is
    the sent bit there, cum the channel's cumulative rows and u the frame's
    f-th uniform: the count of thresholds cum[bit, j], j < J - 1, that u
    reaches. Uniforms come from rng block frames at a time, into buffers
    reused across blocks.
    """
    J = channel.J
    cum = np.cumsum(channel.matrix(), axis=1)
    bit_table = (used[:, None] >> np.arange(F - 1, -1, -1)) & 1  # leftmost position first
    # thresholds per sent symbol and position, so a block gathers whole rows
    thresholds = [cum[:, j][bit_table] for j in range(J - 1)]
    # letters @ place is the output's value in float64, exact as J**F <= 3**20 < 2**53
    place = float(J) ** np.arange(F - 1, -1, -1)
    # frame i's index into used is flat_idx[t_draw[i] * n_states + s_draw[i]]
    flat_idx, n_states = rep_idx.ravel(), rep_idx.shape[1]
    rows = min(block, len(out))
    key_buf, xi_buf = np.empty(rows, dtype=np.intp), np.empty(rows, dtype=np.intp)
    u_buf, thr_buf = np.empty((rows, F)), np.empty((rows, F))
    hit_buf, letters_buf = np.empty((rows, F), dtype=bool), np.empty((rows, F), dtype=np.uint8)
    for lo in range(0, len(out), block):
        dst = out[lo : lo + block]
        key, xi, thr = key_buf[: len(dst)], xi_buf[: len(dst)], thr_buf[: len(dst)]
        hit, letters = hit_buf[: len(dst)], letters_buf[: len(dst)]
        key[:] = t_draw[lo : lo + block]
        key *= n_states
        key += s_draw[lo : lo + block]
        # every index is in range; mode="clip" writes straight into out, where
        # the default mode copies it first
        flat_idx.take(key, out=xi, mode="clip")
        u = rng.random(out=u_buf[: len(dst)])
        letters[:] = 0
        for thr_j in thresholds:
            thr_j.take(xi, axis=0, out=thr, mode="clip")
            letters += np.greater_equal(u, thr, out=hit)
        dst[:] = letters @ place
    return out


def _rank_outputs(y, n_outputs, block):
    """Replace outputs y in range(n_outputs) by their rank; return the distinct outputs, int64.

    The same as np.unique(y, return_inverse=True), with y overwritten by the
    inverse. With no more possible outputs than frames, a presence table
    ranks them in two passes of block frames each; past that the table would
    outgrow the per-frame arrays, and np.unique sorts instead.
    """
    if n_outputs > len(y):
        uniq, inverse = np.unique(y, return_inverse=True)
        y[:] = inverse
        return uniq.astype(np.int64)
    seen = np.zeros(n_outputs, dtype=bool)
    for lo in range(0, len(y), block):
        seen[y[lo : lo + block].astype(np.intp)] = True  # faster than a narrow index
    # counted modulo the range of y's type, which holds every rank; an
    # output never seen gets rank -1, wrapped, and no frame looks it up
    rank = np.cumsum(seen, dtype=y.dtype)
    rank -= 1
    for lo in range(0, len(y), block):
        part = y[lo : lo + block]
        part[:] = rank.take(part)
    return np.flatnonzero(seen)


def _map_picks(posterior):
    """Per column of posterior (strategies x outputs): the smallest row within TIE_RTOL of its top.

    The relative TIE_RTOL lets strategies whose posteriors are equal in exact
    arithmetic tie however the float sums round. A column whose top is not
    positive, NaN included, gets -1.
    """
    top = posterior.max(axis=0)
    # argmax of a boolean column is its first True
    picks = np.argmax(posterior >= top * (1.0 - TIE_RTOL), axis=0)
    picks[~(top > 0)] = -1
    return picks


def _checked_picks(t_hat):
    """t_hat, refused when an output got no pick from `_map_picks`."""
    if np.any(t_hat < 0):
        raise ValueError("received output has zero probability under every strategy")
    return t_hat


def _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y):
    """MAP strategy index for each observed output, by `_map_picks`, from its likelihood rows.

    used and rep_idx are the set's `strategy_table`. Outputs are decoded in
    blocks of SLAB_CELLS // (number of strategies) columns, one
    `likelihood_rows` call each, so no posterior slab passes SLAB_CELLS
    cells. It is the decoder for large sets and sparsely observed outputs.
    """
    pmf_t = sset.pmf[:, None]
    width = max(1, SLAB_CELLS // len(pmf_t))
    t_hat = np.empty(len(uniq_y), dtype=np.int64)
    for lo in range(0, len(uniq_y), width):
        rows = likelihood_rows(channel, config.F, used, uniq_y[lo : lo + width])
        posterior = mix_states(rows, rep_idx, pmf_s)
        posterior *= pmf_t
        t_hat[lo : lo + width] = _map_picks(posterior)
    return _checked_picks(t_hat)


def _decode_dense(sset, channel, config, pmf_s, uniq_y):
    """MAP strategy index for each observed output, by `_map_picks`, from one pass over all of Y.

    With `split_tables`' m, A and B, strategy t's posterior over the J^F
    outputs, as a J^(F-m) x J^m matrix, is (A[pre_t].T * pmf_t[t] pmf_s) @
    B[suf_t]: the law `capacity._output_entropies` takes, scaled by pmf_t[t].
    Blocks run over prefix rows of y and hold every strategy, so each
    output's tie rule sees all L posteriors; a block holds at most SLAB_CELLS
    cells when L J^m does not pass SLAB_CELLS. Only the observed outputs'
    picks are checked and kept.
    """
    m, A, B = split_tables(channel, config.F)
    pre, suf = sset.reps >> m, sset.reps & ((1 << m) - 1)
    n_t, n_pre, width = len(pre), A.shape[1], B.shape[1]
    span = min(n_pre, max(1, SLAB_CELLS // (n_t * width)))  # prefix rows of y per block
    b_suf = B[suf]
    scale = (sset.pmf[:, None] * pmf_s)[:, None, :]  # pmf_t[t] pmf_s[s]
    block = np.empty(n_t * span * width)
    t_hat = np.empty(n_pre * width, dtype=np.int64)
    for lo in range(0, n_pre, span):
        a = A[:, lo : lo + span]
        posterior = block[: n_t * a.shape[1] * width].reshape(n_t, a.shape[1], width)
        np.matmul(a[pre].transpose(0, 2, 1) * scale, b_suf, out=posterior)
        t_hat[lo * width : (lo + span) * width] = _map_picks(posterior.reshape(n_t, -1))
    return _checked_picks(t_hat[uniq_y])


def _decodes_dense(n_t, F, J, n_observed):
    """Whether `_decode_dense` decodes a run, from its sizes alone; `_decode_observed` if not.

    The dense decoder costs n_t x J^F posterior cells whatever is observed,
    the observed one n_t x n_observed. Per cell the dense one took 0.34 to
    0.45 of the other's time on a 2-vCPU machine at n_t = 60, 105 and 280
    (erasure F = 6, 7, 8), 0.52 on bsc F = 8, and 0.69 at n_t = 2 520
    (bsc F = 10), where one prefix row of every strategy fills 62% of
    SLAB_CELLS and each block is that one row. So it runs once the share of
    outputs observed reaches 1/2 and DENSE_FILL times that fill. The dense
    tables that grow with the run, the J^F picks and the gathered suffix
    rows, must also fit under the joint histogram's claim, which is checked
    before either decoder runs; its blocks hold at most SLAB_CELLS cells.
    """
    width = J ** (F // 2)
    fill = n_t * width / SLAB_CELLS
    grows = 8 * (J**F + n_t * (F + 1) * width)
    return (
        n_observed >= J**F * max(0.5, DENSE_FILL * fill)
        and grows <= n_t * n_observed * JOINT_CELL_BYTES
    )


def _count_joint(t_hat, t_draw, y_rank, n_t, block):
    """(symbol errors, joint counts) over the frames, in steps of max(block, cells) frames.

    A frame is an error when t_hat[y_rank] differs from its strategy t_draw.
    The counts are int64, one per (strategy, observed output) cell in
    row-major order over n_t rows of len(t_hat) columns. Each step's keys
    t * len(t_hat) + y_rank are written into one reused intp buffer, which
    np.bincount reads without the intp copy it makes of a narrower type. A
    step spans at least as many frames as there are cells, so the cells pass
    of each np.bincount costs no more than its keys.
    """
    n_y = len(t_hat)
    cells = n_t * n_y
    step = max(block, cells)
    key_buf = np.empty(min(step, len(t_draw)), dtype=np.intp)
    errors = 0
    for lo in range(0, len(t_draw), step):
        t, y = t_draw[lo : lo + step], y_rank[lo : lo + step]
        key = key_buf[: len(t)]
        t_hat.take(y, out=key, mode="clip")
        errors += int(np.count_nonzero(key != t))
        key[:] = t
        key *= n_y
        key += y
        if lo == 0:  # no zeroed array to add the first step into
            counts = np.bincount(key, minlength=cells)
        else:
            counts += np.bincount(key, minlength=cells)
    return errors, counts


def _plug_in_mi(counts, n_t, n_frames, block):
    """Plug-in I(T;Y) in bits of the joint counts, which are overwritten by their float64 law.

    The law is counts / n_frames in the counts' own memory. The terms
    p * log2(p / (pt * py)) are taken over the nonzero cells in row-major
    order, block cells at a time, and added by one np.sum, so the bits are
    those of the same sum over np.nonzero of the whole law. The sum is a KL
    divergence, so a rounding below 0 is clipped to 0.
    """
    joint = counts.view(np.float64)
    for lo in range(0, len(counts), block):
        joint[lo : lo + block] = counts[lo : lo + block] / n_frames
    joint = joint.reshape(n_t, -1)
    pt = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nonzero = np.flatnonzero(joint)
    terms = np.empty(len(nonzero))
    for lo in range(0, len(nonzero), block):
        ti, yi = np.divmod(nonzero[lo : lo + block], joint.shape[1])
        p_ty = joint[ti, yi]
        terms[lo : lo + block] = p_ty * np.log2(p_ty / (pt[ti] * py[yi]))
    mi = float(np.sum(terms))
    return mi if mi > 0.0 else 0.0


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
    """(bytes, keep) field of nonnegative ints of any integer type up to top, in decimal.

    bytes holds each value zero-padded to the width of top and keep marks its
    printed digits, both looked up four digits at a time in `_four_digits`
    tables. A group prints every digit under a nonzero higher part, and none
    when it and every higher part are zero, except the units group.
    """
    text, shown = tables
    width = len(str(top))
    words, keep, rest = [], [], values.astype(np.int64, copy=False)
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

    The run keeps three arrays of frame length, the state draw, the strategy
    draw and the ranked output, in their narrowest unsigned types; every other
    stage, the decoded strategies and the joint keys included, works one
    block of frames at a time, the joint keys in blocks no shorter than the
    histogram. See FRAME_BYTES for the measured peak.
    """
    F, J = config.F, channel.J
    if sset.F != F:
        raise ValueError("strategy set and frame config disagree on F")
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    check_table_bytes(n_frames * FRAME_BYTES, f"{n_frames} frames x {FRAME_BYTES} bytes per frame")
    if isinstance(trace, (str, os.PathLike)):
        # a bad path fails here, before the first draw. The rows are written
        # once the run's numbers are known, through a second open, so that the
        # writer's open-to-close span in perfbench/tracing.py times only them
        open(trace, "w").close()
    rng = np.random.Generator(np.random.PCG64(seed))
    pmf_s = state_pmf(config)
    n_t = len(sset)
    block = max(1, NOISE_CHUNK // F)  # frames per block in every per-frame stage

    s_draw = _draw_index(pmf_s, rng, np.empty(n_frames, dtype=np.uint8), block)
    t_draw = _draw_index(sset.pmf, rng, np.empty(n_frames, np.min_scalar_type(n_t - 1)), block)
    used, rep_idx = strategy_table(sset)
    y_rank = np.empty(n_frames, dtype=np.min_scalar_type(J**F - 1))
    _noisy_outputs(rng, channel, F, used, rep_idx, s_draw, t_draw, y_rank, block)
    uniq_y = _rank_outputs(y_rank, J**F, block)
    # the joint histogram holds int64 counts, 8 bytes a cell. While they are
    # counted, a key buffer of up to a cell's 8 bytes and one np.bincount of
    # the cells join them; then the counts are overwritten by their float law,
    # and 16 bytes of index and term per nonzero cell and blocks of a fixed
    # size follow. JOINT_CELL_BYTES covers either stage with every cell observed
    need = f"{n_t} strategies x {len(uniq_y)} observed outputs x {JOINT_CELL_BYTES} bytes per cell"
    check_table_bytes(n_t * len(uniq_y) * JOINT_CELL_BYTES, need)
    if _decodes_dense(n_t, F, J, len(uniq_y)):
        t_hat = _decode_dense(sset, channel, config, pmf_s, uniq_y)
    else:
        t_hat = _decode_observed(sset, channel, config, pmf_s, used, rep_idx, uniq_y)
    symbol_errors, counts = _count_joint(t_hat, t_draw, y_rank, n_t, block)
    empirical = _plug_in_mi(counts, n_t, n_frames, block)
    del counts  # the joint law, freed before the trace chunks are built

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
                s, t, y_i = s_draw[part], t_draw[part], y_rank[part]
                y_keep_part = None if y_keep is None else y_keep.take(y_i, axis=0)
                frame = np.arange(lo, min(lo + TRACE_CHUNK, n_frames))
                fields = [
                    _digit_field(frame, n_frames - 1, tables),
                    _digit_field(s, F, tables),
                    _digit_field(t, n_t - 1, tables),
                    (x_bytes.take(rep_idx[t, s], axis=0), None),
                    (y_bytes.take(y_i, axis=0), y_keep_part),
                    _digit_field(t_hat[y_i], n_t - 1, tables),
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
