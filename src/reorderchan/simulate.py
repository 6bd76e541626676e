"""Seeded frame simulation: encode by reordering, add noise, decode, count.

Reproducibility contract: one PCG64 generator seeded from the report's seed
drives state draws, strategy draws, and per-position channel noise, in that
order, so a seed pins the whole trace on any platform.
"""

import os
from dataclasses import dataclass

import numpy as np

from .capacity import mutual_info_TY
from .frame_space import likelihood_rows, mix_states, output_string, state_pmf, symbol_string
from .strategy import strategy_table

# n_frames x F noise uniforms drawn at once: 2^27 float64 entries is 1 GiB
MAX_NOISE_DRAWS = 1 << 27
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


def _decode_observed(sset, channel, config, pmf_s, uniq_y):
    """MAP strategy index for each observed output, smallest index on ties."""
    _, used, rep_idx = strategy_table(sset)
    rows = likelihood_rows(channel, config.F, used, uniq_y)
    pmf_t = np.asarray(sset.pmf)
    n_t = len(sset.multisymbols)
    best = np.zeros(len(uniq_y))
    best_t = np.full(len(uniq_y), -1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, len(uniq_y)))
    for lo in range(0, n_t, chunk):
        posterior = mix_states(rows, rep_idx[lo : lo + chunk], pmf_s)
        posterior *= pmf_t[lo : lo + chunk, None]
        cand = posterior.argmax(axis=0)
        cand_val = posterior[cand, np.arange(len(uniq_y))]
        better = cand_val > best
        best[better] = cand_val[better]
        best_t[better] = cand[better] + lo
    if np.any(best_t < 0):
        raise ValueError("received output has zero probability under every strategy")
    return best_t


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
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if n_frames * F > MAX_NOISE_DRAWS:
        raise ValueError(f"{n_frames} frames x F = {F} noise draws exceed {MAX_NOISE_DRAWS}")
    rng = np.random.Generator(np.random.PCG64(seed))
    pmf_s = state_pmf(config)
    pmf_t = np.asarray(sset.pmf)
    n_t = len(sset.multisymbols)

    s_draw = np.searchsorted(np.cumsum(pmf_s), rng.random(n_frames), side="right")
    s_draw = np.minimum(s_draw, F)
    t_draw = np.searchsorted(np.cumsum(pmf_t), rng.random(n_frames), side="right")
    t_draw = np.minimum(t_draw, n_t - 1)
    reps, used, rep_idx = strategy_table(sset)
    x = reps[t_draw, s_draw]

    # letter = min(searchsorted(cum[bit], u, "right"), J - 1), summed into y by Horner's rule
    cum = np.cumsum(channel.matrix(), axis=1)
    u = rng.random((n_frames, F))
    y = np.zeros(n_frames, dtype=np.int64)
    for f in range(F):
        bit = ((x >> (F - 1 - f)) & 1).astype(bool)
        y *= J
        for j in range(J - 1):
            y += u[:, f] >= np.where(bit, cum[1, j], cum[0, j])

    uniq_y, inverse = np.unique(y, return_inverse=True)
    t_hat = _decode_observed(sset, channel, config, pmf_s, uniq_y)[inverse]
    symbol_errors = int(np.sum(t_hat != t_draw))

    joint = np.bincount(
        t_draw.astype(np.int64) * len(uniq_y) + inverse, minlength=n_t * len(uniq_y)
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
                cols = (s_c, t_c, x_text[rep_idx[t_c, s_c]], y_text[inverse[part]], t_hat[part])
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
