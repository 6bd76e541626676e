"""Frame-level view of the packet channel: states, weight classes, likelihoods.

A frame symbol is an F-bit integer whose leftmost (most significant) bit is
packet position 0. An output symbol is the base-J integer over the channel's
letter indices, leftmost digit first. Ascending integers therefore match
lexicographic order on the printed strings.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

MAX_FRAME_LEN = 20


def check_frame_len(F):
    """Refuse a frame length outside 1..MAX_FRAME_LEN before anything is sized by it."""
    if not isinstance(F, int) or not 1 <= F <= MAX_FRAME_LEN:
        raise ValueError(f"F must be an integer in 1..{MAX_FRAME_LEN}")


@dataclass(frozen=True)
class FrameConfig:
    """Frame length F and the probability a that a packet is addressed 1."""

    F: int
    a: float

    def __post_init__(self):
        check_frame_len(self.F)
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must be in [0, 1]")


def state_pmf(config):
    """Binomial law of the frame state (how many packets are addressed 1)."""
    F, a = config.F, config.a
    return np.array([comb(F, s) * a**s * (1.0 - a) ** (F - s) for s in range(F + 1)])


def weight(x):
    """Hamming weight of a frame symbol; identifies its weight class."""
    return int(x).bit_count()


def symbol_string(F, x):
    """Render a frame symbol as a bit string, leftmost position first."""
    return format(x, f"0{F}b")


def output_string(F, y, channel):
    """Render an output symbol with the channel's letter labels."""
    J = channel.J
    digits = [(y // J ** (F - 1 - f)) % J for f in range(F)]
    return "".join(channel.output_labels[d] for d in digits)


def enumerate_weight_class(F, s):
    """All F-bit symbols of weight s, ascending.

    Walks the weight class with the carry-and-redistribute bit trick, so the
    list comes out sorted without filtering all 2^F symbols.
    """
    if not 0 <= s <= F:
        raise ValueError(f"state must be in 0..{F}")
    if s == 0:
        return [0]
    syms = []
    x = (1 << s) - 1
    top = 1 << F
    while x < top:
        syms.append(x)
        low = x & -x
        ripple = x + low
        x = ripple | (((x ^ ripple) >> 2) // low)
    return syms


def output_digits(F, J, cols):
    """Base-J digits of the given output indices, leftmost digit first."""
    cols = np.asarray(cols, dtype=np.int64)
    digits = np.empty((len(cols), F), dtype=np.int64)
    for f in range(F):
        digits[:, f] = (cols // J ** (F - 1 - f)) % J
    return digits


def likelihood_rows(channel, F, xs, cols=None):
    """Rows P(y | x) for each symbol in xs over the given output columns.

    cols defaults to the whole output space; pass an index array to keep
    memory bounded when J**F is large.
    """
    J = channel.J
    if cols is None:
        cols = np.arange(J**F, dtype=np.int64)
    digits = output_digits(F, J, cols)
    bits = output_digits(F, 2, xs)
    qmat = channel.matrix()
    rows = np.ones((len(bits), len(digits)))
    for f in range(F):
        rows *= qmat[bits[:, f]][:, digits[:, f]]
    return rows


def mix_states(rows, rep_idx, pmf_s):
    """Rows sum_s pmf_s[s] * rows[rep_idx[:, s]]: P(y | t) with the frame state mixed.

    rows holds P(. | x) for the symbols that rep_idx points into, one row of
    rep_idx per strategy. States are added in ascending order from zero, so
    every caller gets the same bits for the same strategy.
    """
    out = np.zeros((len(rep_idx), rows.shape[1]))
    for s, p in enumerate(pmf_s):
        term = rows[rep_idx[:, s]]
        term *= p
        out += term
    return out
