"""Frame-level view of the packet channel: states, weight classes, likelihoods.

A frame symbol is an F-bit integer whose leftmost (most significant) bit is
packet position 0. An output symbol is the base-J integer over the channel's
letter indices, leftmost digit first. Ascending integers therefore match
lexicographic order on the printed strings.
"""

import functools
import operator
from dataclasses import dataclass
from math import comb

import numpy as np

MAX_FRAME_LEN = 20
# the package's one ceiling, 2 GiB; every byte rule goes through check_table_bytes
MAX_TABLE_BYTES = 1 << 31


def check_frame_len(F):
    """F as a plain int, refused outside 1..MAX_FRAME_LEN before anything is sized by it.

    Any integer type, numpy's included, passes through `operator.index`. A
    bool is refused although it is an int, and so is a float, even a whole one.
    """
    try:
        n = None if isinstance(F, bool) else operator.index(F)
    except TypeError:
        n = None
    if n is None or not 1 <= n <= MAX_FRAME_LEN:
        raise ValueError(f"F must be an integer in 1..{MAX_FRAME_LEN}")
    return n


def check_table_bytes(nbytes, need, error=ValueError):
    """Refuse nbytes over MAX_TABLE_BYTES, read at call time, before anything is built.

    need says what the bytes are for; the refusal reads "{need}, over {MAX_TABLE_BYTES} bytes".
    """
    if nbytes > MAX_TABLE_BYTES:
        raise error(f"{need}, over {MAX_TABLE_BYTES} bytes")


@dataclass(frozen=True)
class FrameConfig:
    """Frame length F and the probability a that a packet is addressed 1."""

    F: int
    a: float

    def __post_init__(self):
        object.__setattr__(self, "F", check_frame_len(self.F))  # frozen: stored as a plain int
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


@functools.cache
def weight_table(F):
    """Read-only uint8 Hamming weights of all 2^F symbols: weight(2^f + x) = weight(x) + 1."""
    table = np.zeros(1 << check_frame_len(F), dtype=np.uint8)
    for f in range(F):
        np.add(table[: 1 << f], 1, out=table[1 << f : 2 << f])
    table.flags.writeable = False
    return table


def enumerate_weight_class(F, s):
    """All F-bit symbols of weight s, ascending, read off `weight_table`."""
    if not 0 <= s <= F:
        raise ValueError(f"state must be in 0..{F}")
    return np.flatnonzero(weight_table(F) == s).tolist()


def _prefix_table(q, k):
    """The 2^k x J^k table of P(first k letters | first k bits), from q = (2, J) rows.

    Level 1 is q itself, since 1.0 * q[b, d] == q[b, d]. Level j+1 is level
    j times q[b, d] in one broadcast product whose (2^j, 2, J^j, J) shape
    reshapes to row 2x + b, column J y + d. So every entry is
    ((1.0 * q[b_0, d_0]) * q[b_1, d_1]) * ... in position order.
    """
    table = q if k else np.ones((1, 1))
    for _ in range(k - 1):
        nx, ny = table.shape
        table = (table[:, None, :, None] * q[None, :, None, :]).reshape(2 * nx, -1)
    return table


def split_tables(channel, F, pushed_law=False):
    """(m, A, B): prefix tables of the first F - m and the last m positions, m = F // 2.

    The channel is the same at every position, so
    P(y | x) = A[x >> m, y // J^m] * B[x mod 2^m, y mod J^m]. A holds
    (2J)^(F - m) cells and B (2J)^m, whatever rows and columns are read from
    them. With pushed_law, the rule also counts the 2^(F - m) x J^m table of
    an input law pushed through B, which the caller builds. The cells go
    through `check_table_bytes` at 8 bytes a cell.
    """
    m, J = F // 2, channel.J
    cells = (2 * J) ** (F - m) + (2 * J) ** m + (2 ** (F - m) * J**m if pushed_law else 0)
    check_table_bytes(8 * cells, f"split tables need {cells} cells at 8 bytes")
    q = channel.matrix()
    return m, _prefix_table(q, F - m), _prefix_table(q, m)


def likelihood_rows(channel, F, xs, cols=None):
    """Rows P(y | x) for each symbol in xs over the given output columns.

    cols defaults to the whole output space; pass an index array to keep
    memory bounded when J**F is large. Each entry is the product of its two
    `split_tables` cells: the columns of A and B are gathered first, then
    A's rows into the result, which B's rows multiply in place, 2^m rows at
    a time, so besides the result only 2^(F-m) + 2 * 2^m rows of columns are
    held. The bits are those of (fold of the first F - m factors) * (fold of
    the last m), each fold ((1.0 * a_0) * a_1) * ... in position order.
    """
    m, A, B = split_tables(channel, F)
    xs = np.asarray(xs, dtype=np.int64)
    cols = np.arange(channel.J**F) if cols is None else cols
    pre_y, suf_y = np.divmod(np.asarray(cols, dtype=np.int64), channel.J**m)
    rows = np.take(A, pre_y, axis=1).take(xs >> m, axis=0)
    b, suf_x = np.take(B, suf_y, axis=1), xs & ((1 << m) - 1)
    for lo in range(0, len(xs), len(b)):
        rows[lo : lo + len(b)] *= b.take(suf_x[lo : lo + len(b)], axis=0)
    return rows


def mix_states(rows, rep_idx, pmf_s):
    """Rows sum_s pmf_s[s] * rows[rep_idx[:, s]]: P(y | t) with the frame state mixed.

    rows holds P(. | x) for the symbols that rep_idx points into, one row of
    rep_idx per strategy, and is scaled in place: a symbol's weight is its
    state, so each row sits in one state column and is multiplied by that
    state's mass once, however many strategies send it. States are then
    added in ascending order, state 0's rows gathered into the result and
    each later state's through one scratch array.
    """
    weight_mass = np.zeros(len(rows))
    weight_mass[rep_idx] = pmf_s
    rows *= weight_mass[:, None]
    shape = (len(rep_idx), rows.shape[1])
    # scratch first: for the MAP decoder's allocating calls this order measured
    # about 1 MB less peak RSS over a `monte_carlo` benchmark run than the other
    scratch = np.empty(shape)
    out = np.empty(shape)
    by_state = np.ascontiguousarray(rep_idx.T)
    np.take(rows, by_state[0], axis=0, out=out, mode="clip")
    for idx in by_state[1:]:
        out += np.take(rows, idx, axis=0, out=scratch, mode="clip")
    return out
