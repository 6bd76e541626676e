"""Binary-input memoryless channels with a finite output alphabet."""

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12

PRESET_KINDS = ("erasure", "bsc", "z")
# float64 cells of the scratch a matrix's row entropies go through: 512 KiB. Taken whole, a 1 MiB
# law block's 1 MiB of terms got the heap trimmed after each call: about 460 faults, in chunks 0-5
ENTROPY_CELLS = 1 << 16


def entropy_bits(pmf):
    """Shannon entropy in bits, 0 log 0 = 0, of a vector or of each row of a matrix.

    A matrix of more than ENTROPY_CELLS cells goes a chunk of whole rows at a time through
    one scratch array (a longer row alone), each row's entropy bit for bit as if taken whole.
    """
    p = np.asarray(pmf, dtype=float)
    if p.ndim == 2 and p.size > ENTROPY_CELLS:
        step = max(1, ENTROPY_CELLS // p.shape[1])
        scratch = np.empty((step, p.shape[1]))
        parts = (p[lo : lo + step] for lo in range(0, len(p), step))
        return np.concatenate([_row_entropies(part, scratch[: len(part)]) for part in parts])
    h = _row_entropies(p)
    return h if p.ndim == 2 else float(h + 0.0)  # + 0.0: a degenerate vector is not -0.0


def _row_entropies(p, out=None):
    """-sum p log2 p along the last axis, with the terms written to out if it is given.

    They need no mask: log2 of max(p, 5e-324), the smallest subnormal, is finite, so
    a zero cell gives a zero term, every p > 0 keeps its own, and a NaN cell gives NaN.
    """
    terms = np.maximum(p, 5e-324, out=out)
    np.log2(terms, out=terms)
    terms *= p
    return -terms.sum(axis=-1)


def binary_entropy(p):
    """Entropy in bits of a coin that lands 1 with probability p."""
    return entropy_bits((1.0 - p, p))


@dataclass(frozen=True)
class BinaryInputChannel:
    """Per-packet channel: transition rows q0 and q1 over J output letters."""

    q0: tuple
    q1: tuple
    output_labels: tuple

    def __post_init__(self):
        q0 = tuple(float(v) for v in self.q0)
        q1 = tuple(float(v) for v in self.q1)
        labels = tuple(str(v) for v in self.output_labels)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "output_labels", labels)
        if len(q0) != len(q1):
            raise ValueError("transition rows must have the same length")
        if len(q0) < 2:
            raise ValueError("output alphabet needs at least two letters")
        if len(labels) != len(q0):
            raise ValueError("need exactly one label per output letter")
        # a label is written bare into a --trace CSV field
        if any(c in label for label in labels for c in ',"\r\n'):
            raise ValueError("output labels must not hold a comma, a quote or a line break")
        # both tests are written so that NaN fails them
        for row in (q0, q1):
            if not all(0.0 <= v <= 1.0 for v in row):
                raise ValueError("transition probabilities must lie in [0, 1]")
            if not abs(sum(row) - 1.0) <= ROW_SUM_TOL:
                raise ValueError("transition row does not sum to 1")

    @property
    def J(self):
        return len(self.q0)

    def row(self, bit):
        """Transition row for one input bit, as an array."""
        if bit not in (0, 1):
            raise ValueError("input bit must be 0 or 1")
        return np.asarray(self.q1 if bit else self.q0)

    def matrix(self):
        """Both transition rows stacked into a (2, J) array."""
        return np.array([self.q0, self.q1])


def channel_preset(kind, p):
    """Build one of the stock per-packet channels.

    erasure: outputs {0, 1, e}; either bit is erased with probability p.
    bsc: the bit flips with probability p.
    z: a sent 1 is read as 0 with probability p; a sent 0 always survives.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if kind == "erasure":
        return BinaryInputChannel((1.0 - p, 0.0, p), (0.0, 1.0 - p, p), ("0", "1", "e"))
    if kind == "bsc":
        return BinaryInputChannel((1.0 - p, p), (p, 1.0 - p), ("0", "1"))
    if kind == "z":
        return BinaryInputChannel((1.0, 0.0), (p, 1.0 - p), ("0", "1"))
    raise ValueError(f"unknown channel kind {kind!r}")


def row_entropy(channel, bit):
    """Entropy in bits of the output letter given one input bit."""
    return entropy_bits(channel.row(bit))

