"""Expected values for the benchmark's output checks.

Nothing here imports reorderchan: channels, likelihood tables and entropies
are rebuilt from their definitions with numpy, so a defect in the package
cannot hide itself in its own check.
"""

from math import comb, log2

import numpy as np


def channel_rows(preset, p):
    """Per-packet transition rows (input bit 0, input bit 1) of a stock channel."""
    if preset == "erasure":
        return np.array([[1.0 - p, 0.0, p], [0.0, 1.0 - p, p]])
    if preset == "bsc":
        return np.array([[1.0 - p, p], [p, 1.0 - p]])
    if preset == "z":
        return np.array([[1.0, 0.0], [p, 1.0 - p]])
    raise ValueError(f"unknown preset {preset!r}")


def entropy(pmf):
    """Shannon entropy in bits of each row (or of a vector), 0 log 0 = 0."""
    pmf = np.asarray(pmf, dtype=float)
    logs = np.zeros_like(pmf)
    np.log2(pmf, out=logs, where=pmf > 0)
    return -(pmf * logs).sum(axis=-1)


def state_law(F, a):
    """Binomial law of how many of the F packets are addressed 1."""
    return np.array([comb(F, s) * a**s * (1.0 - a) ** (F - s) for s in range(F + 1)])


def symbol_table(q, F):
    """P(y | x) for every F-bit symbol x (rows) and output y (columns).

    The leftmost position is the most significant bit of x and the most
    significant base-J digit of y, so the table is the F-fold Kronecker power
    of the per-packet rows.
    """
    table = np.ones((1, 1))
    for _ in range(F):
        table = np.kron(table, q)
    return table


def staircase_row(q, F, s):
    """P(y | x) for the weight-s symbol with its s ones in the last positions."""
    row = np.ones(1)
    for f in range(F):
        row = np.kron(row, q[1] if f >= F - s else q[0])
    return row


def slot_rate(q, a):
    """I(X;Y) of one packet slot whose input bit is 1 with probability a."""
    return float(entropy((1.0 - a) * q[0] + a * q[1])) - noise_entropy(q, 1, a)


def noise_entropy(q, F, a):
    """H(Y | X) of the frame; every representative of state s has weight s."""
    return float(F * ((1.0 - a) * entropy(q[0]) + a * entropy(q[1])))


def staircase_rate(preset, p, a, F):
    """I(T;Y) of the constructed set: F I1(a) - (H(Y | staircase) - H(Y | X)).

    Every constructed strategy is a position permutation of the staircase and
    the set induces i.i.d. Bernoulli(a) bits, so one (F+1)-row mixture fixes
    the rate.
    """
    q = channel_rows(preset, p)
    law = state_law(F, a)
    mix = sum(law[s] * staircase_row(q, F, s) for s in range(F + 1))
    return F * slot_rate(q, a) - (float(entropy(mix)) - noise_entropy(q, F, a))


def errorless_rate(F, a):
    """Frame rate with noiseless outputs: sum_s P(s) log2 C(F, s)."""
    law = state_law(F, a)
    return float(sum(law[s] * log2(comb(F, s)) for s in range(F + 1)))


def dense_rates(preset, p, a, F, reps, pmf_t):
    """I(T;Y), I(X;Y), I(X;Y|T) of an arbitrary strategy set, densely.

    reps is an (n_t, F+1) integer array of representatives, pmf_t the
    strategy law. The whole 2^F x J^F likelihood table is built at once.
    """
    q = channel_rows(preset, p)
    table = symbol_table(q, F)
    law = state_law(F, a)
    reps = np.asarray(reps)
    pmf_t = np.asarray(pmf_t, dtype=float)
    per_t = sum(law[s] * table[reps[:, s]] for s in range(F + 1))
    h_t = float(pmf_t @ entropy(per_t))
    induced = np.zeros(1 << F)
    np.add.at(induced, reps, pmf_t[:, None] * law[None, :])
    noise = noise_entropy(q, F, a)
    return {
        "i_ty": float(entropy(pmf_t @ per_t)) - h_t,
        "i_xy": float(entropy(induced @ table)) - noise,
        "i_xy_given_t": h_t - noise,
    }
