"""Brute-force reference computations used to pin expected test values.

Everything here works on bit strings and plain dicts so that results never
share code with the package under test. The scalar frame routines at the end
take package objects but read only their fields: a channel's rows q0 and q1,
a strategy set's representatives and law, and a config's F and a. The path
peel reads only a layered graph's layers and edge weights. The staircase
sampler at the very end works in plain numpy on channel rows given as lists.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import comb, log2

import numpy as np


def channel_rows(kind, p):
    if kind == "erasure":
        return {"0": {"0": 1 - p, "1": 0.0, "e": p}, "1": {"0": 0.0, "1": 1 - p, "e": p}}
    if kind == "bsc":
        return {"0": {"0": 1 - p, "1": p}, "1": {"0": p, "1": 1 - p}}
    if kind == "z":
        return {"0": {"0": 1.0, "1": 0.0}, "1": {"0": p, "1": 1 - p}}
    raise ValueError(kind)


def letters(kind):
    return ["0", "1", "e"] if kind == "erasure" else ["0", "1"]


def all_outputs(kind, F):
    return ["".join(t) for t in product(letters(kind), repeat=F)]


def state_probs(F, a):
    return [comb(F, s) * a**s * (1 - a) ** (F - s) for s in range(F + 1)]


def likelihood(rows, x, y):
    prob = 1.0
    for bit, letter in zip(x, y):
        prob *= rows[bit][letter]
    return prob


def entropy(values):
    return -sum(v * log2(v) for v in values if v > 0)


def mixture_output_pmf(kind, p, weighted_symbols):
    """{output string: prob} for the mixture sum_i w_i P(. | x_i)."""
    rows = channel_rows(kind, p)
    F = len(weighted_symbols[0][0])
    pmf = {}
    for y in all_outputs(kind, F):
        val = sum(w * likelihood(rows, x, y) for x, w in weighted_symbols)
        if val > 0:
            pmf[y] = val
    return pmf


def strategy_output_entropy(kind, p, a, reps):
    """Exact output entropy of one multisymbol given bit-string representatives."""
    F = len(reps) - 1
    probs = state_probs(F, a)
    pmf = mixture_output_pmf(kind, p, list(zip(reps, probs)))
    return entropy(pmf.values())


def conditional_output_entropy(kind, p, x):
    """Output entropy for one fixed input symbol, by direct enumeration."""
    rows = channel_rows(kind, p)
    return entropy([likelihood(rows, x, y) for y in all_outputs(kind, len(x))])


def strategy_mutual_info(kind, p, a, reps):
    """Information between the frame symbol and the output inside one strategy."""
    F = len(reps) - 1
    probs = state_probs(F, a)
    noise = sum(probs[s] * conditional_output_entropy(kind, p, reps[s]) for s in range(F + 1))
    return strategy_output_entropy(kind, p, a, reps) - noise


def positionwise_entropy_sum(kind, p, a, reps):
    """Sum over positions of the output-letter entropy there, states mixed by the frame law."""
    rows = channel_rows(kind, p)
    F = len(reps) - 1
    probs = state_probs(F, a)
    total = 0.0
    for f in range(F):
        letter_law = {}
        for s in range(F + 1):
            for letter, q in rows[reps[s][f]].items():
                letter_law[letter] = letter_law.get(letter, 0.0) + probs[s] * q
        total += entropy(letter_law.values())
    return total


def mutual_information(joint):
    """I(U;V) in bits from a joint dict {(u, v): prob}."""
    pu, pv = {}, {}
    for (u, v), pr in joint.items():
        pu[u] = pu.get(u, 0.0) + pr
        pv[v] = pv.get(v, 0.0) + pr
    total = 0.0
    for (u, v), pr in joint.items():
        if pr > 0:
            total += pr * log2(pr / (pu[u] * pv[v]))
    return total


def input_output_mutual_info(kind, p, input_pmf):
    """I(X;Y) for an input law given as {bit string: prob}."""
    rows = channel_rows(kind, p)
    F = len(next(iter(input_pmf)))
    joint = {}
    for x, px in input_pmf.items():
        if px == 0:
            continue
        for y in all_outputs(kind, F):
            pr = px * likelihood(rows, x, y)
            if pr > 0:
                joint[(x, y)] = joint.get((x, y), 0.0) + pr
    return mutual_information(joint)


def class_uniform_law(F, a):
    """{bit string: prob} with each state's mass uniform over its weight class."""
    probs = state_probs(F, a)
    law = {}
    for bits in product("01", repeat=F):
        x = "".join(bits)
        s = x.count("1")
        law[x] = probs[s] / comb(F, s)
    return law


def strategy_set_mutual_info(kind, p, a, strategies, pmf_t):
    """I(T;Y) for a list of strategies, each a tuple of bit-string representatives."""
    rows = channel_rows(kind, p)
    F = len(strategies[0]) - 1
    probs = state_probs(F, a)
    joint = {}
    for t, reps in enumerate(strategies):
        for y in all_outputs(kind, F):
            pr = pmf_t[t] * sum(probs[s] * likelihood(rows, reps[s], y) for s in range(F + 1))
            if pr > 0:
                joint[(t, y)] = pr
    return mutual_information(joint)


def permutation_orbit(F):
    """Every position permutation of the staircase 0^(F-s) 1^s, in itertools order.

    Permutation pi moves the bit at position f (leftmost first) to position
    pi[f], one bit at a time; each strategy is a tuple of F+1 integers.
    """
    orbit = []
    for pi in permutations(range(F)):
        row = []
        for s in range(F + 1):
            x = "0" * (F - s) + "1" * s
            y = ["0"] * F
            for f in range(F):
                y[pi[f]] = x[f]
            row.append(int("".join(y), 2))
        orbit.append(tuple(row))
    return orbit


def is_minimal(reps):
    """Whether every pair of representatives is as close as its weight gap allows.

    reps[s] is the integer symbol for state s, of weight s, so reps[i] and
    reps[j] differ in at least j - i positions; a minimal multisymbol meets
    that bound with equality for every pair.
    """
    return all(
        bin(reps[i] ^ reps[j]).count("1") == j - i
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    )


def frame_likelihood(channel, F, x, y, number=float):
    """P(y | x) for one frame: product of per-packet transition probabilities.

    number converts each factor; Fraction makes the product exact.
    """
    J = len(channel.q0)
    if not 0 <= x < (1 << F):
        raise ValueError("frame symbol out of range for this frame length")
    if not 0 <= y < J**F:
        raise ValueError("output symbol out of range for this frame length")
    prob = number(1)
    for f in range(F):
        bit = (x >> (F - 1 - f)) & 1
        letter = (y // J ** (F - 1 - f)) % J
        prob *= number(channel.q1[letter] if bit else channel.q0[letter])
    return prob


def output_string(F, y, channel):
    """Render an output symbol with the channel's letter labels, leftmost position first."""
    J = len(channel.q0)
    return "".join(channel.output_labels[(y // J ** (F - 1 - f)) % J] for f in range(F))


def transmit(channel, F, x, rng):
    """Send one frame symbol; every position draws its letter from its input bit's row."""
    J = len(channel.q0)
    cum = (list(accumulate(channel.q0)), list(accumulate(channel.q1)))
    y = 0
    for f in range(F):
        bit = (x >> (F - 1 - f)) & 1
        letter = bisect_right(cum[bit], rng.random())
        y = y * J + min(letter, J - 1)
    return y


def map_decode(sset, channel, config, y):
    """Most probable strategy for one received output; ties go to the smallest index.

    Posteriors are exact: every float that enters them (the channel entries,
    the state probabilities as `state_probs` computes them and the strategy
    law) becomes a Fraction, so two strategies tie only when their
    posteriors are equal as rationals.
    """
    F = config.F
    probs = [Fraction(pr) for pr in state_probs(F, config.a)]
    likes = {}
    best_t = -1
    best = Fraction(0)
    for t, m in enumerate(sset.multisymbols):
        like = Fraction(0)
        for s in range(F + 1):
            x = m.reps[s]
            if x not in likes:
                likes[x] = frame_likelihood(channel, F, x, y, Fraction)
            like += probs[s] * likes[x]
        posterior = Fraction(float(sset.pmf[t])) * like
        if posterior > best:
            best = posterior
            best_t = t
    if best_t < 0:
        raise ValueError("received output has zero probability under every strategy")
    return best_t


def peel_paths(graph):
    """Representatives of the root-to-top paths, peeled one path at a time.

    Every path takes, at each layer, the smallest next symbol whose edge still
    has weight left. Reads only graph.layers and graph.weights.
    """
    F = len(graph.layers) - 1
    residual = [dict(layer) for layer in graph.weights]
    successors = [
        {x: [x | (1 << i) for i in range(F) if not (x >> i) & 1] for x in graph.layers[s]}
        for s in range(F)
    ]
    paths = []
    for _ in range(sum(residual[0].values())):  # the root's multiplicity is L
        node = 0
        reps = [0]
        for s in range(F):
            for x2 in successors[s][node]:
                w = residual[s].get((node, x2), 0)
                if w > 0:
                    residual[s][(node, x2)] = w - 1
                    node = x2
                    break
            else:
                raise RuntimeError("path extraction stalled")
            reps.append(node)
        paths.append(tuple(reps))
    if any(w != 0 for layer in residual for w in layer.values()):
        raise RuntimeError("edge weight left over after extracting all paths")
    return paths


def sampled_staircase_rate(q0, q1, F, a, n_frames, seed):
    """(mean, standard error) of log2 P(y | stair) - log2 q*(y) over sent frames.

    Each frame draws its state S ~ Binomial(F, a), sends the staircase
    0^(F-S) 1^S and draws every letter from its bit's channel row. Every
    strategy of the staircase orbit is a position permutation of the
    staircase and q*(y) = prod_f u(y_f), u = (1-a) q0 + a q1, is the output
    law, so the mean estimates D(W_stair || q*) = I(T;Y).
    P(y | stair) = sum_s w_s prod_{f < F-s} q0(y_f) prod_{f >= F-s} q1(y_f),
    from prefix products of q0 and suffix products of q1.
    """
    rng = np.random.default_rng(seed)
    q = np.array([q0, q1], dtype=float)
    J = q.shape[1]
    u = (1 - a) * q[0] + a * q[1]
    states = rng.binomial(F, a, size=n_frames)
    bits = (np.arange(F) >= F - states[:, None]).astype(np.int64)
    cum = np.cumsum(q, axis=1)
    y = np.minimum((rng.random((n_frames, F))[:, :, None] >= cum[bits]).sum(axis=2), J - 1)
    ones = np.ones((n_frames, 1))
    prefix0 = np.hstack([ones, np.cumprod(q[0][y], axis=1)])  # [:, k]: positions before k
    suffix1 = np.hstack([np.cumprod(q[1][y][:, ::-1], axis=1)[:, ::-1], ones])  # k onwards
    w = np.array(state_probs(F, a))
    p_stair = (prefix0 * suffix1) @ w[::-1]  # column k is state F - k
    score = np.log2(p_stair) - np.log2(u[y]).sum(axis=1)
    return float(score.mean()), float(score.std(ddof=1) / np.sqrt(n_frames))
