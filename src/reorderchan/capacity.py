"""Information rates of the reordering channel: exact, closed-form, brute-force.

All rates are in bits per frame. The secondary encoder picks a strategy t,
the frame state picks which representative is sent, and the receiver sees
the noisy frame, so rates of interest are I(T;Y), its parts I(X;Y) and
I(X;Y|T), and the weight-class-constrained maximum of I(X;Y).
"""

import functools
from dataclasses import dataclass
from math import comb, factorial, log2, prod

import numpy as np

from .channel import binary_entropy, channel_preset, entropy_bits, row_entropy
from .frame_space import (
    FrameConfig,
    check_table_bytes,
    enumerate_weight_class,
    likelihood_rows,
    mix_states,
    split_tables,
    state_pmf,
    weight_table,
)
from .strategy import induced_input_pmf, lcm_binomials

DECOMPOSITION_TOL = 1e-9
BA_TOL = 1e-10
BA_MAX_ITER = 100_000
# bytes of the `_map_orbits(F)` partition per S // F!, S the number of strategy maps: its
# tracemalloc peak per S // F! is 258, 188 and 276 bytes at F = 6, 7 and 8 (numpy 2.4)
ORBIT_BYTES = 384
SLAB_CELLS = 1 << 17  # float64 cells in one strategies x outputs slab: 1 MiB


@dataclass(frozen=True)
class CapacityReport:
    """Information rates of one evaluation, all in bits per frame."""

    i_ty: float
    i_xy: float
    i_xy_given_t: float
    c_xy: float
    outer_bound: float
    method: str


@dataclass(frozen=True)
class BAResult:
    """Converged capacity iteration: value, residual duality gap, input law."""

    capacity: float
    gap: float
    iterations: int
    input_pmf: tuple


def single_use_mutual_info(channel, a):
    """Information through one packet slot when its input bit is 1 w.p. a."""
    u = (1.0 - a) * np.asarray(channel.q0) + a * np.asarray(channel.q1)
    noise = (1.0 - a) * row_entropy(channel, 0) + a * row_entropy(channel, 1)
    v = entropy_bits(u) - noise
    return v if v > 0.0 else 0.0  # rounding can leave an exact 0 a few ulps below it


def outer_bound(channel, config):
    """F independent slots at the marginal input law; caps every frame rate here."""
    return config.F * single_use_mutual_info(channel, config.a)


def _mean_noise_entropy(channel, config):
    # sum_s P_S(s) (s H(q1) + (F-s) H(q0)) collapses through E[S] = F a
    return config.F * (
        config.a * row_entropy(channel, 1) + (1.0 - config.a) * row_entropy(channel, 0)
    )


# the largest I(X;Y) over input laws with the binomial weight-class marginals: spreading
# each state uniformly over its weight class makes the F bits i.i.d. Bernoulli(a)
c_xy = outer_bound


def _is_staircase_orbit(sset):
    """Whether `_orbit_rates` applies to the set, by exact integer and equality tests.

    Three tests, no tolerances: the pmf is flat, every strategy is a
    maximal chain (each representative contains the one below it, which for
    weight-graded representatives is the paper's minimality), and every weight-s
    symbol occurs exactly L / C(F, s) times. Then each strategy is a position
    permutation of the staircase and the induced input law is i.i.d.
    Bernoulli(a). A weight-s symbol occurs only in column s of the table, so
    one count over the table gives each entry's tally in its column; L
    entries at L / C(F, s) apiece make C(F, s) symbols, the whole class.
    """
    reps = sset.reps
    if np.any(sset.pmf != sset.pmf[0]) or np.any(reps[:, :-1] & ~reps[:, 1:]):
        return False
    sizes = np.array([comb(sset.F, s) for s in range(sset.F + 1)])
    return bool(np.all(np.bincount(reps.ravel())[reps] * sizes == len(reps)))


def _orbit_rates(channel, config):
    """(i_ty, i_xy, i_xy_given_t) of a staircase-orbit set from its F+1 staircase rows.

    Every strategy is a position permutation of the staircase, so H(Y|T=t)
    is the staircase output entropy for every t. The induced input law is
    i.i.d. Bernoulli(a), P(x) = pmf_s[w(x)] / C(F, w(x)): `_output_entropies`
    pushes it through the prefix x suffix split and takes H(Y) over all J^F
    outputs, while I(X;Y) is the closed form F H(u), the outer bound. The
    split check compares those two values of H(Y).
    """
    F = config.F
    pmf_s = state_pmf(config)
    p_x = (pmf_s / [comb(F, s) for s in range(F + 1)])[weight_table(F)]
    stair = np.array([[(1 << s) - 1 for s in range(F + 1)]])
    h, _, h_y = _output_entropies(channel, F, pmf_s, stair, p_x=p_x)
    h_stair, noise = float(h[0]), _mean_noise_entropy(channel, config)
    return h_y - h_stair, outer_bound(channel, config), h_stair - noise


def _output_entropies(channel, F, pmf_s, reps, pmf_t=None, p_x=None):
    """(h, h_y_by_t, h_y_by_x): H(Y | T=t) for each strategy row of reps, and two H(Y).

    With `split_tables`' m, A and B, P(y | x) = A[x >> m, y // J^m] * B[x mod 2^m, y mod J^m],
    so strategy t's law sum_s pmf_s[s] P(y | reps[t, s]), as a J^(F-m) x J^m
    matrix, is (A[pre_t].T * pmf_s) @ B[suf_t]. h_y_by_t mixes those laws by
    pmf_t; h_y_by_x is the entropy of A.T @ P_x @ B, P_x the 2^(F-m) x 2^m
    reshape of the input law p_x, whose product P_x @ B the tables' byte rule
    counts; each is None without its law. Blocks run over strategies, and over
    prefix rows of y once one law passes SLAB_CELLS: no block of laws does.
    """
    m, A, B = split_tables(channel, F, pushed_law=p_x is not None)
    n_pre, width = A.shape[1], B.shape[1]
    span = min(n_pre, max(1, SLAB_CELLS // width))  # prefix rows of y per block
    step = max(1, SLAB_CELLS // (span * width))  # rows of reps per block
    pre, suf = reps >> m, reps & ((1 << m) - 1)
    p_xb = None if p_x is None else np.reshape(p_x, (-1, 1 << m)) @ B
    h = np.zeros(len(reps))
    h_y_by_t = None if pmf_t is None else 0.0
    h_y_by_x = None if p_x is None else 0.0
    for lo in range(0, n_pre, span):
        a = A[:, lo : lo + span]
        mix = 0.0
        # one buffer holds every block of laws (one per block doubled the time at erasure F = 8)
        # and entropy_bits takes their terms in 512 KiB chunks, so no call ends in a heap trim
        block = np.empty((min(step, len(reps)), a.shape[1], width))
        for t in range(0, len(reps), step):
            x = slice(t, t + step)
            laws = block[: len(pre[x])]
            np.matmul(a[pre[x]].transpose(0, 2, 1) * pmf_s, B[suf[x]], out=laws)
            laws = laws.reshape(len(laws), -1)
            h[x] += entropy_bits(laws)
            if pmf_t is not None:
                mix += pmf_t[x] @ laws
        del block, laws
        if pmf_t is not None:
            h_y_by_t += entropy_bits(mix)
        if p_x is not None:
            h_y_by_x += entropy_bits((a.T @ p_xb).ravel())
    return h, h_y_by_t, h_y_by_x


def _enumerated_rates(channel, config, sset):
    """(i_ty, i_xy, i_xy_given_t) of any strategy set, by enumerating every strategy row.

    `_output_entropies` gives H(Y | T=t) for each strategy and H(Y) twice:
    mixed by strategy for I(T;Y), and by symbol under the induced input law
    for I(X;Y), so the split check compares two independently mixed numbers.
    """
    p_x, pmf_s = induced_input_pmf(sset, config), state_pmf(config)
    h_t, h_y, h_y_by_x = _output_entropies(channel, config.F, pmf_s, sset.reps, sset.pmf, p_x)
    noise = _mean_noise_entropy(channel, config)
    h_y_given_t = float(sset.pmf @ h_t)
    return h_y - h_y_given_t, h_y_by_x - noise, h_y_given_t - noise


def _checked_report(channel, config, method, rates, h_t):
    """Report (i_ty, i_xy, i_xy_given_t) once the split I(T;Y) = I(X;Y) - I(X;Y|T) closes.

    h_t is H(T), the entropy of the strategy law, which also caps I(T;Y).
    """
    i_ty, i_xy, i_xy_given_t = rates
    # each test is written so that a NaN rate fails it
    if not abs(i_ty - (i_xy - i_xy_given_t)) <= DECOMPOSITION_TOL:
        raise RuntimeError("information split I(T;Y) = I(X;Y) - I(X;Y|T) failed to close")
    # given T the state fixes X, so I(X;Y|T) <= H(X|T) = H(S), the binomial state entropy
    h_state = entropy_bits(state_pmf(config))
    if not -DECOMPOSITION_TOL <= i_xy_given_t <= h_state + DECOMPOSITION_TOL:
        raise RuntimeError(f"I(X;Y|T) = {i_xy_given_t!r} lies outside [0, H(S) = {h_state!r}]")
    # T -> X -> Y, so neither part of the split passes I(X;Y)
    if not (i_ty <= i_xy + DECOMPOSITION_TOL and i_xy_given_t <= i_xy + DECOMPOSITION_TOL):
        raise RuntimeError(f"I(T;Y) = {i_ty!r} or I(X;Y|T) = {i_xy_given_t!r} exceeds I(X;Y)")
    if not i_ty <= h_t + DECOMPOSITION_TOL:
        raise RuntimeError(f"I(T;Y) = {i_ty!r} exceeds H(T) = {h_t!r}")
    # after the checks, clip I(X;Y) at 0 (-0.0 too, which max(-0.0, 0.0) keeps) and both parts
    # into [0, I(X;Y)]; I(T;Y) also under H(T), so one strategy (H(T) = 0) carries exactly 0
    i_xy = i_xy if i_xy > 0.0 else 0.0
    i_ty = min(i_ty, i_xy, h_t) if i_ty > 0.0 else 0.0
    i_xy_given_t = min(i_xy_given_t, i_xy) if i_xy_given_t > 0.0 else 0.0
    outer = outer_bound(channel, config)
    return CapacityReport(i_ty, i_xy, i_xy_given_t, c_xy=outer, outer_bound=outer, method=method)


def secondary_capacity(channel, config):
    """Checked report of the constructed set, an S_F orbit of the staircase, which is never built.

    Its rates are those of the F+1 staircase rows; method "constructed". Its
    L strategies are equally likely, so H(T) = log2 L.
    """
    rates = _orbit_rates(channel, config)
    return _checked_report(channel, config, "constructed", rates, log2(lcm_binomials(config.F)))


def mutual_info_TY(channel, config, sset):
    """Information rates of a strategy set, with the cascade split checked.

    A set that passes `_is_staircase_orbit` (the constructed set, the
    permutation orbit) has the constructed set's rates: `secondary_capacity`.
    Any other set enumerates every strategy and reports "enumerated".
    """
    if sset.F != config.F:
        raise ValueError("strategy set and frame config disagree on F")
    if _is_staircase_orbit(sset):
        return secondary_capacity(channel, config)
    rates = _enumerated_rates(channel, config, sset)
    return _checked_report(channel, config, "enumerated", rates, entropy_bits(sset.pmf))


def errorless_capacity(config):
    """Frame rate with noiseless outputs: sum_s P_S(s) log2 C(F, s)."""
    pmf = state_pmf(config)
    return float(sum(pmf[s] * log2(comb(config.F, s)) for s in range(config.F + 1)))


def z_point_capacity(p):
    """Capacity of a single z channel use at flip probability p, free input law."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p)))


def z_fixed_input_capacity(a, p):
    """Information through one z channel use when the input is 1 w.p. a."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= p <= 1.0:
        raise ValueError("probabilities must be in [0, 1]")
    v = binary_entropy(a * (1.0 - p)) - a * binary_entropy(p)
    return v if v > 0.0 else 0.0


def strategy_space_size(F):
    """Number of maps sending each state into its own weight class."""
    return prod(comb(F, s) for s in range(F + 1))


class OracleTooLarge(ValueError):
    """The oracle's orbit partition, or the all-maps table, fails `check_table_bytes`."""


def _all_maps(F):
    """Every strategy map as a row of its F+1 representatives, in itertools.product order.

    The last state varies fastest.
    """
    classes = [enumerate_weight_class(F, s) for s in range(F + 1)]
    return np.stack(np.meshgrid(*classes, indexing="ij"), axis=-1).reshape(-1, F + 1)


def equivalent_channel_matrix(channel, config):
    """Rows P(y | t) for every strategy map, states mixed by the frame law.

    The oracle runs on `orbit_channel`; this full table is its enumerated
    cross-check. `check_table_bytes` takes the arrays it allocates at 8 bytes
    a cell: the 2^F likelihood rows and the mixed table with its scratch, J^F
    cells a row, and three (F+1)-column copies of the maps.
    """
    F, S = config.F, strategy_space_size(config.F)
    cells = ((1 << F) + 2 * S) * channel.J**F + 3 * S * (F + 1)
    check_table_bytes(8 * cells, f"all-maps table needs {cells} cells at 8 bytes", OracleTooLarge)
    rows = likelihood_rows(channel, F, list(range(1 << F)))
    return mix_states(rows, _all_maps(F), state_pmf(config))


@functools.cache
def _map_orbits(F):
    """(orbit_sizes, reps): the S_F orbits of strategy maps, which depend on F alone.

    Column f of a map has bit s set when rep_s has a 1 at position f; permuting
    positions permutes columns, so an orbit is a sorted row of F columns. Rows
    grow one state at a time, with no map list, each weight-s symbol ORing bit
    s into its 1 positions, and stay in lexicographic order: the order of
    `_all_maps`' partition by sorted columns. An orbit holds F! / prod m! maps,
    m over the multiplicities of equal columns. reps holds its first map in
    `_all_maps` order, the least (rep_1, ..., rep_F): its columns ordered by
    their rep_1 bit, then rep_2 bit, and so on. Columns stay in the narrowest
    unsigned type that holds F + 1 bits; callers share both read-only int64 arrays.
    """
    positions = np.arange(F - 1, -1, -1, dtype=np.int64)  # bit shift of position f
    column = np.min_scalar_type((2 << F) - 1)
    rows = np.zeros((1, F), dtype=column)
    # every sort here is stable, lexsort's kind, so a process pages in one sort routine's code
    for s in range(1, F + 1):
        ones = ((np.array(enumerate_weight_class(F, s))[:, None] >> positions) & 1).astype(column)
        grown = np.sort((rows[:, None, :] | ones << s).reshape(-1, F), axis=1, kind="stable")
        grown = grown[np.lexsort(grown.T[::-1])]  # column 0 is the primary key
        rows = grown[np.r_[True, np.any(grown[1:] != grown[:-1], axis=1)]]
    run = np.ones_like(rows)  # run[:, f]: column f's place among the equal columns up to it
    for f in range(1, F):
        run[:, f] = np.where(rows[:, f] == rows[:, f - 1], run[:, f - 1] + 1, 1)
    orbit_sizes = factorial(F) // run.prod(axis=1, dtype=np.int64)  # prod(run) = prod m!
    key = sum(((rows >> s) & 1) << (F - s) for s in range(F + 1))  # rep_1 bit leads
    cols = np.take_along_axis(rows, np.argsort(key, axis=1, kind="stable"), axis=1)
    place = (1 << positions).astype(column)
    reps = np.stack([((cols >> s) & 1) @ place for s in range(F + 1)], axis=1, dtype=np.int64)
    orbit_sizes.flags.writeable = reps.flags.writeable = False
    return orbit_sizes, reps


def orbit_channel(channel, config):
    """(orbit_sizes, h): S_F orbits of strategy maps and each orbit's output entropy.

    The channel is the same at every position, so W(pi y | pi t) = W(y | t)
    and every member of an orbit has the output entropy h of its
    representative. The orbits come from `_map_orbits`, once per process per F,
    and their entropies from `_output_entropies`, which holds slab blocks only.
    """
    orbit_sizes, reps = _map_orbits(config.F)
    h, _, _ = _output_entropies(channel, config.F, state_pmf(config), reps)
    return orbit_sizes, h


def blahut_arimoto(W, tol=BA_TOL, max_iter=BA_MAX_ITER):
    """Capacity of a discrete memoryless channel from its row-stochastic matrix.

    Alternating maximization over the input law; the spread of the per-row
    information densities brackets the optimum, so iteration stops once
    max_t D_t - sum_t r_t D_t drops under tol.
    """
    W = np.asarray(W, dtype=float)
    # a NaN entry makes its row sum NaN, which fails the row-sum test
    if W.ndim != 2 or np.any(W < 0) or not np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-9):
        raise ValueError("need a matrix of probability rows")
    n = W.shape[0]
    row_const = -entropy_bits(W)
    r = np.full(n, 1.0 / n)
    gap = np.inf
    for it in range(1, max_iter + 1):
        q = r @ W
        logq = np.zeros_like(q)
        np.log2(q, out=logq, where=q > 0)
        densities = row_const - W @ logq
        lower = float(r @ densities)
        upper = float(densities.max())
        gap = upper - lower
        if gap < tol:
            return BAResult(lower, gap, it, tuple(r))
        r = r * np.exp2(densities - upper)
        r /= r.sum()
    raise RuntimeError(f"no convergence after {max_iter} iterations; duality gap {gap:.3e}")


def oracle_solve(channel, config):
    """Capacity over every admissible strategy map: the best map orbit's information density.

    The letter counts of y depend only on the weight of the sent symbol, so
    every map gives the output composition the law it has under the product
    law q*(y) = prod_f u(y_f). Every S_F-invariant law over maps therefore
    sends y to q*, and map t has the fixed information density
    D_t = F H(u) - H(Y|T=t) = D(W_t || q*), the same on its whole orbit. So
    the capacity is max_t D_t. D_t >= 0, and H(Y|T=t) is at least the mean
    noise entropy, so D_t <= outer_bound: clipping to both moves only rounding.
    The best density is its own certificate: under the returned input_pmf,
    the one-hot law over map orbits at the best orbit, the mean density and
    the largest are the same number, so the result has gap 0.0 and counts 1
    iteration. Before the cached partition is read, `check_table_bytes` takes
    `_map_orbits` at ORBIT_BYTES per S // F!, at most the orbit count since an
    orbit holds at most F! of the S maps; the orbit laws are held in slab
    blocks only. That admits every preset through F = 8 and refuses F >= 9.
    """
    n = strategy_space_size(config.F) // factorial(config.F)
    need = f"orbit partition needs {n} x {ORBIT_BYTES} bytes"
    check_table_bytes(n * ORBIT_BYTES, need, OracleTooLarge)
    _, h = orbit_channel(channel, config)
    outer = outer_bound(channel, config)
    densities = np.clip(outer + _mean_noise_entropy(channel, config) - h, 0.0, outer)
    k = np.argmax(densities)
    best = np.zeros(len(h))
    best[k] = 1.0
    return BAResult(float(densities[k]), 0.0, 1, tuple(best))


def oracle_capacity(channel, config):
    """Brute-force capacity over every admissible strategy map."""
    return oracle_solve(channel, config).capacity


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the comparison sweep; c_oracle is None above limits."""

    F: int
    a: float
    p: float
    preset: str
    c_constructed: float
    c_oracle: object
    c_xy: float
    outer_bound: float
    c_errorless: float


def sweep_point(preset, p, a, F):
    """Evaluate one (preset, p, a, F) grid point for the comparison sweep."""
    ch = channel_preset(preset, p)
    cfg = FrameConfig(F, a)
    report = secondary_capacity(ch, cfg)
    try:
        oracle = oracle_capacity(ch, cfg)
    except OracleTooLarge:
        oracle = None
    return SweepRow(
        F=F,
        a=a,
        p=p,
        preset=preset,
        c_constructed=report.i_ty,
        c_oracle=oracle,
        c_xy=report.c_xy,
        outer_bound=report.outer_bound,
        c_errorless=errorless_capacity(cfg),
    )
