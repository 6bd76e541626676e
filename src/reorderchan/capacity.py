"""Information rates of the reordering channel: exact, closed-form, brute-force.

All rates are in bits per frame. The secondary encoder picks a strategy t,
the frame state picks which representative is sent, and the receiver sees
the noisy frame, so rates of interest are I(T;Y), its parts I(X;Y) and
I(X;Y|T), and the weight-class-constrained maximum of I(X;Y).
"""

import os
from dataclasses import dataclass
from math import comb, log2

import numpy as np

from .channel import binary_entropy, channel_preset, entropy_bits, row_entropy
from .frame_space import (
    FrameConfig,
    enumerate_weight_class,
    likelihood_rows,
    mix_states,
    output_digits,
    state_pmf,
)
from .strategy import build_weighted_graph, decompose_paths, induced_input_pmf, strategy_table

DECOMPOSITION_TOL = 1e-9
BA_TOL = 1e-10
BA_MAX_ITER = 100_000
ORACLE_MAX_ENTRIES = 2_000_000
ORACLE_ENV_VAR = "REORDERCHAN_ORACLE_MAX_ENTRIES"
BLOCK_COLS = 8192  # bounds the likelihood slab width when J**F is large


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
    return entropy_bits(u) - noise


def outer_bound(channel, config):
    """F independent slots at the marginal input law; caps every frame rate here."""
    return config.F * single_use_mutual_info(channel, config.a)


def _mean_noise_entropy(channel, config):
    # sum_s P_S(s) (s H(q1) + (F-s) H(q0)) collapses through E[S] = F a
    return config.F * (
        config.a * row_entropy(channel, 1) + (1.0 - config.a) * row_entropy(channel, 0)
    )


def c_xy(channel, config):
    """Largest I(X;Y) over input laws with the binomial weight-class marginals.

    Attained by spreading each state's mass uniformly over its weight class,
    which makes the F bits i.i.d. Bernoulli(a); so it equals the outer bound.
    """
    return outer_bound(channel, config)


def _is_staircase_orbit(sset):
    """Whether `_orbit_rates` applies to the set, by exact integer and equality tests.

    Three tests, no tolerances: the pmf is flat, every strategy is a
    maximal chain (each representative contains the one below it, which for
    weight-graded representatives is `is_minimal`), and every weight-s
    symbol occurs exactly L / C(F, s) times. Then each strategy is a position
    permutation of the staircase and the induced input law is i.i.d.
    Bernoulli(a).
    """
    pmf = np.asarray(sset.pmf)
    if np.any(pmf != pmf[0]):
        return False
    reps, _, _ = strategy_table(sset)
    if np.any(reps[:, :-1] & ~reps[:, 1:]):
        return False
    n_t = len(reps)
    for s in range(sset.F + 1):
        size = comb(sset.F, s)
        _, counts = np.unique(reps[:, s], return_counts=True)
        if len(counts) != size or np.any(counts * size != n_t):
            return False
    return True


def _type_ranks(F, J, cols):
    """Index of each output's letter-count composition among the C(F+J-1, J-1).

    Stars and bars: bar k of the composition (n_0, ..., n_{J-1}) sits at
    n_0 + ... + n_{k-1} + k - 1, and the combinatorial number system ranks
    the J-1 bar positions.
    """
    digits = output_digits(F, J, cols)
    ranks = np.zeros(len(cols), dtype=np.int64)
    for k in range(1, J):
        binom = np.array([comb(n, k) for n in range(F + J - 1)], dtype=np.int64)
        ranks += binom[(digits < k).sum(axis=1) + k - 1]
    return ranks


def _orbit_rates(channel, config):
    """(i_ty, i_xy, i_xy_given_t) of a staircase-orbit set from its F+1 staircase rows.

    Every strategy is a position permutation of the staircase, so H(Y|T=t)
    is the staircase output entropy for every t. The induced law is i.i.d.
    Bernoulli(a), so H(Y) has the closed form F H(u); it is also rebuilt
    from the staircase law, since S_F acts transitively on each output
    composition and P(y) is the mean of P_stair over y's composition. The
    split check compares those two values of H(Y).
    """
    F, J = config.F, channel.J
    pmf_s = state_pmf(config)
    stair = [(1 << s) - 1 for s in range(F + 1)]
    n_types = comb(F + J - 1, J - 1)
    type_mass = np.zeros(n_types)
    type_size = np.zeros(n_types, dtype=np.int64)
    h_stair = 0.0
    total_cols = J**F
    for start in range(0, total_cols, BLOCK_COLS):
        cols = np.arange(start, min(start + BLOCK_COLS, total_cols), dtype=np.int64)
        p_stair = pmf_s @ likelihood_rows(channel, F, stair, cols)
        h_stair += entropy_bits(p_stair)
        ranks = _type_ranks(F, J, cols)
        type_mass += np.bincount(ranks, weights=p_stair, minlength=n_types)
        type_size += np.bincount(ranks, minlength=n_types)
    hit = type_mass > 0
    h_types = -float(np.sum(type_mass[hit] * np.log2(type_mass[hit] / type_size[hit])))
    noise = _mean_noise_entropy(channel, config)
    return h_types - h_stair, outer_bound(channel, config), h_stair - noise


def _enumerated_rates(channel, config, sset):
    """(i_ty, i_xy, i_xy_given_t) of any strategy set, by enumerating every strategy row.

    One blocked pass over the output space mixes each block's likelihood rows
    twice: by strategy, for H(Y) and the per-strategy output entropies, and
    by symbol under the induced input law, for the H(Y) inside I(X;Y).
    """
    F = config.F
    pmf_s = state_pmf(config)
    pmf_t = np.asarray(sset.pmf)
    _, used, rep_idx = strategy_table(sset)
    p_x = induced_input_pmf(sset, config)[used]
    n_t = len(pmf_t)
    total_cols = channel.J**F
    chunk = max(1, (1 << 22) // BLOCK_COLS)  # strategies per slab
    h_t = np.zeros(n_t)
    h_y = h_y_by_x = 0.0
    for start in range(0, total_cols, BLOCK_COLS):
        cols = np.arange(start, min(start + BLOCK_COLS, total_cols), dtype=np.int64)
        rows = likelihood_rows(channel, F, used, cols)
        mix = np.zeros(len(cols))
        for lo in range(0, n_t, chunk):
            trows = mix_states(rows, rep_idx[lo : lo + chunk], pmf_s)
            mix += pmf_t[lo : lo + chunk] @ trows
            h_t[lo : lo + chunk] += entropy_bits(trows)
        h_y += entropy_bits(mix)
        h_y_by_x += entropy_bits(p_x @ rows)
    noise = _mean_noise_entropy(channel, config)
    h_y_given_t = float(pmf_t @ h_t)
    return h_y - h_y_given_t, h_y_by_x - noise, h_y_given_t - noise


def mutual_info_TY(channel, config, sset):
    """Information rates of a strategy set, with the cascade split checked.

    Sets that pass `_is_staircase_orbit` (the constructed set and the
    permutation orbit among them) are evaluated from the F+1 staircase rows
    and report method "constructed"; any other set enumerates every strategy
    and reports "enumerated". Either way the split
    I(T;Y) = I(X;Y) - I(X;Y|T) compares two independently computed values
    and must close numerically or the call fails.
    """
    if sset.F != config.F:
        raise ValueError("strategy set and frame config disagree on F")
    if _is_staircase_orbit(sset):
        method = "constructed"
        i_ty, i_xy, i_xy_given_t = _orbit_rates(channel, config)
    else:
        method = "enumerated"
        i_ty, i_xy, i_xy_given_t = _enumerated_rates(channel, config, sset)
    if abs(i_ty - (i_xy - i_xy_given_t)) > DECOMPOSITION_TOL:
        raise RuntimeError("information split I(T;Y) = I(X;Y) - I(X;Y|T) failed to close")
    outer = outer_bound(channel, config)
    return CapacityReport(
        i_ty=i_ty,
        i_xy=i_xy,
        i_xy_given_t=i_xy_given_t,
        c_xy=outer,
        outer_bound=outer,
        method=method,
    )


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
    return binary_entropy(a * (1.0 - p)) - a * binary_entropy(p)


def strategy_space_size(F):
    """Number of maps sending each state into its own weight class."""
    n = 1
    for s in range(F + 1):
        n *= comb(F, s)
    return n


class OracleTooLarge(ValueError):
    """The all-maps strategy table would exceed the enumeration ceiling."""


def oracle_entry_limit():
    """Enumeration ceiling for the brute-force oracle, env-var overridable."""
    raw = os.environ.get(ORACLE_ENV_VAR)
    if not raw:
        return ORACLE_MAX_ENTRIES
    try:
        limit = int(raw)
    except ValueError:
        limit = None
    if limit is None or limit < 0:
        raise ValueError(f"{ORACLE_ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return limit


def _check_oracle_size(F, J):
    """Refuse an oracle whose all-maps table, n_maps x J^F, would pass the ceiling."""
    max_entries = oracle_entry_limit()
    n_t = strategy_space_size(F)
    n_y = J**F
    if n_t * n_y > max_entries:
        raise OracleTooLarge(
            f"strategy table needs {n_t} x {n_y} entries, over the limit {max_entries}; "
            f"raise {ORACLE_ENV_VAR} only if memory allows"
        )


def _all_maps(F):
    """Every strategy map as a row of its F+1 representatives, in itertools.product order.

    The last state varies fastest.
    """
    classes = [enumerate_weight_class(F, s) for s in range(F + 1)]
    return np.stack(np.meshgrid(*classes, indexing="ij"), axis=-1).reshape(-1, F + 1)


def equivalent_channel_matrix(channel, config):
    """Rows P(y | t) for every strategy map, states mixed by the frame law.

    The oracle runs on `orbit_channel`; this full table is its enumerated
    cross-check.
    """
    F = config.F
    _check_oracle_size(F, channel.J)
    rows = likelihood_rows(channel, F, list(range(1 << F)))
    return mix_states(rows, _all_maps(F), state_pmf(config))


def orbit_channel(channel, config):
    """(orbit_sizes, h): S_F orbits of strategy maps and each orbit's output entropy.

    Permuting packet positions permutes the bit columns of every
    representative at once, so two maps share an orbit exactly when their
    per-position columns (bit f of rep_0..rep_F) form the same multiset. The
    channel is the same at every position, so W(pi y | pi t) = W(y | t) and
    every member of an orbit has the output entropy h of its representative.
    """
    F = config.F
    maps = _all_maps(F)
    shifts = np.arange(F - 1, -1, -1, dtype=np.int64)
    cols = np.zeros((len(maps), F), dtype=np.int64)
    for s in range(F + 1):
        cols |= ((maps[:, s, None] >> shifts) & 1) << s
    cols.sort(axis=1)
    key = np.zeros(len(maps), dtype=np.int64)  # F (F+1) bits: 42 at F = 6
    for f in range(F):
        key = (key << (F + 1)) | cols[:, f]
    _, first, orbit_sizes = np.unique(key, return_index=True, return_counts=True)
    rows = likelihood_rows(channel, F, list(range(1 << F)))
    h = entropy_bits(mix_states(rows, maps[first], state_pmf(config)))
    return orbit_sizes, h


def blahut_arimoto(W, tol=BA_TOL, max_iter=BA_MAX_ITER, row_const=None, r0=None):
    """Capacity of a discrete memoryless channel from its row-stochastic matrix.

    Alternating maximization over the input law; the spread of the per-row
    information densities brackets the optimum, so iteration stops once
    max_t D_t - sum_t r_t D_t drops under tol. A lumped channel runs the same
    iteration by passing row_const, which replaces sum_y W log2 W in D_t,
    and r0, which replaces the uniform starting law.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or np.any(W < 0) or not np.allclose(W.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("need a matrix of probability rows")
    n = W.shape[0]
    if row_const is None:
        logW = np.zeros_like(W)
        np.log2(W, out=logW, where=W > 0)
        row_const = np.sum(W * logW, axis=1)
    r = np.full(n, 1.0 / n) if r0 is None else np.asarray(r0, dtype=float)
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
    """Blahut-Arimoto over every admissible strategy map, run on S_F orbits.

    The letter counts of y depend only on the weight of the sent symbol, so
    every map gives the output composition the law it has under the product
    law q*(y) = prod_f u(y_f). Every S_F-invariant law over maps, hence every
    iterate from the uniform start, therefore sends y to q*, and map t has
    the fixed information density D_t = F H(u) - H(Y|T=t). So the iteration
    runs on one output class with row_const D over the orbits; it has the
    same bounds, gap and iteration count as the run on
    `equivalent_channel_matrix`, up to floating-point rounding. The result's
    input_pmf is the law over map orbits. The ceiling still counts the
    all-maps table.
    """
    _check_oracle_size(config.F, channel.J)
    orbit_sizes, h = orbit_channel(channel, config)
    f_h_u = outer_bound(channel, config) + _mean_noise_entropy(channel, config)
    return blahut_arimoto(
        np.ones((len(h), 1)),
        row_const=f_h_u - h,
        r0=orbit_sizes / strategy_space_size(config.F),
    )


def oracle_capacity(channel, config):
    """Brute-force capacity over every admissible strategy map."""
    return oracle_solve(channel, config).capacity


def secondary_capacity(channel, config):
    """Capacity report of the constructed lcm-sized uniform strategy set."""
    sset = decompose_paths(build_weighted_graph(config.F))
    return mutual_info_TY(channel, config, sset)


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
