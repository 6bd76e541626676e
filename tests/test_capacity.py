from math import comb, log2

import numpy as np
import pytest

import reference as ref
from reorderchan import (
    BinaryInputChannel,
    FrameConfig,
    Multisymbol,
    OracleTooLarge,
    StrategySet,
    basic_multisymbol,
    binary_entropy,
    blahut_arimoto,
    build_weighted_graph,
    c_xy,
    channel_preset,
    decompose_paths,
    entropy_bits,
    enumerate_weight_class,
    errorless_capacity,
    full_permutation_set,
    induced_input_pmf,
    is_minimal,
    multisymbol_strings,
    mutual_info_TY,
    oracle_capacity,
    outer_bound,
    secondary_capacity,
    single_use_mutual_info,
    sweep_point,
    z_fixed_input_capacity,
    z_point_capacity,
)
from reorderchan import capacity
from reorderchan.capacity import (
    ORACLE_ENV_VAR,
    equivalent_channel_matrix,
    oracle_entry_limit,
    strategy_space_size,
)
from reorderchan.frame_space import symbol_string

FIG_PAIR = decompose_paths(build_weighted_graph(2))


def test_single_use_mutual_info():
    assert single_use_mutual_info(channel_preset("bsc", 0.1), 0.3) == pytest.approx(
        0.45582311138374887, abs=1e-12
    )
    # erasure passes the input entropy through with weight 1-p
    assert single_use_mutual_info(channel_preset("erasure", 0.2), 0.5) == pytest.approx(0.8)
    assert single_use_mutual_info(channel_preset("z", 0.3), 0.4) == pytest.approx(
        0.5029344508678535, abs=1e-12
    )


def test_outer_bound_scales_with_f():
    ch = channel_preset("bsc", 0.15)
    one = single_use_mutual_info(ch, 0.35)
    for F in (1, 3, 7):
        assert outer_bound(ch, FrameConfig(F, 0.35)) == pytest.approx(F * one, abs=1e-12)


def test_c_xy_erasure_closed_form():
    for F in (1, 2, 3, 5):
        got = c_xy(channel_preset("erasure", 0.2), FrameConfig(F, 0.5))
        assert got == pytest.approx(0.8 * F, abs=1e-9)


def test_c_xy_matches_reference():
    got = c_xy(channel_preset("erasure", 0.1), FrameConfig(3, 0.3))
    assert got == pytest.approx(2.3794854279228708, abs=1e-10)
    want = ref.input_output_mutual_info("erasure", 0.1, ref.class_uniform_law(3, 0.3))
    assert got == pytest.approx(want, abs=1e-10)


def test_noiseless_pair_carries_half_a_bit():
    report = mutual_info_TY(channel_preset("bsc", 0.0), FrameConfig(2, 0.5), FIG_PAIR)
    assert report.i_ty == pytest.approx(0.5, abs=1e-12)
    assert report.method == "constructed"


def test_constructed_rate_frozen_values():
    # pinned by the string-space join in reference.py
    got = secondary_capacity(channel_preset("erasure", 0.2), FrameConfig(3, 0.5))
    assert got.i_ty == pytest.approx(0.910150276050611, abs=1e-9)
    got_z = secondary_capacity(channel_preset("z", 0.1), FrameConfig(3, 0.5))
    assert got_z.i_ty == pytest.approx(0.863437322258061, abs=1e-9)


def test_constructed_rate_matches_reference_join():
    strategies = [("000", "001", "011", "111"), ("000", "010", "110", "111"), ("000", "100", "101", "111")]
    for kind, p in (("bsc", 0.15), ("z", 0.3)):
        got = secondary_capacity(channel_preset(kind, p), FrameConfig(3, 0.4)).i_ty
        want = ref.strategy_set_mutual_info(kind, p, 0.4, strategies, [1 / 3] * 3)
        assert got == pytest.approx(want, abs=1e-10)


def test_degenerate_points_carry_nothing():
    sset = decompose_paths(build_weighted_graph(3))
    for a in (0.0, 1.0):
        report = mutual_info_TY(channel_preset("bsc", 0.1), FrameConfig(3, a), sset)
        assert report.i_ty == pytest.approx(0.0, abs=1e-12)
    all_erased = mutual_info_TY(channel_preset("erasure", 1.0), FrameConfig(3, 0.5), sset)
    assert all_erased.i_ty == pytest.approx(0.0, abs=1e-12)


def test_report_parts_are_consistent():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(3, 0.5)
    sset = decompose_paths(build_weighted_graph(3))
    report = mutual_info_TY(ch, cfg, sset)
    within = sum(
        w * ref.strategy_mutual_info("erasure", 0.2, 0.5, multisymbol_strings(m))
        for m, w in zip(sset.multisymbols, sset.pmf)
    )
    assert report.i_xy_given_t == pytest.approx(within, abs=1e-12)
    assert report.i_ty == pytest.approx(report.i_xy - report.i_xy_given_t, abs=1e-12)
    # the constructed set induces the class-uniform law, so i_xy hits c_xy
    assert report.i_xy == pytest.approx(report.c_xy, abs=1e-9)
    assert report.i_xy == pytest.approx(2.4, abs=1e-9)


def test_report_i_xy_matches_reference():
    cfg = FrameConfig(3, 0.4)
    sset = decompose_paths(build_weighted_graph(3))
    report = mutual_info_TY(channel_preset("bsc", 0.2), cfg, sset)
    pmf_s = ref.state_probs(3, 0.4)
    law = {}
    for m in sset.multisymbols:
        for s, x in enumerate(m.reps):
            key = symbol_string(3, x)
            law[key] = law.get(key, 0.0) + pmf_s[s] / 3
    want = ref.input_output_mutual_info("bsc", 0.2, law)
    assert report.i_xy == pytest.approx(want, abs=1e-10)


def test_rate_splits_as_best_minus_within():
    # every constructed strategy wastes the same within-strategy information
    for kind in ("erasure", "bsc", "z"):
        ch = channel_preset(kind, 0.2)
        cfg = FrameConfig(4, 0.4)
        report = secondary_capacity(ch, cfg)
        within = ref.strategy_mutual_info(kind, 0.2, 0.4, multisymbol_strings(basic_multisymbol(4)))
        assert report.i_ty == pytest.approx(report.c_xy - within, abs=1e-9)


def test_single_strategy_set_carries_nothing():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(3, 0.5)
    sset = StrategySet((basic_multisymbol(3),), (1.0,))
    report = mutual_info_TY(ch, cfg, sset)
    assert report.i_ty == pytest.approx(0.0, abs=1e-12)
    within = ref.strategy_mutual_info("erasure", 0.2, 0.5, ("000", "001", "011", "111"))
    assert report.i_xy == pytest.approx(within, abs=1e-12)


def test_lcm_and_permutation_sets_agree():
    for F in (2, 3, 4, 5):
        ch = channel_preset("erasure", 0.2)
        cfg = FrameConfig(F, 0.4)
        small = mutual_info_TY(ch, cfg, decompose_paths(build_weighted_graph(F)))
        full = mutual_info_TY(ch, cfg, full_permutation_set(F))
        assert small.i_ty == pytest.approx(full.i_ty, abs=1e-9)


def test_mutual_info_ty_checks_f():
    with pytest.raises(ValueError):
        mutual_info_TY(channel_preset("bsc", 0.1), FrameConfig(3, 0.5), FIG_PAIR)


def test_rate_decreases_with_noise():
    vals = [
        secondary_capacity(channel_preset("erasure", p), FrameConfig(3, 0.5)).i_ty
        for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(hi >= lo - 1e-12 for hi, lo in zip(vals, vals[1:]))


def test_errorless_capacity():
    assert errorless_capacity(FrameConfig(4, 0.5)) == pytest.approx(1.9693609377704335, abs=1e-14)
    assert errorless_capacity(FrameConfig(3, 0.3)) == pytest.approx(0.9985263754543282, abs=1e-14)
    assert errorless_capacity(FrameConfig(1, 0.4)) == 0.0
    pmf = ref.state_probs(5, 0.2)
    want = sum(pmf[s] * log2(comb(5, s)) for s in range(6))
    assert errorless_capacity(FrameConfig(5, 0.2)) == pytest.approx(want, abs=1e-14)


def test_noiseless_construction_is_errorless():
    ch = channel_preset("bsc", 0.0)
    for F in (2, 4):
        for a in (0.2, 0.5):
            cfg = FrameConfig(F, a)
            got = secondary_capacity(ch, cfg).i_ty
            assert got == pytest.approx(errorless_capacity(cfg), abs=1e-9)


def test_z_point_capacity():
    assert z_point_capacity(0.0) == 1.0
    assert z_point_capacity(1.0) == 0.0
    assert z_point_capacity(0.25) == pytest.approx(0.5582386267373455, abs=1e-14)
    grid = [z_point_capacity(p) for p in np.linspace(0, 1, 21)]
    assert all(hi >= lo for hi, lo in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        z_point_capacity(1.5)


def test_z_fixed_input_capacity():
    assert z_fixed_input_capacity(0.4, 0.3) == pytest.approx(0.5029344508678535, abs=1e-14)
    assert z_fixed_input_capacity(0.0, 0.3) == 0.0
    assert z_fixed_input_capacity(0.5, 0.0) == 1.0
    # the formula is the one-slot rate, so F=1 class-uniform evaluation agrees
    for a in (0.1, 0.4, 0.8):
        for p in (0.0, 0.2, 0.7):
            got = c_xy(channel_preset("z", p), FrameConfig(1, a))
            assert got == pytest.approx(z_fixed_input_capacity(a, p), abs=1e-12)
    with pytest.raises(ValueError):
        z_fixed_input_capacity(1.2, 0.5)


def test_strategy_space_size():
    assert strategy_space_size(2) == 2
    assert strategy_space_size(3) == 9
    assert strategy_space_size(4) == 96
    assert strategy_space_size(5) == 2500


def test_oracle_entry_limit_env(monkeypatch):
    monkeypatch.delenv("REORDERCHAN_ORACLE_MAX_ENTRIES", raising=False)
    assert oracle_entry_limit() == 2_000_000
    monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", "12345")
    assert oracle_entry_limit() == 12345


@pytest.mark.parametrize("raw", ["abc", "-5", "1.5", "1e6"])
def test_oracle_entry_limit_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("REORDERCHAN_ORACLE_MAX_ENTRIES", raw)
    with pytest.raises(ValueError, match="nonnegative integer"):
        oracle_entry_limit()


def test_equivalent_channel_matrix():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(2, 0.5)
    W = equivalent_channel_matrix(ch, cfg)
    assert W.shape == (2, 9)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
    # first strategy map is the staircase (00, 01, 11)
    rows = ref.channel_rows("erasure", 0.2)
    pmf_s = ref.state_probs(2, 0.5)
    for y, ys in enumerate(ref.all_outputs("erasure", 2)):
        want = sum(pmf_s[s] * ref.likelihood(rows, x, ys) for s, x in enumerate(("00", "01", "11")))
        assert W[0, y] == pytest.approx(want, abs=1e-14)


def test_equivalent_channel_matrix_shape_f4():
    W = equivalent_channel_matrix(channel_preset("bsc", 0.1), FrameConfig(4, 0.3))
    assert W.shape == (96, 16)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


def test_equivalent_channel_matrix_limit(monkeypatch):
    monkeypatch.setenv(ORACLE_ENV_VAR, "10")
    with pytest.raises(ValueError, match="REORDERCHAN_ORACLE_MAX_ENTRIES"):
        equivalent_channel_matrix(channel_preset("bsc", 0.1), FrameConfig(4, 0.3))
    with pytest.raises(OracleTooLarge):
        equivalent_channel_matrix(channel_preset("bsc", 0.1), FrameConfig(4, 0.3))


def test_blahut_arimoto_closed_forms():
    bsc = blahut_arimoto(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert bsc.capacity == pytest.approx(1 - binary_entropy(0.1), abs=1e-9)
    assert bsc.gap < 1e-10
    assert abs(sum(bsc.input_pmf) - 1.0) < 1e-12
    erasure = blahut_arimoto(np.array([[0.8, 0.0, 0.2], [0.0, 0.8, 0.2]]))
    assert erasure.capacity == pytest.approx(0.8, abs=1e-9)
    z = blahut_arimoto(np.array([[1.0, 0.0], [0.3, 0.7]]))
    assert z.capacity == pytest.approx(z_point_capacity(0.3), abs=1e-9)


def test_blahut_arimoto_validation():
    with pytest.raises(ValueError):
        blahut_arimoto(np.array([[0.9, 0.2], [0.1, 0.9]]))
    with pytest.raises(ValueError):
        blahut_arimoto(np.array([[1.1, -0.1], [0.5, 0.5]]))
    # the symmetric table converges instantly, so use a skewed one here
    with pytest.raises(RuntimeError, match="gap"):
        blahut_arimoto(np.array([[1.0, 0.0], [0.3, 0.7]]), tol=1e-16, max_iter=2)


def test_oracle_matches_errorless_when_noiseless():
    cfg = FrameConfig(3, 0.4)
    got = oracle_capacity(channel_preset("bsc", 0.0), cfg)
    assert got == pytest.approx(errorless_capacity(cfg), abs=1e-6)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_oracle_repeats_the_all_maps_iteration(kind):
    # the full path lumps nothing, so agreement cannot close by construction
    for F in range(1, 6):
        for p in (0.1, 0.2):
            for a in (0.3, 0.5):
                ch, cfg = channel_preset(kind, p), FrameConfig(F, a)
                full = blahut_arimoto(equivalent_channel_matrix(ch, cfg))
                orbits = capacity.oracle_solve(ch, cfg)
                assert abs(orbits.capacity - full.capacity) < 1e-12, (F, p, a)
                assert orbits.iterations == full.iterations, (F, p, a)


FOUR_LETTERS = BinaryInputChannel((0.6, 0.25, 0.1, 0.05), (0.05, 0.15, 0.3, 0.5), "0123")


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z", "four"])
def test_every_map_sends_the_output_composition_to_the_product_law(monkeypatch, kind):
    # the premise behind the oracle's single output class, checked on the unlumped table
    monkeypatch.setenv(ORACLE_ENV_VAR, str(2500 * 4**5))
    ch = FOUR_LETTERS if kind == "four" else channel_preset(kind, 0.2)
    J = ch.J
    for a in (0.3, 0.7):
        u = (1.0 - a) * np.asarray(ch.q0) + a * np.asarray(ch.q1)
        for F in range(1, 6):
            W = equivalent_channel_matrix(ch, FrameConfig(F, a))
            ranks = capacity._type_ranks(F, J, np.arange(J**F))
            digits = np.array([[(y // J ** (F - 1 - f)) % J for f in range(F)] for y in range(J**F)])
            multinomial = np.bincount(ranks, weights=np.prod(u[digits], axis=1))
            lumped = np.stack([np.bincount(ranks, weights=row) for row in W])
            assert np.abs(lumped - multinomial).max() < 1e-14, (a, F)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_channel_structure(kind):
    ch = channel_preset(kind, 0.2)
    counts = []
    for F in range(1, 7):
        cfg = FrameConfig(F, 0.4)
        orbit_sizes, h = capacity.orbit_channel(ch, cfg)
        counts.append(len(orbit_sizes))
        assert orbit_sizes.sum() == strategy_space_size(F)
        if F > 4:
            continue
        # group the full table's rows by the multiset of per-position columns
        members = {}
        row_h = entropy_bits(equivalent_channel_matrix(ch, cfg))
        for reps, h_row in zip(capacity._all_maps(F), row_h):
            key = tuple(sorted(tuple((int(x) >> (F - 1 - f)) & 1 for x in reps) for f in range(F)))
            members.setdefault(key, []).append(h_row)
        assert all(max(hs) - min(hs) < 1e-12 for hs in members.values())
        want = sorted((len(hs), hs[0]) for hs in members.values())
        got = sorted(zip(orbit_sizes.tolist(), h.tolist()))
        assert [n for n, _ in got] == [n for n, _ in want]
        assert np.allclose([x for _, x in got], [x for _, x in want], rtol=0, atol=1e-12)
    assert counts == [1, 1, 2, 6, 34, 374]


def test_oracle_solve_keeps_the_all_maps_ceiling(monkeypatch):
    ch, cfg = channel_preset("bsc", 0.1), FrameConfig(4, 0.3)
    monkeypatch.setenv(ORACLE_ENV_VAR, str(96 * 16 - 1))
    with pytest.raises(OracleTooLarge, match="96 x 16 entries"):
        capacity.oracle_solve(ch, cfg)
    monkeypatch.setenv(ORACLE_ENV_VAR, str(96 * 16))
    assert capacity.oracle_solve(ch, cfg).gap < 1e-10


def test_sweep_point_fields():
    row = sweep_point("erasure", 0.2, 0.5, 2)
    report = secondary_capacity(channel_preset("erasure", 0.2), FrameConfig(2, 0.5))
    assert row.preset == "erasure"
    assert (row.F, row.a, row.p) == (2, 0.5, 0.2)
    assert row.c_constructed == pytest.approx(report.i_ty, abs=1e-12)
    assert row.c_xy == pytest.approx(report.c_xy, abs=1e-12)
    assert row.outer_bound == pytest.approx(report.outer_bound, abs=1e-12)
    assert row.c_errorless == pytest.approx(errorless_capacity(FrameConfig(2, 0.5)), abs=1e-12)
    assert row.c_oracle == pytest.approx(row.c_constructed, abs=1e-6)


def test_sweep_point_oracle_skipped_over_limit(monkeypatch):
    monkeypatch.setenv(ORACLE_ENV_VAR, "0")
    row = sweep_point("erasure", 0.2, 0.5, 3)
    assert row.c_oracle is None
    assert row.c_constructed > 0


def test_sweep_point_keeps_other_oracle_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a size problem")

    monkeypatch.setattr(capacity, "oracle_capacity", broken)
    with pytest.raises(ValueError, match="not a size problem"):
        sweep_point("erasure", 0.2, 0.5, 2)


def _bit_strings(sset):
    return [tuple(symbol_string(m.F, x) for x in m.reps) for m in sset.multisymbols]


def _assert_orbit_matches_enumeration(ch, cfg, sset):
    assert capacity._is_staircase_orbit(sset)
    report = mutual_info_TY(ch, cfg, sset)
    assert report.method == "constructed"
    i_ty, i_xy, i_xy_given_t = capacity._enumerated_rates(ch, cfg, sset)
    assert report.i_ty == pytest.approx(i_ty, abs=1e-9)
    assert report.i_xy == pytest.approx(i_xy, abs=1e-9)
    assert report.i_xy_given_t == pytest.approx(i_xy_given_t, abs=1e-9)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_path_matches_enumeration(kind):
    for F in range(1, 9):
        sset = decompose_paths(build_weighted_graph(F))
        for p, a in ((0.2, 0.5), (0.05, 0.25), (0.4, 0.8)):
            _assert_orbit_matches_enumeration(channel_preset(kind, p), FrameConfig(F, a), sset)


def test_orbit_path_matches_enumeration_erasure_f9():
    sset = decompose_paths(build_weighted_graph(9))
    _assert_orbit_matches_enumeration(channel_preset("erasure", 0.15), FrameConfig(9, 0.35), sset)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_path_matches_enumeration_on_permutation_set(kind):
    # the enumeration needs about 18 s for the F! orbit at erasure F = 8
    for F in range(1, 8 if kind == "erasure" else 9):
        sset = full_permutation_set(F)
        for p, a in ((0.2, 0.5), (0.3, 0.7))[F // 8 :]:
            _assert_orbit_matches_enumeration(channel_preset(kind, p), FrameConfig(F, a), sset)


def test_orbit_path_matches_enumeration_four_letters():
    for F in range(1, 7):
        sset = decompose_paths(build_weighted_graph(F))
        _assert_orbit_matches_enumeration(FOUR_LETTERS, FrameConfig(F, 0.35), sset)


def test_type_ranks_index_compositions():
    F, J = 5, 4
    cols = np.arange(J**F)
    ranks = capacity._type_ranks(F, J, cols)
    digits = np.array([[(y // J ** (F - 1 - f)) % J for f in range(F)] for y in cols])
    compositions = {}
    for r, row in zip(ranks, digits):
        compositions.setdefault(int(r), set()).add(tuple(np.bincount(row, minlength=J)))
    assert sorted(compositions) == list(range(comb(F + J - 1, J - 1)))
    assert all(len(c) == 1 for c in compositions.values())


def _swap_state(sset, t1, t2, s):
    multis = list(sset.multisymbols)
    r1, r2 = list(multis[t1].reps), list(multis[t2].reps)
    r1[s], r2[s] = r2[s], r1[s]
    multis[t1] = Multisymbol(sset.F, tuple(r1))
    multis[t2] = Multisymbol(sset.F, tuple(r2))
    return StrategySet(tuple(multis), sset.pmf)


def test_sets_failing_a_precondition_take_the_general_path():
    lcm3 = decompose_paths(build_weighted_graph(3))
    lcm4 = decompose_paths(build_weighted_graph(4))
    # swapping two strategies' state-2 symbols keeps the coverage even; pick a
    # partner whose state-1 symbol is not inside strategy 0's state-2 symbol
    top = lcm4.multisymbols[0].reps[2]
    t2 = next(t for t, m in enumerate(lcm4.multisymbols) if m.reps[1] & ~top)
    swapped = _swap_state(lcm4, 0, t2, 2)
    cfg4 = FrameConfig(4, 0.3)
    assert np.array_equal(induced_input_pmf(swapped, cfg4), induced_input_pmf(lcm4, cfg4))
    assert not all(is_minimal(m) for m in swapped.multisymbols)
    chains = [basic_multisymbol(3), lcm3.multisymbols[1]]
    cases = {
        "unequal pmf": StrategySet(lcm3.multisymbols, (0.5, 0.3, 0.2)),
        "non-chain strategies": swapped,
        "single staircase": StrategySet((basic_multisymbol(3),), (1.0,)),
        "two chains": StrategySet(tuple(chains), (0.5, 0.5)),
    }
    for name, sset in cases.items():
        assert not capacity._is_staircase_orbit(sset), name
        for kind, p, a in (("erasure", 0.2, 0.4), ("bsc", 0.1, 0.6), ("z", 0.3, 0.5)):
            report = mutual_info_TY(channel_preset(kind, p), FrameConfig(sset.F, a), sset)
            want = ref.strategy_set_mutual_info(kind, p, a, _bit_strings(sset), sset.pmf)
            assert report.i_ty == pytest.approx(want, abs=1e-10), name


def test_orbit_closed_forms_at_f12():
    lcm12 = decompose_paths(build_weighted_graph(12))
    for a in (0.3, 0.5):
        cfg = FrameConfig(12, a)
        for kind in ("erasure", "z"):
            report = mutual_info_TY(channel_preset(kind, 0.0), cfg, lcm12)
            assert report.i_ty == pytest.approx(errorless_capacity(cfg), abs=1e-9)
        report = mutual_info_TY(channel_preset("bsc", 0.5), cfg, lcm12)
        assert report.i_ty == pytest.approx(0.0, abs=1e-9)


def test_orbit_split_check_is_live(monkeypatch):
    # the orbit path takes I(X;Y) from the one-slot closed form and H(Y) from
    # the type average; a nudged closed form must break the split check
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(5, 0.4)
    sset = decompose_paths(build_weighted_graph(5))
    mutual_info_TY(ch, cfg, sset)
    honest = capacity.single_use_mutual_info
    monkeypatch.setattr(capacity, "single_use_mutual_info", lambda c, a: honest(c, a) + 1e-6)
    with pytest.raises(RuntimeError, match="split"):
        mutual_info_TY(ch, cfg, sset)


def _random_set(F, n, seed):
    """n strategies with a random representative per state and a random pmf."""
    rng = np.random.default_rng(seed)
    classes = [enumerate_weight_class(F, s) for s in range(F + 1)]
    multis = [Multisymbol(F, tuple(int(rng.choice(c)) for c in classes)) for _ in range(n)]
    pmf = rng.dirichlet(np.ones(n))
    return StrategySet(tuple(multis), tuple(pmf / pmf.sum()))


def test_random_set_reports_enumerated():
    sset = _random_set(4, 20, seed=3)
    report = mutual_info_TY(channel_preset("bsc", 0.1), FrameConfig(4, 0.4), sset)
    assert report.method == "enumerated"
    want = ref.strategy_set_mutual_info("bsc", 0.1, 0.4, _bit_strings(sset), sset.pmf)
    assert report.i_ty == pytest.approx(want, abs=1e-10)


def test_general_rates_do_not_depend_on_block_width(monkeypatch):
    # 729 erasure outputs at F = 6: one block by default, eight of 100 here,
    # so both H(Y) sums and the split check run across block boundaries
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(6, 0.4)
    sset = _random_set(6, 50, seed=5)
    whole = mutual_info_TY(ch, cfg, sset)
    monkeypatch.setattr(capacity, "BLOCK_COLS", 100)
    blocked = mutual_info_TY(ch, cfg, sset)
    for name in ("i_ty", "i_xy", "i_xy_given_t"):
        assert getattr(blocked, name) == pytest.approx(getattr(whole, name), abs=1e-12), name
