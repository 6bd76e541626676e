import tracemalloc
from itertools import product
from math import comb, factorial, log2

import numpy as np
import pytest

import reference as ref
from reorderchan import (
    BinaryInputChannel,
    FrameConfig,
    Multisymbol,
    OracleTooLarge,
    StrategySet,
    binary_entropy,
    blahut_arimoto,
    build_weighted_graph,
    c_xy,
    channel_preset,
    decompose_paths,
    entropy_bits,
    enumerate_weight_class,
    errorless_capacity,
    induced_input_pmf,
    likelihood_rows,
    mutual_info_TY,
    oracle_capacity,
    outer_bound,
    secondary_capacity,
    single_use_mutual_info,
    sweep_point,
    symbol_string,
    z_fixed_input_capacity,
    z_point_capacity,
)
from reorderchan import capacity, frame_space
from reorderchan.capacity import ORBIT_BYTES, equivalent_channel_matrix, strategy_space_size
from reorderchan.frame_space import mix_states, state_pmf, weight_table
from reorderchan.strategy import strategy_table
from test_strategy import STAIR3, permutation_set

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
        w * ref.strategy_mutual_info("erasure", 0.2, 0.5, strings)
        for strings, w in zip(_bit_strings(sset), sset.pmf)
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
        within = ref.strategy_mutual_info(kind, 0.2, 0.4, ("0000", "0001", "0011", "0111", "1111"))
        assert report.i_ty == pytest.approx(report.c_xy - within, abs=1e-9)


def test_single_strategy_set_carries_nothing():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(3, 0.5)
    sset = StrategySet((STAIR3,), (1.0,))
    report = mutual_info_TY(ch, cfg, sset)
    assert report.i_ty == pytest.approx(0.0, abs=1e-12)
    within = ref.strategy_mutual_info("erasure", 0.2, 0.5, ("000", "001", "011", "111"))
    assert report.i_xy == pytest.approx(within, abs=1e-12)


def test_lcm_and_permutation_sets_agree():
    for F in (2, 3, 4, 5):
        ch = channel_preset("erasure", 0.2)
        cfg = FrameConfig(F, 0.4)
        small = mutual_info_TY(ch, cfg, decompose_paths(build_weighted_graph(F)))
        full = mutual_info_TY(ch, cfg, permutation_set(F))
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
    # 16 likelihood rows plus 96 maps and their scratch over 16 outputs, and 3 x 96 x 5 map cells
    ch, cfg = channel_preset("bsc", 0.1), FrameConfig(4, 0.3)
    cells = (16 + 2 * 96) * 16 + 3 * 96 * 5
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 8 * cells - 1)
    with pytest.raises(OracleTooLarge, match=f"all-maps table needs {cells} cells at 8 bytes") as info:
        equivalent_channel_matrix(ch, cfg)
    assert str(info.value).endswith(f", over {8 * cells - 1} bytes")
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 8 * cells)
    assert equivalent_channel_matrix(ch, cfg).shape == (96, 16)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
@pytest.mark.parametrize("F", [4, 5])
def test_equivalent_channel_matrix_rule_bounds_its_peak(monkeypatch, kind, F):
    ch, cfg = channel_preset(kind, 0.2), FrameConfig(F, 0.5)
    tracemalloc.start()
    try:
        equivalent_channel_matrix(ch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rule counts at least what the call allocated, so a byte under that peak refuses it
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", peak - 1)
    with pytest.raises(OracleTooLarge, match="all-maps table"):
        equivalent_channel_matrix(ch, cfg)


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
    # a row summing to 1.000008 passes allclose's default rtol of 1e-5, not the 1e-9 rule
    for bad in ([[0.500008, 0.5], [0.4, 0.6]], [[np.nan, 0.5], [0.4, 0.6]]):
        with pytest.raises(ValueError, match="probability rows"):
            blahut_arimoto(np.array(bad))
    # the symmetric table converges instantly, so use a skewed one here
    with pytest.raises(RuntimeError, match="gap"):
        blahut_arimoto(np.array([[1.0, 0.0], [0.3, 0.7]]), tol=1e-16, max_iter=2)


def test_oracle_matches_errorless_when_noiseless():
    cfg = FrameConfig(3, 0.4)
    got = oracle_capacity(channel_preset("bsc", 0.0), cfg)
    assert got == pytest.approx(errorless_capacity(cfg), abs=1e-6)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_oracle_repeats_the_all_maps_iteration(kind):
    # the full path lumps nothing, so agreement cannot close by construction;
    # its converged capacity is a lower bound on C, within its gap of it
    for F in range(1, 6):
        for p in (0.1, 0.2):
            for a in (0.3, 0.5):
                ch, cfg = channel_preset(kind, p), FrameConfig(F, a)
                full = blahut_arimoto(equivalent_channel_matrix(ch, cfg))
                orbits = capacity.oracle_solve(ch, cfg)
                assert full.capacity - 1e-12 <= orbits.capacity, (F, p, a)
                assert orbits.capacity <= full.capacity + full.gap + 1e-12, (F, p, a)
                assert (orbits.gap, orbits.iterations) == (0.0, 1), (F, p, a)


ORACLE_P = (0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1)
ORACLE_A = (0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_oracle_is_the_staircase_rate_on_the_whole_grid(kind):
    # an iterated solve failed to converge at 22 of these 405 x 3 points,
    # bsc at p = 0.4, a = 0.1, F = 4 among them
    for F in range(1, 6):
        for p in ORACLE_P:
            for a in ORACLE_A:
                ch, cfg = channel_preset(kind, p), FrameConfig(F, a)
                got = capacity.oracle_solve(ch, cfg)
                assert (got.gap, got.iterations) == (0.0, 1), (F, p, a)
                assert abs(got.capacity - secondary_capacity(ch, cfg).i_ty) <= 1e-12, (F, p, a)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_oracle_is_the_best_map_by_package_free_enumeration(kind):
    # every map from itertools.product over the weight classes, scored by
    # tests/reference.py alone: C = max_t F H(u) - H(Y | T = t)
    rows = ref.channel_rows(kind, 0.2)
    for F in range(1, 5):
        symbols = ["".join(bits) for bits in product("01", repeat=F)]
        classes = [[x for x in symbols if x.count("1") == s] for s in range(F + 1)]
        for a in (0.3, 0.5):
            u = [(1 - a) * rows["0"][y] + a * rows["1"][y] for y in ref.letters(kind)]
            f_h_u = F * ref.entropy(u)
            best = max(
                f_h_u - ref.strategy_output_entropy(kind, 0.2, a, reps) for reps in product(*classes)
            )
            got = oracle_capacity(channel_preset(kind, 0.2), FrameConfig(F, a))
            assert abs(got - best) <= 1e-12, (F, a)


FOUR_LETTERS = BinaryInputChannel((0.6, 0.25, 0.1, 0.05), (0.05, 0.15, 0.3, 0.5), "0123")


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z", "four"])
def test_every_map_sends_the_output_composition_to_the_product_law(kind):
    # the premise behind the oracle's single output class, checked on the unlumped table
    ch = FOUR_LETTERS if kind == "four" else channel_preset(kind, 0.2)
    J = ch.J
    for a in (0.3, 0.7):
        u = (1.0 - a) * np.asarray(ch.q0) + a * np.asarray(ch.q1)
        for F in range(1, 6):
            W = equivalent_channel_matrix(ch, FrameConfig(F, a))
            digits = np.array([[(y // J ** (F - 1 - f)) % J for f in range(F)] for y in range(J**F)])
            # outputs grouped by their letter counts
            counts = np.array([np.bincount(row, minlength=J) for row in digits])
            types = np.unique(counts, axis=0, return_inverse=True)[1].ravel()
            multinomial = np.bincount(types, weights=np.prod(u[digits], axis=1))
            lumped = np.stack([np.bincount(types, weights=row) for row in W])
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


def test_oracle_solve_refuses_its_orbit_table_in_bytes(monkeypatch):
    # S // F! = 96 // 24 = 4 at F = 4, where 6 orbits exist
    ch, cfg = channel_preset("bsc", 0.1), FrameConfig(4, 0.3)
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 4 * ORBIT_BYTES - 1)
    with pytest.raises(OracleTooLarge, match=f"orbit partition needs 4 x {ORBIT_BYTES} bytes") as info:
        capacity.oracle_solve(ch, cfg)
    assert str(info.value).endswith(f", over {4 * ORBIT_BYTES - 1} bytes")
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 4 * ORBIT_BYTES)
    assert capacity.oracle_solve(ch, cfg).gap == 0.0


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_oracle_refuses_f9_before_building_anything(kind):
    # F = 6, 7 and 8 run by default: see test_acceptance_1_at_f6, _at_f7 and _at_f8
    tracemalloc.start()
    try:
        with pytest.raises(OracleTooLarge, match="orbit partition needs 32406091 x"):
            capacity.oracle_solve(channel_preset(kind, 0.2), FrameConfig(9, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_runs_a_four_letter_channel_at_f7():
    # the rule sizes the partition alone, so J = 4 at F = 7 (16 384 outputs) is admitted
    ch = BinaryInputChannel((0.4, 0.3, 0.2, 0.1), (0.1, 0.1, 0.1, 0.7), "abcd")
    cfg = FrameConfig(7, 0.5)
    oracle = capacity.oracle_solve(ch, cfg)
    assert oracle.gap == 0.0
    assert abs(oracle.capacity - secondary_capacity(ch, cfg).i_ty) <= 1e-12


def _orbit_floor(F):
    """S // F!, the oracle's count of orbits in its byte rule."""
    return strategy_space_size(F) // factorial(F)


def test_orbit_rule_bounds_the_partition_it_builds():
    # F = 8 is checked in the F = 8 partition test, which builds that partition uncached
    for F in (6, 7):
        tracemalloc.start()
        try:
            capacity._map_orbits.__wrapped__(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _orbit_floor(F) * ORBIT_BYTES, F
    for F in range(1, 9):
        assert _orbit_floor(F) <= len(capacity._map_orbits(F)[0]), F


def _all_maps_partition(F):
    """(orbit_sizes, reps) from the list of every map: sort each map's position columns.

    Column f has bit s set when rep_s has a 1 at position f. np.unique over the
    sorted column rows counts each orbit's members and keeps its first map.
    """
    maps = capacity._all_maps(F)
    shifts = np.arange(F - 1, -1, -1, dtype=np.int64)
    cols = np.zeros((len(maps), F), dtype=np.int64)
    for s in range(F + 1):
        cols |= ((maps[:, s, None] >> shifts) & 1) << s
    cols.sort(axis=1)
    _, first, orbit_sizes = np.unique(cols, axis=0, return_index=True, return_counts=True)
    return orbit_sizes, maps[first]


def test_map_orbits_are_read_only_and_equal_a_fresh_partition():
    for F in range(1, 7):
        orbit_sizes, reps = capacity._map_orbits(F)
        assert capacity._map_orbits(F)[1] is reps
        want_sizes, want_reps = _all_maps_partition(F)
        assert np.array_equal(orbit_sizes, want_sizes) and np.array_equal(reps, want_reps)
        assert reps.shape == (len(orbit_sizes), F + 1)
        for arr in (orbit_sizes, reps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    orbit_sizes, reps = capacity._map_orbits(7)
    assert len(orbit_sizes) == 8535 and orbit_sizes.sum() == strategy_space_size(7)


def test_map_orbits_at_f8_grow_nine_bit_columns_in_bounded_memory():
    # F = 8 is the first F whose F + 1 bit columns pass 8 bits; the uncached
    # call peaks near 75 MB, where int64 columns peaked at 200 MB
    tracemalloc.start()
    try:
        orbit_sizes, reps = capacity._map_orbits.__wrapped__(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 110e6
    assert orbit_sizes.dtype == reps.dtype == np.int64
    assert len(orbit_sizes) == 423076 and orbit_sizes.sum() == strategy_space_size(8)
    assert np.all(weight_table(8)[reps] == np.arange(9))
    assert peak <= _orbit_floor(8) * ORBIT_BYTES
    assert _orbit_floor(8) <= len(orbit_sizes)


def test_a_cached_partition_does_not_lift_the_ceiling(monkeypatch):
    ch, cfg = channel_preset("bsc", 0.2), FrameConfig(6, 0.5)
    assert capacity.oracle_solve(ch, cfg).gap == 0.0
    calls = capacity._map_orbits.cache_info()
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 225 * ORBIT_BYTES - 1)
    with pytest.raises(OracleTooLarge, match=f"orbit partition needs 225 x {ORBIT_BYTES} bytes"):
        capacity.oracle_solve(ch, cfg)
    assert capacity._map_orbits.cache_info() == calls
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 225 * ORBIT_BYTES)
    assert capacity.oracle_solve(ch, cfg).gap == 0.0


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
    # the constructed rate's split tables take 864 bytes at erasure F = 4, the oracle's
    # partition 4 x ORBIT_BYTES = 1 536. At F = 3 the partition's 384 bytes are under the 432
    # of the constructed rate's tables, so no ceiling skips the oracle alone there
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 4 * ORBIT_BYTES - 1)
    row = sweep_point("erasure", 0.2, 0.5, 4)
    assert row.c_oracle is None
    assert row.c_constructed > 0
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 4 * ORBIT_BYTES)
    row = sweep_point("erasure", 0.2, 0.5, 4)
    assert abs(row.c_oracle - row.c_constructed) < 1e-9


def test_sweep_point_keeps_other_oracle_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a size problem")

    monkeypatch.setattr(capacity, "oracle_capacity", broken)
    with pytest.raises(ValueError, match="not a size problem"):
        sweep_point("erasure", 0.2, 0.5, 2)


def _bit_strings(sset):
    return [tuple(symbol_string(sset.F, x) for x in row) for row in sset.reps.tolist()]


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
        sset = permutation_set(F)
        for p, a in ((0.2, 0.5), (0.3, 0.7))[F // 8 :]:
            _assert_orbit_matches_enumeration(channel_preset(kind, p), FrameConfig(F, a), sset)


def test_orbit_path_matches_enumeration_four_letters():
    for F in range(1, 7):
        sset = decompose_paths(build_weighted_graph(F))
        _assert_orbit_matches_enumeration(FOUR_LETTERS, FrameConfig(F, 0.35), sset)


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
    assert not all(ref.is_minimal(m.reps) for m in swapped.multisymbols)
    chains = [STAIR3, lcm3.multisymbols[1]]
    cases = {
        "unequal pmf": StrategySet(lcm3.multisymbols, (0.5, 0.3, 0.2)),
        "non-chain strategies": swapped,
        "single staircase": StrategySet((STAIR3,), (1.0,)),
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


def test_built_set_has_the_unbuilt_constructed_rates():
    # the fact that lets secondary_capacity skip the build: the built set is a
    # staircase orbit, so the set path and the set-free path agree exactly
    channels = [channel_preset(kind, 0.2) for kind in ("erasure", "bsc", "z")]
    for F in range(1, 13):
        sset = decompose_paths(build_weighted_graph(F))
        assert capacity._is_staircase_orbit(sset), F
        # 4^F outputs: FOUR_LETTERS takes about 10 s per evaluation at F = 12
        for ch in channels + [FOUR_LETTERS] * (F <= 9):
            cfg = FrameConfig(F, 0.4)
            report = secondary_capacity(ch, cfg)
            assert report.method == "constructed"
            assert mutual_info_TY(ch, cfg, sset) == report, (F, ch)


def test_constructed_closed_forms_at_f20():
    # L = 11 085 360 strategies at F = 20; the rates never need them
    cfg = FrameConfig(20, 0.3)
    report = secondary_capacity(channel_preset("z", 0.0), cfg)
    assert report.i_ty == pytest.approx(errorless_capacity(cfg), abs=1e-9)
    report = secondary_capacity(channel_preset("bsc", 0.5), cfg)
    assert report.i_ty == pytest.approx(0.0, abs=1e-9)


def test_constructed_closed_forms_at_erasure_f16():
    # 3^16 outputs: a noiseless erasure channel reads the whole state, a p = 1 one nothing
    cfg = FrameConfig(16, 0.3)
    report = secondary_capacity(channel_preset("erasure", 0.0), cfg)
    assert report.i_ty == pytest.approx(errorless_capacity(cfg), abs=1e-9)
    report = secondary_capacity(channel_preset("erasure", 1.0), cfg)
    assert report.i_ty == pytest.approx(0.0, abs=1e-9)


def test_one_strategy_carries_exactly_zero():
    # F = 1 has L = 1, so H(T) = 0 and I(T;Y) is 0 at every point, not a rounding residue
    for kind in ("erasure", "bsc", "z"):
        for p in (k / 20 for k in range(21)):
            for a in (k / 10 for k in range(11)):
                report = secondary_capacity(channel_preset(kind, p), FrameConfig(1, a))
                assert report.i_ty == 0.0, (kind, p, a)


EQUAL_ROWS = BinaryInputChannel((0.3, 0.7), (0.3, 0.7), ("0", "1"))


def _is_plus_zero(v):
    return v == 0.0 and np.copysign(1.0, v) == 1.0


@pytest.mark.parametrize("F", [1, 2, 3, 4])
def test_equal_rows_carry_exactly_zero(F):
    # the output ignores the input, so every rate is an exact 0; rounding left I(X;Y),
    # the outer bound and the oracle at F x -1.1e-16
    cfg = FrameConfig(F, 0.2)
    report = secondary_capacity(EQUAL_ROWS, cfg)
    stair = StrategySet(np.array([[(1 << s) - 1 for s in range(F + 1)]]), (1.0,))
    general = mutual_info_TY(EQUAL_ROWS, cfg, stair)
    values = {
        "outer_bound": outer_bound(EQUAL_ROWS, cfg),
        "c_xy": c_xy(EQUAL_ROWS, cfg),
        "single_use": single_use_mutual_info(EQUAL_ROWS, 0.2),
        "oracle": capacity.oracle_solve(EQUAL_ROWS, cfg).capacity,
    }
    for field in ("i_ty", "i_xy", "i_xy_given_t", "c_xy", "outer_bound"):
        values[field] = getattr(report, field)
        values[f"{general.method} {field}"] = getattr(general, field)
    assert {k: v for k, v in values.items() if not _is_plus_zero(v)} == {}


def test_z_fixed_input_capacity_floors_at_zero():
    # p a ulp under 1 leaves the output all but constant: -3.4e-19 before the floor
    assert _is_plus_zero(z_fixed_input_capacity(0.37, 1 - 2**-53))


def test_split_tables_are_refused_in_bytes_before_they_are_built(monkeypatch):
    # the staircase and its mirror on a four-letter channel at F = 20: A, B and P_x @ B hold
    # 2^30 cells each, about 26 GB; the 2^20 input law the set induces takes 8 MiB of the peak
    stair = [(1 << s) - 1 for s in range(21)]
    sset = StrategySet(np.array([stair, [x << (20 - s) for s, x in enumerate(stair)]]), (0.5, 0.5))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split tables need 3221225472 cells"):
            mutual_info_TY(FOUR_LETTERS, FrameConfig(20, 0.5), sset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # the constructed rate at erasure F = 3 needs 6^2 + 6 + 2^2 x 3 = 54 cells of 8 bytes
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(3, 0.5)
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 8 * 54 - 1)
    with pytest.raises(ValueError, match="split tables need 54 cells") as info:
        secondary_capacity(ch, cfg)
    assert str(info.value).endswith(f", over {8 * 54 - 1} bytes")
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 8 * 54)
    assert secondary_capacity(ch, cfg).method == "constructed"


def test_orbit_split_check_is_live(monkeypatch):
    # the orbit path takes I(X;Y) from the one-slot closed form and H(Y) from the
    # i.i.d. input law enumerated over the outputs; a nudged closed form must break the split check
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(5, 0.4)
    sset = decompose_paths(build_weighted_graph(5))
    mutual_info_TY(ch, cfg, sset)
    honest = capacity.single_use_mutual_info
    monkeypatch.setattr(capacity, "single_use_mutual_info", lambda c, a: honest(c, a) + 1e-6)
    with pytest.raises(RuntimeError, match="split"):
        mutual_info_TY(ch, cfg, sset)


NAN = float("nan")


@pytest.mark.parametrize(
    "rates, message",
    [
        ((0.5, 1.0, 0.4), "split"),
        ((NAN, 1.0, 0.4), "split"),
        ((0.5, NAN, 0.5), "split"),
        ((NAN, NAN, NAN), "split"),
        ((1.1, 1.0, -0.1), "outside"),
        ((-3.0, 2.0, 5.0), "outside"),
        ((-1.0, 1.0, 2.0), "exceeds"),
        ((4.0, 5.0, 1.0), "exceeds H"),
    ],
)
def test_report_refuses_rates_that_break_a_check(monkeypatch, rates, message):
    # the split must close, 0 <= I(X;Y|T) <= H(S), about 2.03 bits at F = 4, a = 0.5,
    # neither I(T;Y) nor I(X;Y|T) may pass I(X;Y), and I(T;Y) may not pass H(T) = log2 12
    ch, cfg = channel_preset("bsc", 0.1), FrameConfig(4, 0.5)
    assert entropy_bits(capacity.state_pmf(cfg)) < 5.0
    monkeypatch.setattr(capacity, "_orbit_rates", lambda channel, config: rates)
    with pytest.raises(RuntimeError, match=message):
        secondary_capacity(ch, cfg)


def test_conditional_rate_reaches_the_state_entropy_when_noiseless():
    # the bound is tight: a noiseless channel reads X, and X given T carries H(S)
    for F in (1, 4, 7):
        cfg = FrameConfig(F, 0.3)
        report = secondary_capacity(channel_preset("bsc", 0.0), cfg)
        h_state = entropy_bits(capacity.state_pmf(cfg))
        assert report.i_xy_given_t == pytest.approx(h_state, abs=1e-12)


@pytest.mark.parametrize(
    ("kind", "F"),
    [("bsc", 10), ("bsc", 14), ("bsc", 20), ("z", 10), ("z", 14), ("z", 20)]
    + [("erasure", 10), ("erasure", 12)],
)
def test_large_f_staircase_rate_matches_a_sampled_divergence(kind, F):
    # nothing else checks the printed rate above F = 9: the split check cannot see a
    # wrong H(Y|staircase), which cancels. Seeds, frames, p and a were fixed before any run.
    p, a = 0.2, 0.3
    exact = secondary_capacity(channel_preset(kind, p), FrameConfig(F, a)).i_ty
    rows = ref.channel_rows(kind, p)
    q0, q1 = ([rows[bit][letter] for letter in ref.letters(kind)] for bit in "01")
    for seed in (101, 202, 303):
        mean, se = ref.sampled_staircase_rate(q0, q1, F, a, 50_000, seed)
        assert abs(mean - exact) <= 4 * se, (seed, mean, se, exact)


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


def _law_blocks(monkeypatch):
    """Record the shape of every block of strategy laws `_output_entropies` takes entropies of."""
    shapes = []

    def spy(pmf):
        if np.ndim(pmf) == 2:
            shapes.append(np.shape(pmf))
        return entropy_bits(pmf)

    monkeypatch.setattr(capacity, "entropy_bits", spy)
    return shapes


def test_general_rates_do_not_depend_on_block_width(monkeypatch):
    # 50 strategies over 729 erasure outputs at F = 6, a 27 x 27 law each:
    # one block by default; blocks of 7 strategies (the last holds 1); one
    # strategy per block; and prefix rows of y split 3 and 5 to a block (the
    # last holds 2), so every H(Y) sum and the split check cross block edges
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(6, 0.4)
    sset = _random_set(6, 50, seed=5)
    shapes = _law_blocks(monkeypatch)
    whole = mutual_info_TY(ch, cfg, sset)
    assert shapes == [(50, 729)]
    for slab, first, last in ((7 * 729, (7, 729), (1, 729)), (729, (1, 729), (1, 729)),
                              (100, (1, 81), (1, 81)), (135, (1, 135), (1, 54))):
        shapes.clear()
        monkeypatch.setattr(capacity, "SLAB_CELLS", slab)
        blocked = mutual_info_TY(ch, cfg, sset)
        assert (shapes[0], shapes[-1]) == (first, last), slab
        assert sum(n * cells for n, cells in shapes) == 50 * 729
        assert max(n * cells for n, cells in shapes) <= slab
        plain = _plain_enumerated_rates(ch, cfg, sset)
        h_t = entropy_bits(sset.pmf)
        assert blocked == capacity._checked_report(ch, cfg, "enumerated", plain, h_t), slab
        for name in ("i_ty", "i_xy", "i_xy_given_t"):
            assert getattr(blocked, name) == pytest.approx(getattr(whole, name), abs=1e-12), name


def test_general_rates_stay_within_a_few_slabs_of_memory():
    # 200 strategies over erasure F = 8: the whole 6561-column table of the
    # used symbols would pass 10 MB; blocks of SLAB_CELLS cells keep the peak low
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(8, 0.4)
    sset = _random_set(8, 200, seed=11)
    assert len(set(sset.pmf)) > 1
    tracemalloc.start()
    try:
        report = mutual_info_TY(ch, cfg, sset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.method == "enumerated"
    assert peak < 8 << 20, peak


# a three-letter channel with no symmetry between its rows or letters
UNEVEN = BinaryInputChannel((0.7, 0.2, 0.1), (0.15, 0.05, 0.8), "xyz")
BLOCK_CHANNELS = (
    *(channel_preset(kind, 0.2) for kind in ("erasure", "bsc", "z")),
    FOUR_LETTERS,
    UNEVEN,
)


def _plain_mix(rows, rep_idx, pmf_s):
    """P(y | t) from fresh copies: zeros, plus pmf_s[s] rows[rep_idx[:, s]] for s ascending."""
    out = np.zeros((len(rep_idx), rows.shape[1]))
    for s, p in enumerate(pmf_s):
        out += rows[rep_idx[:, s]] * p
    return out


def _plain_row_entropies(p):
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -(p * logs).sum(axis=1)


def _slow_entropies(channel, config, sset, cols=None):
    """(h, h_y_by_t, h_y_by_x) from likelihood rows, mix_states and masked row entropies.

    The path `_output_entropies` replaced, in blocks of the given output
    columns (all J^F by default): every row of the used symbols, mixed by
    symbol for H(Y) under the induced law, then by state for P(y | t).
    """
    F = config.F
    pmf_s, pmf_t = state_pmf(config), sset.pmf
    used, rep_idx = strategy_table(sset)
    p_x = induced_input_pmf(sset, config)[used]
    blocks = [np.arange(channel.J**F)] if cols is None else cols
    h_t = np.zeros(len(pmf_t))
    h_y = h_y_by_x = 0.0
    for block in blocks:
        rows = likelihood_rows(channel, F, used, block)
        h_y_by_x += entropy_bits(p_x @ rows)
        want = _plain_mix(rows, rep_idx, pmf_s)
        mixed = mix_states(rows, rep_idx, pmf_s)
        assert np.array_equal(mixed, want)
        h = _plain_row_entropies(mixed)
        # the mask-free entropy_bits against the masked form, on strategy laws
        assert np.array_equal(entropy_bits(mixed), h)
        h_t += h
        h_y += entropy_bits(pmf_t @ mixed)
    return h_t, h_y, h_y_by_x


def test_output_entropies_equal_the_slow_path(monkeypatch):
    # at the default slab, at one strategy per block (SLAB_CELLS = J^F) and
    # at one prefix row of y per block (SLAB_CELLS = J^m, m = F // 2), which
    # splits every strategy's law; F = 1 has m = 0, odd F has k = F - m != m
    full, shapes, seen = capacity.SLAB_CELLS, _law_blocks(monkeypatch), set()
    for ch in BLOCK_CHANNELS:
        for F in range(1, 8):
            cfg = FrameConfig(F, 0.3)
            sset = _random_set(F, 20 if F <= 5 else 8, seed=F + 20)
            want = _slow_entropies(ch, cfg, sset)
            args = (ch, F, state_pmf(cfg), sset.reps, sset.pmf, induced_input_pmf(sset, cfg))
            for slab in (full, ch.J**F, ch.J ** (F // 2)):
                shapes.clear()
                monkeypatch.setattr(capacity, "SLAB_CELLS", slab)
                h, h_y, h_y_by_x = capacity._output_entropies(*args)
                assert np.abs(h - want[0]).max() <= 1e-12, (ch, F, slab)
                assert abs(h_y - want[1]) <= 1e-12 and abs(h_y_by_x - want[2]) <= 1e-12
                assert max(n * cells for n, cells in shapes) <= slab
                if slab < full:
                    seen.add("one strategy" if shapes[0][0] == 1 else "several")
                    seen.add("split rows" if shapes[0][1] < ch.J**F else "whole rows")
    assert seen == {"one strategy", "split rows", "whole rows"}


def _plain_enumerated_rates(channel, config, sset):
    """`_enumerated_rates` as a plain loop over its blocks that allocates every array afresh.

    One matrix product (A[pre_t].T * pmf_s) @ B[suf_t] per strategy, masked
    row entropies, and the blocks `_output_entropies` takes at SLAB_CELLS.
    """
    F, J, m = config.F, channel.J, config.F // 2
    A = frame_space._prefix_table(channel.matrix(), F - m)
    B = frame_space._prefix_table(channel.matrix(), m)
    span = min(J ** (F - m), max(1, capacity.SLAB_CELLS // J**m))
    step = max(1, capacity.SLAB_CELLS // (span * J**m))
    pmf_s, pmf_t, reps = state_pmf(config), sset.pmf, sset.reps
    p_xb = induced_input_pmf(sset, config).reshape(-1, 1 << m) @ B
    h_t = np.zeros(len(reps))
    h_y = h_y_by_x = 0.0
    for lo in range(0, J ** (F - m), span):
        a = A[:, lo : lo + span]
        mix = np.zeros(a.shape[1] * J**m)
        for t0 in range(0, len(reps), step):
            block = reps[t0 : t0 + step]
            laws = np.array([((a[x >> m].T * pmf_s) @ B[x % (1 << m)]).ravel() for x in block])
            h_t[t0 : t0 + step] += _plain_row_entropies(laws)
            mix += pmf_t[t0 : t0 + step] @ laws
        h_y += entropy_bits(mix)
        h_y_by_x += entropy_bits((a.T @ p_xb).ravel())
    noise = capacity._mean_noise_entropy(channel, config)
    h_y_given_t = float(pmf_t @ h_t)
    return h_y - h_y_given_t, h_y_by_x - noise, h_y_given_t - noise


def test_enumerated_rates_equal_a_plain_block_loop(monkeypatch):
    # (F, strategies): a few, more than one block's worth at F = 6; each at
    # the default slab, at blocks of 7 strategies and at 2 prefix rows of y
    # per block (a partial last block wherever J^(F - m) is odd)
    full = capacity.SLAB_CELLS
    for ch in BLOCK_CHANNELS:
        for F, n_strategies in ((3, 20), (5, 40), (6, 200)):
            cfg, sset = FrameConfig(F, 0.35), _random_set(F, n_strategies, seed=F + 10)
            for slab in (full, 7 * ch.J**F, 2 * ch.J ** (F // 2) + 1):
                monkeypatch.setattr(capacity, "SLAB_CELLS", slab)
                got = capacity._enumerated_rates(ch, cfg, sset)
                assert got == _plain_enumerated_rates(ch, cfg, sset), (ch, F, slab)


def _chain(F, rng):
    """A staircase with its positions permuted: rep_s sets the first s positions of a shuffle."""
    order = rng.permutation(F)
    return [sum(1 << (F - 1 - int(f)) for f in order[:s]) for s in range(F + 1)]


def test_large_f_general_rates_hold_a_few_slabs_and_match_the_slow_path():
    # erasure F = 12: each strategy's 3^12 outputs pass one slab, so its law
    # is taken 179 prefix rows of y at a time; the slow path walks blocks of
    # SLAB_CELLS // (used symbols) columns
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(12, 0.4)
    rng = np.random.default_rng(12)
    sset = StrategySet(np.array([_chain(12, rng) for _ in range(13)]), rng.dirichlet(np.ones(13)))
    assert not capacity._is_staircase_orbit(sset)
    tracemalloc.start()
    try:
        report = mutual_info_TY(ch, cfg, sset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.method == "enumerated"
    # measured 4 289 944 bytes (4.09 slabs, numpy 2.4), and 5 118 096 (4.88) while one
    # block's laws outlived the next block's product; 4.5 slabs leaves about 10% over it
    assert peak < 4.5 * 8 * capacity.SLAB_CELLS, peak
    width = capacity.SLAB_CELLS // len(strategy_table(sset)[0])
    cols = np.array_split(np.arange(3**12), range(width, 3**12, width))
    h_t, h_y, h_y_by_x = _slow_entropies(ch, cfg, sset, cols)
    noise = capacity._mean_noise_entropy(ch, cfg)
    h_y_given_t = float(sset.pmf @ h_t)
    assert report.i_ty == pytest.approx(h_y - h_y_given_t, abs=1e-12)
    assert report.i_xy == pytest.approx(h_y_by_x - noise, abs=1e-12)
    assert report.i_xy_given_t == pytest.approx(h_y_given_t - noise, abs=1e-12)


@pytest.mark.parametrize("kind", ["erasure", "bsc", "z"])
def test_orbit_channel_blocks_agree_with_the_whole_table(kind):
    # one table of every map orbit's mixed rows, through the slow path;
    # erasure F = 7 would build 150 MB here
    ch = channel_preset(kind, 0.2)
    for F in range(1, 8 if ch.J == 2 else 7):
        cfg = FrameConfig(F, 0.4)
        orbit_sizes, reps = capacity._map_orbits(F)
        rows = likelihood_rows(ch, F, list(range(1 << F)))
        want = _plain_row_entropies(_plain_mix(rows, reps, state_pmf(cfg)))
        sizes, h = capacity.orbit_channel(ch, cfg)
        assert sizes is orbit_sizes
        assert np.abs(h - want).max() <= 1e-12, F


def test_oracle_stays_within_a_few_slabs_of_memory():
    # erasure F = 7 mixes 8 535 orbit rows over 3^7 outputs: 150 MB as one
    # table, which the oracle used to build; blocks keep it to a few slabs
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(7, 0.5)
    capacity._map_orbits(7)  # the partition is cached per process; build it first
    tracemalloc.start()
    try:
        result = capacity.oracle_solve(ch, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.capacity == pytest.approx(3.5333196126, abs=1e-10)
    assert peak < 16 << 20, peak
