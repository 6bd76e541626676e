import tracemalloc
from math import comb

import numpy as np
import pytest

import reference as ref
from reference import output_string
from reorderchan import (
    BinaryInputChannel,
    FrameConfig,
    Multisymbol,
    StrategySet,
    binary_entropy,
    build_weighted_graph,
    channel_preset,
    decompose_paths,
    entropy_bits,
    enumerate_weight_class,
    likelihood_rows,
    state_pmf,
    weight,
)
from reorderchan import frame_space
from reorderchan.capacity import _all_maps
from reorderchan.frame_space import mix_states, symbol_string
from reorderchan.strategy import strategy_table


def test_frame_config_validation():
    FrameConfig(1, 0.0)
    FrameConfig(20, 1.0)
    with pytest.raises(ValueError):
        FrameConfig(0, 0.5)
    with pytest.raises(ValueError):
        FrameConfig(21, 0.5)
    with pytest.raises(ValueError):
        FrameConfig(3, -0.1)
    with pytest.raises(ValueError):
        FrameConfig(3, 1.1)


@pytest.mark.parametrize(
    "F", [np.int64(4), np.int32(4), np.int8(4), np.uint16(4), 4], ids=lambda F: type(F).__name__
)
def test_frame_config_stores_any_integer_f_as_int(F):
    cfg = FrameConfig(F, 0.5)
    assert type(cfg.F) is int and cfg.F == 4
    assert type(frame_space.check_frame_len(F)) is int
    assert cfg == FrameConfig(4, 0.5)


@pytest.mark.parametrize(
    "F",
    [True, False, np.bool_(True), 4.0, np.float64(4.0), "4", None, 0, 21, -1, np.int64(21)],
    ids=["True", "False", "np-bool", "float", "np-float64", "str", "None"]
    + ["0", "21", "-1", "np-int64-21"],
)
def test_frame_config_refuses_f_that_is_not_an_integer_in_range(F):
    with pytest.raises(ValueError, match=r"^F must be an integer in 1\.\.20$"):
        frame_space.check_frame_len(F)
    with pytest.raises(ValueError, match=r"^F must be an integer in 1\.\.20$"):
        FrameConfig(F, 0.5)


def test_state_pmf_values():
    assert np.allclose(state_pmf(FrameConfig(2, 0.5)), [0.25, 0.5, 0.25])
    assert np.allclose(state_pmf(FrameConfig(4, 0.5)), np.array([1, 4, 6, 4, 1]) / 16)
    assert np.allclose(state_pmf(FrameConfig(3, 0.0)), [1, 0, 0, 0])
    assert np.allclose(state_pmf(FrameConfig(3, 1.0)), [0, 0, 0, 1])


def test_state_pmf_matches_reference():
    for F in (1, 3, 6):
        for a in (0.1, 0.37, 0.9):
            got = state_pmf(FrameConfig(F, a))
            assert np.allclose(got, ref.state_probs(F, a), atol=1e-14)
            assert abs(got.sum() - 1.0) < 1e-12


def test_weight():
    assert weight(0) == 0
    assert weight(0b1011) == 3
    assert weight(1 << 19) == 1


def test_symbol_strings():
    assert symbol_string(4, 6) == "0110"
    assert symbol_string(3, 0) == "000"
    for x in range(16):
        assert int(symbol_string(4, x), 2) == x


def test_output_string():
    erasure = channel_preset("erasure", 0.1)
    # letters indexed 0,1,e; 5 = 1*3 + 2 reads "1e"
    assert output_string(2, 5, erasure) == "1e"
    assert output_string(2, 0, erasure) == "00"
    bsc = channel_preset("bsc", 0.1)
    assert output_string(3, 5, bsc) == "101"


def test_enumerate_weight_class():
    assert enumerate_weight_class(4, 0) == [0]
    assert enumerate_weight_class(4, 1) == [1, 2, 4, 8]
    assert enumerate_weight_class(4, 2) == [3, 5, 6, 9, 10, 12]
    assert enumerate_weight_class(4, 4) == [15]
    with pytest.raises(ValueError):
        enumerate_weight_class(4, 5)
    with pytest.raises(ValueError):
        enumerate_weight_class(4, -1)


def test_enumerate_weight_class_complete_and_sorted():
    for F in range(1, 9):
        seen = []
        for s in range(F + 1):
            syms = enumerate_weight_class(F, s)
            assert len(syms) == comb(F, s)
            assert all(weight(x) == s for x in syms)
            assert syms == sorted(syms)
            seen.extend(syms)
        assert sorted(seen) == list(range(1 << F))


def test_likelihood_rows_are_distributions():
    for kind in ("erasure", "bsc", "z"):
        ch = channel_preset(kind, 0.3)
        rows = likelihood_rows(ch, 3, list(range(8)))
        assert rows.shape == (8, ch.J**3)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)


def test_likelihood_rows_column_subset():
    ch = channel_preset("erasure", 0.25)
    full = likelihood_rows(ch, 3, [1, 6])
    cols = np.array([0, 5, 11, 26])
    assert np.allclose(likelihood_rows(ch, 3, [1, 6], cols), full[:, cols])


def _folded_rows(ch, F, xs, cols, positions=None):
    """Ones, times a_f for each f of positions (all F by default), in order: a fold of factors."""
    qmat = ch.matrix()
    xs = np.asarray(xs, dtype=np.int64)
    cols = np.arange(ch.J**F) if cols is None else np.asarray(cols)
    rows = np.ones((len(xs), len(cols)))
    for f in range(F) if positions is None else positions:
        d = (cols // ch.J ** (F - 1 - f)) % ch.J
        b = (xs >> (F - 1 - f)) & 1
        rows *= qmat[b][:, d]
    return rows


def _split_fold(ch, F, xs, cols):
    """The fold of the first F - F // 2 positions times the fold of the last F // 2."""
    k = F - F // 2
    return _folded_rows(ch, F, xs, cols, range(k)) * _folded_rows(ch, F, xs, cols, range(k, F))


def test_likelihood_rows_equal_the_gathered_factor_product():
    # bit for bit against the split-order fold; against the full F-position fold to
    # F rounding steps: each of the two products takes F - 1 roundings of one unit
    # roundoff u = eps / 2 (the leading 1.0 * a_0 is exact), so they differ by at
    # most about 2 (F - 1) u < F eps, relative
    four = BinaryInputChannel((0.4, 0.3, 0.2, 0.1), (0.1, 0.1, 0.1, 0.7), "abcd")
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    for ch in (*(channel_preset(kind, 0.3) for kind in ("erasure", "bsc", "z")), four):
        J = ch.J
        for F in range(1, 10):
            n_y = J**F
            row_sets = (
                list(range(1 << F)),
                np.sort(rng.choice(1 << F, size=rng.integers(1, (1 << F) + 1), replace=False)),
                [(1 << s) - 1 for s in range(F + 1)],
                [int(rng.integers(1 << F))],
                [],
            )
            col_sets = (
                None,
                np.arange(1, min(n_y, 1 + 3 * J ** (F // 2))),
                np.sort(rng.choice(n_y, size=min(60, n_y), replace=False)),
            )
            for xs in row_sets:
                for cols in col_sets:
                    n_cols = n_y if cols is None else len(cols)
                    if len(xs) * n_cols > 1 << 20:
                        continue
                    got = likelihood_rows(ch, F, xs, cols)
                    assert np.array_equal(got, _split_fold(ch, F, xs, cols)), (F, xs, cols)
                    fold = _folded_rows(ch, F, xs, cols)
                    assert np.all(np.abs(got - fold) <= F * eps * fold), (F, xs, cols)
    # the F + 1 staircase rows at F = 12, past the grid's F = 9, over 8192 columns at two offsets
    blocks = ((channel_preset("bsc", 0.1), 0), (channel_preset("erasure", 0.1), 8192))
    for ch, start in blocks:
        F = 12
        stair = [(1 << s) - 1 for s in range(F + 1)]
        cols = np.arange(start, min(start + 8192, ch.J**F))
        got = likelihood_rows(ch, F, stair, cols)
        assert np.array_equal(got, _split_fold(ch, F, stair, cols))
        fold = _folded_rows(ch, F, stair, cols)
        assert np.all(np.abs(got - fold) <= F * eps * fold)


def test_likelihood_rows_refuses_its_tables_before_building_them():
    # one row and one column, but the split's tables at F = 20 take 2 x 8^10 cells: 17 GB
    four = BinaryInputChannel((0.4, 0.3, 0.2, 0.1), (0.1, 0.1, 0.1, 0.7), "abcd")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split tables need 2147483648 cells"):
            likelihood_rows(four, 20, [0], [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_likelihood_rows_admits_erasure_at_f20_by_the_rule_alone(monkeypatch):
    # 2 x 6^10 = 120 932 352 cells, about 967 MB at 8 bytes; no table is built
    def unbuilt(q, k):
        raise LookupError("the byte rule let the tables through")

    monkeypatch.setattr(frame_space, "_prefix_table", unbuilt)
    erasure = channel_preset("erasure", 0.2)
    with pytest.raises(LookupError, match="let the tables through"):
        likelihood_rows(erasure, 20, [0], [0])
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 8 * 120_932_352 - 1)
    with pytest.raises(ValueError, match="split tables need 120932352 cells") as info:
        likelihood_rows(erasure, 20, [0], [0])
    assert str(info.value).endswith(f", over {8 * 120_932_352 - 1} bytes")


def test_frame_likelihood_values():
    erasure = channel_preset("erasure", 0.2)
    # erasure outputs are base-3 ints: 1 reads "01", 3 reads "10", 8 reads "ee"
    assert abs(ref.frame_likelihood(erasure, 2, 0b01, 1) - 0.64) < 1e-15
    assert ref.frame_likelihood(erasure, 2, 0b01, 3) == 0.0
    assert abs(ref.frame_likelihood(erasure, 2, 0b01, 8) - 0.04) < 1e-15
    assert np.allclose(likelihood_rows(erasure, 2, [0b01], [1, 3, 8]), [[0.64, 0.0, 0.04]])
    z = channel_preset("z", 0.2)
    assert abs(ref.frame_likelihood(z, 2, 0b11, 0b00) - 0.04) < 1e-15
    assert ref.frame_likelihood(z, 2, 0b00, 0b00) == 1.0
    assert ref.frame_likelihood(z, 2, 0b00, 0b01) == 0.0


def test_frame_likelihood_matches_reference():
    for kind in ("erasure", "bsc", "z"):
        ch = channel_preset(kind, 0.3)
        rows = ref.channel_rows(kind, 0.3)
        table = likelihood_rows(ch, 3, list(range(8)))
        for x in range(8):
            xs = symbol_string(3, x)
            for y, ys in enumerate(ref.all_outputs(kind, 3)):
                got = ref.frame_likelihood(ch, 3, x, y)
                assert abs(got - ref.likelihood(rows, xs, ys)) < 1e-14
                assert abs(got - table[x, y]) < 1e-14


def test_frame_likelihood_range_checks():
    ch = channel_preset("bsc", 0.1)
    with pytest.raises(ValueError):
        ref.frame_likelihood(ch, 2, 4, 0)
    with pytest.raises(ValueError):
        ref.frame_likelihood(ch, 2, 0, 4)


def noise_entropies(ch, F):
    """H(Y | x) for every frame symbol x, as row entropies of the likelihood slab."""
    return entropy_bits(likelihood_rows(ch, F, list(range(1 << F))))


def test_conditional_entropy_given_x():
    assert noise_entropies(channel_preset("bsc", 0.0), 4)[0b1010] == 0.0
    erasure = noise_entropies(channel_preset("erasure", 0.3), 4)
    for x in range(16):
        assert abs(erasure[x] - 4 * binary_entropy(0.3)) < 1e-12
    z = noise_entropies(channel_preset("z", 0.2), 4)
    for x in range(16):
        expect = weight(x) * binary_entropy(0.2)
        assert abs(z[x] - expect) < 1e-12


def test_conditional_entropy_matches_enumeration():
    for kind in ("erasure", "bsc", "z"):
        ents = noise_entropies(channel_preset(kind, 0.3), 3)
        for x in range(8):
            got = ents[x]
            want = ref.conditional_output_entropy(kind, 0.3, symbol_string(3, x))
            assert abs(got - want) < 1e-12


def test_mix_states_matches_each_strategy_law():
    all_maps = [Multisymbol(3, tuple(row)) for row in _all_maps(3)]
    sets = (
        decompose_paths(build_weighted_graph(4)),
        StrategySet(tuple(all_maps), tuple(1.0 / len(all_maps) for _ in all_maps)),
    )
    for sset in sets:
        cfg = FrameConfig(sset.F, 0.35)
        used, rep_idx = strategy_table(sset)
        for kind in ("erasure", "bsc", "z"):
            ch = channel_preset(kind, 0.2)
            mixed = mix_states(likelihood_rows(ch, sset.F, used), rep_idx, state_pmf(cfg))
            assert mixed.shape == (len(sset), ch.J**sset.F)
            for row, m in zip(mixed, sset.multisymbols):
                law = state_pmf(cfg) @ likelihood_rows(ch, sset.F, list(m.reps))
                assert np.max(np.abs(row - law)) <= 1e-15


def _nested_loop_fold(q, k):
    """The prefix table level by level, one np.multiply per (bit, letter) view slice."""
    J = q.shape[1]
    table = q if k else np.ones((1, 1))
    for _ in range(k - 1):
        nx, ny = table.shape
        nxt = np.empty((2 * nx, J * ny))
        view = nxt.reshape(nx, 2, ny, J)
        for b in range(2):
            for d in range(J):
                np.multiply(table, q[b, d], out=view[:, b, :, d])
        table = nxt
    return table


@pytest.mark.parametrize("J", [2, 3, 4])
def test_prefix_table_equals_the_nested_loop_fold_bit_for_bit(J):
    rng = np.random.default_rng(J)
    q = rng.dirichlet(np.ones(J), size=2)
    for k in range(8):
        got, want = frame_space._prefix_table(q, k), _nested_loop_fold(q, k)
        assert got.shape == want.shape == (2**k, J**k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
