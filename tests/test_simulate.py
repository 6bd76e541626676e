import hashlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from reference import map_decode, output_string, transmit
from reorderchan import (
    BinaryInputChannel,
    FrameConfig,
    build_weighted_graph,
    channel_preset,
    decompose_paths,
    lcm_binomials,
    run_monte_carlo,
    state_pmf,
    weight,
)
from reorderchan import frame_space, simulate
from reorderchan.cli import fmt, run_cli
from reorderchan.frame_space import MAX_TABLE_BYTES, symbol_string
from reorderchan.simulate import (
    FRAME_BYTES,
    GUIDE_BUCKETS,
    NOISE_CHUNK,
    SLAB_CELLS,
    TRACE_CHUNK,
    _decode_dense,
    _decode_observed,
    _decodes_dense,
    _digit_field,
    _draw_index,
    _four_digits,
    _label_field,
    _noisy_outputs,
    _rank_outputs,
    bit_field,
    csv_rows,
)
from reorderchan.strategy import STRATEGY_BYTES, strategy_table

SET4 = decompose_paths(build_weighted_graph(4))


def test_encode():
    # strategy t sends reps[s] in state s
    assert [SET4.multisymbols[0].reps[s] for s in range(5)] == [0, 1, 3, 7, 15]
    assert SET4.multisymbols[0].reps[0] == 0
    assert SET4.multisymbols[3].reps[4] == 15


def test_transmit_noiseless():
    ch = channel_preset("bsc", 0.0)
    rng = np.random.default_rng(3)
    for x in range(8):
        assert transmit(ch, 3, x, rng) == x


def test_transmit_all_erased():
    ch = channel_preset("erasure", 1.0)
    rng = np.random.default_rng(3)
    for x in (0, 5, 7):
        assert transmit(ch, 3, x, rng) == 26  # "eee" is the last base-3 output


def test_transmit_erasure_fraction():
    ch = channel_preset("erasure", 0.3)
    rng = np.random.default_rng(11)
    n = 20000
    erased = sum(transmit(ch, 1, 1, rng) == 2 for _ in range(n))
    # 4 sigma around the mean of Binomial(n, 0.3)
    assert abs(erased / n - 0.3) < 4 * np.sqrt(0.3 * 0.7 / n)


def _draw_points(cum):
    """Uniforms at every cum value, every guide-bucket edge and both neighbours of each."""
    m = len(cum)
    edges = np.arange(max(m, GUIDE_BUCKETS) + 1) / max(m, GUIDE_BUCKETS)
    points = [np.concatenate([cum, edges, np.arange(m + 1) / m])]
    points += [np.nextafter(points[0], 0), np.nextafter(points[0], 2)]
    u = np.concatenate([*points, [0.0, np.nextafter(1.0, 0)]])
    return u[(u >= 0) & (u < 1)]


def _draw_pmfs():
    rng = np.random.default_rng(19)
    for n in range(1, 301):
        yield np.full(n, 1.0 / n)
    for n in (2, 7, 40, 300):
        for _ in range(5):
            yield rng.dirichlet(np.full(n, 0.05))
    yield np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
    yield np.array([0.0, 0.0, 1.0])
    yield np.array([1.0, 0.0, 0.0])
    yield np.array([0.25, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0])
    yield np.array(FOUR_LETTERS.q0)
    # more entries than guide buckets, as L at F = 12: one whose first cum value
    # is the bucket edge 33 / m, which u * m rounds up to from just below, and
    # one with zeros at both ends and between
    m = 27_720
    yield np.concatenate([[33 / m], np.full(m - 1, (1 - 33 / m) / (m - 1))])
    big = rng.dirichlet(np.full(m, 0.5))
    big[:3] = big[-3:] = big[1000:1500] = 0.0
    yield big
    for F in range(1, 21):
        for a in (0.0, 0.05, 0.3, 0.5, 0.97, 1.0):
            yield state_pmf(FrameConfig(F, a))


def test_draw_index_equals_searchsorted():
    ends_below_one = sizes = 0
    for pmf in _draw_pmfs():
        cum = np.cumsum(pmf)
        ends_below_one += cum[-1] < 1.0
        sizes |= 1 << (len(pmf) > GUIDE_BUCKETS)
        u = _draw_points(cum)
        want = np.minimum(np.searchsorted(cum, u, side="right"), len(pmf) - 1)
        # in the run's narrowest index type, 1 000 draws a block, so the last block is a part one
        rng, out = _ReplayedUniforms(u), np.empty(len(u), dtype=np.min_scalar_type(len(pmf) - 1))
        assert np.array_equal(_draw_index(pmf, rng, out, 1000), want), pmf
        assert rng.used == len(u)
    assert ends_below_one > 0
    assert sizes == 0b11  # pmfs shorter and longer than the guide table


@pytest.mark.parametrize(("J", "F"), [(2, 3), (3, 4), (4, 2)])
def test_rank_outputs_equals_np_unique(monkeypatch, J, F):
    n_outputs = J**F
    rng = np.random.default_rng(n_outputs)
    cases = []
    for n_frames in (1, 2, n_outputs - 1, n_outputs, n_outputs + 1, 5 * n_outputs):
        cases.append(rng.integers(0, n_outputs, n_frames))
        cases.append(np.full(n_frames, n_outputs - 1))  # one output observed
        cases.append(np.full(n_frames, 0))
        if n_frames >= n_outputs:  # every output observed
            cases.append(rng.permutation(np.resize(np.arange(n_outputs), n_frames)))
    real_unique = np.unique
    sorts = []

    def counted_unique(*args, **kwargs):
        sorts.append(args)
        return real_unique(*args, **kwargs)

    for y, block in itertools.product(cases, (1, 7, NOISE_CHUNK)):
        want_uniq, want_inverse = real_unique(y, return_inverse=True)
        # the run's output array: the narrowest unsigned type, overwritten by the ranks
        inverse = y.astype(np.min_scalar_type(n_outputs - 1))
        sorts.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", counted_unique)
            uniq = _rank_outputs(inverse, n_outputs, block)
        # np.unique sorts only where the presence table would outgrow the frames
        assert len(sorts) == (n_outputs > len(y))
        assert np.array_equal(uniq, want_uniq) and uniq.dtype == want_uniq.dtype
        assert np.array_equal(inverse, want_inverse) and inverse.dtype == np.min_scalar_type(
            n_outputs - 1
        )


def _decode_all(sset, ch, cfg, ys, dense=False):
    """Picks of the observed-output decoder, or of the dense law-pass decoder with dense."""
    ys = np.asarray(ys, dtype=np.int64)
    if dense:
        return list(_decode_dense(sset, ch, cfg, state_pmf(cfg), ys))
    used, rep_idx = strategy_table(sset)
    return list(_decode_observed(sset, ch, cfg, state_pmf(cfg), used, rep_idx, ys))


def test_map_decode_noiseless_roundtrip():
    ch = channel_preset("bsc", 0.0)
    cfg = FrameConfig(4, 0.5)
    for t in range(len(SET4)):
        for s in range(5):
            x = SET4.multisymbols[t].reps[s]
            t_hat = map_decode(SET4, ch, cfg, x)
            # states 0 and 4 are shared, so only the sent symbol must match
            assert SET4.multisymbols[t_hat].reps[s] == x


def test_map_decode_matches_vectorized_decode(monkeypatch):
    cfg = FrameConfig(4, 0.35)
    # the default block, then blocks of one and of two output columns
    for cells in (SLAB_CELLS, len(SET4), 2 * len(SET4)):
        monkeypatch.setattr(simulate, "SLAB_CELLS", cells)
        for kind, p in (("erasure", 0.2), ("bsc", 0.2), ("z", 0.2), ("bsc", 0.0)):
            ch = channel_preset(kind, p)
            ys = range(ch.J**4)
            want = [map_decode(SET4, ch, cfg, y) for y in ys]
            for dense in (False, True):
                assert _decode_all(SET4, ch, cfg, ys, dense) == want, (cells, kind, dense)


def test_map_decode_tie_goes_to_smallest_index():
    ch = channel_preset("bsc", 0.0)
    cfg = FrameConfig(4, 0.5)
    assert map_decode(SET4, ch, cfg, 0) == 0
    assert map_decode(SET4, ch, cfg, 15) == 0
    erased = channel_preset("erasure", 0.4)
    assert map_decode(SET4, erased, cfg, 3**4 - 1) == 0
    for dense in (False, True):
        assert _decode_all(SET4, ch, cfg, [0, 15], dense) == [0, 0]
        assert _decode_all(SET4, erased, cfg, [3**4 - 1], dense) == [0]


def test_decoder_equals_the_exact_map_decoder():
    # every output of the constructed set, 3 presets x p x a at F = 2..5 and the
    # four-letter channel at F = 2..4; a plain argmax settles some exact ties by
    # rounding, as it did at bsc p = 0.1: outputs 2, 4 and 8 at F = 4, a = 0.5
    # went to 4, 7 and 10 for 3, 6 and 9, and output 23 at F = 5, a = 0.3 to 8 for 5
    cases = [
        (channel_preset(kind, p), F, a)
        for kind in ("erasure", "bsc", "z")
        for p in (0.1, 0.2, 0.5)
        for a in (0.3, 0.5)
        for F in range(2, 6)
    ]
    cases += [(FOUR_LETTERS, F, a) for F in range(2, 5) for a in (0.3, 0.5)]
    sets = {F: decompose_paths(build_weighted_graph(F)) for F in range(2, 6)}
    for ch, F, a in cases:
        sset, cfg, ys = sets[F], FrameConfig(F, a), range(ch.J**F)
        want = [map_decode(sset, ch, cfg, y) for y in ys]
        for dense in (False, True):
            assert _decode_all(sset, ch, cfg, ys, dense) == want, (ch, F, a, dense)


def test_map_decode_rejects_impossible_output():
    ch = channel_preset("erasure", 1.0)
    cfg = FrameConfig(2, 0.5)
    sset = decompose_paths(build_weighted_graph(2))
    with pytest.raises(ValueError):
        map_decode(sset, ch, cfg, 0)
    for dense in (False, True):
        with pytest.raises(ValueError, match="zero probability"):
            _decode_all(sset, ch, cfg, [0], dense)
        # the dense pass meets every impossible output, but refuses only observed ones
        assert _decode_all(sset, ch, cfg, [8], dense) == [map_decode(sset, ch, cfg, 8)]


@pytest.mark.parametrize(
    ("preset", "F"), [("bsc", 9), ("z", 9), ("bsc", 10), ("z", 10), ("erasure", 8)]
)
def test_the_two_decoders_agree_on_every_output(preset, F):
    # p = 0.5 makes every bsc posterior equal, so its picks rest on the tie rule alone
    sset = decompose_paths(build_weighted_graph(F))
    for p in (0.2, 0.5):
        ch, cfg = channel_preset(preset, p), FrameConfig(F, 0.4)
        ys = range(ch.J**F)
        assert _decode_all(sset, ch, cfg, ys, dense=True) == _decode_all(sset, ch, cfg, ys), p


def test_dense_blocks_with_a_short_last_block_pick_the_same(monkeypatch):
    # erasure F = 6: 60 strategies x 27 suffix letters per prefix row of y, 27 rows;
    # four rows a block leave a last block of three
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(6, 0.3)
    sset = decompose_paths(build_weighted_graph(6))
    ys = range(3**6)
    want = _decode_all(sset, ch, cfg, ys, dense=True)
    for rows in (4, 26, 1):
        monkeypatch.setattr(simulate, "SLAB_CELLS", 60 * 27 * rows)
        assert _decode_all(sset, ch, cfg, ys, dense=True) == want, rows


def test_the_decoder_choice_turns_on_the_observed_share():
    # erasure F = 6: the 60 x 27 cells of one prefix row fill 1.2% of SLAB_CELLS,
    # so half the 729 outputs decide; bsc F = 10: 2 520 x 32 fill 62%, so 68%
    assert not _decodes_dense(60, 6, 3, 364) and _decodes_dense(60, 6, 3, 365)
    assert not _decodes_dense(2520, 10, 2, 680) and _decodes_dense(2520, 10, 2, 700)
    # one prefix row of every strategy must fit in SLAB_CELLS, whatever is observed
    assert not _decodes_dense(SLAB_CELLS // 27 + 1, 6, 3, 729)
    # and the picks on either side of the threshold are the exact MAP decoder's
    ch, cfg = channel_preset("erasure", 0.2), FrameConfig(6, 0.5)
    sset = decompose_paths(build_weighted_graph(6))
    order = np.random.default_rng(6).permutation(3**6)
    for n in (364, 365):
        ys = np.sort(order[:n])
        want = [map_decode(sset, ch, cfg, y) for y in ys]
        for dense in (False, True):
            assert _decode_all(sset, ch, cfg, ys, dense) == want, (n, dense)


@pytest.mark.parametrize(
    ("preset", "F", "n_frames", "dense"),
    # 100 frames observe under half of the 256 bsc outputs at F = 8
    [
        ("erasure", 6, 20_000, True),
        ("erasure", 7, 8_000, True),
        ("z", 8, 5_000, True),
        ("bsc", 8, 100, False),
    ],
)
def test_a_run_routes_by_the_rule_and_either_decoder_gives_its_bytes(
    monkeypatch, preset, F, n_frames, dense
):
    ch, cfg = channel_preset(preset, 0.2), FrameConfig(F, 0.5)
    sset = decompose_paths(build_weighted_graph(F))
    calls, rule = [], simulate._decodes_dense

    def spy(*args):
        calls.append(rule(*args))
        return calls[-1]

    monkeypatch.setattr(simulate, "_decodes_dense", spy)
    runs = []
    for forced in (None, False, True):
        if forced is not None:
            monkeypatch.setattr(simulate, "_decodes_dense", lambda *args, forced=forced: forced)
        trace = io.StringIO()
        runs.append((run_monte_carlo(ch, cfg, sset, n_frames, 3, trace=trace), trace.getvalue()))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert calls == [dense]


@pytest.mark.parametrize("set_F", [3, 5])
def test_run_monte_carlo_checks_f_before_any_draw(set_F):
    sset = decompose_paths(build_weighted_graph(set_F))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disagree on F"):
            run_monte_carlo(channel_preset("erasure", 0.2), FrameConfig(4, 0.5), sset, 10**6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_run_monte_carlo_is_deterministic():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(3, 0.5)
    sset = decompose_paths(build_weighted_graph(3))
    a = run_monte_carlo(ch, cfg, sset, 2000, 11)
    b = run_monte_carlo(ch, cfg, sset, 2000, 11)
    assert a == b
    assert repr(a) == repr(b)
    c = run_monte_carlo(ch, cfg, sset, 2000, 12)
    assert c != a


def test_run_monte_carlo_estimates_the_rate():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(3, 0.5)
    sset = decompose_paths(build_weighted_graph(3))
    report = run_monte_carlo(ch, cfg, sset, 200_000, 7)
    assert report.frames == 200_000
    assert abs(report.empirical_mi - report.analytical_mi) < 0.02
    assert report.analytical_mi == pytest.approx(0.910150276050611, abs=1e-9)


def test_run_monte_carlo_fully_erased():
    ch = channel_preset("erasure", 1.0)
    cfg = FrameConfig(2, 0.5)
    sset = decompose_paths(build_weighted_graph(2))
    report = run_monte_carlo(ch, cfg, sset, 5000, 5)
    assert report.empirical_mi == 0.0
    # the decoder can only ever answer strategy 0
    draws_not_zero = report.symbol_errors
    assert 0 < draws_not_zero < 5000


def test_run_monte_carlo_beats_guessing():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(4, 0.5)
    report = run_monte_carlo(ch, cfg, SET4, 20000, 13)
    assert report.symbol_errors / report.frames < 11 / 12 - 0.05


def test_run_monte_carlo_rejects_empty():
    ch = channel_preset("bsc", 0.1)
    cfg = FrameConfig(2, 0.5)
    sset = decompose_paths(build_weighted_graph(2))
    with pytest.raises(ValueError):
        run_monte_carlo(ch, cfg, sset, 0, 1)


def test_trace_file(tmp_path):
    ch = channel_preset("erasure", 0.3)
    cfg = FrameConfig(3, 0.4)
    sset = decompose_paths(build_weighted_graph(3))
    path = tmp_path / "trace.csv"
    run_monte_carlo(ch, cfg, sset, 50, 21, trace=str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frame,s,t,x,y,t_hat"
    assert len(lines) == 51
    for i, line in enumerate(lines[1:]):
        frame, s, t, x, y, t_hat = line.split(",")
        assert int(frame) == i
        assert 0 <= int(s) <= 3
        assert 0 <= int(t) < 3
        assert len(x) == 3 and set(x) <= {"0", "1"}
        assert len(y) == 3 and set(y) <= {"0", "1", "e"}
        assert weight(int(x, 2)) == int(s)
        assert sset.multisymbols[int(t)].reps[int(s)] == int(x, 2)
        assert 0 <= int(t_hat) < 3


def test_trace_matches_map_decode(tmp_path):
    ch = channel_preset("erasure", 0.3)
    cfg = FrameConfig(3, 0.4)
    sset = decompose_paths(build_weighted_graph(3))
    path = tmp_path / "trace.csv"
    run_monte_carlo(ch, cfg, sset, 200, 9, trace=str(path))
    letters = {"0": 0, "1": 1, "e": 2}
    for line in path.read_text().strip().split("\n")[1:]:
        _, _, _, _, y, t_hat = line.split(",")
        y_int = 0
        for letter in y:
            y_int = y_int * 3 + letters[letter]
        assert map_decode(sset, ch, cfg, y_int) == int(t_hat)


def test_trace_is_reproducible(tmp_path):
    ch = channel_preset("bsc", 0.2)
    cfg = FrameConfig(2, 0.5)
    sset = decompose_paths(build_weighted_graph(2))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run_monte_carlo(ch, cfg, sset, 300, 17, trace=str(p1))
    run_monte_carlo(ch, cfg, sset, 300, 17, trace=str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# q0's float cumsum ends at 0.9999999999999999, so a uniform can land past it
FOUR_LETTERS = BinaryInputChannel((0.4, 0.3, 0.2, 0.1), (0.1, 0.1, 0.1, 0.7), "abcd")
# labels of 2, 2, 0 and 1 UTF-8 bytes, so trace rows are ragged
RAGGED_LABELS = BinaryInputChannel(FOUR_LETTERS.q0, FOUR_LETTERS.q1, ("α", "bb", "", "d"))

# sha256 of `simulate` stdout plus trace bytes. A seed fixes these bytes, so a
# change that moves any of them breaks the seed contract and must say so.
# Each CLI digest covers p in (0, 0.2, 1) x seeds (3, 11), 600 frames, a = 0.4.
GOLDEN_CLI = {
    ("erasure", 1): "d05fef3b731117522e92b273fcf7e44ac3129a444517db59d594ae647009d801",
    ("erasure", 3): "e88ff341393298273de53f322d4cb32835868e7790a9427aaffcdef1f8fa3613",
    ("erasure", 6): "dc233ebd3c87695128edf155edb00793f36c53d4f4d16d42d83e11f54ebc2906",
    ("erasure", 8): "1d7ce9afed7de6c27b61463c52a4660bab825acd07d4a543cb959a0c9c5ff6a2",
    ("bsc", 1): "80fab1caa12b7c5ceb1740b13d3d1b0e4a18bd098819713c2e29f6a30cc5d0fb",
    ("bsc", 3): "b04f9f4563425e670d6f87deeb51cdb4c7d5a6ce2239108d087a26caa170539b",
    ("bsc", 6): "81705e9e39ebc4cb49f701b20a6ccc0f9cb5fe909f23ef4726e02ad8a2560a6d",
    ("bsc", 8): "3261880dc25cf4efb14d277e0376583e55b3a8534b5207f955aa17e68a429204",
    ("z", 1): "8ab093f506711306f9d19784e9431bd9917716f400eccaa492e233b15578f00c",
    ("z", 3): "8d52ccf1000141299aa1c6ab5d233ca4a064116303d5c5025ff7c5ba1830bbcb",
    ("z", 6): "7b9f518f819bc054f10a01a38f470186a3a77aeac8bff0a20242833f3e3763d1",
    ("z", 8): "7f420fe888c6b14b8ce39ca96f48ad34b3add967e6ee5eede9ca111fe7bce2d7",
}
GOLDEN_LIBRARY = {
    "four_letters": "b58e35567d5f8a7550e56251a1c7f276d66347da06565287bd63e7de82b09d97",
    "past_one_chunk": "af24fbf6796bdacc578936bb916a12b8f3371f7b58779d2dd4f173aa67f1d60d",
    "ragged_labels": "08ef25cd5c7751c5412269707cca477797f566152c39e51774a9c9a596757322",
}


def _cli_digest(tmp_path, capsys, preset, F):
    digest = hashlib.sha256()
    for p in ("0", "0.2", "1"):
        for seed in ("3", "11"):
            path = tmp_path / f"{preset}-{F}-{p}-{seed}.csv"
            argv = ["simulate", "--preset", preset, "--p", p, "--a", "0.4", "--F", str(F)]
            assert run_cli(argv + ["--frames", "600", "--seed", seed, "--trace", str(path)]) == 0
            digest.update(capsys.readouterr().out.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _library_run(ch, F, a, n_frames, seed):
    """(report, trace text) of one library run with the constructed set."""
    buf = io.StringIO()
    sset = decompose_paths(build_weighted_graph(F))
    report = run_monte_carlo(ch, FrameConfig(F, a), sset, n_frames, seed, trace=buf)
    return report, buf.getvalue()


LIBRARY_RUNS = {
    "four_letters": (FOUR_LETTERS, 4, 0.35, 3000, 5),
    "past_one_chunk": (channel_preset("erasure", 0.3), 2, 0.45, 70_000, 8),
    # three trace chunks, and frame numbers from four digits to five
    "ragged_labels": (RAGGED_LABELS, 3, 0.35, 20_000, 13),
}


def _library_digest(name):
    report, text = _library_run(*LIBRARY_RUNS[name])
    numbers = [report.frames, report.symbol_errors, report.empirical_mi, report.analytical_mi]
    head = " ".join(fmt(v) for v in numbers) + "\n"
    return hashlib.sha256((head + text).encode()).hexdigest()


@pytest.mark.parametrize("preset", ["erasure", "bsc", "z"])
@pytest.mark.parametrize("F", [1, 3, 6, 8])
def test_simulate_cli_keeps_the_seed_contract(tmp_path, capsys, preset, F):
    assert _cli_digest(tmp_path, capsys, preset, F) == GOLDEN_CLI[preset, F]


@pytest.mark.parametrize("name", sorted(LIBRARY_RUNS))
def test_simulate_library_keeps_the_seed_contract(name):
    assert np.cumsum(FOUR_LETTERS.matrix(), axis=1)[0, -1] < 1.0
    assert _library_digest(name) == GOLDEN_LIBRARY[name]


def _replayed_outputs(ch, F, xs, n_frames, seed):
    """Outputs tests/reference.py's transmit draws for xs from the run's noise stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.random(n_frames)  # state draws
    rng.random(n_frames)  # strategy draws
    return [transmit(ch, F, x, rng) for x in xs]


NOISE_CASES = {f"{kind}-{p}": (kind, p) for kind in ("erasure", "bsc", "z") for p in (0.0, 0.2, 1.0)}
# two whole noise blocks of F = 5 frames and three frames into the third
PAST_TWO_BLOCKS = 2 * (NOISE_CHUNK // 5) + 3


@pytest.mark.parametrize(
    ("name", "n_frames"),
    [
        pytest.param(name, n_frames, id=name + suffix)
        for n_frames, suffix in ((400, ""), (PAST_TWO_BLOCKS, "-blocks"))
        for name in [*NOISE_CASES, "four_letters"]
    ],
)
def test_noise_matches_the_reference_transmit(name, n_frames):
    ch = channel_preset(*NOISE_CASES[name]) if name in NOISE_CASES else FOUR_LETTERS
    F, seed = 5, 23
    _, text = _library_run(ch, F, 0.45, n_frames, seed)
    letter = {label: j for j, label in enumerate(ch.output_labels)}
    xs, ys = [], []
    for line in text.splitlines()[1:]:
        _, _, _, x, y, _ = line.split(",")
        xs.append(int(x, 2))
        value = 0
        for label in y:
            value = value * ch.J + letter[label]
        ys.append(value)
    assert len(ys) == n_frames
    assert ys == _replayed_outputs(ch, F, xs, n_frames, seed)


class _ReplayedUniforms:
    """Stands in for the run's generator: random(out=buf) fills buf with the given rows in order."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, out):
        rows = self.u[self.used : self.used + len(out)]
        self.used += len(out)
        assert rows.shape == out.shape
        out[...] = rows
        return out


# q0's cumsum ends at 1 - 5e-13, so uniforms above it must clamp to letter J - 1
SHORT_ROW = BinaryInputChannel((0.5, 0.3, 0.2 - 5e-13), (0.2, 0.3, 0.5), "xyz")


@pytest.mark.parametrize("name", ["bsc", "z", "erasure", "short_row", "four_letters"])
def test_noise_stage_matches_a_per_position_loop(name):
    short = {"short_row": SHORT_ROW, "four_letters": FOUR_LETTERS}
    ch = short.get(name) or channel_preset(name, 0.3)
    F, n_frames = 4, 500
    cum = np.cumsum(ch.matrix(), axis=1)
    rng = np.random.default_rng(29)
    edges = np.concatenate([cum.ravel(), [0.0, 1 - 2.0**-45, np.nextafter(1.0, 0)]])
    special = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 2)])
    special = np.tile(special[special < 1], 8)  # so that each meets both sent bits
    u = rng.random((n_frames, F))
    u.flat[: len(special)] = special
    if name in short:
        assert cum[0, -1] < 1.0 and (u >= cum[0, -1]).any()
    used = np.arange(1 << F)
    xi = rng.integers(0, len(used), n_frames)
    # frame i sends used[xi[i]] as strategy i's one representative; three frames
    # per block, so the stage ends on a part block
    rng, rep_idx = _ReplayedUniforms(u), xi[:, None]
    t_draw, s_draw = np.arange(n_frames), np.zeros(n_frames, dtype=np.uint8)
    y = np.empty(n_frames, dtype=np.min_scalar_type(ch.J**F - 1))
    _noisy_outputs(rng, ch, F, used, rep_idx, s_draw, t_draw, y, 3)
    assert rng.used == n_frames
    want = []
    for i in range(n_frames):
        value = 0
        for f in range(F):
            bit = (int(used[xi[i]]) >> (F - 1 - f)) & 1
            letter = min(int(np.searchsorted(cum[bit], u[i, f], side="right")), ch.J - 1)
            value = value * ch.J + letter
        want.append(value)
    assert y.tolist() == want


def test_trace_to_file_object_matches_trace_to_path(tmp_path):
    ch, F, a, n_frames, seed = LIBRARY_RUNS["past_one_chunk"]
    assert n_frames > 1 << 16
    sset = decompose_paths(build_weighted_graph(F))
    path = tmp_path / "trace.csv"
    report = run_monte_carlo(ch, FrameConfig(F, a), sset, n_frames, seed, trace=str(path))
    again, text = _library_run(ch, F, a, n_frames, seed)
    assert again == report
    assert path.read_text() == text
    lines = text.splitlines()
    assert len(lines) == n_frames + 1
    assert [int(line.split(",", 1)[0]) for line in lines[1:]] == list(range(n_frames))


# each decimal width change a trace number passes: the largest frame index
# MAX_TABLE_BYTES admits has 8 digits, and L - 1 at F = 16 (L = 720 720) has 6
TRACE_NUMBERS = (0, 9, 10, 99, 100, 9_999, 10_000, 720_719, 99_999_999)


def _trace_numbers(rng, top, n):
    """n ints up to top: each TRACE_NUMBERS entry at or below it, top, then uniform draws."""
    edges = [v for v in TRACE_NUMBERS if v <= top] + [top]
    return rng.permutation(np.concatenate([edges, rng.integers(0, top + 1, n - len(edges))]))


@pytest.mark.parametrize(
    "labels", [("0", "1", "e"), ("α", "bb", "", "\x00"), ("\x00", "€x", "d")]
)
def test_trace_kernel_equals_str_format(labels):
    # a NUL label is a byte that prints, so a kernel that strips NULs fails here
    assert len(str(MAX_TABLE_BYTES // FRAME_BYTES - 1)) == 8
    F, J, n = 5, len(labels), 3000
    ch = BinaryInputChannel(np.full(J, 1 / J), np.full(J, 1 / J), labels)
    rng = np.random.default_rng(J)
    frame = _trace_numbers(rng, 99_999_999, n)
    s = _trace_numbers(rng, F, n)
    t = _trace_numbers(rng, 720_719, n)
    t_hat = _trace_numbers(rng, 720_719, n)
    x = rng.integers(0, 1 << F, n)
    y = rng.integers(0, J**F, n)
    y_bytes, y_keep = _label_field(ch, F, np.arange(J**F))
    tables = _four_digits()
    fields = [
        _digit_field(frame, 99_999_999, tables),
        _digit_field(s, F, tables),
        _digit_field(t, 720_719, tables),
        (bit_field(F, x), None),
        (y_bytes[y], None if y_keep is None else y_keep[y]),
        _digit_field(t_hat, 720_719, tables),
    ]
    assert (y_keep is None) == (len({len(v.encode()) for v in labels}) == 1)
    row = "{},{},{},{},{},{}\n".format
    want = [
        row(*v[:3], symbol_string(F, v[3]), output_string(F, v[4], ch), v[5])
        for v in zip(*(c.tolist() for c in (frame, s, t, x, y, t_hat)))
    ]
    assert csv_rows(fields) == "".join(want)


def test_trace_writer_adds_at_most_a_chunk_to_the_peak(tmp_path):
    # rows are formatted TRACE_CHUNK at a time, after the noise and decoder
    # buffers that set an untraced run's peak are freed
    ch, F = channel_preset("erasure", 0.2), 6
    sset = decompose_paths(build_weighted_graph(F))
    cfg = FrameConfig(F, 0.5)
    run_monte_carlo(ch, cfg, sset, 1000, 5, trace=io.StringIO())  # fills first-use caches
    peaks = []
    for trace in (None, tmp_path / "trace.csv"):
        tracemalloc.start()
        try:
            run_monte_carlo(ch, cfg, sset, 200_000, 5, trace=trace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 200_000 > 20 * TRACE_CHUNK
    assert peaks[1] <= peaks[0] + (1 << 20)


def test_run_monte_carlo_refuses_oversized_draws():
    ch = channel_preset("bsc", 0.1)
    F = 6
    sset = decompose_paths(build_weighted_graph(F))
    n_frames = MAX_TABLE_BYTES // FRAME_BYTES + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{n_frames} frames"):
            run_monte_carlo(ch, FrameConfig(F, 0.5), sset, n_frames, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_draws_read_the_one_ceiling(monkeypatch):
    ch, cfg, n_frames = channel_preset("bsc", 0.1), FrameConfig(4, 0.5), 100
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", n_frames * FRAME_BYTES - 1)
    with pytest.raises(ValueError, match=f"{n_frames} frames x {FRAME_BYTES} bytes") as info:
        run_monte_carlo(ch, cfg, SET4, n_frames, 1)
    assert str(info.value).endswith(f", over {n_frames * FRAME_BYTES - 1} bytes")
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", n_frames * FRAME_BYTES)
    assert run_monte_carlo(ch, cfg, SET4, n_frames, 1).frames == n_frames


def test_simulate_cli_refuses_oversized_draws(capsys):
    F = 3
    n_frames = MAX_TABLE_BYTES // FRAME_BYTES + 1
    argv = ["simulate", "--preset", "z", "--p", "0.1", "--a", "0.5", "--F", str(F)]
    assert run_cli(argv + ["--frames", str(n_frames)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(n_frames) in captured.err


def _no_draws(*args):
    raise AssertionError("a frame was drawn before the run's inputs were checked")


def test_run_monte_carlo_refuses_a_negative_seed_before_any_draw(monkeypatch):
    monkeypatch.setattr(simulate, "_draw_index", _no_draws)
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        run_monte_carlo(channel_preset("bsc", 0.1), FrameConfig(4, 0.5), SET4, 10, -1)


def test_simulate_cli_refuses_a_negative_seed(monkeypatch, capsys):
    monkeypatch.setattr(simulate, "_draw_index", _no_draws)
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "4"]
    assert run_cli(argv + ["--frames", "10", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"


def _no_dir(tmp_path):
    return tmp_path


def _no_parent(tmp_path):
    return tmp_path / "missing" / "trace.csv"


@pytest.mark.parametrize("bad_path", [_no_dir, _no_parent])
def test_run_monte_carlo_refuses_a_bad_trace_before_any_draw(monkeypatch, tmp_path, bad_path):
    monkeypatch.setattr(simulate, "_draw_index", _no_draws)
    ch, cfg = channel_preset("bsc", 0.1), FrameConfig(4, 0.5)
    with pytest.raises(OSError):
        run_monte_carlo(ch, cfg, SET4, 10, 1, trace=bad_path(tmp_path))


@pytest.mark.parametrize("bad_path", [_no_dir, _no_parent])
def test_simulate_cli_refuses_a_bad_trace_before_any_draw(monkeypatch, capsys, tmp_path, bad_path):
    monkeypatch.setattr(simulate, "_draw_index", _no_draws)
    argv = ["simulate", "--preset", "bsc", "--p", "0.1", "--a", "0.5", "--F", "4"]
    assert run_cli(argv + ["--frames", "10", "--trace", str(bad_path(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(bad_path(tmp_path)) in captured.err


# erasure F = 6 at 1 000 frames observes hundreds of outputs for 60 strategies,
# so a ceiling the frames just fit under is too small for the joint histogram.
# The one ceiling also sizes the set, so the library test builds it first
JOINT_RUN = ("erasure", "0.2", "0.5", 6, 1000)


def test_run_monte_carlo_refuses_an_oversized_joint(monkeypatch):
    preset, p, a, F, n_frames = JOINT_RUN
    sset = decompose_paths(build_weighted_graph(F))
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", n_frames * FRAME_BYTES)
    cfg = FrameConfig(F, float(a))
    with pytest.raises(ValueError, match="observed outputs"):
        run_monte_carlo(channel_preset(preset, float(p)), cfg, sset, n_frames, 1)


def test_the_joint_rule_refuses_a_byte_over_its_claim(monkeypatch):
    # the set is built and the frames fit under both ceilings, so the joint's
    # n_t x observed outputs x 25 bytes alone decides
    preset, p, a, F, n_frames = JOINT_RUN
    ch, cfg = channel_preset(preset, float(p)), FrameConfig(F, float(a))
    sset = decompose_paths(build_weighted_graph(F))
    rank, observed = simulate._rank_outputs, []

    def spy(*args):
        uniq_y = rank(*args)
        observed.append(len(uniq_y))
        return uniq_y

    monkeypatch.setattr(simulate, "_rank_outputs", spy)
    want = run_monte_carlo(ch, cfg, sset, n_frames, 1)
    claim = len(sset) * observed[0] * 25
    assert claim - 1 >= n_frames * FRAME_BYTES
    need = f"{len(sset)} strategies x {observed[0]} observed outputs x 25 bytes per cell"
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", claim - 1)
    with pytest.raises(ValueError, match=f"^{need}, over {claim - 1} bytes$"):
        run_monte_carlo(ch, cfg, sset, n_frames, 1)
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", claim)
    assert run_monte_carlo(ch, cfg, sset, n_frames, 1) == want
    assert observed == [observed[0]] * 3


def test_simulate_cli_prints_an_exact_zero_rate_as_0(capsys):
    # z at p = 1 reads every frame as all zeros, so the plug-in rate is a KL divergence of 0;
    # its rounding printed -3.05927231114e-16
    argv = ["simulate", "--preset", "z", "--p", "1", "--a", "1", "--F", "5"]
    assert run_cli(argv + ["--frames", "100", "--seed", "1"]) == 0
    assert "empirical_mi 0\nanalytical_mi 0\n" in capsys.readouterr().out


def test_simulate_cli_refuses_an_oversized_joint(monkeypatch, capsys):
    preset, p, a, F, n_frames = JOINT_RUN
    # the CLI builds the set under the ceiling: L x STRATEGY_BYTES = 122 880 bytes at F = 6
    limit = lcm_binomials(F) * STRATEGY_BYTES
    assert limit >= n_frames * FRAME_BYTES
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", limit)
    argv = ["simulate", "--preset", preset, "--p", p, "--a", a, "--F", str(F)]
    assert run_cli(argv + ["--frames", str(n_frames)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "observed outputs" in captured.err


def test_run_monte_carlo_memory_is_bounded_per_frame():
    # noise is drawn in fixed-size blocks, so the peak is the per-frame arrays
    ch = channel_preset("bsc", 0.2)
    cfg = FrameConfig(8, 0.5)
    sset = decompose_paths(build_weighted_graph(8))
    n_frames = 200_000
    tracemalloc.start()
    try:
        run_monte_carlo(ch, cfg, sset, n_frames, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * n_frames
    assert peak < FRAME_BYTES * n_frames


@pytest.mark.parametrize(("preset", "F"), [("bsc", 8), ("erasure", 7)])
def test_run_monte_carlo_holds_compact_frames(preset, F):
    # the state draw, the strategy draw and the ranked output are the only
    # per-frame arrays, each in its narrowest unsigned type: 1 + 2 + 1 bytes a
    # frame at bsc F = 8 and 1 + 1 + 2 at erasure F = 7, the rest in blocks
    ch, cfg = channel_preset(preset, 0.2), FrameConfig(F, 0.5)
    sset = decompose_paths(build_weighted_graph(F))
    n_frames = 10**6
    tracemalloc.start()
    try:
        run_monte_carlo(ch, cfg, sset, n_frames, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n_frames
