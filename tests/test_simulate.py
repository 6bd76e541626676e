import numpy as np
import pytest

from reference import map_decode, transmit
from reorderchan import (
    FrameConfig,
    build_weighted_graph,
    channel_preset,
    decompose_paths,
    encode,
    run_monte_carlo,
    state_pmf,
    weight,
)
from reorderchan.simulate import _decode_observed

SET4 = decompose_paths(build_weighted_graph(4))


def test_encode():
    assert [encode(SET4, 0, s) for s in range(5)] == [0, 1, 3, 7, 15]
    assert encode(SET4, 0, 0) == 0
    assert encode(SET4, 3, 4) == 15
    with pytest.raises(ValueError):
        encode(SET4, 12, 2)
    with pytest.raises(ValueError):
        encode(SET4, 0, 5)


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


def _decode_all(sset, ch, cfg, ys):
    return list(_decode_observed(sset, ch, cfg, state_pmf(cfg), np.asarray(ys, dtype=np.int64)))


def test_map_decode_noiseless_roundtrip():
    ch = channel_preset("bsc", 0.0)
    cfg = FrameConfig(4, 0.5)
    for t in range(len(SET4)):
        for s in range(5):
            x = encode(SET4, t, s)
            t_hat = map_decode(SET4, ch, cfg, x)
            # states 0 and 4 are shared, so only the sent symbol must match
            assert encode(SET4, t_hat, s) == x


def test_map_decode_matches_vectorized_decode():
    cfg = FrameConfig(4, 0.35)
    for kind, p in (("erasure", 0.2), ("bsc", 0.2), ("z", 0.2), ("bsc", 0.0)):
        ch = channel_preset(kind, p)
        ys = range(ch.J**4)
        assert _decode_all(SET4, ch, cfg, ys) == [map_decode(SET4, ch, cfg, y) for y in ys]


def test_map_decode_tie_goes_to_smallest_index():
    ch = channel_preset("bsc", 0.0)
    cfg = FrameConfig(4, 0.5)
    assert map_decode(SET4, ch, cfg, 0) == 0
    assert map_decode(SET4, ch, cfg, 15) == 0
    erased = channel_preset("erasure", 0.4)
    assert map_decode(SET4, erased, cfg, 3**4 - 1) == 0
    assert _decode_all(SET4, ch, cfg, [0, 15]) == [0, 0]
    assert _decode_all(SET4, erased, cfg, [3**4 - 1]) == [0]


def test_map_decode_rejects_impossible_output():
    ch = channel_preset("erasure", 1.0)
    cfg = FrameConfig(2, 0.5)
    sset = decompose_paths(build_weighted_graph(2))
    with pytest.raises(ValueError):
        map_decode(sset, ch, cfg, 0)
    with pytest.raises(ValueError):
        _decode_all(sset, ch, cfg, [0])


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
        assert encode(sset, int(t), int(s)) == int(x, 2)
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
