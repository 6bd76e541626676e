import tracemalloc

import numpy as np
import pytest

from reorderchan import (
    BinaryInputChannel,
    binary_entropy,
    channel_preset,
    entropy_bits,
    row_entropy,
)
from reorderchan import channel


def test_entropy_bits_basics():
    assert entropy_bits((1.0, 0.0)) == 0.0
    assert entropy_bits((0.5, 0.5)) == 1.0
    assert abs(entropy_bits([1 / 8] * 8) - 3.0) < 1e-12


def test_mask_free_row_entropies_equal_the_masked_form():
    # rows with zeros, a one, subnormals and a single nonzero cell, then wide
    # rows whose sums run through numpy's unrolled pairwise loop
    p = np.array([
        [0.5, 0.0, 0.25, 0.25],
        [0.0, 1.0, 0.0, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [5e-324, 1e-310, 0.0, 1.0 - 1e-310],
        [0.0, 0.0, 0.0, 0.7],
        [1.0, 1.0, 5e-324, 0.0],
    ])
    rng = np.random.default_rng(3)
    wide = rng.dirichlet(np.ones(40), size=5) * (rng.random((5, 40)) < 0.6)
    wide[0, :] = 0.0
    wide[0, 17] = 1.0
    for rows in (p, wide):
        logs = np.zeros_like(rows)
        np.log2(rows, out=logs, where=rows > 0)
        masked = -(rows * logs).sum(axis=1)
        assert entropy_bits(rows).tobytes() == masked.tobytes()
    assert entropy_bits(p)[:3].tolist() == [1.5, 0.0, entropy_bits(p[2])]


def test_a_vector_takes_the_matrix_path():
    # each row's entropy as a vector is its matrix entropy bit for bit, NaN included
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(40), size=6) * (rng.random((6, 40)) < 0.6)
    rows[1, 3] = np.nan
    h = entropy_bits(rows)
    for row, want in zip(rows, h):
        got = entropy_bits(row)
        assert type(got) is float
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(h[1]) and not np.isnan(np.delete(h, 1)).any()
    assert str(entropy_bits([0.0, 1.0])) == "0.0"


def _masked_entropies(rows):
    logs = np.zeros_like(rows)
    np.log2(rows, out=logs, where=rows > 0)
    return -(rows * logs).sum(axis=-1)


def test_chunked_row_entropies_are_bit_exact(monkeypatch):
    # chunks of one row, rows longer than a chunk, a ragged last chunk, and a
    # row with a NaN cell; every row's entropy is the one it gets taken whole,
    # as a vector and in the masked form, byte for byte
    rng = np.random.default_rng(7)
    chunks = []

    def spy(p, out=None):
        chunks.append((len(p), None if out is None else out.size))
        return row_entropies(p, out)

    row_entropies = channel._row_entropies
    monkeypatch.setattr(channel, "_row_entropies", spy)
    for n, width in ((13, 40), (10, 1), (11, 9), (4, 300)):
        rows = rng.dirichlet(np.ones(width), size=n) * (rng.random((n, width)) < 0.7)
        rows[n // 2, -1] = np.nan
        vector = np.array([entropy_bits(row) for row in rows])
        masked = _masked_entropies(rows)
        finite = ~np.isnan(masked)
        for cells in (1, 7, width - 1, width, width + 1, 3 * width):
            monkeypatch.setattr(channel, "ENTROPY_CELLS", cells)
            chunks.clear()
            h = entropy_bits(rows)
            assert (h + 0.0).tobytes() == vector.tobytes(), (n, width, cells)
            assert h[finite].tobytes() == masked[finite].tobytes(), (n, width, cells)
            assert np.isnan(h[~finite]).all()
            if rows.size > cells:
                step = max(1, cells // width)
                assert [c for c, _ in chunks] == [step] * (n // step) + [n % step] * (n % step > 0)
                assert {size for _, size in chunks} <= {step * width, n % step * width}
            else:
                assert chunks == [(n, None)]
    monkeypatch.setattr(channel, "ENTROPY_CELLS", 1)
    assert entropy_bits(np.zeros((3, 0))).tobytes() == np.array([-0.0, -0.0, -0.0]).tobytes()
    assert entropy_bits(np.zeros((0, 5))).shape == (0,)
    assert entropy_bits(np.zeros((0, 0))).shape == (0,)


def test_row_entropies_hold_one_bounded_scratch():
    # 200 erasure laws over 3^8 outputs take 10.5 MB whole; their terms pass
    # through at most ENTROPY_CELLS float64 cells, beside the entropies
    rng = np.random.default_rng(8)
    rows = rng.dirichlet(np.ones(6561), size=200)
    tracemalloc.start()
    try:
        h = entropy_bits(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < channel.ENTROPY_CELLS * 8 + h.nbytes, peak
    assert h.tobytes() == _masked_entropies(rows).tobytes()


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # h(0.25) = 2 - 0.75 log2 3
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-15


def test_erasure_preset_rows():
    ch = channel_preset("erasure", 0.2)
    assert ch.q0 == (0.8, 0.0, 0.2)
    assert ch.q1 == (0.0, 0.8, 0.2)
    assert ch.output_labels == ("0", "1", "e")
    assert ch.J == 3


def test_erasure_preset_noiseless():
    ch = channel_preset("erasure", 0.0)
    assert ch.q0 == (1.0, 0.0, 0.0)
    assert ch.q1 == (0.0, 1.0, 0.0)


def test_bsc_preset_rows():
    ch = channel_preset("bsc", 0.5)
    assert ch.q0 == (0.5, 0.5)
    assert ch.q1 == (0.5, 0.5)
    assert ch.output_labels == ("0", "1")


def test_z_preset_rows():
    ch = channel_preset("z", 0.2)
    assert ch.q0 == (1.0, 0.0)
    assert ch.q1 == (0.2, 0.8)


@pytest.mark.parametrize("p", [-0.1, 1.5, 2.0])
def test_preset_rejects_bad_p(p):
    with pytest.raises(ValueError):
        channel_preset("erasure", p)


def test_preset_rejects_unknown_kind():
    with pytest.raises(ValueError):
        channel_preset("awgn", 0.1)


def test_channel_validation():
    with pytest.raises(ValueError):
        BinaryInputChannel((0.5, 0.5), (0.3, 0.3, 0.4), ("0", "1"))
    with pytest.raises(ValueError):
        BinaryInputChannel((1.0,), (1.0,), ("0",))
    with pytest.raises(ValueError):
        BinaryInputChannel((0.5, 0.5), (0.6, 0.5), ("0", "1"))
    with pytest.raises(ValueError):
        BinaryInputChannel((-0.1, 1.1), (0.5, 0.5), ("0", "1"))
    with pytest.raises(ValueError):
        BinaryInputChannel((0.5, 0.5), (0.5, 0.5), ("0", "1", "2"))


@pytest.mark.parametrize("bad", ["a,b", 'say "e"', "\r", "e\n"])
def test_channel_refuses_a_label_that_breaks_a_trace_field(bad):
    # labels go bare into --trace CSV fields: ("a,b", "c") wrote 7 fields under a 6-field header
    with pytest.raises(ValueError, match="^output labels must not hold a comma, a quote or a line"):
        BinaryInputChannel((0.5, 0.5), (0.5, 0.5), (bad, "c"))
    # an empty label and a NUL still print as fields of their own
    assert BinaryInputChannel((0.5, 0.5), (0.5, 0.5), ("", "\x00")).output_labels == ("", "\x00")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_channel_rejects_nonfinite_rows(bad):
    # every comparison with NaN is False, so each check must be written to fail on it
    with pytest.raises(ValueError, match="lie in"):
        BinaryInputChannel((bad, 1.0), (0.0, 1.0), ("0", "1"))
    with pytest.raises(ValueError, match="lie in"):
        BinaryInputChannel((1.0, 0.0), (0.0, bad), ("0", "1"))


def test_row_and_matrix():
    ch = channel_preset("z", 0.3)
    assert np.allclose(ch.row(0), [1.0, 0.0])
    assert np.allclose(ch.row(1), [0.3, 0.7])
    assert ch.matrix().shape == (2, 2)
    with pytest.raises(ValueError):
        ch.row(2)


def test_row_entropy_values():
    assert row_entropy(channel_preset("erasure", 0.0), 0) == 0.0
    assert row_entropy(channel_preset("z", 0.2), 0) == 0.0
    # h(0.2)
    assert abs(row_entropy(channel_preset("bsc", 0.2), 1) - 0.7219280948873623) < 1e-15
    assert abs(row_entropy(channel_preset("z", 0.2), 1) - 0.7219280948873623) < 1e-15
    # the erasure rows both carry h(p)
    ch = channel_preset("erasure", 0.3)
    assert abs(row_entropy(ch, 0) - binary_entropy(0.3)) < 1e-15
    assert abs(row_entropy(ch, 1) - binary_entropy(0.3)) < 1e-15


def test_labels_coerced_to_strings():
    ch = BinaryInputChannel((0.5, 0.5), (0.5, 0.5), (0, 1))
    assert ch.output_labels == ("0", "1")
