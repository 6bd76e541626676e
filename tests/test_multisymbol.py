import numpy as np
import pytest

import reference as ref
from reorderchan import (
    FrameConfig,
    Multisymbol,
    basic_multisymbol,
    channel_preset,
    entropy_bits,
    is_minimal,
    likelihood_rows,
    multisymbol_strings,
    state_pmf,
)
from reorderchan.capacity import _all_maps


def all_maps(F):
    return [Multisymbol(F, tuple(row)) for row in _all_maps(F)]


def output_law(ch, cfg, m):
    """P(y | m) with the frame state mixed, through the package's one likelihood path."""
    return state_pmf(cfg) @ likelihood_rows(ch, cfg.F, list(m.reps))


def output_entropy(ch, cfg, m):
    return entropy_bits(output_law(ch, cfg, m))


def test_basic_multisymbol():
    assert basic_multisymbol(3).reps == (0, 1, 3, 7)
    assert basic_multisymbol(1).reps == (0, 1)
    assert basic_multisymbol(4).reps == (0, 1, 3, 7, 15)


def test_multisymbol_validation():
    Multisymbol(2, (0, 2, 3))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 1))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 3, 3))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 1, 7))


def test_is_minimal():
    assert is_minimal(basic_multisymbol(5))
    assert not is_minimal(Multisymbol(3, (0, 1, 6, 7)))


def test_is_minimal_follows_the_pairwise_distance_rule():
    for F in range(1, 5):
        for m in all_maps(F):
            pairwise = all(
                (m.reps[i] ^ m.reps[j]).bit_count() == j - i
                for i in range(F + 1)
                for j in range(i + 1, F + 1)
            )
            assert is_minimal(m) == pairwise, m


def test_minimal_count_is_factorial():
    for F, fact in ((3, 6), (4, 24), (5, 120)):
        count = sum(1 for m in all_maps(F) if is_minimal(m))
        assert count == fact


def test_iter_all_multisymbols():
    all3 = all_maps(3)
    assert len(all3) == 9
    assert len({m.reps for m in all3}) == 9
    assert all3[0].reps == basic_multisymbol(3).reps


def test_mixture_output_pmf_noiseless():
    ch = channel_preset("bsc", 0.0)
    pmf = output_law(ch, FrameConfig(2, 0.5), basic_multisymbol(2))
    assert np.allclose(pmf, [0.25, 0.5, 0.0, 0.25])


def test_mixture_output_pmf_all_erased():
    ch = channel_preset("erasure", 1.0)
    pmf = output_law(ch, FrameConfig(2, 0.5), basic_multisymbol(2))
    assert pmf[-1] == pytest.approx(1.0)
    assert pmf[:-1].sum() == pytest.approx(0.0, abs=1e-15)


def test_output_pmf_given_t_matches_reference():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(2, 0.5)
    pmf = output_law(ch, cfg, basic_multisymbol(2))
    want = ref.mixture_output_pmf(
        "erasure", 0.2, list(zip(("00", "01", "11"), ref.state_probs(2, 0.5)))
    )
    for y, ys in enumerate(ref.all_outputs("erasure", 2)):
        assert pmf[y] == pytest.approx(want.get(ys, 0.0), abs=1e-14)


def test_entropy_output_given_t():
    noiseless = channel_preset("bsc", 0.0)
    cfg = FrameConfig(2, 0.5)
    assert output_entropy(noiseless, cfg, basic_multisymbol(2)) == pytest.approx(1.5)
    # brute-force enumeration over output strings
    ch = channel_preset("erasure", 0.2)
    got = output_entropy(ch, cfg, basic_multisymbol(2))
    assert got == pytest.approx(2.6634651896016477, abs=1e-12)


def test_entropy_output_given_t_deterministic_state():
    ch = channel_preset("bsc", 0.15)
    m = basic_multisymbol(3)
    got = output_entropy(ch, FrameConfig(3, 0.0), m)
    assert got == pytest.approx(ref.conditional_output_entropy("bsc", 0.15, "000"), abs=1e-12)


def test_positionwise_bound_values():
    noiseless = channel_preset("bsc", 0.0)
    cfg = FrameConfig(2, 0.5)
    m = basic_multisymbol(2)
    bound = ref.positionwise_entropy_sum("bsc", 0.0, 0.5, multisymbol_strings(m))
    # each position sees a 1 with probability 1/4
    assert bound == pytest.approx(1.6225562489182657, abs=1e-12)
    assert bound >= output_entropy(noiseless, cfg, m)


def test_positionwise_bound_tight_cases():
    ch = channel_preset("erasure", 0.3)
    m = basic_multisymbol(4)
    for a in (0.0, 1.0):
        exact = output_entropy(ch, FrameConfig(4, a), m)
        bound = ref.positionwise_entropy_sum("erasure", 0.3, a, multisymbol_strings(m))
        assert bound == pytest.approx(exact, abs=1e-10)
    # a single position is always tight
    m1 = basic_multisymbol(1)
    assert ref.positionwise_entropy_sum("erasure", 0.3, 0.4, ["0", "1"]) == pytest.approx(
        output_entropy(ch, FrameConfig(1, 0.4), m1), abs=1e-12
    )


def test_positionwise_sum_tight_only_for_adjacent_symbols():
    ch = channel_preset("bsc", 0.0)

    def per_position_sum(xs, wts):
        total = 0.0
        for f in range(2):
            bits = [(x >> (1 - f)) & 1 for x in xs]
            u = np.asarray(wts) @ ch.matrix()[bits]
            total += entropy_bits(u)
        return total

    near = (0b00, 0b01)
    far = (0b00, 0b11)
    for xs in (near, far):
        exact = entropy_bits(np.array([0.5, 0.5]) @ likelihood_rows(ch, 2, list(xs)))
        split = per_position_sum(xs, (0.5, 0.5))
        if xs is near:
            assert split == pytest.approx(exact, abs=1e-12)
        else:
            assert split > exact + 0.9


def test_mutual_info_within():
    assert ref.strategy_mutual_info("bsc", 0.0, 0.5, ("00", "01", "11")) == pytest.approx(1.5)
    for a in (0.0, 1.0):
        got = ref.strategy_mutual_info("erasure", 0.25, a, ("000", "001", "011", "111"))
        assert got == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_within_prefers_minimal():
    # values pinned by string-space enumeration in reference.py
    far = ["00000", "00001", "00110", "11100", "10111", "11111"]
    assert not is_minimal(Multisymbol(5, tuple(int(b, 2) for b in far)))
    v_min = ref.strategy_mutual_info("bsc", 0.2, 0.5, multisymbol_strings(basic_multisymbol(5)))
    v_far = ref.strategy_mutual_info("bsc", 0.2, 0.5, far)
    assert v_min == pytest.approx(0.6620468524128729, abs=1e-10)
    assert v_far == pytest.approx(1.0457818739384819, abs=1e-10)
    assert v_min < v_far


def test_mutual_info_within_matches_reference():
    # package path: H(Y | t) from the state-mixed law minus the mean per-symbol noise entropy
    cfg = FrameConfig(3, 0.4)
    m = basic_multisymbol(3)
    for kind in ("erasure", "z"):
        ch = channel_preset(kind, 0.3)
        noise = state_pmf(cfg) @ entropy_bits(likelihood_rows(ch, 3, list(m.reps)))
        got = output_entropy(ch, cfg, m) - noise
        want = ref.strategy_mutual_info(kind, 0.3, 0.4, ("000", "001", "011", "111"))
        assert got == pytest.approx(want, abs=1e-12)


def test_multisymbol_string_roundtrip():
    m = basic_multisymbol(3)
    assert multisymbol_strings(m) == ["000", "001", "011", "111"]
    scrambled = Multisymbol(4, (0, 2, 10, 11, 15))
    assert multisymbol_strings(scrambled) == ["0000", "0010", "1010", "1011", "1111"]
