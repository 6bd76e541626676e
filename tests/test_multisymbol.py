from itertools import permutations

import numpy as np
import pytest

import reference as ref
from reorderchan import (
    FrameConfig,
    Multisymbol,
    StrategySet,
    channel_preset,
    entropy_bits,
    likelihood_rows,
    state_pmf,
    symbol_string,
)
from reorderchan import capacity
from reorderchan.capacity import _all_maps

# the staircase 0^(F-s) 1^s for each state s, at F = 1..5
STAIRCASE = {F: tuple((1 << s) - 1 for s in range(F + 1)) for F in range(1, 6)}


def output_law(ch, cfg, reps):
    """P(y | t) with the frame state mixed, through the package's one likelihood path."""
    return state_pmf(cfg) @ likelihood_rows(ch, cfg.F, list(reps))


def output_entropy(ch, cfg, reps):
    return entropy_bits(output_law(ch, cfg, reps))


def bit_strings(F, reps):
    return [symbol_string(F, x) for x in reps]


def position_orbit(F, reps):
    """The distinct position permutations of one map, as a set with a flat pmf."""
    rows = {
        tuple(sum(((x >> (F - 1 - f)) & 1) << (F - 1 - pi[f]) for f in range(F)) for x in reps)
        for pi in permutations(range(F))
    }
    return StrategySet(np.array(sorted(rows)), np.full(len(rows), 1.0 / len(rows)))


def test_multisymbol_validation():
    Multisymbol(2, (0, 2, 3))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 1))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 3, 3))
    with pytest.raises(ValueError):
        Multisymbol(2, (0, 1, 7))


def test_is_minimal():
    # a map's orbit covers each weight class evenly, so only its chain test can fail
    assert ref.is_minimal(STAIRCASE[5])
    assert capacity._is_staircase_orbit(position_orbit(5, STAIRCASE[5]))
    assert not ref.is_minimal((0, 1, 6, 7))
    assert not capacity._is_staircase_orbit(position_orbit(3, (0, 1, 6, 7)))


def test_is_minimal_follows_the_pairwise_distance_rule():
    # the package's chain test on each map's orbit against the reference pairwise predicate
    for F in range(1, 5):
        for reps in _all_maps(F).tolist():
            orbit = position_orbit(F, reps)
            assert capacity._is_staircase_orbit(orbit) == ref.is_minimal(reps), reps


def test_minimal_count_is_factorial():
    for F, fact in ((3, 6), (4, 24), (5, 120)):
        count = sum(1 for reps in _all_maps(F).tolist() if ref.is_minimal(reps))
        assert count == fact


def test_iter_all_multisymbols():
    all3 = [tuple(reps) for reps in _all_maps(3).tolist()]
    assert len(all3) == 9
    assert len(set(all3)) == 9
    assert all3[0] == STAIRCASE[3]


def test_mixture_output_pmf_noiseless():
    ch = channel_preset("bsc", 0.0)
    pmf = output_law(ch, FrameConfig(2, 0.5), STAIRCASE[2])
    assert np.allclose(pmf, [0.25, 0.5, 0.0, 0.25])


def test_mixture_output_pmf_all_erased():
    ch = channel_preset("erasure", 1.0)
    pmf = output_law(ch, FrameConfig(2, 0.5), STAIRCASE[2])
    assert pmf[-1] == pytest.approx(1.0)
    assert pmf[:-1].sum() == pytest.approx(0.0, abs=1e-15)


def test_output_pmf_given_t_matches_reference():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(2, 0.5)
    pmf = output_law(ch, cfg, STAIRCASE[2])
    want = ref.mixture_output_pmf(
        "erasure", 0.2, list(zip(("00", "01", "11"), ref.state_probs(2, 0.5)))
    )
    for y, ys in enumerate(ref.all_outputs("erasure", 2)):
        assert pmf[y] == pytest.approx(want.get(ys, 0.0), abs=1e-14)


def test_entropy_output_given_t():
    noiseless = channel_preset("bsc", 0.0)
    cfg = FrameConfig(2, 0.5)
    assert output_entropy(noiseless, cfg, STAIRCASE[2]) == pytest.approx(1.5)
    # brute-force enumeration over output strings
    ch = channel_preset("erasure", 0.2)
    got = output_entropy(ch, cfg, STAIRCASE[2])
    assert got == pytest.approx(2.6634651896016477, abs=1e-12)


def test_entropy_output_given_t_deterministic_state():
    ch = channel_preset("bsc", 0.15)
    m = STAIRCASE[3]
    got = output_entropy(ch, FrameConfig(3, 0.0), m)
    assert got == pytest.approx(ref.conditional_output_entropy("bsc", 0.15, "000"), abs=1e-12)


def test_positionwise_bound_values():
    noiseless = channel_preset("bsc", 0.0)
    cfg = FrameConfig(2, 0.5)
    m = STAIRCASE[2]
    bound = ref.positionwise_entropy_sum("bsc", 0.0, 0.5, bit_strings(2, m))
    # each position sees a 1 with probability 1/4
    assert bound == pytest.approx(1.6225562489182657, abs=1e-12)
    assert bound >= output_entropy(noiseless, cfg, m)


def test_positionwise_bound_tight_cases():
    ch = channel_preset("erasure", 0.3)
    m = STAIRCASE[4]
    for a in (0.0, 1.0):
        exact = output_entropy(ch, FrameConfig(4, a), m)
        bound = ref.positionwise_entropy_sum("erasure", 0.3, a, bit_strings(4, m))
        assert bound == pytest.approx(exact, abs=1e-10)
    # a single position is always tight
    m1 = STAIRCASE[1]
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
    assert not ref.is_minimal([int(b, 2) for b in far])
    v_min = ref.strategy_mutual_info("bsc", 0.2, 0.5, bit_strings(5, STAIRCASE[5]))
    v_far = ref.strategy_mutual_info("bsc", 0.2, 0.5, far)
    assert v_min == pytest.approx(0.6620468524128729, abs=1e-10)
    assert v_far == pytest.approx(1.0457818739384819, abs=1e-10)
    assert v_min < v_far


def test_mutual_info_within_matches_reference():
    # package path: H(Y | t) from the state-mixed law minus the mean per-symbol noise entropy
    cfg = FrameConfig(3, 0.4)
    m = STAIRCASE[3]
    for kind in ("erasure", "z"):
        ch = channel_preset(kind, 0.3)
        noise = state_pmf(cfg) @ entropy_bits(likelihood_rows(ch, 3, list(m)))
        got = output_entropy(ch, cfg, m) - noise
        want = ref.strategy_mutual_info(kind, 0.3, 0.4, ("000", "001", "011", "111"))
        assert got == pytest.approx(want, abs=1e-12)


def test_multisymbol_string_roundtrip():
    assert bit_strings(3, STAIRCASE[3]) == ["000", "001", "011", "111"]
    scrambled = Multisymbol(4, (0, 2, 10, 11, 15))
    assert bit_strings(4, scrambled.reps) == ["0000", "0010", "1010", "1011", "1111"]
