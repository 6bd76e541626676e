"""Acceptance checks for the whole package, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Each criterion states its own tolerance; expected values come either from
closed forms checked in the unit tests or from the string-space brute force
in reference.py.
"""

import functools
from math import factorial

import numpy as np
import pytest

import reference as ref
from reorderchan import (
    FrameConfig,
    Multisymbol,
    build_weighted_graph,
    c_xy,
    channel_preset,
    decompose_paths,
    entropy_bits,
    enumerate_weight_class,
    errorless_capacity,
    lcm_binomials,
    likelihood_rows,
    mutual_info_TY,
    oracle_capacity,
    representative_multiplicity,
    run_monte_carlo,
    state_pmf,
    sweep_point,
    symbol_string,
    z_fixed_input_capacity,
    z_point_capacity,
)
from reorderchan import frame_space
from reorderchan.capacity import ORBIT_BYTES, _all_maps, oracle_solve, strategy_space_size

PRESETS = ("erasure", "bsc", "z")


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return run

    return wrap


@criterion(1, "constructed set matches the brute-force oracle")
def test_acceptance_1():
    for F in (2, 3, 4, 5):
        sset = decompose_paths(build_weighted_graph(F))
        for kind in PRESETS:
            for p in (0.1, 0.2):
                ch = channel_preset(kind, p)
                for a in (0.3, 0.5):
                    cfg = FrameConfig(F, a)
                    constructed = mutual_info_TY(ch, cfg, sset).i_ty
                    oracle = oracle_capacity(ch, cfg)
                    assert abs(constructed - oracle) < 1e-6, (F, kind, p, a)


@criterion(1, "constructed set matches the brute-force oracle at F = 6")
def test_acceptance_1_at_f6():
    # the all-maps table would hold 162000 x 729 entries; the orbit solve mixes 374 x 729
    sset = decompose_paths(build_weighted_graph(6))
    cfg = FrameConfig(6, 0.5)
    for kind in PRESETS:
        ch = channel_preset(kind, 0.2)
        oracle = oracle_capacity(ch, cfg)
        assert abs(mutual_info_TY(ch, cfg, sset).i_ty - oracle) < 1e-9, kind


@criterion(1, "constructed set matches the brute-force oracle at F = 7")
def test_acceptance_1_at_f7():
    # 26.5 M maps x 2187 outputs, never built: the orbit solve runs on 8 535 orbits
    sset = decompose_paths(build_weighted_graph(7))
    cfg = FrameConfig(7, 0.5)
    for kind in PRESETS:
        ch = channel_preset(kind, 0.2)
        oracle = oracle_solve(ch, cfg)
        # BA's capacity is a lower bound on C, and C - capacity <= gap
        excess = mutual_info_TY(ch, cfg, sset).i_ty - oracle.capacity
        assert -1e-9 <= excess <= oracle.gap + 1e-9, (kind, excess, oracle.gap)


@criterion(1, "constructed set matches the brute-force oracle at F = 8")
def test_acceptance_1_at_f8():
    # 423 076 orbits of 2.1e10 maps, built once for both presets; erasure's 3^8 outputs
    # take about 12 s of orbit laws a point, so CI checks it in a step of its own
    sset = decompose_paths(build_weighted_graph(8))
    cfg = FrameConfig(8, 0.5)
    for kind in ("bsc", "z"):
        ch = channel_preset(kind, 0.2)
        oracle = oracle_solve(ch, cfg)
        assert oracle.gap == 0.0, kind
        assert abs(mutual_info_TY(ch, cfg, sset).i_ty - oracle.capacity) <= 1e-12, kind


@criterion(2, "noiseless rate equals the errorless closed form")
def test_acceptance_2():
    ch = channel_preset("bsc", 0.0)
    for F in range(1, 7):
        sset = decompose_paths(build_weighted_graph(F))
        for a in np.arange(0.1, 0.95, 0.1):
            cfg = FrameConfig(F, float(a))
            got = mutual_info_TY(ch, cfg, sset).i_ty
            assert abs(got - errorless_capacity(cfg)) < 1e-9, (F, a)


@criterion(3, "construction is valid, minimal, and evenly covering")
def test_acceptance_3():
    assert lcm_binomials(4) == 12
    assert lcm_binomials(7) == 105
    assert representative_multiplicity(7, 1) == 15
    for F in range(1, 9):
        sset = decompose_paths(build_weighted_graph(F))
        L = lcm_binomials(F)
        assert len(sset) == L
        assert all(w == 1.0 / L for w in sset.pmf)
        for m in sset.multisymbols:
            assert ref.is_minimal(m.reps)
        for s in range(F + 1):
            counts = {}
            for m in sset.multisymbols:
                counts[m.reps[s]] = counts.get(m.reps[s], 0) + 1
            assert sorted(counts) == enumerate_weight_class(F, s)
            assert set(counts.values()) == {representative_multiplicity(F, s)}
    # the uneven layer at F=7 splits 15 units as three 3s and three 2s
    graph = build_weighted_graph(7)
    for x in graph.layers[1]:
        out = sorted(w for (x1, _), w in graph.weights[1].items() if x1 == x)
        assert out == [2, 2, 2, 3, 3, 3]
    assert [m.reps for m in decompose_paths(build_weighted_graph(2)).multisymbols] == [
        (0, 1, 3),
        (0, 2, 3),
    ]
    assert [m.reps for m in decompose_paths(build_weighted_graph(3)).multisymbols] == [
        (0, 1, 3, 7),
        (0, 2, 6, 7),
        (0, 4, 5, 7),
    ]


@criterion(4, "per-symbol noise entropy matches direct enumeration")
def test_acceptance_4():
    for F in range(1, 6):
        for kind in PRESETS:
            for p in (0.1, 0.3):
                ch = channel_preset(kind, p)
                for x in range(1 << F):
                    got = entropy_bits(likelihood_rows(ch, F, [x]))
                    want = ref.conditional_output_entropy(kind, p, symbol_string(F, x))
                    assert abs(got - want) < 1e-10, (F, kind, p, x)


@criterion(5, "minimal multisymbols attain the least output entropy")
def test_acceptance_5():
    all3 = [Multisymbol(3, tuple(row)) for row in _all_maps(3)]
    for kind in PRESETS:
        for p in (0.1, 0.3):
            ch = channel_preset(kind, p)
            for a in (0.3, 0.5):
                cfg = FrameConfig(3, a)
                ents = [output_entropy(ch, cfg, m) for m in all3]
                within = [ref.strategy_mutual_info(kind, p, a, bit_strings(m)) for m in all3]
                best = min(ents)
                minimal_ents = [e for e, m in zip(ents, all3) if ref.is_minimal(m.reps)]
                other_ents = [e for e, m in zip(ents, all3) if not ref.is_minimal(m.reps)]
                minimal_within = [v for v, m in zip(within, all3) if ref.is_minimal(m.reps)]
                assert len(minimal_ents) == 6
                assert all(abs(e - best) < 1e-10 for e in minimal_ents)
                assert max(minimal_ents) - min(minimal_ents) < 1e-10
                assert all(e > best + 1e-6 for e in other_ents)
                assert max(minimal_within) - min(minimal_within) < 1e-10


@criterion(6, "rates respect the bound chain and grow per packet")
def test_acceptance_6():
    prev = -1.0
    for F in range(1, 11):
        # a byte short of the oracle's orbit partition, S // F! x ORBIT_BYTES; the constructed
        # rate's split tables, at most 3 x 6^(F - F // 2) cells of 8 bytes, still fit, except
        # at F = 3, where they take 54 cells, 432 bytes, to the partition's 384: both run there
        limit = 8 * 54 if F == 3 else strategy_space_size(F) // factorial(F) * ORBIT_BYTES - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frame_space, "MAX_TABLE_BYTES", limit)
            row = sweep_point("erasure", 0.2, 0.5, F)
        if F == 3:
            assert abs(row.c_oracle - row.c_constructed) < 1e-6
        else:
            assert row.c_oracle is None
        assert 0.0 <= row.c_constructed <= row.c_xy + 1e-9
        assert row.c_xy <= row.outer_bound + 1e-9
        assert abs(row.c_xy - 0.8 * F) < 1e-9
        per_packet = row.c_constructed / F
        assert per_packet >= prev - 1e-9
        assert per_packet <= 0.8 + 1e-9
        prev = per_packet
    for kind in ("bsc", "z"):
        for F in (2, 3):
            row = sweep_point(kind, 0.15, 0.4, F)
            assert 0.0 <= row.c_constructed <= row.c_xy + 1e-9
            assert row.c_xy <= row.outer_bound + 1e-9
            assert row.c_oracle is not None
            assert abs(row.c_oracle - row.c_constructed) < 1e-6


@criterion(7, "per-position entropy sum upper-bounds the exact entropy")
def test_acceptance_7():
    rng = np.random.default_rng(20260821)
    for _ in range(1000):
        F = int(rng.integers(1, 6))
        kind = PRESETS[rng.integers(0, 3)]
        p = float(rng.random())
        cfg = FrameConfig(F, float(rng.random()))
        m = random_multisymbol(F, rng)
        exact = output_entropy(channel_preset(kind, p), cfg, m)
        split = ref.positionwise_entropy_sum(kind, p, cfg.a, bit_strings(m))
        assert split >= exact - 1e-10
    for _ in range(100):
        F = int(rng.integers(1, 6))
        kind = PRESETS[rng.integers(0, 3)]
        p = float(rng.random())
        cfg = FrameConfig(F, float(rng.integers(0, 2)))
        m = random_multisymbol(F, rng)
        exact = output_entropy(channel_preset(kind, p), cfg, m)
        split = ref.positionwise_entropy_sum(kind, p, cfg.a, bit_strings(m))
        assert abs(split - exact) < 1e-10


def bit_strings(m):
    return [symbol_string(m.F, x) for x in m.reps]


def output_entropy(ch, cfg, m):
    """H(Y | t) of one strategy, through the package's one likelihood path."""
    return entropy_bits(state_pmf(cfg) @ likelihood_rows(ch, cfg.F, list(m.reps)))


def random_multisymbol(F, rng):
    reps = []
    for s in range(F + 1):
        cls = enumerate_weight_class(F, s)
        reps.append(cls[rng.integers(0, len(cls))])
    return Multisymbol(F, tuple(reps))


@criterion(8, "simulation reproduces the analytical rate and its seed")
def test_acceptance_8():
    ch = channel_preset("erasure", 0.2)
    cfg = FrameConfig(4, 0.5)
    sset = decompose_paths(build_weighted_graph(4))
    first = run_monte_carlo(ch, cfg, sset, 1_000_000, 20260821)
    assert abs(first.empirical_mi - first.analytical_mi) < 0.02
    second = run_monte_carlo(ch, cfg, sset, 1_000_000, 20260821)
    assert first == second
    assert repr(first) == repr(second)


@criterion(9, "single-slot z-channel formulas agree with evaluation")
def test_acceptance_9():
    assert z_point_capacity(0.0) == 1.0
    for a in np.arange(0.0, 1.05, 0.1):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            direct = c_xy(channel_preset("z", p), FrameConfig(1, float(a)))
            assert abs(z_fixed_input_capacity(float(a), p) - direct) < 1e-12, (a, p)
