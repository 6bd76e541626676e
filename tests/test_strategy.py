from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np
import pytest

from reorderchan import (
    FrameConfig,
    Multisymbol,
    StrategySet,
    build_weighted_graph,
    decompose_paths,
    enumerate_weight_class,
    induced_input_pmf,
    lcm_binomials,
    representative_multiplicity,
    state_pmf,
    weight,
)
from reference import is_minimal, peel_paths, permutation_orbit
from reorderchan import frame_space, strategy
from reorderchan.capacity import _is_staircase_orbit
from reorderchan.frame_space import MAX_TABLE_BYTES
from reorderchan.strategy import (
    STRATEGY_BYTES,
    LayeredGraph,
    constructed_set,
    covering_successors,
    strategy_table,
)

LCM_TABLE = {1: 1, 2: 2, 3: 3, 4: 12, 5: 10, 6: 60, 7: 105, 8: 280, 9: 252, 10: 2520}
STAIR2 = Multisymbol(2, (0, 1, 3))
STAIR3 = Multisymbol(3, (0, 1, 3, 7))


def permutation_set(F):
    """All F! position permutations of the staircase, equally weighted."""
    orbit = permutation_orbit(F)
    return StrategySet(np.array(orbit), np.full(len(orbit), 1.0 / len(orbit)))


def test_lcm_binomials():
    for F, L in LCM_TABLE.items():
        assert lcm_binomials(F) == L
    with pytest.raises(ValueError):
        lcm_binomials(0)


def test_representative_multiplicity():
    assert representative_multiplicity(7, 1) == 15
    assert representative_multiplicity(4, 2) == 2
    assert representative_multiplicity(4, 0) == 12
    for F in range(1, 11):
        L = lcm_binomials(F)
        for s in range(F + 1):
            assert representative_multiplicity(F, s) * comb(F, s) == L
    with pytest.raises(ValueError):
        representative_multiplicity(4, 5)


def test_layer_flow_identities():
    # outgoing and incoming per-edge averages agree layer by layer
    for F in range(1, 11):
        for s in range(F):
            m_out = representative_multiplicity(F, s)
            m_in = representative_multiplicity(F, s + 1)
            assert Fraction(m_out, F - s) == Fraction(m_in, s + 1)
            b = m_out % (F - s)
            d = m_in % (s + 1)
            assert b * comb(F, s) == d * comb(F, s + 1)


def test_covering_successors():
    assert covering_successors(4, 0) == [1, 2, 4, 8]
    assert covering_successors(4, 0b0101) == [0b0111, 0b1101]
    assert covering_successors(3, 0b111) == []


def test_graph_degree_invariants():
    for F in range(1, 9):
        graph = build_weighted_graph(F)
        for s in range(F):
            m_out = representative_multiplicity(F, s)
            m_in = representative_multiplicity(F, s + 1)
            w1 = m_out // (F - s)
            out_total = {x: 0 for x in graph.layers[s]}
            in_total = {x: 0 for x in graph.layers[s + 1]}
            for (x, x2), w in graph.weights[s].items():
                assert weight(x2 ^ x) == 1 and x2 > x
                assert w in (w1, w1 + 1)
                out_total[x] += w
                in_total[x2] += w
            assert all(v == m_out for v in out_total.values())
            assert all(v == m_in for v in in_total.values())


def test_graph_is_deterministic():
    assert build_weighted_graph(6) == build_weighted_graph(6)


def test_graph_f4_weights():
    graph = build_weighted_graph(4)
    wants = {0: 3, 1: 1, 2: 1, 3: 3}
    for s, want in wants.items():
        assert all(w == want for w in graph.weights[s].values())


def test_graph_f7_split_layer():
    # 15 units leave each weight-1 node over 6 edges: three 3s and three 2s
    graph = build_weighted_graph(7)
    assert representative_multiplicity(7, 1) == 15
    for x in graph.layers[1]:
        out = sorted(w for (x1, _), w in graph.weights[1].items() if x1 == x)
        assert out == [2, 2, 2, 3, 3, 3]
    for x2 in graph.layers[2]:
        incoming = sorted(w for (_, t), w in graph.weights[1].items() if t == x2)
        assert incoming == [2, 3]


def test_decompose_small_sets_exactly():
    assert [m.reps for m in decompose_paths(build_weighted_graph(2)).multisymbols] == [
        (0, 1, 3),
        (0, 2, 3),
    ]
    assert [m.reps for m in decompose_paths(build_weighted_graph(3)).multisymbols] == [
        (0, 1, 3, 7),
        (0, 2, 6, 7),
        (0, 4, 5, 7),
    ]


def test_decompose_covers_classes_evenly():
    for F in range(1, 7):
        sset = decompose_paths(build_weighted_graph(F))
        L = lcm_binomials(F)
        assert len(sset) == L
        assert all(w == 1.0 / L for w in sset.pmf)
        assert all(is_minimal(m.reps) for m in sset.multisymbols)
        for s in range(F + 1):
            counts = {}
            for m in sset.multisymbols:
                counts[m.reps[s]] = counts.get(m.reps[s], 0) + 1
            assert len(counts) == comb(F, s)
            assert set(counts.values()) == {representative_multiplicity(F, s)}


def test_decompose_matches_the_reference_peel():
    for F in range(1, 13):
        graph = build_weighted_graph(F)
        assert [m.reps for m in decompose_paths(graph).multisymbols] == peel_paths(graph)


def test_decompose_rejects_inconsistent_weights():
    # one unit too many leaves weight over, one too few stalls a path
    graph = build_weighted_graph(4)
    for (x, x2), delta in product(((0, 1), (1, 3)), (1, -1)):
        weights = list(graph.weights)
        s = weight(x)
        weights[s] = {**weights[s], (x, x2): weights[s][x, x2] + delta}
        bad = LayeredGraph(4, graph.layers, tuple(weights))
        with pytest.raises(RuntimeError):
            peel_paths(bad)
        with pytest.raises(RuntimeError):
            decompose_paths(bad)


def test_graph_build_refuses_oversized_sets():
    # L jumps from 680 680 at F = 17 to 12 252 240 at F = 18
    for F in range(1, 18):
        assert lcm_binomials(F) * STRATEGY_BYTES <= MAX_TABLE_BYTES
    for F in (18, 19, 20):
        with pytest.raises(ValueError, match=f"{lcm_binomials(F)} strategies"):
            build_weighted_graph(F)


def test_graph_build_reads_the_one_ceiling(monkeypatch):
    # L = 60 at F = 6, so the set needs 122 880 bytes
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 60 * STRATEGY_BYTES - 1)
    with pytest.raises(ValueError, match="the F = 6 set of 60 strategies") as info:
        build_weighted_graph(6)
    assert str(info.value).endswith(f", over {60 * STRATEGY_BYTES - 1} bytes")
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 60 * STRATEGY_BYTES)
    assert build_weighted_graph(6).F == 6


def test_constructed_set_is_built_once_under_the_ceiling(monkeypatch):
    strategy._built_set.cache_clear()
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 60 * STRATEGY_BYTES - 1)
    with pytest.raises(ValueError, match="the F = 6 set of 60 strategies"):
        constructed_set(6)
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 60 * STRATEGY_BYTES)
    sset = constructed_set(6)
    assert sset.reps.tolist() == decompose_paths(build_weighted_graph(6)).reps.tolist()
    assert not sset.reps.flags.writeable and not sset.pmf.flags.writeable
    # a built set is shared, not rebuilt, whatever the ceiling reads later
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", 0)
    assert constructed_set(6) is constructed_set(np.int64(6)) is sset
    monkeypatch.setattr(frame_space, "MAX_TABLE_BYTES", MAX_TABLE_BYTES)
    for F in (18, 19, 20):
        with pytest.raises(ValueError, match=f"{lcm_binomials(F)} strategies"):
            constructed_set(F)
    for F in (0, 21, 6.0):
        with pytest.raises(ValueError, match="F must be an integer"):
            constructed_set(F)


def test_decompose_is_deterministic():
    a = decompose_paths(build_weighted_graph(5))
    b = decompose_paths(build_weighted_graph(5))
    assert [m.reps for m in a.multisymbols] == [m.reps for m in b.multisymbols]


def test_first_path_is_the_staircase():
    for F in range(1, 8):
        sset = decompose_paths(build_weighted_graph(F))
        assert sset.multisymbols[0].reps == tuple((1 << s) - 1 for s in range(F + 1))


def test_strategy_set_validation():
    m = STAIR2
    with pytest.raises(ValueError):
        StrategySet((), ())
    with pytest.raises(ValueError):
        StrategySet((m,), (0.5, 0.5))
    with pytest.raises(ValueError):
        StrategySet((m,), (-1.0,))
    with pytest.raises(ValueError):
        StrategySet((m, m), (0.6, 0.6))
    with pytest.raises(ValueError, match="one frame length"):
        StrategySet((m, STAIR3), (0.5, 0.5))
    two = StrategySet((m, m), (0.5, 0.5))
    assert two.F == 2
    assert len(two) == 2
    # the same checks on a table, each with a valid pmf
    bad_tables = [
        ("state 2 must have weight 2", [[0, 1, 3], [0, 2, 1]]),
        ("state 1 must have weight 1", [[0, 3, 3]]),
        ("out of range", [[0, 1, 3], [0, 2, 7]]),
        ("out of range", [[0, 1, 3], [-1, 1, 3]]),
        ("integer table", [0, 1, 3]),
        ("integer table", [[0.0, 1.0, 3.0]]),
    ]
    for message, table in bad_tables:
        n = len(np.array(table, ndmin=2))
        with pytest.raises(ValueError, match=message):
            StrategySet(np.array(table), np.full(n, 1.0 / n))
    with pytest.raises(ValueError, match="out of range"):
        StrategySet(np.array([[0, 1, 1 << 63]], dtype=np.uint64), (1.0,))
    assert StrategySet(np.array([[0, 2, 3]], dtype=np.uint8), (1.0,)).reps.tolist() == [[0, 2, 3]]
    table = StrategySet(np.array([[0, 1, 3], [0, 2, 3]]), (0.25, 0.75))
    assert table.reps.dtype == np.int64 and table.pmf.dtype == np.float64
    assert [m.reps for m in table.multisymbols] == [(0, 1, 3), (0, 2, 3)]
    assert np.array_equal(StrategySet(table.multisymbols, table.pmf).reps, table.reps)
    for array in (table.reps, table.pmf):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # an int64 table is held as a read-only view; its owner's array stays writeable
    owned = np.array([[0, 1, 3]])
    assert StrategySet(owned, (1.0,)).reps.base is owned
    assert owned.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_strategy_set_rejects_nonfinite_pmf(bad):
    # every comparison with NaN is False, so each check must be written to fail on it
    m = STAIR2
    for pmf in ((bad,), (bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match="pmf"):
            StrategySet((m,) * len(pmf), pmf)


def test_permutation_set_starts_at_the_identity_and_ends_at_the_reversal():
    # itertools.permutations order; the full reversal sends 001 to 100 and 011 to 110
    three = permutation_set(3).reps.tolist()
    assert three[0] == [0, 1, 3, 7]
    assert three[-1] == [0, 4, 6, 7]
    assert permutation_set(4).reps.tolist()[-1] == [0, 8, 12, 14, 15]


def test_full_permutation_set():
    assert len(permutation_set(1)) == 1
    assert len(permutation_set(3)) == 6
    # F! distinct minimal strategies, which the capacity code takes as the staircase orbit
    sset = permutation_set(4)
    assert len(sset) == 24
    assert len({m.reps for m in sset.multisymbols}) == 24
    assert all(is_minimal(m.reps) for m in sset.multisymbols)
    assert _is_staircase_orbit(sset)


def test_permutation_set_orbit_counts():
    # each weight-s symbol is hit by s!(F-s)! permutations
    sset = permutation_set(4)
    for s in range(5):
        counts = {}
        for m in sset.multisymbols:
            counts[m.reps[s]] = counts.get(m.reps[s], 0) + 1
        assert set(counts.values()) == {factorial(s) * factorial(4 - s)}


def test_induced_input_pmf_class_uniform():
    cfg = FrameConfig(4, 0.3)
    pmf_s = state_pmf(cfg)
    for sset in (decompose_paths(build_weighted_graph(4)), permutation_set(4)):
        p_x = induced_input_pmf(sset, cfg)
        assert abs(p_x.sum() - 1.0) < 1e-12
        for x in range(16):
            s = weight(x)
            assert p_x[x] == pytest.approx(pmf_s[s] / comb(4, s), abs=1e-12)


def test_induced_input_pmf_single_strategy():
    cfg = FrameConfig(3, 0.25)
    sset = StrategySet((STAIR3,), (1.0,))
    p_x = induced_input_pmf(sset, cfg)
    pmf_s = state_pmf(cfg)
    assert np.allclose([p_x[0], p_x[1], p_x[3], p_x[7]], pmf_s)
    assert p_x[2] == 0.0


def test_induced_input_pmf_matches_plain_accumulation():
    # a random set reuses symbols under a non-uniform law, so the order of the adds shows
    rng = np.random.default_rng(7)
    F = 5
    classes = [enumerate_weight_class(F, s) for s in range(F + 1)]
    multis = [
        Multisymbol(F, tuple(c[rng.integers(len(c))] for c in classes)) for _ in range(40)
    ]
    law = rng.dirichlet(np.ones(len(multis)))
    sset = StrategySet(tuple(multis), tuple(law / law.sum()))
    for a in (0.0, 0.3, 0.77):
        cfg = FrameConfig(F, a)
        pmf_s = state_pmf(cfg)
        want = [0.0] * (1 << F)
        for m, w in zip(sset.multisymbols, sset.pmf):
            for s, x in enumerate(m.reps):
                want[x] += w * pmf_s[s]
        assert np.array_equal(induced_input_pmf(sset, cfg), want)


def test_induced_input_pmf_checks_f():
    with pytest.raises(ValueError):
        induced_input_pmf(permutation_set(3), FrameConfig(4, 0.5))


def test_strategy_table_indexes_used_symbols():
    twice = StrategySet((STAIR3, STAIR3), (0.5, 0.5))
    for sset in (decompose_paths(build_weighted_graph(4)), permutation_set(3), twice):
        used, rep_idx = strategy_table(sset)
        assert np.array_equal(sset.reps, [m.reps for m in sset.multisymbols])
        assert np.array_equal(used[rep_idx], sset.reps)
        assert used.tolist() == sorted({x for m in sset.multisymbols for x in m.reps})


def test_strategy_table_equals_np_unique_without_a_sort(monkeypatch):
    # a general set that never sends one symbol of each inner weight class
    F, rng = 6, np.random.default_rng(31)
    classes = [enumerate_weight_class(F, s) for s in range(F + 1)]
    for s in range(1, F):
        classes[s].pop(int(rng.integers(len(classes[s]))))
    general = np.array([[c[int(rng.integers(len(c)))] for c in classes] for _ in range(40)])
    pmf = rng.dirichlet(np.ones(40))
    constructed = [decompose_paths(build_weighted_graph(F)) for F in range(1, 13)]
    twice = StrategySet((STAIR3, STAIR3), (0.5, 0.5))
    others = [permutation_set(3), StrategySet(general, pmf), twice]
    real_unique = np.unique
    sorts = []

    def counted(name, real):
        def call(*args, **kwargs):
            sorts.append(name)
            return real(*args, **kwargs)

        return call

    for sset in constructed + others:
        want_used, want_idx = real_unique(sset.reps, return_inverse=True)
        want_idx = want_idx.reshape(sset.reps.shape)
        with monkeypatch.context() as patch:
            for name in ("unique", "sort", "argsort"):
                patch.setattr(np, name, counted(name, getattr(np, name)))
            used, rep_idx = strategy_table(sset)
        assert sorts == []
        assert np.array_equal(used, want_used) and used.dtype == want_used.dtype
        assert np.array_equal(rep_idx, want_idx) and rep_idx.dtype == want_idx.dtype
    # the sets beyond the constructed ones include two that miss symbols
    assert [len(strategy_table(s)[0]) < 1 << s.F for s in others] == [False, True, True]
