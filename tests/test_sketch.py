import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewht import experiments, frontend, gf2, sketch
from sparsewht.signal_model import SparseSpectrum, synthesize_many
from sparsewht.sketch import (
    CutQueryAccess,
    Hypergraph,
    analytic_spectrum,
    cut_value,
    cut_values,
    reconstruct_edges,
    sketch_recover,
)

from helpers import random_disjoint_hypergraph, window_plan
from references import random_full_column_rank


def _cut_oracle_by_sets(h, m_word):
    """Independent set-based counter: edge crosses iff it meets both sides."""
    left = {v for v in range(1, h.n + 1) if (m_word >> (v - 1)) & 1}
    count = 0
    for e in h.edges:
        inside = e & left
        if inside and inside != e:
            count += 1
    return count


def test_cut_value_trivial_cases():
    h = Hypergraph.from_edge_lists(4, [{1, 2}])
    assert cut_value(h, 0) == 0
    assert cut_value(h, 0b0001) == 1  # vertex 1 alone on one side
    assert cut_value(h, 0b0011) == 0


def test_cut_value_against_set_oracle():
    rng = np.random.default_rng(0)
    h = random_disjoint_hypergraph(10, 4, rng, max_size=4)
    for m in range(1024):
        assert cut_value(h, m) == _cut_oracle_by_sets(h, m)


def test_analytic_spectrum_empty():
    assert analytic_spectrum(Hypergraph(4, ())).sparsity == 0


def test_analytic_spectrum_single_pair_edge():
    h = Hypergraph.from_edge_lists(2, [{1, 2}])
    spec = analytic_spectrum(h)
    assert spec.entries == {0: 0.5, 0b11: -0.5}
    values = [sum(v * (-1) ** bin(k & m).count("1") for k, v in spec.entries.items())
              for m in range(4)]
    assert values == [0.0, 1.0, 1.0, 0.0]


def test_analytic_spectrum_magnitudes():
    h = Hypergraph.from_edge_lists(8, [{1, 2, 3, 4, 5}])
    spec = analytic_spectrum(h)
    non_dc = {k: v for k, v in spec.entries.items() if k}
    assert all(v == -2.0 ** (1 - 5) for v in non_dc.values())
    assert len(non_dc) == 2 ** (5 - 1) - 1


def test_analytic_spectrum_round_trips_cut_values():
    rng = np.random.default_rng(1)
    for trial in range(3):
        h = random_disjoint_hypergraph(10, 3, rng, max_size=4)
        spec = analytic_spectrum(h)
        ms = np.arange(1 << 10, dtype=np.uint64)
        expansion = synthesize_many(spec, ms) * (2.0 ** (10 / 2))  # unnormalized
        assert np.max(np.abs(expansion - cut_values(h, ms))) < 1e-9


def test_overlapping_edges_accumulate():
    h = Hypergraph.from_edge_lists(3, [{1, 2}, {2, 3}])
    spec = analytic_spectrum(h)
    ms = np.arange(8, dtype=np.uint64)
    expansion = synthesize_many(spec, ms) * (2.0 ** (3 / 2))
    assert np.max(np.abs(expansion - cut_values(h, ms))) < 1e-12


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edge_lists(3, [{1}])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_lists(3, [{1, 5}])
    with pytest.raises(ValueError):
        Hypergraph.from_edge_lists(3, [{1, 2}, {2, 1}])


def test_hypergraph_rejects_n_beyond_index_words():
    # vertex v is bit v - 1 of a uint64 word, so n is checked when the graph is built
    with pytest.raises(ValueError, match=r"1\.\.63"):
        Hypergraph.from_edge_lists(70, [[1, 2]])
    h = Hypergraph.from_edge_lists(63, [[1, 63]])
    assert cut_value(h, 1 << 62) == 1 and cut_value(h, (1 << 63) - 1) == 0


def test_hypergraph_file_round_trip(tmp_path):
    h = Hypergraph.from_edge_lists(7, [{1, 2}, {3, 5, 6}])
    path = tmp_path / "graph.txt"
    h.save(path)
    assert path.read_text().splitlines()[0] == "n=7"
    loaded = Hypergraph.load(path)
    assert loaded.n == 7 and set(loaded.edges) == set(h.edges)


def test_cut_query_access_caches():
    h = Hypergraph.from_edge_lists(5, [{1, 2, 3}])
    access = CutQueryAccess(h)
    access.take(np.array([3, 3, 7], dtype=np.uint64))
    assert access.samples_queried == 2


def test_cut_query_access_refuses_an_n_the_graph_does_not_have():
    h = Hypergraph.from_edge_lists(10, [{1, 2}])
    assert CutQueryAccess(h, n=10).n == 10
    with pytest.raises(ValueError, match="n=12 disagrees with the hypergraph's n=10"):
        CutQueryAccess(h, n=12)
    with pytest.raises(ValueError, match="n=12"):
        sketch_recover(h, n=12, sparsity_budget=2)


def test_cut_query_access_needs_n_for_a_callable_oracle():
    with pytest.raises(ValueError, match="n is required for a callable oracle"):
        CutQueryAccess(lambda words: np.zeros(len(words)))


def test_hypergraph_load_skips_a_blank_line(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("n=9\n1 2 3\n\n  \n5 9\n")
    assert Hypergraph.load(path).edges == (frozenset({1, 2, 3}), frozenset({5, 9}))


def test_cut_query_access_reads_each_position_once():
    h = Hypergraph.from_edge_lists(9, [{1, 2, 3}, {4, 8}])
    asked = []

    def oracle(words):
        asked.append(words.tolist())
        return cut_values(h, words)

    access = CutQueryAccess(oracle, n=9)
    rng = np.random.default_rng(8)
    for size in (40, 0, 300, 1):
        positions = rng.integers(0, 1 << 9, size=size, dtype=np.int64).astype(np.uint64)
        assert np.array_equal(access.take(positions), cut_values(h, positions).astype(np.float64))
    flat = [w for call in asked for w in call]
    assert all(call == sorted(set(call)) for call in asked)
    assert len(flat) == len(set(flat)) == access.samples_queried
    calls = len(asked)
    assert access.take(positions[:1]).tolist() == [cut_value(h, int(positions[0]))]
    assert len(asked) == calls  # a repeat is answered from the log


@pytest.mark.parametrize("oracle", [
    lambda words: 1.0,  # a scalar would broadcast over the words
    lambda words: np.zeros(len(words) + 1),
    lambda words: np.zeros((len(words), 1)),
    lambda words: np.full(len(words), np.nan),
    lambda words: np.full(len(words), np.inf),
], ids=["scalar", "one-too-many", "column", "nan", "inf"])
def test_cut_query_access_rejects_bad_oracle_answers(oracle):
    access = CutQueryAccess(oracle, n=5)
    with pytest.raises(ValueError, match="oracle returned"):
        access.take([1, 2, 3])
    assert access.samples_queried == 0  # a refused answer leaves the log as it was


def test_cut_query_access_rejects_positions_beyond_n():
    h = Hypergraph.from_edge_lists(5, [{1, 2}])
    access = CutQueryAccess(h)
    for word in (1 << 40, 1 << 5, (1 << 64) - 1):
        with pytest.raises(ValueError, match="at or above n=5"):
            access.take([3, word, 1])
    assert access.samples_queried == 0
    assert access.take([(1 << 5) - 1]).tolist() == [0.0]
    with pytest.raises(ValueError, match="1..63"):
        CutQueryAccess(lambda words: words, n=64)


@st.composite
def _read_sequences(draw):
    """n, then up to six batches of words: 1-D or 2-D, empty or not, with
    repeats inside a batch and across batches."""
    n = draw(st.integers(3, 7))
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 12))
        words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=rows * cols, max_size=rows * cols))
        batch = np.array(words, dtype=np.uint64)
        batches.append(batch.reshape(rows, cols) if draw(st.booleans()) else batch)
    return n, batches


@settings(max_examples=150, deadline=None)
@given(_read_sequences())
def test_cut_query_access_take_matches_cut_values(sequence):
    n, batches = sequence
    h = Hypergraph.from_edge_lists(n, [{1, 2}, set(range(2, n + 1))])
    asked = []

    def oracle(words):
        asked.append(words.tolist())
        return cut_values(h, words)

    access = CutQueryAccess(oracle, n=n)
    read = set()
    for batch in batches:
        values = access.take(batch)
        assert values.shape == batch.shape and values.dtype == np.float64
        assert np.array_equal(values, cut_values(h, batch.reshape(-1)).reshape(batch.shape))
        read.update(batch.reshape(-1).tolist())
        words = access._words
        assert np.all(words[1:] > words[:-1])  # the log stays strictly increasing
        assert access.samples_queried == len(read)
    assert all(call == sorted(set(call)) for call in asked)
    flat = [w for call in asked for w in call]
    assert len(flat) == len(set(flat)) == len(read)  # no word is asked twice


# (queries, sweeps, peels, conflicts, stalled) per seed; the sweeps, peels,
# conflicts and stall were recorded with the unsorted-search read log that
# the one-sort read log replaced, the queries where each group stores only
# its free bits' unit rows
_SKETCH_50_3 = {
    0: (16810, 2, 54, 0, False),
    1: (16810, 2, 30, 0, False),
    2: (16810, 2, 36, 0, False),
    3: (16809, 2, 34, 0, False),
    4: (16811, 2, 78, 0, False),
}


@pytest.mark.parametrize("seed", sorted(_SKETCH_50_3))
def test_sketch_recover_pinned_at_benchmark_size(seed):
    h = random_disjoint_hypergraph(50, 3, np.random.default_rng(seed), max_size=6)
    result = sketch_recover(h, sparsity_budget=3 << 5, seed=seed, coeff_resolution=2.0 ** -5)
    assert result.spectrum.entries == analytic_spectrum(h).entries
    report = result.report
    assert (result.queries, report.sweeps, report.peels, report.conflicts, report.stalled) == _SKETCH_50_3[seed]


def test_sketch_decisions_pinned_over_many_graphs():
    # 200 graphs of the benchmark's shape and settings: the first 16 hex of
    # the sha256 of the per-graph (exact, partial, sweeps, peels) tuples'
    # repr (197 exact, 3 partial, none wrong and unflagged), and the queries
    # of all 200 apart from it, so a layout change that keeps the decisions
    # moves only the second
    got, queries = [], 0
    for t in range(200):
        h = random_disjoint_hypergraph(50, 3, np.random.default_rng([50, t]), max_size=6)
        result = sketch_recover(h, sparsity_budget=3 << 5, seed=t, coeff_resolution=2.0 ** -5)
        exact = result.spectrum.entries == analytic_spectrum(h).entries
        got.append((exact, result.partial, result.report.sweeps, result.report.peels))
        queries += result.queries
    assert (sum(g[0] for g in got), sum(g[1] for g in got), sum(not (g[0] or g[1]) for g in got)) == (197, 3, 0)
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "b4aa8c44a4c4817a"
    assert queries == 3362009


def test_reconstruct_edges_from_analytic():
    rng = np.random.default_rng(2)
    for trial in range(5):
        h = random_disjoint_hypergraph(14, 3, rng, max_size=5)
        edges = reconstruct_edges(analytic_spectrum(h))
        assert edges is not None and set(map(frozenset, edges)) == set(h.edges)


def test_reconstruct_edges_rejects_overlap():
    h = Hypergraph.from_edge_lists(4, [{1, 2, 3}, {2, 3, 4}])
    assert reconstruct_edges(analytic_spectrum(h)) is None


def test_reconstruct_edges_rejects_spectra_off_the_pattern():
    h = Hypergraph.from_edge_lists(8, [{1, 2, 3, 4}, {6, 7}])
    exact = analytic_spectrum(h).entries
    assert reconstruct_edges(SparseSpectrum(8, {k: v + 1e-12 for k, v in exact.items()})) is not None
    edge_word = 0b1111
    missing = {k: v for k, v in exact.items() if k != 0b0011}
    off_value = {**exact, edge_word: exact[edge_word] + 1e-6}
    off_dc = {**exact, 0: exact[0] + 0.5}
    odd = {**exact, 0b10000: -0.5}  # one vertex alone
    for entries in (missing, off_value, off_dc, odd):
        assert reconstruct_edges(SparseSpectrum(8, entries)) is None


def test_sketch_recover_empty_graph():
    result = sketch_recover(Hypergraph(8, ()), sparsity_budget=4, seed=0)
    assert result.spectrum.sparsity == 0 and result.edges == [] and not result.partial


def test_sketch_recover_two_disjoint_edges():
    h = Hypergraph.from_edge_lists(8, [{1, 2}, {4, 5, 6}])
    result = sketch_recover(h, sparsity_budget=16, seed=3, coeff_resolution=2.0 ** (1 - 3))
    assert result.spectrum.entries == analytic_spectrum(h).entries
    assert set(map(frozenset, result.edges)) == set(h.edges)
    assert not result.partial


def test_sketch_recover_large_disjoint_instance():
    rng = np.random.default_rng(4)
    budget = 3 * (1 << 5)
    for seed in range(3):
        h = random_disjoint_hypergraph(50, 3, rng, max_size=6)
        result = sketch_recover(h, sparsity_budget=budget, seed=seed,
                                coeff_resolution=2.0 ** (1 - 6))
        assert result.spectrum.entries == analytic_spectrum(h).entries
        assert set(map(frozenset, result.edges)) == set(h.edges)
        assert result.queries <= 12 * budget * 50


def test_sketch_recover_callable_oracle_and_query_count():
    h = Hypergraph.from_edge_lists(12, [{1, 2, 3, 4}])
    calls = []

    def oracle(words):
        calls.append(len(words))
        return cut_values(h, words)

    result = sketch_recover(oracle, n=12, sparsity_budget=8, seed=5,
                            coeff_resolution=2.0 ** (1 - 4))
    assert result.spectrum.entries == analytic_spectrum(h).entries
    assert result.queries == sum(calls)


def test_sketch_recover_is_exact_or_flagged_at_odd_and_even_n():
    # at odd n, sqrt(N) is irrational, so the recovered values carry round-off
    exact = 0
    for n in range(9, 24):
        rng = np.random.default_rng(n)
        for trial in range(30):
            h = random_disjoint_hypergraph(n, int(rng.integers(1, 4)), rng, max_size=6)
            truth = analytic_spectrum(h)
            size = max(len(e) for e in h.edges)
            result = sketch_recover(h, sparsity_budget=truth.sparsity, seed=trial,
                                    coeff_resolution=2.0 ** (1 - size))
            if result.partial:
                continue
            assert result.spectrum.entries == truth.entries, (n, trial)
            assert set(map(frozenset, result.edges)) == set(h.edges), (n, trial)
            exact += 1
    assert exact >= 300


@pytest.mark.parametrize("resolution", [0.0, -0.25, math.nan, math.inf])
def test_sketch_recover_refuses_a_resolution_that_is_not_positive_and_finite(resolution):
    # refused before the decode: no value snaps to a multiple of these
    h = Hypergraph.from_edge_lists(12, [{1, 2, 3, 4}])
    with pytest.raises(ValueError, match="coeff_resolution must be a positive finite number"):
        sketch_recover(h, sparsity_budget=8, seed=5, coeff_resolution=resolution)


@pytest.mark.parametrize("budget", [256, 257])
def test_sketch_recover_refuses_a_budget_the_design_cannot_bin(budget):
    # at n = 8, a budget of 256 needs b = 8 = n bins bits, and 257 exceeds 2^n
    h = Hypergraph.from_edge_lists(8, [{1, 2}])
    with pytest.raises(ValueError, match=r"b = ceil\(log2 K\) < n"):
        sketch_recover(h, sparsity_budget=budget, seed=0)


def test_sketch_recover_partial_when_budget_too_small():
    rng = np.random.default_rng(6)
    h = random_disjoint_hypergraph(16, 3, rng, min_size=4, max_size=5)
    result = sketch_recover(h, sparsity_budget=4, seed=7)
    assert result.partial and result.edges is None


def _ci_graph():
    """The n = 50 graph of the console-script check: a budget of 4 + 2 + 8 = 14 gives b = 4."""
    return Hypergraph.from_edge_lists(50, [{1, 7, 20}, {3, 40}, {11, 12, 13, 50}])


def _recording_plans(monkeypatch):
    """The plans ``sketch_recover`` passes to ``recover``, in call order."""
    plans = []

    def recording(*args, **kwargs):
        plans.append(kwargs["plan"])
        return experiments.recover(*args, **kwargs)

    monkeypatch.setattr(sketch, "recover", recording)
    return plans


def test_sketch_eliminates_each_group_once(monkeypatch):
    # the plan's own solve is the rank check of the random draw: no second elimination
    calls = []
    eliminate = gf2.eliminate
    monkeypatch.setattr(gf2, "eliminate", lambda rows: calls.append(1) or eliminate(rows))
    result = sketch_recover(_ci_graph(), sparsity_budget=14, seed=0, coeff_resolution=2.0**-3)
    assert set(map(frozenset, result.edges)) == set(_ci_graph().edges)
    assert len(calls) == frontend.design("noiseless", 50, 14).c_groups == 3


def test_sketch_plan_stores_the_free_bits_and_builds_no_particular_word_table(monkeypatch):
    # the random plan's span holds no unit word, yet each group stores the
    # zero row and only the n - b = 46 unit rows at its free bits, as a window
    # plan does; neither detector run builds a particular word table
    plans = _recording_plans(monkeypatch)
    observed = []
    observe = frontend.observe
    monkeypatch.setattr(frontend, "observe", lambda *args: observed.append(observe(*args)) or observed[-1])
    result = sketch_recover(_ci_graph(), sparsity_budget=14, seed=0, coeff_resolution=2.0**-3)
    (plan,), (obs,) = plans, observed
    assert obs.data.shape == (3, 16, 1 + 46) and result.queries == 2163
    assert "particular_words" not in plan.__dict__
    window = window_plan(12, 4, 3)  # fresh: build_plan's is cached and shared
    rng = np.random.default_rng(0)
    access = sketch.CutQueryAccess(Hypergraph.from_edge_lists(12, [{1, 2}, {5, 9, 11}]))
    experiments.recover(access, 16, "noiseless", snr_db=None, rho=1.0, rng_offsets=rng, plan=window)
    assert "particular_words" not in window.__dict__


def test_sketch_plan_is_the_per_group_draw_where_none_was_rejected(monkeypatch):
    # at n = 6, b = 3 about one plan in three holds a rank-deficient first
    # draw: the reference draws that group again, the sketch the whole plan
    plans = _recording_plans(monkeypatch)
    h = Hypergraph.from_edge_lists(6, [{1, 2, 3}, {4, 5}])
    kept = 0
    for seed in range(40):
        sketch_recover(h, sparsity_budget=8, seed=seed)
        rng = np.random.default_rng(seed)
        reference = [random_full_column_rank(6, 3, rng) for _ in range(3)]
        # the stream went exactly C n words further when no draw was rejected
        unrejected = np.random.default_rng(seed)
        unrejected.integers(0, 1 << 3, size=3 * 6, dtype=np.int64)
        if rng.bit_generator.state == unrejected.bit_generator.state:
            assert plans[-1].col_words.tolist() == reference, seed
            kept += 1
    assert 0 < kept < 40
