"""Edge weighting schemes and the two sampling paths."""

import logging
import tracemalloc

import numpy as np
import pytest

from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    SpanningSubgraph,
    build_propagation,
)
from spangraph.sampler import (
    EdgeProbabilities,
    SampleRequest,
    _first_distinct,
    direct_sample,
    gnr_weights,
    two_step_sample,
    uniform_weights,
    vm_weights,
)

from spangraph.synthetic import GeneratorSpec, make_graph, random_edge_graph

from conftest import graph_from_edges


class TestVmWeights:
    def test_triangle_is_uniform(self, triangle):
        probs = vm_weights(triangle)
        np.testing.assert_allclose(probs.weights, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(probs.normalized(), np.full(3, 1.0 / 3.0))

    def test_path4_degree_formula(self, path4):
        """Degrees (1,2,2,1): weights 1.5, 1.0, 1.5 -> probs .375, .25, .375."""
        probs = vm_weights(path4)
        np.testing.assert_allclose(probs.weights, [1.5, 1.0, 1.5])
        np.testing.assert_allclose(probs.normalized(), [0.375, 0.25, 0.375])

    def test_star_k14_is_uniform(self):
        g = graph_from_edges(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        probs = vm_weights(g)
        np.testing.assert_allclose(probs.weights, np.full(4, 0.25 + 1.0))
        np.testing.assert_allclose(probs.normalized(), np.full(4, 0.25))

    def test_edgeless_graph_rejected(self):
        g = graph_from_edges(3, np.zeros((0, 2)))
        with pytest.raises(ValueError, match="edgeless"):
            vm_weights(g)

    def test_weights_are_bitwise_the_degree_formula(self):
        """Also on a sparse SBM whose isolated nodes no edge reads."""
        sparse = make_graph(GeneratorSpec(kind="sbm", nodes=400, p_in=0.004,
                                          p_out=0.0005, seed=1))
        assert (sparse.degree == 0).any()
        for g in (sparse, random_edge_graph(nodes=300, edges=5_000, seed=2)):
            u, v = g.edges[:, 0], g.edges[:, 1]
            want = 1.0 / g.degree[u] + 1.0 / g.degree[v]
            probs = vm_weights(g)
            assert probs.weights.tobytes() == want.tobytes()
            assert probs.total == float(np.cumsum(want)[-1])

    def test_peak_holds_two_edge_arrays(self):
        """The weights and one gather: under 2.5x the weights' bytes, where
        a gather per reciprocal holds three."""
        g = random_edge_graph(nodes=1_000, edges=200_000, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            probs = vm_weights(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * probs.weights.nbytes, peak


class TestGnrWeights:
    def test_edgeless_graph_rejected(self):
        g = graph_from_edges(3, np.zeros((0, 2)))
        p = build_propagation(SpanningSubgraph.full(g), GCN_SYMMETRIC)
        with pytest.raises(ValueError, match="edgeless"):
            gnr_weights(g, p)

    def test_triangle_equal_columns_give_uniform(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        probs = gnr_weights(triangle, p)
        np.testing.assert_allclose(probs.normalized(), np.full(3, 1.0 / 3.0))

    def test_star_matches_dense_brute_force(self, star4):
        p = build_propagation(SpanningSubgraph.full(star4), MEAN_ROW)
        probs = gnr_weights(star4, p)
        dense = p.matrix.toarray()
        expected = np.array([
            np.linalg.norm(dense[:, u]) + np.linalg.norm(dense[:, v])
            for u, v in star4.edges
        ])
        np.testing.assert_allclose(probs.weights, expected)

    def test_partial_propagation_rejected(self, path4):
        sub = SpanningSubgraph.from_indices(path4, [0, 1])
        p = build_propagation(sub, GCN_SYMMETRIC)
        with pytest.raises(ValueError, match="full edge set"):
            gnr_weights(path4, p)


class TestNormalization:
    def test_probabilities_sum_to_one(self, path4, triangle, star4):
        for g in (path4, triangle, star4):
            for probs in (vm_weights(g), uniform_weights(g)):
                assert abs(probs.normalized().sum() - 1.0) < 1e-9

    def test_total_is_weight_mass(self, path4):
        probs = vm_weights(path4)
        assert abs(probs.weights.sum() - probs.total) <= 1e-9 * probs.total

    def test_a_callers_array_is_copied(self):
        w = np.array([0.1, 0.2, 0.3])
        probs = EdgeProbabilities.from_weights(w)
        assert w.flags.writeable and not np.shares_memory(w, probs.weights)
        w[0] = 5.0
        np.testing.assert_array_equal(probs.weights, [0.1, 0.2, 0.3])

    def test_scheme_weights_are_owned_read_only_with_the_prefix_total(self, star4):
        p = build_propagation(SpanningSubgraph.full(star4), MEAN_ROW)
        for probs in (vm_weights(star4), gnr_weights(star4, p), uniform_weights(star4)):
            assert probs.weights.flags.owndata and not probs.weights.flags.writeable
            assert probs.total == float(np.cumsum(probs.weights)[-1])

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.0, -0.5], [1.0, np.nan, 2.0],
                                         [np.inf, 1.0], [0.0, 0.0, 0.0]],
                             ids=["zero", "negative", "nan", "inf", "all-zero"])
    def test_weights_neither_positive_nor_finite_are_rejected(self, weights):
        """Exponential keys E/w are defined for w > 0 alone; a NaN or inf
        weight would turn the total or the two-step draw degenerate."""
        with pytest.raises(ValueError, match="^edge weights must be positive and finite$"):
            EdgeProbabilities.from_weights(np.array(weights))

    def test_tiny_and_huge_finite_weights_are_accepted(self):
        """The smallest subnormal and a weight near the float64 limit are
        positive and finite, so both pass unchanged."""
        w = [5e-324, 1.0, 1e300]
        probs = EdgeProbabilities.from_weights(np.array(w))
        np.testing.assert_array_equal(probs.weights, w)
        assert probs.total == 1e300

    @pytest.mark.parametrize("scheme", ["vm", "gnr", "uniform"])
    def test_scheme_weights_are_positive_and_finite(self, scheme):
        """vm is 1/deg(u) + 1/deg(v), gnr a sum of column norms of the full P
        with its self-loop entries, uniform all ones: each passes the rule."""
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=300, classes=3,
                                     feature_dim=2, attach=3, seed=5))
        if scheme == "vm":
            probs = vm_weights(g)
        elif scheme == "gnr":
            probs = gnr_weights(g, build_propagation(SpanningSubgraph.full(g), MEAN_ROW))
        else:
            probs = uniform_weights(g)
        assert probs.num_edges == g.num_edges
        assert probs.weights.min() > 0.0 and np.isfinite(probs.weights).all()

    def test_uniform_setup_forms_no_prefix_sum(self):
        """The ones alone, as the positivity check's min and max form no |E|
        array: under 1.5x the weights' bytes, where a whole-|E| prefix sum
        would make it 2x."""
        g = random_edge_graph(nodes=1_000, edges=200_000, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            probs = uniform_weights(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * probs.weights.nbytes, peak


class TestDirectSample:
    def test_exhaustive_returns_all_edges(self, path4):
        probs = uniform_weights(path4)
        np.testing.assert_array_equal(direct_sample(path4, probs, 3, 0), [0, 1, 2])

    def test_degenerate_mass_always_picks_it(self, path4):
        """1e-20 is below the spacing of ``Generator.random``'s doubles, so
        the prefix sum holds all of its mass at the middle edge."""
        probs = EdgeProbabilities.from_weights(np.array([1e-20, 1.0, 1e-20]))
        for seed in range(50):
            np.testing.assert_array_equal(direct_sample(path4, probs, 1, seed), [1])

    def test_path4_vm_marginals(self, path4):
        """Single draws track (.375, .25, .375); full scale runs in acceptance."""
        probs = vm_weights(path4)
        rng = np.random.default_rng(20240105)
        counts = np.zeros(3)
        trials = 60_000
        for _ in range(trials):
            counts[direct_sample(path4, probs, 1, rng)[0]] += 1
        np.testing.assert_allclose(counts / trials, [0.375, 0.25, 0.375], atol=0.01)

    def test_request_too_large(self, path4):
        with pytest.raises(ValueError, match="s2"):
            direct_sample(path4, vm_weights(path4), 4, 0)

    def test_skewed_weights_fall_back_to_uniform_fill(self, caplog):
        g = graph_from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        # 1 + 1e-20 rounds to 1: every draw lands on edge 0
        probs = EdgeProbabilities.from_weights(np.array([1.0, 1e-20, 1e-20, 1e-20]))
        with caplog.at_level(logging.WARNING, logger="spangraph.sampler"):
            out = direct_sample(g, probs, 3, 0)
        assert 0 in out.tolist() and out.size == 3 and np.unique(out).size == 3
        assert any("consecutive rejections" in r.getMessage() for r in caplog.records)

    def test_reproducible_and_distinct(self, star4):
        probs = vm_weights(star4)
        a = direct_sample(star4, probs, 2, 99)
        b = direct_sample(star4, probs, 2, 99)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 2


class TestTwoStepSample:
    def test_full_request_returns_everything(self, path4):
        probs = vm_weights(path4)
        req = SampleRequest(s1=3, s2=3, rng_seed=5)
        np.testing.assert_array_equal(two_step_sample(path4, probs, req), [0, 1, 2])

    def test_pool_as_large_as_the_request_is_the_sorted_pool(self):
        g = random_edge_graph(nodes=200, edges=2_000, seed=4)
        probs = vm_weights(g)
        for seed in range(5):
            pool = np.random.default_rng(seed).choice(2_000, 300, replace=False,
                                                      shuffle=False)
            out = two_step_sample(g, probs, SampleRequest(300, 300, seed))
            assert out.dtype == np.int64 and out.tobytes() == np.sort(pool).tobytes()

    def test_invalid_requests(self, path4):
        probs = vm_weights(path4)
        with pytest.raises(ValueError):
            two_step_sample(path4, probs, SampleRequest(2, 3, 0))
        with pytest.raises(ValueError):
            two_step_sample(path4, probs, SampleRequest(4, 1, 0))
        with pytest.raises(ValueError):
            two_step_sample(path4, probs, SampleRequest(3, 0, 0))

    def test_reproducible(self, path4):
        probs = vm_weights(path4)
        req = SampleRequest(3, 2, rng_seed=31337)
        np.testing.assert_array_equal(
            two_step_sample(path4, probs, req), two_step_sample(path4, probs, req)
        )

    def test_single_pool_frequency_matches_enumeration(self, path4):
        """s1=3 pools everything (only C(3,3)=1 pool), so the middle edge
        appears with its direct weighted frequency 0.25."""
        probs = vm_weights(path4)
        rng = np.random.default_rng(8)
        trials = 300_000
        hits = 0
        for _ in range(trials):
            seed = int(rng.integers(2**62))
            sel = two_step_sample(path4, probs, SampleRequest(3, 1, seed))
            hits += sel[0] == 1
        assert abs(hits / trials - 0.25) < 0.005

    def test_degenerate_first_step_matches_direct(self):
        """s1=|E| reduces to direct sampling: marginals agree in TV distance.

        Reduced trial count here; the acceptance suite runs 100k trials
        against the 0.01 bound.
        """
        rng = np.random.default_rng(14)
        edges = rng.integers(0, 30, size=(200, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = graph_from_edges(30, edges[:50] if len(edges) >= 50 else edges)
        m = g.num_edges
        probs = vm_weights(g)
        trials = 30_000
        s2 = 10
        counts_two = np.zeros(m)
        counts_direct = np.zeros(m)
        stream = np.random.default_rng(15)
        for _ in range(trials):
            counts_two[two_step_sample(g, probs, SampleRequest(m, s2, int(stream.integers(2**62))))] += 1
            counts_direct[direct_sample(g, probs, s2, stream)] += 1
        tv = 0.5 * np.abs(counts_two / counts_two.sum()
                          - counts_direct / counts_direct.sum()).sum()
        assert tv < 0.02

    @pytest.mark.parametrize("s2", [1_000, 10_000])
    def test_peak_holds_the_pool_its_weights_and_keys(self, s2):
        """A pool of 5% of the edges peaks at the pool, its keys and the
        gathered weights they are divided by: under 3.3x the pool's int64
        bytes (measured 3.09 to 3.10x).  With the argpartition output beside the weights and a
        sorted copy of the chosen ids it read 4.40x at s2 1,000 and 6.18x at
        s2 10,000."""
        g = random_edge_graph(nodes=20_000, edges=200_000, seed=0)
        probs = vm_weights(g)
        s1 = 10_000
        for seed in range(3):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = two_step_sample(g, probs, SampleRequest(s1, s2, seed))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert out.size == s2 and (np.diff(out) > 0).all()
            assert peak < 3.3 * s1 * 8, peak / (s1 * 8)


class TestFirstDistinct:
    @pytest.mark.parametrize("size", range(1, 65))
    def test_matches_first_occurrence_order(self, size):
        rng = np.random.default_rng(size)
        for high in (2, size, 10 * size):
            values = rng.integers(0, high, size=size)
            want = list(dict.fromkeys(values.tolist()))
            got = _first_distinct(values)
            assert got.dtype == np.int64 and got.tolist() == want


class TestUniformDegeneracy:
    def test_equal_weights_give_uniform_marginals(self):
        """Both samplers' marginals are uniform within TV 0.01 at 100k trials."""
        g = graph_from_edges(8, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]])
        m = g.num_edges
        probs = uniform_weights(g)
        trials = 100_000
        stream = np.random.default_rng(77)
        counts_direct = np.zeros(m)
        counts_two = np.zeros(m)
        for _ in range(trials):
            counts_direct[direct_sample(g, probs, 2, stream)] += 1
            counts_two[two_step_sample(g, probs, SampleRequest(4, 2, int(stream.integers(2**62))))] += 1
        uniform = np.full(m, 1.0 / m)
        tv_direct = 0.5 * np.abs(counts_direct / counts_direct.sum() - uniform).sum()
        tv_two = 0.5 * np.abs(counts_two / counts_two.sum() - uniform).sum()
        assert tv_direct < 0.01
        assert tv_two < 0.01
