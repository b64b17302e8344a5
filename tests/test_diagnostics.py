"""Gradient-noise, estimator-variance, and memory-proxy measurements."""

import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from spangraph.diagnostics import (
    embedding_variance,
    gradient_noise,
    inclusion_probabilities,
    memory_proxy,
)
from spangraph.gnn import PROPAGATION_KIND, init_model, input_aggregate, train_step
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    SpanningSubgraph,
    build_propagation,
)
from spangraph.sampler import EdgeProbabilities, uniform_weights, vm_weights
from spangraph.synthetic import GeneratorSpec, make_graph

from conftest import graph_from_edges, traced_peak


def full_propagation(g, kind=GCN_SYMMETRIC):
    return build_propagation(SpanningSubgraph.full(g), kind)


# ---------------------------------------------------------------------------
# independent oracle: exact subset distribution of sequential weighted
# sampling without replacement, via brute-force permutation enumeration
# ---------------------------------------------------------------------------

def subset_distribution(p, k):
    out = {}
    for seq in permutations(range(len(p)), k):
        prob, mass = 1.0, 1.0
        for e in seq:
            prob *= p[e] / mass
            mass -= p[e]
        key = tuple(sorted(seq))
        out[key] = out.get(key, 0.0) + prob
    return out


def oracle_inclusion(p, k):
    pi = np.zeros(len(p))
    for subset, prob in subset_distribution(p, k).items():
        for e in subset:
            pi[e] += prob
    return pi


def oracle_edge_contributions(g, kind, features, weights):
    """Per-edge aggregation contributions from the dense matrix."""
    p = build_propagation(SpanningSubgraph.full(g), kind)
    dense = p.matrix.toarray()
    xt = features @ weights
    contribs = []
    for u, v in g.edges:
        b = np.zeros_like(xt)
        b[v] += dense[v, u] * xt[u]
        b[u] += dense[u, v] * xt[v]
        contribs.append(b)
    return contribs


def oracle_estimator_stats(g, probs, k, features, weights, kind=GCN_SYMMETRIC):
    """Exact mean and total variance of xi under the subset distribution."""
    p = probs.normalized()
    pi = oracle_inclusion(p, k)
    contribs = oracle_edge_contributions(g, kind, features, weights)
    dist = subset_distribution(p, k)
    mean = sum(prob * sum(contribs[e] / pi[e] for e in subset)
               for subset, prob in dist.items())
    var = sum(prob * ((sum(contribs[e] / pi[e] for e in subset) - mean) ** 2).sum()
              for subset, prob in dist.items())
    return mean, var


class TestGradientNoise:
    def test_full_subgraph_noise_is_exactly_zero(self):
        spec = GeneratorSpec(kind="sbm", nodes=25, classes=2, feature_dim=4,
                             seed=2, p_in=0.4, p_out=0.1)
        g = make_graph(spec)
        for layer_type in ("gcn", "sage-mean"):
            model = init_model(layer_type, 4, 6, 2, 2, seed=5)
            kind = PROPAGATION_KIND[layer_type]
            # two separately built full-graph matrices, as in training
            report = gradient_noise(model, full_propagation(g, kind),
                                    full_propagation(g, kind),
                                    g.features, g.labels, g.train_mask)
            assert report.noise_norms == [0.0, 0.0]
            assert report.z_diff_norms == [0.0, 0.0]

    def test_empty_subgraph_noise_is_positive(self):
        spec = GeneratorSpec(kind="sbm", nodes=25, classes=2, feature_dim=4,
                             seed=2, p_in=0.4, p_out=0.1)
        g = make_graph(spec)
        model = init_model("gcn", 4, 6, 2, 2, seed=5)
        empty = build_propagation(SpanningSubgraph.empty(g), GCN_SYMMETRIC)
        report = gradient_noise(model, full_propagation(g), empty,
                                g.features, g.labels, g.train_mask)
        assert all(x > 0.0 for x in report.noise_norms)

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    def test_the_full_aggregate_leaves_the_report_bitwise(self, layer_type):
        """Handed the run's P X, the full-graph pass reads it in place of that
        product, and every norm keeps its bits."""
        spec = GeneratorSpec(kind="sbm", nodes=25, classes=2, feature_dim=4,
                             seed=2, p_in=0.4, p_out=0.1)
        g = make_graph(spec)
        model = init_model(layer_type, 4, 6, 2, 2, seed=5)
        kind = PROPAGATION_KIND[layer_type]
        p_full = full_propagation(g, kind)
        sub = build_propagation(SpanningSubgraph.from_indices(g, np.arange(0, g.num_edges, 2)),
                                kind)
        args = (g.features, g.labels, g.train_mask)
        cached = input_aggregate(model, p_full, g.features)
        got = gradient_noise(model, p_full, sub, *args, cached)
        want = gradient_noise(model, p_full, sub, *args)
        assert repr(got) == repr(want)
        assert gradient_noise(model, p_full, sub, *args, np.zeros_like(cached)) != want

    def test_partial_subgraph_reports_finite_norms(self, path4):
        model = init_model("gcn", 2, 3, 2, 2, seed=1)
        sub = build_propagation(SpanningSubgraph.from_indices(path4, [0, 2]),
                                GCN_SYMMETRIC)
        report = gradient_noise(model, full_propagation(path4), sub,
                                path4.features, path4.labels, path4.train_mask)
        assert np.isfinite(report.noise_norms).all()
        assert np.isfinite(report.total_z_diff_norm)

    @pytest.mark.parametrize("layer_type, kind", [("gcn", GCN_SYMMETRIC),
                                                  ("sage-mean", MEAN_ROW)])
    def test_peak_stays_within_two_train_steps(self, layer_type, kind, pa3k):
        """Both tapes are narrow and each Z difference is formed a row block
        at a time (2-layer, hidden 64: measured 1.74x gcn and 1.42x sage; a
        pass that rebuilds whole Zs from tapes of layer inputs reads 3.48x
        and 2.11x)."""
        g = pa3k
        half = np.random.default_rng(4).permutation(g.num_edges)[:g.num_edges // 4]
        p_full = full_propagation(g, kind)
        p_sub = build_propagation(SpanningSubgraph.from_indices(g, half), kind)
        model = init_model(layer_type, g.feature_dim, 64, 4, 2, seed=0)
        args = (g.features, g.labels, g.train_mask)
        diag = traced_peak(gradient_noise, model, p_full, p_sub, *args)
        step = traced_peak(train_step, model, p_sub, *args, 0.1)
        assert diag <= 2 * step, diag / step


class TestInclusionProbabilities:
    def test_matches_oracle_on_path4(self, path4):
        probs = vm_weights(path4)
        lib = inclusion_probabilities(probs, 2)
        np.testing.assert_allclose(lib, oracle_inclusion(probs.normalized(), 2))

    def test_matches_oracle_on_five_edges(self):
        g = graph_from_edges(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
        probs = vm_weights(g)
        for k in (1, 2, 3):
            lib = inclusion_probabilities(probs, k)
            np.testing.assert_allclose(lib, oracle_inclusion(probs.normalized(), k))

    def test_budget_equals_edge_count(self, path4):
        probs = vm_weights(path4)
        np.testing.assert_array_equal(inclusion_probabilities(probs, 3), [1, 1, 1])

    def test_large_instance_uses_closed_form(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 200, size=(800, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = graph_from_edges(200, edges)
        probs = vm_weights(g)
        pi = inclusion_probabilities(probs, 50)
        p = probs.normalized()
        np.testing.assert_allclose(pi, 1.0 - (1.0 - p) ** 50)


class TestEmbeddingVariance:
    def test_full_budget_variance_is_zero(self, path4):
        probs = vm_weights(path4)
        w = np.array([[1.0], [0.5]])
        report = embedding_variance(path4, full_propagation(path4), probs, 3, 64,
                                    path4.features, w)
        assert report.estimator_variance == pytest.approx(0.0, abs=1e-18)

    def test_single_edge_graph_unbiased(self):
        g = graph_from_edges(2, [[0, 1]])
        probs = uniform_weights(g)
        w = np.array([[1.0], [2.0]])
        report = embedding_variance(g, full_propagation(g), probs, 1, 500,
                                    g.features, w, seed=4)
        exact = oracle_edge_contributions(g, GCN_SYMMETRIC, g.features, w)[0]
        np.testing.assert_allclose(report.estimator_mean, exact, atol=1e-12)
        assert report.estimator_variance == pytest.approx(0.0, abs=1e-18)

    def test_path4_vm_beats_uniform_and_matches_oracle(self, path4):
        """Exact enumeration: Var_vm <= Var_uniform; MC agrees within 3 s.e."""
        w = np.array([[1.0], [0.5]])
        budget, M = 2, 4000
        results = {}
        for kind, probs in (("vm", vm_weights(path4)), ("uniform", uniform_weights(path4))):
            exact_mean, exact_var = oracle_estimator_stats(
                path4, probs, budget, path4.features, w)
            report = embedding_variance(path4, full_propagation(path4), probs,
                                        budget, M, path4.features, w, seed=11)
            se = report.squared_deviation_std / np.sqrt(M)
            assert abs(report.estimator_variance - exact_var) <= 3.0 * se + 1e-12
            np.testing.assert_allclose(report.estimator_mean, exact_mean,
                                       atol=6.0 * np.sqrt(exact_var / M) + 1e-9)
            results[kind] = exact_var
        assert results["vm"] <= results["uniform"]

    def test_zero_probability_edge_is_rejected_when_sampled(self):
        g = graph_from_edges(101, np.c_[np.arange(100), np.arange(1, 101)])
        probs = EdgeProbabilities.from_weights(np.r_[1.0, np.full(99, 1e-20)])
        w = np.ones((2, 1))
        # the tiny edges' closed-form inclusion probability underflows to 0,
        # and budget 3 forces the uniform-fill fallback onto them
        with pytest.raises(ValueError, match="zero inclusion"):
            embedding_variance(g, full_propagation(g), probs, 3, 8, g.features, w,
                               seed=0)

    # per extra selection: its ndarray object and the spread of the sampler's
    # transients between draws; measured at most 0.5 KB
    SELECTION_SLACK = 1024

    def test_peak_grows_by_the_selections_alone(self):
        """Holding all M estimates grows the peak by 2 M n d 8 bytes (61 MB
        from M = 4 to 16 here); holding the M edge selections grows it by
        their bytes."""
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=5000,
                                     classes=4, feature_dim=16, attach=4, seed=3))
        p, probs = full_propagation(g), vm_weights(g)
        w = np.random.default_rng(0).uniform(-1.0, 1.0, size=(g.feature_dim, 64))
        budget = g.num_edges // 4
        peaks = {}
        for M in (4, 16):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                embedding_variance(g, p, probs, budget, M, g.features, w)
                peaks[M] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        extra = 12 * (budget * np.dtype(np.int64).itemsize + self.SELECTION_SLACK)
        assert peaks[16] - peaks[4] <= extra, peaks

    def test_requires_two_samples(self, path4):
        with pytest.raises(ValueError, match="2 Monte-Carlo"):
            embedding_variance(path4, full_propagation(path4), vm_weights(path4),
                               2, 1, path4.features, np.ones((2, 1)))


class TestMemoryProxy:
    def test_peak_formula(self):
        proxy = memory_proxy([10, 50, 30], num_nodes=20)
        assert proxy.peak_directed_edges == 2 * 50 + 20
        assert proxy.bytes_estimate == (2 * 50 + 20) * 512

    def test_custom_per_edge_cost(self):
        proxy = memory_proxy([4], num_nodes=2, per_edge_bytes=8 * 32)
        assert proxy.bytes_estimate == (8 + 2) * 256

    def test_empty_history(self):
        proxy = memory_proxy([], num_nodes=7)
        assert proxy.peak_directed_edges == 7

    def test_capped_run_respects_bound(self):
        m, n, alpha = 400, 50, 0.3
        cap = int(np.floor(alpha * m + 1e-9))
        history = np.minimum(np.arange(0, 300, 7), cap)
        proxy = memory_proxy(history, num_nodes=n)
        assert proxy.peak_directed_edges <= 2 * alpha * m + n

    def test_capped_vs_full_ratio_tracks_alpha(self):
        """Capped-run peak over full-graph peak is ~alpha, up to self-loops."""
        m, n, alpha = 10_000, 500, 0.3
        cap = int(np.floor(alpha * m + 1e-9))
        capped = memory_proxy([cap], num_nodes=n)
        full = memory_proxy([m], num_nodes=n)
        assert full.peak_directed_edges == 2 * m + n
        ratio = capped.peak_directed_edges / full.peak_directed_edges
        assert abs(ratio - alpha) < 0.02
