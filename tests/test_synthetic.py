"""Synthetic dataset generation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from spangraph import synthetic
from spangraph.errors import ConfigError
from spangraph.graphstore import MAX_KEYED_NODES, load_dataset
from spangraph.runner import RunConfig, run_training
from spangraph.synthetic import (
    GeneratorSpec,
    _distinct_pairs,
    generate_synthetic,
    make_graph,
    random_edge_graph,
)

DESK = GeneratorSpec(kind="sbm", nodes=2000, classes=4, feature_dim=16,
                     p_in=0.015, p_out=0.0015, feature_noise=3.0, seed=101)


def pair_frequencies(graphs, n):
    """Fraction of ``graphs`` that hold each pair i < j, as an n x n array."""
    counts = np.zeros((n, n))
    for g in graphs:
        np.add.at(counts, (g.edges[:, 0], g.edges[:, 1]), 1)
    return counts / len(graphs)


def assert_within_4_se(freq, p, trials):
    """Every frequency within 4 standard errors of its Bernoulli(p) mean."""
    se = np.sqrt(p * (1 - p) / trials)
    assert (np.abs(freq - p) <= 4 * se).all(), (freq, p)


class _Ranks:
    """Generator stand-in whose draw without replacement is the given ranks."""

    def __init__(self, ranks):
        self.ranks = np.asarray(ranks, dtype=np.int64)

    def choice(self, a, size, replace, shuffle):
        assert size == self.ranks.size and not replace and (self.ranks < a).all()
        return self.ranks


class TestGeneratorSpec:
    def test_more_classes_than_nodes_rejected(self):
        spec = GeneratorSpec(kind="sbm", nodes=4, classes=5)
        with pytest.raises(ConfigError, match="nodes"):
            spec.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            GeneratorSpec(kind="grid", nodes=10, classes=2).validate()

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError, match="classes"):
            GeneratorSpec(kind="sbm", nodes=10, classes=1).validate()

    @pytest.mark.parametrize("kind", ["sbm", "preferential-attachment"])
    def test_more_nodes_than_edge_keys_order_rejected(self, kind):
        GeneratorSpec(kind=kind, nodes=MAX_KEYED_NODES).validate()
        with pytest.raises(ConfigError, match="exceed the 3037000499"):
            GeneratorSpec(kind=kind, nodes=MAX_KEYED_NODES + 1).validate()

    @pytest.mark.parametrize("field,value", [("feature_dim", 2**60),
                                             ("attach", 2**60)])
    def test_a_width_numpy_cannot_shape_rejected(self, field, value):
        spec = GeneratorSpec(kind="preferential-attachment", nodes=10, **{field: value})
        with pytest.raises(ConfigError, match=f"{field} {value} needs a"):
            spec.validate()


class TestSbm:
    def test_disjoint_cliques_structure(self):
        """p_in=1, p_out=0 with 2 blocks yields two complete components."""
        spec = GeneratorSpec(kind="sbm", nodes=16, classes=2, feature_dim=4,
                             seed=0, p_in=1.0, p_out=0.0)
        g = make_graph(spec)
        assert g.num_edges == 2 * (8 * 7 // 2)
        labels = g.labels
        for u, v in g.edges:
            assert labels[u] == labels[v]

    def test_disjoint_cliques_reach_full_accuracy(self):
        """A 2-layer GCN separates two cliques within 200 epochs."""
        spec = GeneratorSpec(kind="sbm", nodes=40, classes=2, feature_dim=8,
                             seed=1, p_in=1.0, p_out=0.0)
        cfg = RunConfig(generator=spec, baseline="full", epochs=200,
                        hidden_dim=16, learning_rate=0.2, seed=6)
        result = run_training(cfg)
        assert result.best_val_acc == 1.0

    def test_blocks_are_balanced(self):
        spec = GeneratorSpec(kind="sbm", nodes=21, classes=4, seed=0)
        g = make_graph(spec)
        counts = np.bincount(g.labels)
        assert counts.min() >= 5 and counts.max() <= 6

    def test_splits_are_stratified_and_disjoint(self):
        spec = GeneratorSpec(kind="sbm", nodes=100, classes=4, seed=3)
        g = make_graph(spec)
        assert not (g.train_mask & g.val_mask).any()
        assert not (g.train_mask & g.test_mask).any()
        for c in range(4):
            ids = g.labels == c
            assert (g.train_mask & ids).sum() >= 1
            assert (g.val_mask & ids).sum() >= 1

    def test_each_pair_has_its_blocks_probability(self):
        """Over 3000 seeds of an 8-node, 2-block SBM every pair's inclusion
        frequency matches p_in within a block and p_out across blocks."""
        trials = 3000
        graphs = [make_graph(GeneratorSpec(kind="sbm", nodes=8, classes=2, feature_dim=1,
                                           p_in=0.3, p_out=0.1, seed=s))
                  for s in range(trials)]
        freq = pair_frequencies(graphs, 8)
        i, j = np.triu_indices(8, k=1)
        same = (i < 4) == (j < 4)
        assert_within_4_se(freq[i[same], j[same]], 0.3, trials)
        assert_within_4_se(freq[i[~same], j[~same]], 0.1, trials)

    @pytest.mark.parametrize("nodes,classes", [(3, 3), (5, 4), (2, 2)])
    def test_one_node_blocks_and_zero_probabilities(self, nodes, classes):
        full = GeneratorSpec(kind="sbm", nodes=nodes, classes=classes, p_in=1.0, p_out=1.0)
        assert make_graph(full).num_edges == nodes * (nodes - 1) // 2
        empty = GeneratorSpec(kind="sbm", nodes=nodes, classes=classes, p_in=0.0, p_out=0.0)
        assert make_graph(empty).num_edges == 0

    def test_desk_graph_draws_only_what_it_keeps(self):
        """Listing every pair of the 2k-node desk graph traced 14.4 MB."""
        assert traced_peak(make_graph, DESK) < 2e6

    def test_a_20k_node_sbm_of_average_degree_100(self):
        """About 1M edges; enumerating its 2e8 pairs would take 3.2 GB."""
        spec = GeneratorSpec(kind="sbm", nodes=20_000, classes=4, feature_dim=4,
                             p_in=0.018, p_out=0.0006, seed=1)
        graphs = []
        peak = traced_peak(lambda: graphs.append(make_graph(spec)))
        mean = 4 * math.comb(5000, 2) * 0.018 + 6 * 5000 ** 2 * 0.0006
        assert abs(graphs[0].num_edges - mean) < 5 * math.sqrt(mean)
        assert peak < 100e6


class TestDistinctPairs:
    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_all_ranks_are_all_pairs(self, n):
        pairs = _distinct_pairs(np.random.default_rng(0), n, n * (n - 1) // 2)
        assert (pairs[:, 0] < pairs[:, 1]).all() and pairs.min() >= 0 and pairs.max() < n
        i, j = np.triu_indices(n, k=1)
        assert np.array_equal(np.unique(pairs, axis=0), np.stack([i, j], axis=1))

    @pytest.mark.parametrize("n", [2, 3, 1000, 2**26, 2**31, MAX_KEYED_NODES])
    def test_unranking_is_exact(self, n):
        """Ranks 0, 1 and the last, and either side of 10k triangular ranks
        t = j(j-1)/2, where the float root lands nearest an integer; past
        n = 2**26, 8r + 1 no longer fits a float64 mantissa.  A rank is
        r = j(j-1)/2 + i with 0 <= i < j, which pins the pair down, so the
        check is exact in integers."""
        top = n * (n - 1) // 2
        j = np.random.default_rng(n).integers(2, n, size=10_000, endpoint=True)
        ranks = np.concatenate([[0, 1, top - 1],
                                ((j * (j - 1) // 2)[:, None] + [-1, 0, 1]).ravel()])
        ranks = ranks[(ranks >= 0) & (ranks < top)]
        i, j = _distinct_pairs(_Ranks(ranks), n, ranks.size).T
        assert (0 <= i).all() and (i < j).all() and (j < n).all()
        assert np.array_equal(j * (j - 1) // 2 + i, ranks)


def attachment_reference(spec, rng):
    """The attachment loop written plainly, each node's targets deduped by np.unique."""
    core = min(spec.attach + 1, spec.nodes)
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    for node in range(core, spec.nodes):
        endpoints = np.array(edges).ravel()
        targets = np.unique(endpoints[rng.integers(0, endpoints.size, size=spec.attach)])
        edges += [(t, node) for t in targets]
    return np.array(edges)


class TestPreferentialAttachment:
    @pytest.mark.parametrize("nodes,attach", [(400, 5), (60, 1), (4, 8)])
    def test_edges_match_the_np_unique_reference(self, nodes, attach):
        spec = GeneratorSpec(kind="preferential-attachment", nodes=nodes, attach=attach)
        got = synthetic._preferential_attachment_edges(spec, np.random.default_rng(7))
        want = attachment_reference(spec, np.random.default_rng(7))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_edge_count_and_hubs(self):
        spec = GeneratorSpec(kind="preferential-attachment", nodes=300,
                             classes=3, attach=4, seed=2)
        g = make_graph(spec)
        # dedup may shave a few edges off nodes*attach
        assert g.num_edges > 0.85 * 300 * 4
        # degree distribution should be heavily skewed
        assert g.degree.max() > 4 * np.median(g.degree)


class TestDeterminism:
    def test_same_spec_same_files(self, tmp_path):
        spec = GeneratorSpec(kind="sbm", nodes=30, classes=3, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(spec, a)
        generate_synthetic(spec, b)
        for name in ("edges.txt", "features.csv", "labels.txt", "splits.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_round_trip_through_disk(self, tmp_path):
        spec = GeneratorSpec(kind="sbm", nodes=30, classes=3, seed=9)
        g = generate_synthetic(spec, tmp_path)
        back = load_dataset(tmp_path)
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.labels, g.labels)

    def test_binary_feature_payload(self, tmp_path):
        spec = GeneratorSpec(kind="sbm", nodes=12, classes=2, seed=4)
        g = generate_synthetic(spec, tmp_path, binary_features=True)
        back = load_dataset(tmp_path)
        # float32 storage: match at float32 precision
        np.testing.assert_allclose(back.features, g.features, atol=1e-6)


def object_array_splits(labels, rng):
    """The former split formula: fill an object array, then convert it to str."""
    splits = np.full(labels.shape[0], "none", dtype=object)
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        ids = ids[rng.permutation(ids.size)]
        n_train = max(1, int(0.6 * ids.size))
        n_val = int(0.2 * ids.size)
        splits[ids[:n_train]] = "train"
        splits[ids[n_train:n_train + n_val]] = "val"
        splits[ids[n_train + n_val:]] = "test"
    return splits.astype(str)


class TestSplits:
    @pytest.mark.parametrize("spec", [
        DESK, GeneratorSpec(kind="preferential-attachment", nodes=500, classes=3, attach=3),
    ], ids=["sbm", "pa"])
    def test_masks_match_the_object_array_formula(self, spec, monkeypatch):
        """Same draws, same splits: the masks are the former formula's."""
        for seed in range(4):
            s = replace(spec, seed=seed)
            g = make_graph(s)
            monkeypatch.setattr(synthetic, "_stratified_splits", object_array_splits)
            want = make_graph(s)
            monkeypatch.undo()
            for mask in ("train_mask", "val_mask", "test_mask"):
                assert np.array_equal(getattr(g, mask), getattr(want, mask)), (seed, mask)


class TestRandomEdgeGraph:
    def test_exact_edge_count(self):
        g = random_edge_graph(1000, 5000, seed=0)
        assert g.num_edges == 5000
        assert g.edges.max() < 1000

    def test_a_uniform_subset_of_all_pairs(self):
        """Each of the 15 pairs of 6 nodes is in a 5-edge graph with
        probability 5/15."""
        trials = 3000
        graphs = [random_edge_graph(6, 5, seed=s) for s in range(trials)]
        assert all(g.num_edges == 5 for g in graphs)
        i, j = np.triu_indices(6, k=1)
        assert_within_4_se(pair_frequencies(graphs, 6)[i, j], 5 / 15, trials)

    def test_too_dense_rejected(self):
        with pytest.raises(ConfigError, match="do not fit"):
            random_edge_graph(4, 10, seed=0)

    def test_negative_edge_count_rejected(self):
        with pytest.raises(ConfigError, match="edge count must be >= 0, got -1"):
            random_edge_graph(10, -1, seed=0)

    def test_more_nodes_than_edge_keys_order_rejected(self):
        with pytest.raises(ConfigError, match="exceed the 3037000499"):
            random_edge_graph(MAX_KEYED_NODES + 1, 10, seed=0)
