"""Graph loading, validation, and propagation-matrix construction."""

import numpy as np
import pytest

from spangraph.errors import DataError
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    SpanningSubgraph,
    build_graph,
    build_propagation,
    column_norms,
    load_dataset,
    load_graph,
    read_features,
    save_dataset,
    write_features_binary,
)

from conftest import graph_from_edges


def _write_dataset(tmp_path, edge_lines, num_nodes, feature_dim=2):
    edges = tmp_path / "edges.txt"
    edges.write_text("\n".join(edge_lines) + "\n")
    features = tmp_path / "features.csv"
    features.write_text(
        "\n".join(",".join(["1.0"] * feature_dim) for _ in range(num_nodes)) + "\n"
    )
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(str(i % 2) for i in range(num_nodes)) + "\n")
    splits = tmp_path / "splits.txt"
    splits.write_text("\n".join("train" for _ in range(num_nodes)) + "\n")
    return edges, features, labels, splits


class TestLoadGraph:
    def test_reversed_duplicate_collapses(self, tmp_path):
        """'0 1', '1 2', '1 0' on 3 nodes -> two canonical edges."""
        paths = _write_dataset(tmp_path, ["0 1", "1 2", "1 0"], 3)
        g = load_graph(*paths)
        assert g.num_nodes == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_empty_edge_file_with_declaration(self, tmp_path):
        paths = _write_dataset(tmp_path, ["nodes 4", "# no edges"], 4)
        g = load_graph(*paths)
        assert g.num_nodes == 4
        assert g.num_edges == 0
        assert g.degree.tolist() == [0, 0, 0, 0]

    def test_node_id_beyond_declared_count(self, tmp_path):
        paths = _write_dataset(tmp_path, ["nodes 4", "5 1"], 4)
        with pytest.raises(DataError, match="outside"):
            load_graph(*paths)

    def test_malformed_line_reports_line_number(self, tmp_path):
        paths = _write_dataset(tmp_path, ["0 1", "1 2 3"], 3)
        with pytest.raises(DataError, match=":2"):
            load_graph(*paths)

    def test_non_integer_id_reports_line_number(self, tmp_path):
        paths = _write_dataset(tmp_path, ["0 1", "a 2"], 3)
        with pytest.raises(DataError, match=":2"):
            load_graph(*paths)

    def test_feature_row_count_mismatch(self, tmp_path):
        edges, _, labels, splits = _write_dataset(tmp_path, ["0 1", "1 2"], 3)
        short = tmp_path / "short.csv"
        short.write_text("1.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataError, match="rows"):
            load_graph(edges, short, labels, splits)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        paths = _write_dataset(tmp_path, ["# header", "", "0 1", "# mid", "1 2"], 3)
        g = load_graph(*paths)
        assert g.num_edges == 2

    def test_input_self_loop_is_dropped(self, tmp_path):
        paths = _write_dataset(tmp_path, ["0 1", "2 2"], 3)
        g = load_graph(*paths)
        assert g.edges.tolist() == [[0, 1]]

    def test_split_node_must_be_labeled(self):
        with pytest.raises(DataError, match="unlabeled"):
            build_graph(
                2, np.array([[0, 1]]), np.ones((2, 1)),
                np.array([0, -1]), np.array(["train", "val"]),
            )

    def test_binary_feature_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "features.bin"
        write_features_binary(path, x)
        back = read_features(path)
        np.testing.assert_array_equal(back, x.astype(np.float64))

    def test_truncated_binary_features(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"SPGF" + b"\x00" * 10)
        with pytest.raises(DataError, match="truncated"):
            read_features(path)


class TestCsrInvariants:
    def test_degrees_exclude_self_loops(self, star4):
        assert star4.degree.tolist() == [3, 1, 1, 1]

    def test_round_trip_preserves_edge_set(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 12
        edges = rng.integers(0, n, size=(30, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = graph_from_edges(n, edges)
        save_dataset(tmp_path, g)
        back = load_dataset(tmp_path)
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.labels, g.labels)
        np.testing.assert_array_equal(back.train_mask, g.train_mask)
        np.testing.assert_allclose(back.features, g.features)

    def test_graph_arrays_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.edges[0, 0] = 5


class TestBuildPropagation:
    def test_triangle_gcn_symmetric_all_one_third(self, triangle):
        """On a 3-cycle every dhat is 3, so every entry is 1/3."""
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        np.testing.assert_allclose(p.matrix.toarray(), np.full((3, 3), 1.0 / 3.0))

    def test_empty_subgraph_mean_row_is_identity(self, triangle):
        p = build_propagation(SpanningSubgraph.empty(triangle), MEAN_ROW)
        np.testing.assert_array_equal(p.matrix.toarray(), np.eye(3))

    def test_two_node_path_mean_row(self):
        g = graph_from_edges(2, [[0, 1]])
        p = build_propagation(SpanningSubgraph.full(g), MEAN_ROW)
        np.testing.assert_allclose(p.matrix.toarray(), np.full((2, 2), 0.5))

    def test_mean_row_rows_sum_to_one_on_random_subgraphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            g = graph_from_edges(n, edges)
            mask = rng.random(g.num_edges) < 0.5
            sub = SpanningSubgraph(g, mask)
            p = build_propagation(sub, MEAN_ROW)
            np.testing.assert_allclose(
                np.asarray(p.matrix.sum(axis=1)).ravel(), 1.0, atol=1e-12
            )

    def test_gcn_symmetric_is_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            g = graph_from_edges(n, edges)
            mask = rng.random(g.num_edges) < 0.5
            p = build_propagation(SpanningSubgraph(g, mask), GCN_SYMMETRIC)
            dense = p.matrix.toarray()
            assert (dense == dense.T).all()

    def test_spanning_property_node_set_fixed(self, path4):
        for mask in (np.zeros(3, bool), np.array([1, 0, 1], bool)):
            p = build_propagation(SpanningSubgraph(path4, mask), MEAN_ROW)
            assert p.matrix.shape == (4, 4)


class TestColumnNorms:
    def test_identity_norms_are_one(self, triangle):
        p = build_propagation(SpanningSubgraph.empty(triangle), MEAN_ROW)
        np.testing.assert_allclose(column_norms(p), [1.0, 1.0, 1.0])

    def test_triangle_norms(self, triangle):
        """Three entries of 1/3 per column -> norm 1/sqrt(3)."""
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        np.testing.assert_allclose(column_norms(p), np.full(3, 1.0 / np.sqrt(3.0)))

    def test_star_mean_row_center_exceeds_leaves(self, star4):
        p = build_propagation(SpanningSubgraph.full(star4), MEAN_ROW)
        norms = column_norms(p)
        brute = np.linalg.norm(p.matrix.toarray(), axis=0)
        np.testing.assert_allclose(norms, brute)
        assert norms[0] > norms[1]
        np.testing.assert_allclose(norms[1:], norms[1])
