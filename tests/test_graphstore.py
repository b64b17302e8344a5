"""Graph loading, validation, and propagation-matrix construction."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase
from scipy.sparse._sparsetools import coo_tocsr

import spangraph
from spangraph import graphstore
from spangraph.errors import DataError
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MAX_KEYED_NODES,
    MEAN_ROW,
    SPLIT_NAMES,
    PropagationMatrix,
    SpanningSubgraph,
    build_graph,
    build_propagation,
    canonicalize_edges,
    column_norms,
    load_dataset,
    load_graph,
    read_edge_list,
    read_features,
    read_labels,
    read_splits,
    save_dataset,
    sorted_unique,
    write_edge_list,
    write_features_binary,
    write_labels,
    write_splits,
)
from spangraph.runner import RunConfig, run_training
from spangraph.synthetic import GeneratorSpec, make_graph

from conftest import graph_from_edges, rule_product, traced_peak


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

    @pytest.mark.parametrize("num_nodes,features,labels,splits,message", [
        (-1, np.ones((0, 1)), [], [], "num_nodes must be non-negative"),
        (2, [[1.0], [np.nan]], [0, 1], ["train", "val"],
         "feature matrix contains non-finite values"),
        (2, np.ones((2, 1)), [0], ["train", "val"],
         r"label count \(1,\) does not match 2 nodes"),
        (2, np.ones((2, 1)), [0, -2], ["train", "none"], "labels must be >= -1"),
        (2, np.ones((2, 1)), [0, 1], ["train"],
         r"split count \(1,\) does not match 2 nodes"),
        (2, np.ones((2, 1)), [0, 1], ["train", "dev"], "unknown split name 'dev'"),
    ])
    def test_build_graph_refuses(self, num_nodes, features, labels, splits, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            build_graph(num_nodes, np.zeros((0, 2)), np.asarray(features),
                        np.asarray(labels), np.asarray(splits))

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


class TestLoaderErrorContract:
    """Each rejected file names its fault and ``file:line`` exactly."""

    @pytest.mark.parametrize("reader, text, where", [
        (read_edge_list, "nodes 3\n0 1\n-1 2\n", "3: negative node id"),
        (read_edge_list, "0 1\n1 -2\n", "2: negative node id"),
        (read_edge_list, "# c\nnodes x\n0 1\n", "2: malformed node-count declaration"),
        (read_edge_list, "nodes 3 4\n0 1\n", "1: malformed node-count declaration"),
        (read_edge_list, "nodes\n0 1\n", "1: malformed node-count declaration"),
        (read_edge_list, "nodes \u00b2\n0 1\n", "1: malformed node-count declaration"),
        (read_edge_list, "0 1\n1 9223372036854775808\n",
         "2: node id does not fit int64 in '1 9223372036854775808'"),
        (read_edge_list, "nodes 3\n18446744073709551616 0\n",
         "2: node id does not fit int64 in '18446744073709551616 0'"),
        (read_edge_list, "0 1\nnodes 5\n", "2: non-integer node id in 'nodes 5'"),
        (read_edge_list, "nodes 5\n0 1\nnodes 5\n", "3: non-integer node id in 'nodes 5'"),
        (read_edge_list, "0 1\n1 2\n0 1 # x\n", "3: expected 'u v', got '0 1 # x'"),
        (read_edge_list, "0 1\n1.0 2\n", "2: non-integer node id in '1.0 2'"),
        (read_labels, "0\n1\n\nx\n", "4: non-integer label 'x'"),
        (read_labels, "0\n1 2\n", "2: non-integer label '1 2'"),
        (read_labels, "0\n9223372036854775808\n", "2: label '9223372036854775808' does not fit int64"),
        (read_labels, "-1\n-9223372036854775809\n",
         "2: label '-9223372036854775809' does not fit int64"),
        (read_splits, "train\nval\nbogus\n", "3: unknown split 'bogus'"),
        (read_splits, "train\ntrain val\n", "2: unknown split 'train val'"),
        (read_features, "1,2\n3,4\n5,6,7\n", "3: row has 3 columns, expected 2"),
        (read_features, "1,2\n3,x\n", "2: non-numeric feature value"),
    ])
    def test_message_and_line(self, tmp_path, reader, text, where):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            reader(path)
        assert str(info.value) == f"{path}:{where}"


class TestAcceptedEdgeFormats:
    """The edge-list grammar accepts these spellings, each as one graph."""

    @pytest.mark.parametrize("text, declared, pairs", [
        ("nodes 4\r\n0 1\r\n2 3\r\n", 4, [[0, 1], [2, 3]]),
        ("0 1\r1 2\r", None, [[0, 1], [1, 2]]),
        ("0\t1\n1\t\t2\n", None, [[0, 1], [1, 2]]),
        ("0 1   \n  1 2 \t\n", None, [[0, 1], [1, 2]]),
        ("0 1\n1 2", None, [[0, 1], [1, 2]]),
        ("0 1\n   \n\t\n\n1 2\n", None, [[0, 1], [1, 2]]),
        ("# a\n  # b\nnodes 5\n# c\n0 1\n", 5, [[0, 1]]),
        ("0 1\n# mid\n1 2\n", None, [[0, 1], [1, 2]]),
        ("nodes 7\n", 7, []),
        ("nodes 7", 7, []),
        ("", None, []),
        ("\n \n# only comments\n", None, []),
        ("3 4\n", None, [[3, 4]]),
        ("+1 007\n1_0 2\n", None, [[1, 7], [10, 2]]),
        ("0\xa01\n", None, [[0, 1]]),
        ("0 9223372036854775807\n", None, [[0, 2**63 - 1]]),
    ])
    def test_same_pairs(self, tmp_path, text, declared, pairs):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        got_declared, got = read_edge_list(path)
        assert got_declared == declared
        assert got.dtype == np.int64 and got.shape == (len(pairs), 2)
        assert got.tolist() == pairs

    def test_labels_splits_and_features(self, tmp_path):
        (tmp_path / "labels.txt").write_bytes(b"0\r\n-1\r\n\r\n +2 \r\n")
        (tmp_path / "splits.txt").write_bytes(b"train\n val \n\ntest\nnone")
        (tmp_path / "features.csv").write_bytes(b"1, 2.5\r\n\n-0.0,1e-320\n")
        assert read_labels(tmp_path / "labels.txt").tolist() == [0, -1, 2]
        assert read_splits(tmp_path / "splits.txt").tolist() == ["train", "val", "test", "none"]
        x = read_features(tmp_path / "features.csv")
        assert x.tolist() == [[1.0, 2.5], [-0.0, 1e-320]]
        assert np.signbit(x[1, 0])

    @pytest.mark.parametrize("reader, text", [
        (read_edge_list, "nodes 5\n0 1\n3 4\n"), (read_edge_list, "0 1\n3 4\n"),
        (read_edge_list, "# c\nnodes 5\n"), (read_labels, "0\n-1\n2\n"),
        (read_splits, "train\nval\nnone\n"), (read_features, "1,2.5\n-3,4\n")])
    @pytest.mark.parametrize("scanner", [False, True])
    def test_a_leading_byte_order_mark_is_skipped(self, reader, text, scanner, tmp_path,
                                                  monkeypatch):
        """In the numpy pass and in the line scanner alike."""
        if scanner:
            monkeypatch.setattr(graphstore, "_table", refuse_table)
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        got, want = reader(marked), reader(plain)
        if reader is read_edge_list:
            assert got[0] == want[0]
            got, want = got[1], want[1]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_a_byte_order_mark_past_the_start_is_refused(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes("0 1\n\ufeff1 2\n".encode("utf-8"))
        with pytest.raises(DataError, match=":2: non-integer node id"):
            read_edge_list(path)

    def test_feature_values_parse_as_python_floats(self, tmp_path):
        rng = np.random.default_rng(11)
        cells = [repr(float(v)) for v in rng.normal(size=60) * 10.0 ** rng.integers(-300, 300, 60)]
        cells += ["".join(map(str, rng.integers(0, 10, 25))) + "e-" + str(k) for k in range(0, 340, 17)]
        path = tmp_path / "features.csv"
        path.write_text("\n".join(",".join(cells[i:i + 4]) for i in range(0, 80, 4)) + "\n")
        got = read_features(path)
        want = np.array([float(c) for c in cells]).reshape(20, 4)
        assert got.tobytes() == want.tobytes()


def refuse_table(*args, **kwargs):
    raise ValueError("the numpy pass is made to raise")


class TestScannerFuzz:
    """Seeded texts from the grammar's spellings: each reader returns what
    the line scanner alone returns (the numpy pass made to raise), or raises
    the scanner's DataError text."""

    TOKENS = ["0", "1", "7", "12", "+3", "-1", "-0", "007", "1_0", "00", "1.0", "x",
              "9223372036854775807", "9223372036854775808", "-9223372036854775809",
              "18446744073709551616", "\u0663", "\xb2"]
    SPLITS = ["train", "val", "test", "none", "bogus", "\ufefftrain"]
    HEADS = ["nodes 40", "nodes  40 ", "\tnodes 007", "nodes", "nodes 3 4", "nodes x",
             "nodes \xb2", "nodes\xa040", "nodes +4"]
    BLANKS = ["", " ", "\t", "\xa0", "#", "# c", "  # x", "\xa0# y"]
    SPACES = [" ", " ", "\t", " \t", "\xa0"]

    @classmethod
    def text(cls, rng, reader):
        lines = []
        for _ in range(rng.integers(0, 9)):
            pick = rng.random()
            if pick < 0.15:
                lines.append(str(rng.choice(cls.BLANKS)))
                continue
            if pick < 0.2 and reader is read_edge_list:
                lines.append(str(rng.choice(cls.HEADS)))
                continue
            width = rng.choice([1, 2, 3], p=[0.04, 0.92, 0.04] if reader is read_edge_list
                               else [0.92, 0.04, 0.04])
            words = cls.SPLITS if reader is read_splits else cls.TOKENS
            # mostly the first four words, which the grammar reads as values
            cells = [str(rng.choice(words if rng.random() < 0.06 else words[:4]))
                     for _ in range(width)]
            lead, trail = rng.choice(["", "", " ", "\xa0"]), rng.choice(["", "", "\t", " "])
            lines.append(str(lead) + str(rng.choice(cls.SPACES)).join(cells) + str(trail))
        end = str(rng.choice(["\n", "\r\n", "\r"]))
        text = "".join(line + end for line in lines)
        if rng.random() < 0.2:
            text = text.rstrip("\r\n")
        if rng.random() < 0.1:
            text = "\ufeff" + text
        return text

    @staticmethod
    def outcome(reader, path):
        try:
            got = reader(path)
        except DataError as exc:
            return str(exc)
        declared, got = got if isinstance(got, tuple) else (None, got)
        return declared, got.dtype.str, got.shape, got.tobytes()

    @pytest.mark.parametrize("reader", [read_edge_list, read_labels, read_splits])
    def test_readers_agree_with_the_scanner(self, reader, tmp_path, monkeypatch):
        rng = np.random.default_rng(2024)
        path = tmp_path / "data.txt"
        scanned = 0
        for _ in range(300):
            path.write_bytes(self.text(rng, reader).encode("utf-8"))
            got = self.outcome(reader, path)
            with monkeypatch.context() as patch:
                patch.setattr(graphstore, "_table", refuse_table)
                want = self.outcome(reader, path)
            assert got == want, path.read_bytes()
            scanned += isinstance(want, tuple) and want[2][0] > 0
        assert scanned > 75     # many texts parse to rows, not only to errors


class TestCanonicalizeEdges:
    @pytest.mark.parametrize("seed, n, m", [(0, 2, 10), (1, 5, 40), (2, 50, 600), (3, 1000, 5000)])
    def test_equals_unique_rows(self, seed, n, m):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, 2))
        edges = np.concatenate([edges, edges[::-1, ::-1], edges[:5]])
        kept = edges[edges[:, 0] != edges[:, 1]]
        lo, hi = kept.min(axis=1), kept.max(axis=1)
        want = np.unique(np.stack([lo, hi], 1), axis=0)
        got = canonicalize_edges(edges, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_only_self_loops_leave_no_edge(self):
        got = canonicalize_edges(np.array([[1, 1], [0, 0]]), 3)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_node_count_past_the_key_bound_is_refused(self):
        canonicalize_edges(np.array([[0, MAX_KEYED_NODES - 1]]), MAX_KEYED_NODES)
        with pytest.raises(DataError, match="int64 edge keys"):
            canonicalize_edges(np.array([[0, 1]]), MAX_KEYED_NODES + 1)

    @pytest.mark.parametrize("size", [0, 1, 2, 1000])
    def test_sorted_unique_equals_np_unique(self, size):
        values = np.random.default_rng(size).integers(-50, 50, size=size)
        want = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCanonicalSkip:
    """An edge list already in canonical form, as ``save_dataset`` writes
    it, skips the sort; a list that misses the form anywhere, a chunk
    boundary included, is sorted as before."""

    @staticmethod
    def canonical(n=2_000):
        """About 80k canonical edges: more than one 65,536-row chunk."""
        pairs = np.sort(np.random.default_rng(5).integers(0, n, size=(80_000, 2)), axis=1)
        return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0), n

    def test_canonical_input_is_returned_unsorted(self, monkeypatch):
        edges, n = self.canonical()
        want = np.unique(edges, axis=0)
        assert want.tobytes() == edges.tobytes()
        monkeypatch.setattr(graphstore, "sorted_unique", pytest.fail)
        got = canonicalize_edges(edges, n)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, edges)
        assert np.shares_memory(canonicalize_edges(edges, n, copy=False), edges)

    @pytest.mark.parametrize("fault", ["reversed", "duplicate", "loop", "swap"])
    @pytest.mark.parametrize("row", [1, 65_535, 65_536, 69_999])
    def test_a_near_miss_is_sorted(self, fault, row):
        edges, n = self.canonical()
        if fault == "reversed":
            edges[row] = edges[row, ::-1]
        elif fault == "duplicate":
            edges[row] = edges[row - 1]
        elif fault == "loop":
            edges[row] = edges[row, 0]
        else:
            edges[[row - 1, row]] = edges[[row, row - 1]]
        kept = edges[edges[:, 0] != edges[:, 1]]
        want = np.unique(np.sort(kept, axis=1), axis=0)
        assert canonicalize_edges(edges, n, copy=False).tobytes() == want.tobytes()

    def test_a_loaded_graph_adopts_the_parsed_edges(self, tmp_path, monkeypatch):
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=500, classes=3,
                                     feature_dim=4, attach=6, seed=3))
        save_dataset(tmp_path, g)
        monkeypatch.setattr(graphstore, "sorted_unique", pytest.fail)
        back = load_dataset(tmp_path)
        assert back.edges.tobytes() == g.edges.tobytes() and not back.edges.flags.writeable

    @pytest.mark.parametrize("values", [[], [4], [-3, 0, 7], list(range(70_000)),
                                        [*range(65_536), 65_535, 70_000], [3, 1, 2]])
    def test_sorted_unique_of_increasing_values_is_the_array(self, values):
        values = np.array(values, dtype=np.int64)
        got = sorted_unique(values)
        assert got.tobytes() == np.unique(values).tobytes()
        assert (got is values) == (np.diff(values) > 0).all()


def one_string_layout(head, line, rows):
    """The text layout as one ``%``-formatted string for all rows."""
    return (head + (line * len(rows)) % tuple(np.asarray(rows).ravel().tolist())).encode()


class TestWriters:
    # measured 1.68 MB writing 65,536 edges (0.84 MB for as many labels, 0.32
    # MB for splits), the same at 20k and 200k; the one-string layout needs
    # about 100 bytes per edge (106 MB for 1,049,363)
    MAX_WRITE_PEAK = 2_000_000

    def test_text_layout(self, tmp_path):
        write_edge_list(tmp_path / "e.txt", 4, np.array([[0, 1], [2, 3]]))
        write_edge_list(tmp_path / "empty.txt", 2, np.zeros((0, 2), dtype=np.int64))
        write_labels(tmp_path / "l.txt", np.array([1, -1, 0]))
        write_splits(tmp_path / "s.txt", np.array(["train", "none", "val"], dtype=object))
        assert (tmp_path / "e.txt").read_bytes() == b"nodes 4\n0 1\n2 3\n"
        assert (tmp_path / "empty.txt").read_bytes() == b"nodes 2\n"
        assert (tmp_path / "l.txt").read_bytes() == b"1\n-1\n0\n"
        assert (tmp_path / "s.txt").read_bytes() == b"train\nnone\nval\n"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_equal_the_one_string_layout(self, tmp_path, seed):
        """Seeded graphs whose edges, labels and splits span several chunks."""
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=4000, classes=3,
                                     feature_dim=2, attach=9, seed=seed))
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 10**12, size=40_000)
        splits = rng.choice(np.array(SPLIT_NAMES, dtype=object), size=40_000)
        write_edge_list(tmp_path / "e.txt", g.num_nodes, g.edges)
        write_labels(tmp_path / "l.txt", labels)
        write_splits(tmp_path / "s.txt", splits)
        assert g.num_edges > 2 * 16_384
        assert (tmp_path / "e.txt").read_bytes() == one_string_layout(
            f"nodes {g.num_nodes}\n", "%d %d\n", g.edges)
        assert (tmp_path / "l.txt").read_bytes() == one_string_layout("", "%d\n", labels)
        assert (tmp_path / "s.txt").read_bytes() == one_string_layout("", "%s\n", splits)

    def test_write_peak_does_not_grow_with_the_rows(self, tmp_path):
        rng = np.random.default_rng(9)
        edges = rng.integers(0, 10**6, size=(65_536, 2))
        labels = rng.integers(-1, 10**6, size=65_536)
        splits = rng.choice(np.array(SPLIT_NAMES, dtype=object), size=65_536)
        for peak in (traced_peak(write_edge_list, tmp_path / "e.txt", 10**6, edges),
                     traced_peak(write_labels, tmp_path / "l.txt", labels),
                     traced_peak(write_splits, tmp_path / "s.txt", splits)):
            assert peak <= self.MAX_WRITE_PEAK, peak


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


class TestSpanningSubgraph:
    def test_from_indices_sorts_and_dedups_into_int32_ids(self, path4):
        sub = SpanningSubgraph.from_indices(path4, [2, 0, 2])
        assert sub.active.dtype == np.int32
        np.testing.assert_array_equal(sub.active, [0, 2])
        assert sub.active_count == 2
        assert sub.edge_ratio == 2 / 3

    def test_full_and_empty_hold_no_edge_sized_array(self, path4):
        full = SpanningSubgraph.full(path4)
        assert full.active is None
        assert (full.active_count, full.edge_ratio) == (3, 1.0)
        np.testing.assert_array_equal(full.active_indices, [0, 1, 2])
        assert SpanningSubgraph.empty(path4).active.size == 0

    @pytest.mark.parametrize("bad", [[-1], [3], [0, 7]])
    def test_from_indices_rejects_ids_outside_the_parent(self, path4, bad):
        with pytest.raises(ValueError, match="out of range"):
            SpanningSubgraph.from_indices(path4, bad)


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
            sub = SpanningSubgraph.from_indices(g, np.flatnonzero(mask))
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
            p = build_propagation(SpanningSubgraph.from_indices(g, np.flatnonzero(mask)),
                                  GCN_SYMMETRIC)
            dense = p.matrix.toarray()
            assert (dense == dense.T).all()

    def test_spanning_property_node_set_fixed(self, path4):
        for mask in (np.zeros(3, bool), np.array([1, 0, 1], bool)):
            p = build_propagation(SpanningSubgraph.from_indices(path4, np.flatnonzero(mask)),
                                  MEAN_ROW)
            assert p.matrix.shape == (4, 4)


def edge_mask(sub):
    """The subgraph's active edges as a boolean mask over the parent's."""
    mask = np.zeros(sub.parent.num_edges, dtype=bool)
    mask[sub.active_indices] = True
    return mask


def coo_build(sub, kind):
    """Both directions and the self-loops as int64 COO triplets, one value
    per entry, converted (and sorted) by scipy."""
    g = sub.parent
    n = g.num_nodes
    active = g.edges[edge_mask(sub)]
    u, v = active[:, 0], active[:, 1]
    rows = np.concatenate([u, v, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([v, u, np.arange(n, dtype=np.int64)])
    dhat = np.bincount(np.concatenate([u, v]), minlength=n).astype(np.float64) + 1.0
    if kind == GCN_SYMMETRIC:
        vals = 1.0 / np.sqrt(dhat[rows] * dhat[cols])
    else:
        vals = 1.0 / dhat[rows]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestBuildMatchesCooReference:
    """The build lists its entries in canonical CSR order, so scipy never
    sorts them, and matches a sorted COO conversion bitwise."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(17)
        edges = rng.integers(0, 40, size=(120, 2))   # nodes 40..59 stay isolated
        yield graph_from_edges(60, edges[edges[:, 0] != edges[:, 1]])
        yield make_graph(GeneratorSpec(kind="preferential-attachment", nodes=500,
                                       classes=3, feature_dim=4, attach=6, seed=3))

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_bitwise_equal_on_every_mask(self, kind, monkeypatch):
        rng = np.random.default_rng(29)
        sorted_by_scipy = []
        for g in self.graphs():
            m = g.num_edges
            for indices in ([], [int(rng.integers(m))], rng.permutation(m)[:m // 4],
                            np.arange(m)):
                sub = SpanningSubgraph.from_indices(g, indices)
                with monkeypatch.context() as patch:
                    patch.setattr(sp.csr_matrix, "sort_indices",
                                  lambda matrix: sorted_by_scipy.append(matrix))
                    got = build_propagation(sub, kind).matrix
                want = coo_build(sub, kind)
                assert not sorted_by_scipy
                assert got.has_canonical_format
                assert got.indices.dtype == got.indptr.dtype == np.int32
                assert got.indptr.tobytes() == want.indptr.tobytes()
                assert got.indices.tobytes() == want.indices.tobytes()
                assert got.data.tobytes() == want.data.tobytes()


def triplet_build(sub, kind):
    """The build as int32 COO triplets carrying their values, listed as the
    (v, u) half, the self-loops, then the (u, v) half, each canonical
    edge's value computed once for both directions."""
    g = sub.parent
    n = g.num_nodes
    active = g.edges[edge_mask(sub)].astype(np.int32)
    u, v = active[:, 0], active[:, 1]
    loops = np.arange(n, dtype=np.int32)
    dhat = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)).astype(np.float64) + 1.0
    if kind == GCN_SYMMETRIC:
        lower = upper = 1.0 / np.sqrt(dhat[u] * dhat[v])
        on_loops = 1.0 / np.sqrt(dhat * dhat)
    else:
        on_loops = 1.0 / dhat
        lower, upper = on_loops[v], on_loops[u]
    vals = np.concatenate([lower, on_loops, upper])
    rows = np.concatenate([v, loops, u])
    cols = np.concatenate([u, loops, v])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestBuildMatchesTripletBuild:
    """Placing a boolean pattern and filling its values in place gives the
    triplet build's matrix bitwise, and ``column_norms`` gives scipy's
    column sums of squares bitwise."""

    @staticmethod
    def subgraphs(pa3k):
        rng = np.random.default_rng(31)
        # about 148k entries in full, so the gcn fill crosses two slice bounds
        sbm = make_graph(GeneratorSpec(kind="sbm", nodes=2000, classes=3, feature_dim=4,
                                       p_in=0.1, p_out=0.005, seed=8))
        for g in (pa3k, sbm):
            m = g.num_edges
            yield SpanningSubgraph.empty(g)
            yield SpanningSubgraph.from_indices(g, [int(rng.integers(m))])
            for fraction in (0.05, 0.25):
                yield SpanningSubgraph.from_indices(g, np.flatnonzero(rng.random(m) < fraction))
            yield SpanningSubgraph.full(g)
        yield SpanningSubgraph.full(graph_from_edges(30, [[0, 1], [1, 2], [5, 9]]))
        for n in (0, 1):
            yield SpanningSubgraph.full(graph_from_edges(n, []))

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_bitwise_equal_on_every_subgraph(self, kind, pa3k):
        for sub in self.subgraphs(pa3k):
            p = build_propagation(sub, kind)
            got, want = p.matrix, triplet_build(sub, kind)
            assert got.has_canonical_format
            assert got.indices.dtype == got.indptr.dtype == np.int32
            assert got.data.dtype == np.float64
            assert got.indptr.tobytes() == want.indptr.tobytes()
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.data.tobytes() == want.data.tobytes()
            squares = np.asarray(want.multiply(want).sum(axis=0)).ravel()
            assert column_norms(p).tobytes() == np.sqrt(squares).tobytes()


def int64_copy(p):
    """``p`` over int64 copies of its ``indptr`` and ``indices``."""
    return PropagationMatrix(p.indptr.astype(np.int64), p.indices.astype(np.int64),
                             None if p.data is None else p.data.copy(), p.kind)


class TestProductsMatchScipy:
    """``P @ Y``, ``P.T @ G`` and ``P.rows(panel) @ Y`` call scipy's kernels
    on P's arrays and give scipy's products bitwise: ``P @ Y`` by P's value
    rule (``rule_product``), ``P.T @ G`` as the valued matrix's, and each
    panel as the whole product's rows."""

    @staticmethod
    def subgraphs():
        rng = np.random.default_rng(41)
        edges = rng.integers(0, 150, size=(900, 2))     # nodes 150..199 stay isolated
        g = graph_from_edges(200, edges[edges[:, 0] != edges[:, 1]])
        yield SpanningSubgraph.empty(g)
        yield SpanningSubgraph.from_indices(g, np.flatnonzero(rng.random(g.num_edges) < 0.3))
        yield SpanningSubgraph.full(g)

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(43)
        wide = rng.standard_normal((n, 12))
        yield wide
        yield wide[:, :1].copy()
        yield np.asfortranarray(wide)
        yield wide[:, 2:9:3]
        yield wide.astype(np.float32)

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_bitwise_scipy_products(self, kind):
        for sub in self.subgraphs():
            built = build_propagation(sub, kind)
            m = built.matrix
            n = m.shape[0]
            panels = [slice(0, 0), slice(77, 77), slice(0, 1), slice(150, 151),
                      slice(31, 120), slice(n - 9, n), slice(0, n)]
            for p in (built, int64_copy(built)):
                for y in self.operands(n):
                    want = rule_product(built, y)
                    assert (p @ y).tobytes() == want.tobytes()
                    assert (p.T @ y).tobytes() == (m.T @ y).tobytes()
                    for panel in panels:
                        assert (p.rows(panel) @ y).tobytes() == want[panel].tobytes()

    def test_mismatched_operands_and_panels_raise(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), MEAN_ROW)
        for y in (np.ones((4, 2)), np.ones(3), np.ones((3, 2, 1))):
            for operator in (p, p.T, p.rows(slice(0, 2))):
                with pytest.raises(ValueError, match="cannot multiply"):
                    operator @ y
        for panel in (slice(2, 1), slice(0, 4), slice(-1, 2)):
            with pytest.raises(ValueError, match="outside"):
                p.rows(panel)

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_the_build_is_canonical(self, kind):
        """scipy's own scan, on a fresh matrix over the build's arrays, finds
        sorted, distinct columns in every row."""
        rng = np.random.default_rng(47)
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=400, classes=3,
                                     feature_dim=4, attach=5, seed=9))
        for fraction in (0.0, 0.1, 0.5, 0.9, 1.0):
            sub = SpanningSubgraph.from_indices(
                g, np.flatnonzero(rng.random(g.num_edges) < fraction))
            m = build_propagation(sub, kind).matrix
            fresh = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
            assert fresh.has_canonical_format


def two_array_build(sub):
    """``indptr`` and ``indices`` from ``coo_tocsr`` over separate int32 row
    and column arrays, listed as (v, loops, u) and (u, loops, v)."""
    g = sub.parent
    n = g.num_nodes
    active = g.edges[sub.active_indices].astype(np.int32)
    u, v = active[:, 0], active[:, 1]
    loops = np.arange(n, dtype=np.int32)
    rows, cols = np.concatenate([v, loops, u]), np.concatenate([u, loops, v])
    indptr, indices = np.empty(n + 1, dtype=np.int32), np.empty(rows.size, dtype=np.int32)
    pattern = np.ones(rows.size, dtype=bool)
    coo_tocsr(n, n, rows.size, rows, cols, pattern, indptr, indices, pattern)
    return indptr, indices


class TestMeanRowPattern:
    """A mean-row P keeps only ``indptr`` and ``indices``, and its products
    run the kernels over the pattern a piece at a time: ``P @ Y`` is the
    pattern product with each row scaled by 1/dhat(r), ``P.T @ G`` the
    valued matrix's product, and a panel the whole product's rows, bitwise.
    Every build passes ``coo_tocsr`` one buffer for both coordinates."""

    @staticmethod
    def subgraphs():
        pa = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=400, classes=3,
                                      feature_dim=4, attach=5, seed=9))
        yield SpanningSubgraph.empty(pa)
        yield SpanningSubgraph.from_indices(
            pa, np.flatnonzero(np.random.default_rng(2).random(pa.num_edges) < 0.3))
        yield SpanningSubgraph.full(pa)
        for n in (0, 1, 6):     # graphs with no edges
            yield SpanningSubgraph.full(graph_from_edges(n, []))
        # a star whose hub row holds more than one CHUNK of entries
        leaves = np.arange(1, graphstore.CHUNK + 38)
        star = graph_from_edges(leaves.size + 1, np.stack([np.zeros_like(leaves), leaves], 1))
        yield SpanningSubgraph.full(star)

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_one_buffer_build_matches_the_two_array_build(self, kind):
        for sub in self.subgraphs():
            p = build_propagation(sub, kind)
            indptr, indices = two_array_build(sub)
            assert p.indptr.tobytes() == indptr.tobytes()
            assert p.indices.tobytes() == indices.tobytes()
            assert (p.data is None) == (kind == MEAN_ROW)

    @pytest.mark.parametrize("chunk, scaled", [(graphstore.CHUNK, graphstore.SCALED), (7, 5),
                                               (16, 1)])
    def test_pattern_products_match_scipy_references(self, chunk, scaled, monkeypatch):
        """At the module's piece sizes and at small ones, so that rows split
        across pieces and pieces hold one row."""
        monkeypatch.setattr(graphstore, "CHUNK", chunk)
        monkeypatch.setattr(graphstore, "SCALED", scaled)
        rng = np.random.default_rng(5)
        for sub in self.subgraphs():
            p = build_propagation(sub, MEAN_ROW)
            n = p.indptr.size - 1
            for width in (1, 3):
                y = rng.standard_normal((n, width))
                whole = p @ y
                assert whole.tobytes() == rule_product(p, y).tobytes()
                assert (p.T @ y).tobytes() == (p.matrix.T @ y).tobytes()
                for panel in (slice(0, min(n, 1)), slice(0, n), slice(n // 3, n)):
                    assert (p.rows(panel) @ y).tobytes() == whole[panel].tobytes()
            squares = np.asarray(p.matrix.multiply(p.matrix).sum(axis=0)).ravel()
            assert column_norms(p).tobytes() == np.sqrt(squares).tobytes()


class TestEntries:
    """``entries`` computes the values by the rule the build fills them by."""

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_entries_are_the_stored_values_bitwise(self, kind):
        """Every edge both ways round and every self-loop, on the full graph
        and on a 30% subgraph's active edges, isolated nodes included."""
        g = graph_from_edges(200, np.random.default_rng(41).integers(0, 150, size=(900, 2)))
        some = np.random.default_rng(3).permutation(g.num_edges)[: g.num_edges * 3 // 10]
        for sub in (SpanningSubgraph.full(g), SpanningSubgraph.from_indices(g, some)):
            p = build_propagation(sub, kind)
            assert p.kind == kind
            edges = g.edges[sub.active_indices]
            nodes = np.arange(g.num_nodes)
            for r, c in ((edges[:, 0], edges[:, 1]), (edges[:, 1], edges[:, 0]), (nodes, nodes)):
                want = np.asarray(p.matrix[r, c]).ravel()
                assert (want > 0.0).all()
                assert p.entries(r, c).tobytes() == want.tobytes()


class TestNoScipyObject:
    """``PropagationMatrix`` holds its CSR arrays: the build, every product
    and query, and a whole run form no scipy sparse object, and ``matrix``
    is a canonical view of the arrays, not a copy."""

    @pytest.fixture
    def refuse_scipy_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy sparse object was formed")

        monkeypatch.setattr(graphstore.sp, "csr_matrix", refuse)
        # every scipy sparse class, matrix or array, initialises through this base
        monkeypatch.setattr(_spbase, "__init__", refuse)

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_build_products_and_queries_form_none(self, kind, refuse_scipy_objects):
        g = make_graph(GeneratorSpec(kind="preferential-attachment", nodes=400, classes=3,
                                     feature_dim=4, attach=5, seed=9))
        some = np.random.default_rng(5).permutation(g.num_edges)[: g.num_edges // 3]
        y = np.random.default_rng(6).standard_normal((g.num_nodes, 3))
        for sub in (SpanningSubgraph.full(g), SpanningSubgraph.from_indices(g, some)):
            p = build_propagation(sub, kind)
            for product in (p @ y, p.T @ y, p.rows(slice(37, 301)) @ y):
                assert np.isfinite(product).all()
            assert p.covers(g) == (sub.active is None)
            edges = g.edges[sub.active_indices]
            assert (p.entries(edges[:, 0], edges[:, 1]) > 0.0).all()
            assert (column_norms(p) > 0.0).all()

    @pytest.mark.parametrize("baseline, sampler", [("spangnn", "gnr"), ("spangnn", "vm"),
                                                   ("dropedge", "vm"), ("full", "vm")])
    def test_a_run_forms_none(self, baseline, sampler, refuse_scipy_objects):
        """Three epochs with a diagnostics row each: the setup and epoch builds,
        gnr's norms, training, eval and the diagnostics' lookups and passes."""
        spec = GeneratorSpec(kind="sbm", nodes=700, classes=3, feature_dim=6, seed=2,
                             p_in=0.02, p_out=0.002)
        result = run_training(RunConfig(generator=spec, hidden_dim=8, epochs=3,
                                        baseline=baseline, sampler_kind=sampler,
                                        diag_every=1, diag_samples=2))
        assert len(result.metrics) == 3 and len(result.diagnostics) == 3

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_matrix_is_a_canonical_view_of_the_arrays(self, kind, path4):
        """A mean-row P holds no values: its view forms them by the rule."""
        p = build_propagation(SpanningSubgraph.full(path4), kind)
        m = p.matrix
        assert m is not p.matrix     # formed on each read, held by nothing
        assert m.shape == (4, 4) and m.nnz == 10 and m.has_canonical_format
        for name in ("indptr", "indices") + (("data",) if kind == GCN_SYMMETRIC else ()):
            assert np.shares_memory(getattr(m, name), getattr(p, name)), name
        if kind == MEAN_ROW:
            assert p.data is None
            assert m.data.tolist() == [0.5, 0.5] + [1 / 3] * 6 + [0.5, 0.5]


class TestLayering:
    def test_only_graphstore_names_scipy(self):
        """Every other module goes through ``PropagationMatrix``, so a scipy
        change (such as a kernel's signature) is met in one module."""
        package = Path(spangraph.__file__).parent
        naming = sorted(path.name for path in package.glob("*.py")
                        if "scipy" in path.read_text(encoding="utf-8"))
        assert naming == ["graphstore.py"]


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
