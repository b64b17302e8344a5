"""Graph loading, validation, and propagation-matrix construction.

The on-disk dataset is four plain files:

* edge list: one ``u v`` pair per line, whitespace separated, 0-based ids.
  Lines starting with ``#`` are comments.  The first non-comment line may be
  ``nodes N`` to declare the node count; otherwise it is ``max id + 1``.
* features: CSV, row i = comma-separated reals for node i.  A binary
  alternative starts with magic ``SPGF``, then u64-LE rows, u64-LE cols,
  then row-major float32 values.  The loader sniffs the magic bytes.
* labels: one integer class per line (line i = node i), ``-1`` = unlabeled.
* splits: one of ``train``/``val``/``test``/``none`` per line.

In memory the graph is immutable: a canonical undirected edge list
(u < v, deduplicated, sorted) plus each node's degree.
Self-loops are never stored; every propagation matrix injects one
self-loop per node at build time, so even the empty edge set propagates.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError

log = logging.getLogger(__name__)

GCN_SYMMETRIC = "gcn-symmetric"
MEAN_ROW = "mean-row"
PROPAGATION_KINDS = (GCN_SYMMETRIC, MEAN_ROW)

SPLIT_NAMES = ("train", "val", "test", "none")
FEATURE_MAGIC = b"SPGF"

# Standard filenames used by directory-based helpers and `gen-data`.
EDGES_FILE = "edges.txt"
FEATURES_CSV_FILE = "features.csv"
FEATURES_BIN_FILE = "features.bin"
LABELS_FILE = "labels.txt"
SPLITS_FILE = "splits.txt"


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with features, labels, and node splits.

    Fields:
        num_nodes: node count.
        edges: (m, 2) int64 canonical edge list, u < v, unique, sorted.
        degree: (n,) int64 symmetric degree, self-loops excluded.
        features: (n, d) float64.
        labels: (n,) int64, -1 marks unlabeled nodes.
        train_mask/val_mask/test_mask: disjoint boolean node masks.
    """

    num_nodes: int
    edges: np.ndarray
    degree: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        for name in ("edges", "degree", "features", "labels", "train_mask",
                     "val_mask", "test_mask"):
            getattr(self, name).flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass
class SpanningSubgraph:
    """Edge subset of a parent graph; the node set is always the full one.

    ``mask`` flags active canonical edges.  No mask is written after
    construction: the scheduler's drop and merge build a new mask for
    each new instance, so instances can be shared as snapshots.
    """

    parent: Graph
    mask: np.ndarray

    @classmethod
    def empty(cls, parent: Graph) -> "SpanningSubgraph":
        return cls(parent, np.zeros(parent.num_edges, dtype=bool))

    @classmethod
    def full(cls, parent: Graph) -> "SpanningSubgraph":
        return cls(parent, np.ones(parent.num_edges, dtype=bool))

    @classmethod
    def from_indices(cls, parent: Graph, indices) -> "SpanningSubgraph":
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= parent.num_edges):
            raise ValueError("edge index out of range for parent graph")
        mask = np.zeros(parent.num_edges, dtype=bool)
        mask[indices] = True
        return cls(parent, mask)

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def edge_ratio(self) -> float:
        m = self.parent.num_edges
        return self.active_count / m if m else 0.0

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


@dataclass(frozen=True)
class PropagationMatrix:
    """Normalized sparse propagation operator (CSR) with its kind tag.

    ``gcn-symmetric`` entries are 1/sqrt(dhat(v)*dhat(u)) where dhat is the
    degree-plus-one over the chosen edge set; ``mean-row`` rows average the
    neighborhood including the node itself, so every row sums to 1.
    """

    kind: str
    matrix: sp.csr_matrix

    @property
    def shape(self):
        return self.matrix.shape


def canonicalize_edges(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Collapse (u,v)/(v,u) pairs, drop duplicates and self-loops, sort.

    Raises DataError if any endpoint falls outside [0, num_nodes).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    bad = (edges < 0) | (edges >= num_nodes)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise DataError(
            f"edge ({edges[i, 0]} {edges[i, 1]}) references a node id outside "
            f"0..{num_nodes - 1}"
        )
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        log.warning("dropping %d self-loop edge(s); self-loops are added at "
                    "propagation time", int(loops.sum()))
        edges = edges[~loops]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    canon = np.stack([lo, hi], axis=1)
    return np.unique(canon, axis=0)


def build_graph(num_nodes: int, edges: np.ndarray, features: np.ndarray,
                labels: np.ndarray, splits: np.ndarray) -> Graph:
    """Assemble and validate a Graph from already-parsed arrays.

    ``splits`` is an array of strings from SPLIT_NAMES, one per node.
    """
    if num_nodes < 0:
        raise DataError("num_nodes must be non-negative")
    edges = canonicalize_edges(edges, num_nodes)

    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DataError(
            f"feature matrix has {features.shape[0] if features.ndim == 2 else '?'} "
            f"rows, expected {num_nodes}"
        )
    if not np.isfinite(features).all():
        raise DataError("feature matrix contains non-finite values")

    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise DataError(f"label count {labels.shape} does not match {num_nodes} nodes")
    if (labels < -1).any():
        raise DataError("labels must be >= -1")

    splits = np.asarray(splits)
    if splits.shape != (num_nodes,):
        raise DataError(f"split count {splits.shape} does not match {num_nodes} nodes")
    unknown = ~np.isin(splits, SPLIT_NAMES)
    if unknown.any():
        raise DataError(f"unknown split name {splits[unknown][0]!r}")
    train_mask = splits == "train"
    val_mask = splits == "val"
    test_mask = splits == "test"
    assigned = train_mask | val_mask | test_mask
    if (labels[assigned] < 0).any():
        i = int(np.flatnonzero(assigned & (labels < 0))[0])
        raise DataError(f"node {i} is in a split but unlabeled")

    return Graph(
        num_nodes=num_nodes,
        edges=edges,
        degree=np.bincount(edges.ravel(), minlength=num_nodes).astype(np.int64),
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
    )


def read_edge_list(path) -> tuple[int | None, np.ndarray]:
    """Parse an edge-list file; returns (declared node count or None, pairs)."""
    declared = None
    pairs: list[tuple[int, int]] = []
    saw_edge = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if not saw_edge and declared is None and tokens[0] == "nodes":
                if len(tokens) != 2 or not tokens[1].isdigit():
                    raise DataError(f"{path}:{lineno}: malformed node-count declaration")
                declared = int(tokens[1])
                continue
            if len(tokens) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative node id")
            pairs.append((u, v))
            saw_edge = True
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return declared, arr


def read_features(path) -> np.ndarray:
    """Read a feature matrix, sniffing the SPGF binary magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == FEATURE_MAGIC:
            meta = fh.read(16)
            if len(meta) != 16:
                raise DataError(f"{path}: truncated binary feature header")
            rows, cols = struct.unpack("<QQ", meta)
            payload = fh.read()
            expected = rows * cols * 4
            if len(payload) != expected:
                raise DataError(
                    f"{path}: binary feature payload is {len(payload)} bytes, "
                    f"expected {expected}"
                )
            data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            return data.reshape(rows, cols)

    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataError(
                    f"{path}:{lineno}: row has {len(cells)} columns, expected {width}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
    if not rows:
        return np.zeros((0, 0), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64)


def read_labels(path) -> np.ndarray:
    out: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label {line!r}") from None
    return np.asarray(out, dtype=np.int64)


def read_splits(path) -> np.ndarray:
    out: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            name = raw.strip()
            if not name:
                continue
            if name not in SPLIT_NAMES:
                raise DataError(f"{path}:{lineno}: unknown split {name!r}")
            out.append(name)
    return np.asarray(out)


def load_graph(edge_list_path, features_path, labels_path, splits_path) -> Graph:
    """Load and validate the four dataset files into a Graph."""
    try:
        declared, pairs = read_edge_list(edge_list_path)
        features = read_features(features_path)
        labels = read_labels(labels_path)
        splits = read_splits(splits_path)
    except OSError as exc:
        raise DataError(f"cannot read dataset file: {exc}") from None
    if declared is not None:
        num_nodes = declared
    elif pairs.size:
        num_nodes = int(pairs.max()) + 1
    else:
        num_nodes = 0
    return build_graph(num_nodes, pairs, features, labels, splits)


def load_dataset(directory) -> Graph:
    """Load a dataset from a directory laid out with the standard filenames."""
    directory = Path(directory)
    features = directory / FEATURES_CSV_FILE
    if not features.exists():
        features = directory / FEATURES_BIN_FILE
    if not features.exists():
        raise DataError(f"no {FEATURES_CSV_FILE} or {FEATURES_BIN_FILE} in {directory}")
    return load_graph(
        directory / EDGES_FILE,
        features,
        directory / LABELS_FILE,
        directory / SPLITS_FILE,
    )


def write_edge_list(path, num_nodes: int, edges: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {num_nodes}\n")
        for u, v in np.asarray(edges, dtype=np.int64):
            fh.write(f"{u} {v}\n")


def write_features_csv(path, features: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(features, dtype=np.float64):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_features_binary(path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", features.shape[0], features.shape[1]))
        fh.write(features.astype("<f4").tobytes(order="C"))


def write_labels(path, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for y in np.asarray(labels, dtype=np.int64):
            fh.write(f"{y}\n")


def write_splits(path, splits: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in splits:
            fh.write(f"{name}\n")


def save_dataset(directory, graph: Graph, binary_features: bool = False) -> None:
    """Write a Graph back out with the standard filenames (round-trippable)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edge_list(directory / EDGES_FILE, graph.num_nodes, graph.edges)
    if binary_features:
        write_features_binary(directory / FEATURES_BIN_FILE, graph.features)
    else:
        write_features_csv(directory / FEATURES_CSV_FILE, graph.features)
    write_labels(directory / LABELS_FILE, graph.labels)
    splits = np.full(graph.num_nodes, "none", dtype=object)
    splits[graph.train_mask] = "train"
    splits[graph.val_mask] = "val"
    splits[graph.test_mask] = "test"
    write_splits(directory / SPLITS_FILE, splits)


def build_propagation(sub: SpanningSubgraph, kind: str) -> PropagationMatrix:
    """Build the normalized propagation matrix over a subgraph's active edges.

    Both directions of every active edge are materialized, plus one
    self-loop per node.  Degrees are recomputed from the active edge set
    only, so an empty subgraph yields an identity-like self-loop matrix.
    """
    if kind not in PROPAGATION_KINDS:
        raise ValueError(f"unknown propagation kind {kind!r}")
    g = sub.parent
    n = g.num_nodes
    active = g.edges[sub.mask]
    u, v = active[:, 0], active[:, 1]
    rows = np.concatenate([u, v, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([v, u, np.arange(n, dtype=np.int64)])
    dhat = np.bincount(np.concatenate([u, v]), minlength=n).astype(np.float64) + 1.0
    if kind == GCN_SYMMETRIC:
        vals = 1.0 / np.sqrt(dhat[rows] * dhat[cols])
    else:
        vals = 1.0 / dhat[rows]
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return PropagationMatrix(kind=kind, matrix=matrix)


def column_norms(p: PropagationMatrix) -> np.ndarray:
    """Per-node L2 norm of the propagation matrix columns."""
    sq = p.matrix.multiply(p.matrix).sum(axis=0)
    return np.sqrt(np.asarray(sq).ravel())
