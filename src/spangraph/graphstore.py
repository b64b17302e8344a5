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

Text files are UTF-8; a leading byte-order mark is skipped.  Each text
file is parsed in one numpy pass, which reads the file's path with numpy's
chunked reader and never holds its text.  A line scanner is the one
authority on the grammar above: it runs when that pass rejects a
file or reads a value the grammar forbids (or finds no row at all),
accepts whatever it accepted before, and names the offending
``file:line`` in its DataError.

In memory the graph is immutable: a canonical undirected edge list
(u < v, deduplicated, sorted) plus each node's degree.
Self-loops are never stored; every propagation matrix injects one
self-loop per node at build time, so even the empty edge set propagates.

This module is the only reader of a propagation matrix's layout and the
only importer of scipy: every other module multiplies and queries it
through ``PropagationMatrix``, which holds its CSR arrays itself (a
mean-row matrix only its pattern) and whose products call scipy's compiled
sparsetools kernels on them directly.
"""

from __future__ import annotations

import logging
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr, csc_matvecs, csr_matvecs

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

# Largest node count whose edge keys lo * n + hi (at most n*n - 1) fit int64.
MAX_KEYED_NODES = 3_037_000_499  # math.isqrt(2**63)
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

# entries (or rows, or pairs) per chunk of a pass that forms no array-sized
# temporary
CHUNK = 1 << 16
# values (rows x width) that a mean-row product scales per piece; numpy's
# broadcast multiply forms a buffer of as many beside them
SCALED = 1 << 12
# every entry of a mean-row matrix's pattern, as its products hand it to scipy
_ONES = np.ones(CHUNK)
_ONES.flags.writeable = False

# The edge list's head: leading blank and comment lines, then a ``nodes N``
# header, spelled so that the scanner reads them the same way; the numpy
# pass skips the head's lines and parses what follows.
_EDGE_HEAD_LINE = re.compile(r"[ \t]*(?:#.*)?\n")
_EDGE_NODES_LINE = re.compile(r"[ \t]*nodes[ \t]+([0-9]+)[ \t]*\n?")
# every text reader's decoding: UTF-8, with a leading byte-order mark skipped
_READ_ENCODING = "utf-8-sig"


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


def index_dtype(count: int):
    """int32 for ids below ``count`` < 2**31, else int64."""
    return np.int32 if count < 2**31 else np.int64


@dataclass
class SpanningSubgraph:
    """Edge subset of a parent graph; the node set is always the full one.

    ``active`` holds the sorted, distinct ids of the active canonical edges
    (``index_dtype(|E|)``), or None for the full edge set, so a subgraph
    takes memory in its active edges, not in |E|.  ``from_indices`` sorts,
    deduplicates and checks arbitrary ids.  No array is written after
    construction, so instances can be shared as snapshots.
    """

    parent: Graph
    active: np.ndarray | None

    @classmethod
    def empty(cls, parent: Graph) -> "SpanningSubgraph":
        return cls(parent, np.zeros(0, dtype=index_dtype(parent.num_edges)))

    @classmethod
    def full(cls, parent: Graph) -> "SpanningSubgraph":
        return cls(parent, None)

    @classmethod
    def from_indices(cls, parent: Graph, indices) -> "SpanningSubgraph":
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size and (indices.min() < 0 or indices.max() >= parent.num_edges):
            raise ValueError("edge index out of range for parent graph")
        return cls(parent, sorted_unique(indices).astype(index_dtype(parent.num_edges)))

    @property
    def active_count(self) -> int:
        return self.parent.num_edges if self.active is None else int(self.active.size)

    @property
    def edge_ratio(self) -> float:
        m = self.parent.num_edges
        return self.active_count / m if m else 0.0

    @property
    def active_indices(self) -> np.ndarray:
        """``active``, or every edge id for the full subgraph."""
        if self.active is None:
            return np.arange(self.parent.num_edges, dtype=index_dtype(self.parent.num_edges))
        return self.active


def _pieces(indptr: np.ndarray, max_rows: int):
    """The CSR rows that ``indptr`` bounds, cut for the pattern kernels:
    (lo, hi, ptr, start, stop, inv) for rows lo..hi, whose entries
    start..stop the piece holds, with ``ptr`` their ``indptr`` rebased to
    ``start`` and ``inv`` their 1/dhat, 1 over each row's whole length.  A
    piece holds whole rows, at most ``max_rows`` of them and CHUNK entries,
    except that a row of more than CHUNK entries is cut into pieces of
    CHUNK entries, in storage order."""
    n, lo = indptr.size - 1, 0
    while lo < n:
        hi = min(lo + max_rows, n)
        start, stop = int(indptr[lo]), int(indptr[hi])
        if stop - start > CHUNK:
            fits = int(np.searchsorted(indptr[lo:hi + 1], start + CHUNK, "right")) - 1
            hi = lo + max(fits, 1)
            stop = int(indptr[hi])
        if stop - start <= CHUNK:
            ptr = indptr[lo:hi + 1] - start
            yield lo, hi, ptr, start, stop, 1.0 / (ptr[1:] - ptr[:-1])
        else:
            inv = np.array([1.0 / (stop - start)])
            for first in range(start, stop, CHUNK):
                last = min(first + CHUNK, stop)
                yield lo, hi, np.array([0, last - first], dtype=indptr.dtype), first, last, inv
        lo = hi


def _multiply(kernel, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
              data: np.ndarray | None, dense: np.ndarray) -> np.ndarray:
    """The ``shape`` operator over CSR arrays times a 2-d ``dense``, by
    sparsetools' ``kernel`` (``csr_matvecs``, or ``csc_matvecs`` for P^T) into
    a float64 zero array: the call scipy's ``_matmul_multivector`` makes on a
    C-ordered float64 operand, so bitwise scipy's product.  The kernel reads
    row r's entries at the absolute offsets indptr[r]..indptr[r+1].

    A mean-row matrix (``data`` None) runs the kernel over its pattern a
    ``_pieces`` piece at a time.  P @ Y sums each row, then scales it by
    1/dhat(r): only the last bits differ from the valued product.  P^T @ G
    scales row j of G by 1/dhat(j) before the kernel adds it, the product
    the kernel would form, so it is bitwise the valued product.  A piece
    of P @ Y holds at most SCALED / width rows, and one of P^T @ G, which
    holds its scaled copy beside numpy's buffer, half as many, so that a
    piece's temporaries stay within 8 * SCALED bytes."""
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != shape[1]:
        raise ValueError(f"cannot multiply a {shape[0]} x {shape[1]} operator "
                         f"by an array of shape {dense.shape}")
    width = dense.shape[1]
    out = np.zeros((shape[0], width))
    if data is not None:
        kernel(shape[0], shape[1], width, indptr, indices, data, dense, out)
        return out
    transpose = kernel is csc_matvecs
    scaled = SCALED // 2 if transpose else SCALED
    for lo, hi, ptr, start, stop, inv in _pieces(indptr, max(scaled // max(width, 1), 1)):
        pattern = ptr, indices[start:stop], _ONES[:stop - start]
        if transpose:
            kernel(shape[0], hi - lo, width, *pattern, dense[lo:hi] * inv[:, None], out)
        else:
            rows = out[lo:hi]
            kernel(hi - lo, shape[1], width, *pattern, dense, rows)
            if stop == indptr[hi]:      # a long row is scaled after its last piece
                rows *= inv[:, None]
    return out


class _Product:
    """``P.T`` or ``P.rows(panel)``: a view of P's arrays whose only method
    is ``@``."""

    __slots__ = ("_args",)

    def __init__(self, *args):
        self._args = args

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return _multiply(*self._args, dense)


@dataclass(frozen=True)
class PropagationMatrix:
    """Normalized sparse propagation operator: an n x n CSR's arrays.

    ``gcn-symmetric`` entries are 1/sqrt(dhat(v)*dhat(u)) where dhat is the
    degree-plus-one over the chosen edge set; ``mean-row`` rows average the
    neighborhood including the node itself, so every row sums to 1.  Every
    entry of a mean-row row r is 1/dhat(r), and dhat(r) is the row's
    length, so ``build_propagation`` keeps only its pattern: ``data`` is
    None, and the products, ``entries``, ``column_norms`` and ``matrix``
    form the values by that rule.
    Outside this module it is only multiplied (``P @ Y``, ``P.T @ G``,
    ``P.rows(panel) @ Y``) and queried (``covers``, ``entries``): scipy's
    compiled kernels read the arrays (``csr_matvecs``; ``csc_matvecs`` for
    P^T), with no scipy object in between.  ``matrix`` is a scipy view of
    them, formed on each read, for tests and benchmarks.  ``kind`` is the
    rule the values follow; ``entries`` reads it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray | None
    kind: str

    @property
    def matrix(self) -> sp.csr_matrix:
        """A canonical scipy CSR over the arrays themselves, not copies; a
        mean-row matrix's values are formed by its rule on each read."""
        n = self.indptr.size - 1
        data = _values(self.kind, self.indptr, self.indices) if self.data is None else self.data
        m = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n), copy=False)
        m.has_canonical_format = True
        return m

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        n = self.indptr.size - 1
        return _multiply(csr_matvecs, (n, n), self.indptr, self.indices, self.data, dense)

    @property
    def T(self) -> _Product:
        n = self.indptr.size - 1
        return _Product(csc_matvecs, (n, n), self.indptr, self.indices, self.data)

    def rows(self, panel: slice) -> _Product:
        """Rows ``panel`` of P: the slice ``indptr[start:stop + 1]``, not
        rebased, beside P's whole ``indices`` and ``data``, so a panel copies
        nothing.  The kernel forms each row from that row's entries in
        storage order, so each row of ``P.rows(panel) @ Y`` is bitwise that
        row of ``P @ Y``."""
        n = self.indptr.size - 1
        if not 0 <= panel.start <= panel.stop <= n:
            raise ValueError(f"row panel {panel} is outside the {n} rows")
        return _Product(csr_matvecs, (panel.stop - panel.start, n),
                        self.indptr[panel.start:panel.stop + 1], self.indices, self.data)

    def covers(self, g: Graph) -> bool:
        """Whether this is a matrix over ``g``'s nodes with every edge of
        ``g`` in both directions plus the self-loops."""
        n = self.indptr.size - 1
        return n == g.num_nodes and int(self.indptr[-1]) == 2 * g.num_edges + n

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries P[rows[i], cols[i]] as a 1-d float64 array, by the
        value rule of ``kind`` over dhat, the row lengths: bitwise the stored
        values.  Every pair must be an entry of P (an active edge, either
        way round, or a self-loop); the rule does not look, so any other
        pair gets a value that P does not hold."""
        dhat = np.diff(self.indptr).astype(np.float64)
        return _entry_values(self.kind, np.take(dhat, rows), dhat, cols)


def _entry_values(kind: str, values: np.ndarray, dhat: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """The values of the entries (r_i, cols[i]) of a ``kind`` matrix, written
    over ``values``, which holds dhat(r_i) on entry: dhat(r) * dhat(c)
    through a square root and a reciprocal for ``gcn-symmetric``, 1 / dhat(r)
    for ``mean-row``.  The pairs must be entries of the matrix."""
    if kind == GCN_SYMMETRIC:
        for start in range(0, values.size, CHUNK):    # no pair-sized temporary
            stop = start + CHUNK
            values[start:stop] *= dhat[cols[start:stop]]
        np.sqrt(values, out=values)
    return np.divide(1.0, values, out=values)


def _values(kind: str, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Every entry's value, in storage order, by the rule of ``kind``, with
    dhat(r) row r's length."""
    rowlen = np.diff(indptr)
    dhat = rowlen.astype(np.float64)
    return _entry_values(kind, np.repeat(dhat, rowlen), dhat, indices)


def _increasing(values: np.ndarray) -> bool:
    """Whether a 1-D array is strictly increasing: sorted and distinct.
    Neighbours are compared a chunk at a time, so no array-sized temporary
    forms."""
    for start in range(0, values.size - 1, CHUNK):
        stop = min(start + CHUNK, values.size - 1)
        if not (values[start + 1:stop + 1] > values[start:stop]).all():
            return False
    return True


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array: ``values`` itself when it is already
    strictly increasing, else a sort and a neighbour mask: the same result,
    ~50x faster at 400k ints than numpy 2.x's hashing ``np.unique``."""
    if _increasing(values):
        return values
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _canonical(edges: np.ndarray, num_nodes: int) -> bool:
    """Whether every row has u < v and the keys ``u * num_nodes + v`` are
    strictly increasing, checked a chunk of rows at a time (each chunk also
    reads the row before it), so no edge-sized temporary forms."""
    for start in range(0, edges.shape[0], CHUNK):
        rows = edges[max(start - 1, 0):start + CHUNK]
        u, v = rows[:, 0], rows[:, 1]
        if not ((u < v).all() and _increasing(u * num_nodes + v)):
            return False
    return True


def canonicalize_edges(edges: np.ndarray, num_nodes: int, copy: bool = True) -> np.ndarray:
    """Collapse (u,v)/(v,u) pairs, drop duplicates and self-loops, sort.

    Rows come out in ``np.unique(axis=0)`` order, by sorting the scalar key
    ``lo * num_nodes + hi``.  A list already in that form, as
    ``save_dataset`` writes it, skips the sort and comes back as a copy, or
    with ``copy=False`` as the int64 array itself, for a caller that holds
    no other reference to it.  Raises DataError if any endpoint falls
    outside [0, num_nodes), or if num_nodes exceeds MAX_KEYED_NODES (about
    3.04e9), past which the key would overflow int64.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    if edges.min() < 0 or edges.max() >= num_nodes:
        bad = (edges < 0) | (edges >= num_nodes)
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise DataError(
            f"edge ({edges[i, 0]} {edges[i, 1]}) references a node id outside "
            f"0..{num_nodes - 1}"
        )
    if num_nodes > MAX_KEYED_NODES:
        raise DataError(f"{num_nodes} nodes exceed the {MAX_KEYED_NODES} that "
                        f"int64 edge keys can order")
    if _canonical(edges, num_nodes):
        return edges.copy() if copy else edges
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        log.warning("dropping %d self-loop edge(s); self-loops are added at "
                    "propagation time", int(loops.sum()))
        edges = edges[~loops]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.stack(np.divmod(sorted_unique(lo * num_nodes + hi), num_nodes), axis=1)


def build_graph(num_nodes: int, edges: np.ndarray, features: np.ndarray,
                labels: np.ndarray, splits: np.ndarray, copy: bool = True) -> Graph:
    """Assemble and validate a Graph from already-parsed arrays.

    ``splits`` is an array of strings from SPLIT_NAMES, one per node.
    ``copy=False`` lets the Graph adopt ``edges`` when it is already
    canonical: for a caller that holds no other reference to it.
    """
    if num_nodes < 0:
        raise DataError("num_nodes must be non-negative")
    edges = canonicalize_edges(edges, num_nodes, copy)

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
        raise DataError(f"unknown split name {str(splits[unknown][0])!r}")
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


def _table(path, dtype, columns=None, delimiter=None, skiprows=0) -> np.ndarray:
    """The file at ``path``, past its first ``skiprows`` lines, as a 2-D
    table in one numpy pass.  numpy reads a path with its chunked C reader
    (a file object would be walked line by line in Python).  Raises
    ValueError for a row numpy rejects or a width other than ``columns``,
    and any warning as an error: numpy warns, not refuses, when it finds no
    row, and numpy 1.23 deprecated, not refused, reading ``1.0`` as int."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(path, dtype=dtype, delimiter=delimiter, comments=None,
                           skiprows=skiprows, ndmin=2, encoding=_READ_ENCODING)
    if columns is not None and table.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {table.shape[1]}")
    return table


def _read_rows(path, numpy_pass, parse_line):
    """Rows of a text file: ``numpy_pass(path)``, or, if that raises a
    ValueError (UnicodeDecodeError is one) or a Warning, a scan that is the
    grammar's one authority.  It feeds each stripped, non-blank line to
    ``parse_line``, which returns a row (None for none) or raises DataError
    naming the fault; the scan prefixes ``path:line``.  A file with no row
    is read by the scan."""
    try:
        return numpy_pass(path)
    except (ValueError, Warning):
        pass
    rows = []
    with open(path, "r", encoding=_READ_ENCODING) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            try:
                row = parse_line(line) if line else None
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if row is not None:
                rows.append(row)
    return rows


def _edge_head(path) -> tuple[int, int | None]:
    """The line count of an edge list's head (``_EDGE_HEAD_LINE``s, then at
    most one ``_EDGE_NODES_LINE``) and the node count it declares."""
    lines = 0
    with open(path, "r", encoding=_READ_ENCODING) as fh:
        for line in fh:
            nodes = _EDGE_NODES_LINE.fullmatch(line)
            if nodes:
                return lines + 1, int(nodes[1])
            if not _EDGE_HEAD_LINE.fullmatch(line):
                break
            lines += 1
    return lines, None


def read_edge_list(path) -> tuple[int | None, np.ndarray]:
    """Parse an edge-list file; returns (declared node count or None, pairs)."""
    declared, saw_edge = None, False

    def numpy_pass(path):
        nonlocal declared
        head, nodes = _edge_head(path)
        pairs = _table(path, np.int64, columns=2, skiprows=head)
        if pairs.min() < 0:
            raise ValueError("negative node id")
        declared = nodes
        return pairs

    def parse_line(line):
        nonlocal declared, saw_edge
        if line.startswith("#"):
            return None
        tokens = line.split()
        if not saw_edge and declared is None and tokens[0] == "nodes":
            # isdecimal, not isdigit: int() refuses digits such as '²'
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise DataError("malformed node-count declaration")
            declared = int(tokens[1])
            return None
        if len(tokens) != 2:
            raise DataError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise DataError(f"non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise DataError("negative node id")
        if max(u, v) > INT64_MAX:
            raise DataError(f"node id does not fit int64 in {line!r}")
        saw_edge = True
        return u, v

    pairs = _read_rows(path, numpy_pass, parse_line)
    return declared, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


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
    width = None

    def parse_line(line):
        nonlocal width
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(f"row has {len(cells)} columns, expected {width}")
        try:
            return [float(c) for c in cells]
        except ValueError:
            raise DataError("non-numeric feature value") from None

    rows = _read_rows(path, lambda path: _table(path, np.float64, delimiter=","), parse_line)
    # the scan finds no row only in a blank file, which reads as a 0 x 0 table
    return np.asarray(rows, dtype=np.float64) if len(rows) else np.zeros((0, 0))


def read_labels(path) -> np.ndarray:
    def parse_line(line):
        try:
            label = int(line)
        except ValueError:
            raise DataError(f"non-integer label {line!r}") from None
        if not INT64_MIN <= label <= INT64_MAX:
            raise DataError(f"label {line!r} does not fit int64")
        return label

    rows = _read_rows(path, lambda path: _table(path, np.int64, 1).reshape(-1), parse_line)
    return np.asarray(rows, dtype=np.int64)


def read_splits(path) -> np.ndarray:
    def numpy_pass(path):
        # object, not str: loadtxt's str path warns at every blank line
        names = _table(path, object, columns=1).reshape(-1).astype(str)
        if not np.isin(names, SPLIT_NAMES).all():
            raise ValueError("unknown split")
        return names

    def parse_line(name):
        if name not in SPLIT_NAMES:
            raise DataError(f"unknown split {name!r}")
        return name

    return np.asarray(_read_rows(path, numpy_pass, parse_line), dtype=str)


def load_graph(edge_list_path, features_path, labels_path, splits_path) -> Graph:
    """Load and validate the four dataset files into a Graph."""
    try:
        declared, pairs = read_edge_list(edge_list_path)
        features = read_features(features_path)
        labels = read_labels(labels_path)
        splits = read_splits(splits_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset file: {exc}") from None
    num_nodes = declared if declared is not None else int(pairs.max(initial=-1)) + 1
    return build_graph(num_nodes, pairs, features, labels, splits, copy=False)


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


def _write_rows(path, head: str, line: str, rows: np.ndarray) -> None:
    """Write ``head``, then ``line % row`` for each row of ``rows``, one
    ``%``-formatted string per 16,384 rows, so no file-sized string forms."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(rows), 1 << 14):
            chunk = rows[start:start + (1 << 14)]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_edge_list(path, num_nodes: int, edges: np.ndarray) -> None:
    _write_rows(path, f"nodes {num_nodes}\n", "%d %d\n", np.asarray(edges, dtype=np.int64))


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
    _write_rows(path, "", "%d\n", np.asarray(labels, dtype=np.int64))


def write_splits(path, splits: np.ndarray) -> None:
    _write_rows(path, "", "%s\n", np.asarray(splits, dtype=object))


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

    The build places the pattern first and the values second.  scipy's
    COO-to-CSR counting sort, ``coo_tocsr``, receives the int32 coordinates
    (int64 only when nnz >= 2**31) with a one-byte boolean pattern, listed
    as the (v, u) half, the self-loops, then the (u, v) half: two windows of
    one buffer (v, loops, u, loops, v), the rows its first nnz entries and
    the columns its last.  The canonical edges are sorted by (u, v), and so
    are those that the sorted active ids gather, so row r reads its columns
    u < r in ascending order, then r, then v > r: already canonical, with no
    sort or scan, and the arrays are the matrix: no scipy object is formed.
    A mean-row matrix is then done, as its values follow from its row
    lengths.  A gcn matrix's values are filled, once the coordinates are
    freed, in place from (row, column) by ``_entry_values``, the rule
    ``PropagationMatrix.entries`` reads them by.
    """
    if kind not in PROPAGATION_KINDS:
        raise ValueError(f"unknown propagation kind {kind!r}")
    g = sub.parent
    n, m = g.num_nodes, sub.active_count
    nnz = 2 * m + n
    index = index_dtype(nnz)
    # np.take gathers rows several times faster than fancy indexing does
    active = (g.edges if sub.active is None else np.take(g.edges, sub.active, axis=0)).astype(index)
    loops = np.arange(n, dtype=index)
    coords = np.concatenate([active[:, 1], loops, active[:, 0], loops, active[:, 1]])
    del active, loops
    indptr = np.empty(n + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    # the pattern is the kernel's input and output: every entry is True
    pattern = np.ones(nnz, dtype=bool)
    coo_tocsr(n, n, nnz, coords[:nnz], coords[m + n:], pattern, indptr, indices, pattern)
    del coords, pattern
    data = None if kind == MEAN_ROW else _values(kind, indptr, indices)
    return PropagationMatrix(indptr, indices, data, kind)


def column_norms(p: PropagationMatrix) -> np.ndarray:
    """Per-node L2 norm of the propagation matrix columns, summed in the
    storage order of ``ones @ P.multiply(P)``, so bitwise the same.  The
    squares are added a chunk at a time, a mean-row matrix's formed a piece
    at a time by its rule, so no nnz-sized temporary forms."""
    sums = np.zeros(p.indptr.size - 1)
    if p.data is None:
        for _, _, ptr, start, stop, inv in _pieces(p.indptr, SCALED):
            np.add.at(sums, p.indices[start:stop], np.repeat(np.square(inv), np.diff(ptr)))
    else:
        for start in range(0, int(p.indptr[-1]), CHUNK):
            stop = start + CHUNK
            np.add.at(sums, p.indices[start:stop], np.square(p.data[start:stop]))
    return np.sqrt(sums, out=sums)
