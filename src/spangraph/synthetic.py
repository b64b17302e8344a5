"""Synthetic dataset generation: SBM and preferential-attachment graphs.

Node features are class centroids plus Gaussian noise, labels are block
ids (SBM) or seeded random classes (preferential attachment), and splits
are stratified 60/20/20.  Generation is fully deterministic given the
spec, so regenerating with the same spec yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, refuse_unshapeable
from .graphstore import MAX_KEYED_NODES, Graph, build_graph, save_dataset
from .seeding import spawn_rng

SBM = "sbm"
PREFERENTIAL_ATTACHMENT = "preferential-attachment"
GENERATOR_KINDS = (SBM, PREFERENTIAL_ATTACHMENT)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for a synthetic dataset."""

    kind: str
    nodes: int = 1000
    classes: int = 2
    feature_dim: int = 16
    seed: int = 0
    p_in: float = 0.05          # sbm: within-block edge probability
    p_out: float = 0.005        # sbm: between-block edge probability
    attach: int = 4             # preferential attachment: edges per new node
    feature_noise: float = 1.0  # sigma of the per-node Gaussian noise

    def validate(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.nodes < self.classes:
            raise ConfigError(
                f"nodes ({self.nodes}) must be >= classes ({self.classes})"
            )
        _refuse_unkeyed(self.nodes)
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        refuse_unshapeable(f"feature_dim {self.feature_dim}", self.nodes, self.feature_dim)
        if self.kind == SBM and not (0.0 <= self.p_out <= 1.0 and 0.0 <= self.p_in <= 1.0):
            raise ConfigError("sbm probabilities must be in [0, 1]")
        if self.kind == PREFERENTIAL_ATTACHMENT:
            if self.attach < 1:
                raise ConfigError("attach must be >= 1")
            refuse_unshapeable(f"attach {self.attach}", 2 * self.attach * self.nodes)
        if not 0 <= self.feature_noise < np.inf:
            raise ConfigError(f"feature_noise must be finite and >= 0, got {self.feature_noise}")


def _refuse_unkeyed(nodes: int) -> None:
    if nodes > MAX_KEYED_NODES:
        raise ConfigError(f"nodes ({nodes}) exceed the {MAX_KEYED_NODES} that "
                          f"int64 edge keys can order")


def _distinct_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct pairs i < j of range(n), a uniform subset of all.

    Draws distinct ranks r = j(j-1)/2 + i and unranks them in closed form
    (Batagelj & Brandes, PRE 2005).  For n up to MAX_KEYED_NODES, rounding
    moves the float root by under half its last place, so j overshoots by
    at most one, just below a triangular rank, and one integer step fixes it.
    """
    r = rng.choice(n * (n - 1) // 2, size=count, replace=False, shuffle=False)
    j = ((1.0 + np.sqrt(8.0 * r + 1.0)) // 2).astype(np.int64)
    j -= j * (j - 1) // 2 > r
    return np.stack([r - j * (j - 1) // 2, j], axis=1)


def _sbm_edges(spec: GeneratorSpec, labels: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli(p) per node pair: each block pair (blocks are
    contiguous) draws a Binomial count, then a uniform subset of that size."""
    starts = np.searchsorted(labels, np.arange(spec.classes + 1)).tolist()
    chunks = []
    for a in range(spec.classes):
        sa, na = starts[a], starts[a + 1] - starts[a]
        pairs = na * (na - 1) // 2
        chunks.append(sa + _distinct_pairs(rng, na, rng.binomial(pairs, spec.p_in)))
        for b in range(a + 1, spec.classes):
            sb, nb = starts[b], starts[b + 1] - starts[b]
            ranks = rng.choice(na * nb, size=rng.binomial(na * nb, spec.p_out),
                               replace=False, shuffle=False)
            i, j = np.divmod(ranks, nb)
            chunks.append(np.stack([sa + i, sb + j], axis=1))
    return np.concatenate(chunks)


def _preferential_attachment_edges(spec: GeneratorSpec,
                                   rng: np.random.Generator) -> np.ndarray:
    """Grow a graph by degree-proportional attachment of each new node.

    Targets are drawn from the running endpoint list, so the draw is
    proportional to current degree; duplicate targets within one node's
    batch collapse, which slightly under-shoots nodes*attach edges.
    """
    n, k = spec.nodes, spec.attach
    core = min(k + 1, n)
    iu, ju = np.triu_indices(core, k=1)
    size = 2 * iu.size
    endpoints = np.empty(2 * k * n + size, dtype=np.int64)
    endpoints[0:size:2], endpoints[1:size:2] = iu, ju
    for node in range(core, n):
        # a set of k Python ints dedupes faster than np.unique on k entries
        targets = sorted(set(endpoints[rng.integers(0, size, size=k)].tolist()))
        end = size + 2 * len(targets)
        endpoints[size:end:2], endpoints[size + 1:end:2] = targets, node
        size = end
    return endpoints[:size].reshape(-1, 2)


def _stratified_splits(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """60/20/20 per class; train always gets at least one node per class."""
    splits = np.full(labels.shape[0], "none", dtype="<U5")
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        ids = ids[rng.permutation(ids.size)]
        n_train = max(1, int(0.6 * ids.size))
        n_val = int(0.2 * ids.size)
        splits[ids[:n_train]] = "train"
        splits[ids[n_train:n_train + n_val]] = "val"
        splits[ids[n_train + n_val:]] = "test"
    return splits


def make_graph(spec: GeneratorSpec) -> Graph:
    """Build the synthetic Graph in memory."""
    spec.validate()
    rng = spawn_rng(spec.seed, "synthetic", spec.kind)

    if spec.kind == SBM:
        # balanced block assignment in node order: labels are the blocks
        labels = (np.arange(spec.nodes) * spec.classes) // spec.nodes
        labels = labels.astype(np.int64)
        edges = _sbm_edges(spec, labels, rng)
    else:
        edges = _preferential_attachment_edges(spec, rng)
        labels = rng.integers(0, spec.classes, size=spec.nodes).astype(np.int64)

    centroids = rng.normal(0.0, 1.0, size=(spec.classes, spec.feature_dim))
    noise = rng.normal(0.0, spec.feature_noise, size=(spec.nodes, spec.feature_dim))
    features = centroids[labels] + noise
    splits = _stratified_splits(labels, rng)
    return build_graph(spec.nodes, edges, features, labels, splits)


def generate_synthetic(spec: GeneratorSpec, out_dir,
                       binary_features: bool = False) -> Graph:
    """Generate a dataset and write it in the standard on-disk layout."""
    graph = make_graph(spec)
    save_dataset(Path(out_dir), graph, binary_features=binary_features)
    return graph


def random_edge_graph(nodes: int, edges: int, seed: int = 0) -> Graph:
    """Uniform random graph used by the sampling benchmark harness.

    A uniform ``edges``-subset of all node pairs; features and labels are
    placeholders (the benchmark only samples edges).
    """
    if nodes < 2:
        raise ConfigError("need at least 2 nodes")
    _refuse_unkeyed(nodes)
    if edges < 0:
        raise ConfigError(f"edge count must be >= 0, got {edges}")
    if edges > nodes * (nodes - 1) // 2:
        raise ConfigError(f"{edges} edges do not fit in a {nodes}-node simple graph")
    pairs = _distinct_pairs(spawn_rng(seed, "random-edge-graph"), nodes, edges)
    features = np.zeros((nodes, 1))
    labels = np.full(nodes, -1, dtype=np.int64)
    splits = np.full(nodes, "none")
    return build_graph(nodes, pairs, features, labels, splits)
