import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from spangraph.gnn import forward, loss_and_backward
from spangraph.graphstore import build_graph
from spangraph.synthetic import GeneratorSpec, make_graph


def graph_from_edges(num_nodes, edges, feature_dim=2, labels=None, train=None):
    """Small-graph helper: features are node ids replicated, labels alternate."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    features = np.tile(
        np.arange(num_nodes, dtype=np.float64)[:, None] + 1.0, (1, feature_dim)
    )
    if labels is None:
        labels = np.arange(num_nodes, dtype=np.int64) % 2
    splits = np.array(["train"] * num_nodes)
    if train is not None:
        splits = np.array(["train" if i in train else "none" for i in range(num_nodes)])
    return build_graph(num_nodes, edges, features, np.asarray(labels), splits)


@pytest.fixture
def triangle():
    return graph_from_edges(3, [[0, 1], [1, 2], [0, 2]])


@pytest.fixture
def path4():
    """Path 0-1-2-3: degrees (1, 2, 2, 1)."""
    return graph_from_edges(4, [[0, 1], [1, 2], [2, 3]])


@pytest.fixture
def star4():
    """Star K1,3: center 0, leaves 1..3."""
    return graph_from_edges(4, [[0, 1], [0, 2], [0, 3]])


@pytest.fixture(scope="session")
def pa3k():
    """A 3k-node preferential-attachment graph for the traced-memory tests."""
    return make_graph(GeneratorSpec(kind="preferential-attachment", nodes=3000,
                                    classes=4, feature_dim=16, attach=4, seed=3))


def rule_product(p, y):
    """scipy's ``P @ Y`` by P's value rule: the valued matrix times Y, or for
    a mean-row P, which holds only its pattern, a scipy CSR of ones over P's
    arrays times Y, each row r then scaled by 1/dhat(r), its row length."""
    if p.data is not None:
        return p.matrix @ y
    n = p.indptr.size - 1
    pattern = sp.csr_matrix((np.ones(p.indices.size), p.indices, p.indptr), shape=(n, n))
    return (1.0 / np.diff(p.indptr))[:, None] * (pattern @ y)


def traced_peak(fn, *args):
    """Traced peak bytes of ``fn(*args)`` above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def numeric_gradients(model, p, features, labels, mask, h=1e-5):
    """Central finite differences of the loss w.r.t. every weight entry."""
    def loss():
        return loss_and_backward(forward(model, p, features), labels, mask)[0]

    grads = []
    for w in model.weights:
        grad = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            loss_plus = loss()
            w[idx] = orig - h
            loss_minus = loss()
            w[idx] = orig
            grad[idx] = (loss_plus - loss_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
