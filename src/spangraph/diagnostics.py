"""Empirical measurement of the quantities the training scheme controls.

Three diagnostics:

* gradient noise: run forward+backward at identical weights once with the
  full-graph propagation matrix and once with the subgraph's, and report
  the per-layer Frobenius norms of the gradient difference and of the
  pre-activation difference.  The noise is exactly zero when the subgraph
  is the full graph.

* aggregated-embedding variance: Monte-Carlo estimate of the variance of
  the inverse-probability-weighted aggregation estimator.  Each sampled
  subgraph S of ``edge_budget`` distinct edges contributes

      xi(S)[v] = sum over edges (u,v) in S of P[v,u] * xt[u] / pi_e
                 (and symmetrically into row u),  xt = features @ weights,

  where pi_e is the probability that edge e enters a subgraph under the
  weighted without-replacement selection.  Dividing by the true inclusion
  probability makes E[xi] equal the exact full-graph aggregation.  pi is
  computed exactly by enumerating selection sequences when the graph is
  small enough, and via the collision-free closed form
  1 - (1 - p_e)^budget otherwise (the two agree to O(p_e) relative error,
  which is negligible at the graph sizes where enumeration is infeasible).

* memory proxy: peak directed-edge count held across a run,
  2 * |active| + |V| self-loops, converted to bytes with a configurable
  per-edge intermediate cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphstore import Graph, PropagationMatrix
from .gnn import GnnModel, forward, loss_and_backward, z_diff_norms
from .sampler import EdgeProbabilities, direct_sample
from .seeding import spawn_rng

# largest number of ordered selection sequences enumerated for exact
# inclusion probabilities before switching to the closed-form approximation
_ENUMERATION_LIMIT = 200_000


@dataclass
class NoiseReport:
    """Per-layer gradient-noise and pre-activation-difference norms."""

    noise_norms: list[float]
    z_diff_norms: list[float]

    @property
    def total_z_diff_norm(self) -> float:
        return float(np.sqrt(sum(x * x for x in self.z_diff_norms)))


@dataclass
class VarianceReport:
    """Monte-Carlo summary of the aggregation estimator."""

    estimator_mean: np.ndarray      # (nodes, dims) mean of xi over samples
    estimator_variance: float       # sum over entries of the sample variance
    squared_deviation_std: float    # spread of per-sample ||xi - mean||^2


@dataclass
class MemoryProxy:
    """Peak directed-edge count over a run and its byte estimate."""

    peak_directed_edges: int
    bytes_estimate: int


def gradient_noise(model: GnnModel, p_full: PropagationMatrix,
                   p_sub: PropagationMatrix, features: np.ndarray,
                   labels: np.ndarray, mask: np.ndarray,
                   full_aggregate: np.ndarray | None = None) -> NoiseReport:
    """Gradient and pre-activation deviation of subgraph vs full-graph training.

    Both passes use the same weights, one with ``p_full`` and one with
    ``p_sub``; nothing is updated.  ``full_aggregate``, the run's
    ``input_aggregate`` over ``p_full``, stands in for the full pass's P X.
    """
    tape_full = forward(model, p_full, features, full_aggregate)
    tape_sub = forward(model, p_sub, features)
    z_diffs = z_diff_norms(tape_sub, tape_full)
    _, grads_full = loss_and_backward(tape_full, labels, mask)
    _, grads_sub = loss_and_backward(tape_sub, labels, mask)

    noise_norms = [
        float(np.linalg.norm(gs - gf))
        for gs, gf in zip(grads_sub, grads_full)
    ]
    return NoiseReport(noise_norms=noise_norms, z_diff_norms=z_diffs)


def successive_inclusion_probabilities(probabilities: np.ndarray,
                                       budget: int) -> np.ndarray:
    """Exact per-edge inclusion probabilities for sequential weighted
    sampling without replacement, by enumerating ordered sequences.

    Cost grows as m!/(m-budget)!; callers must keep instances small.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    m = p.shape[0]
    pi = np.zeros(m)
    # DFS over partial sequences carrying (probability, remaining mass)
    stack = [(1.0, 1.0, ())]
    while stack:
        prob, mass, chosen = stack.pop()
        if len(chosen) == budget:
            for e in chosen:
                pi[e] += prob
            continue
        for e in range(m):
            if p[e] == 0.0 or e in chosen:
                continue
            stack.append((prob * p[e] / mass, mass - p[e], chosen + (e,)))
    return pi


def _sequence_count(m: int, k: int) -> float:
    count = 1.0
    for i in range(k):
        count *= m - i
        if count > _ENUMERATION_LIMIT:
            return count
    return count


def inclusion_probabilities(probs: EdgeProbabilities, budget: int) -> np.ndarray:
    """Per-edge inclusion probability under weighted selection of ``budget``
    distinct edges, exact when enumeration is affordable."""
    m = probs.num_edges
    if not (0 < budget <= m):
        raise ValueError(f"budget must be in 1..|E|, got {budget}")
    if budget == m:
        return np.ones(m)
    p = probs.normalized()
    if _sequence_count(m, budget) <= _ENUMERATION_LIMIT:
        return successive_inclusion_probabilities(p, budget)
    return 1.0 - np.power(1.0 - p, budget)


def embedding_variance(g: Graph, p_full: PropagationMatrix,
                       probs: EdgeProbabilities, edge_budget: int, M: int,
                       features: np.ndarray, weights: np.ndarray,
                       seed: int = 0) -> VarianceReport:
    """Monte-Carlo mean and variance of the aggregation estimator xi.

    ``p_full`` is the full-graph propagation matrix; ``weights`` is the
    linear map applied to the features before aggregation (typically the
    model's first-layer weight block).  Only the M edge selections are
    kept: one pass over them sums the mean, and a second rebuilds each xi
    for its squared deviation, so the node-sized state does not grow with M.
    """
    if M < 2:
        raise ValueError("need at least 2 Monte-Carlo samples")
    xt = np.asarray(features, dtype=np.float64) @ np.asarray(weights, dtype=np.float64)

    u, v = g.edges[:, 0], g.edges[:, 1]
    p_vu = p_full.entries(v, u)
    p_uv = p_full.entries(u, v)
    pi = inclusion_probabilities(probs, edge_budget)

    selections = [direct_sample(g, probs, edge_budget, spawn_rng(seed, rep, "var-subgraph"))
                  for rep in range(M)]
    if any((pi[sel] == 0.0).any() for sel in selections):
        raise ValueError("sampled an edge with zero inclusion probability")

    def estimate(sel: np.ndarray) -> np.ndarray:
        xi = np.zeros((g.num_nodes, xt.shape[1]))
        inv = 1.0 / pi[sel]
        np.add.at(xi, v[sel], (p_vu[sel] * inv)[:, None] * xt[u[sel]])
        np.add.at(xi, u[sel], (p_uv[sel] * inv)[:, None] * xt[v[sel]])
        return xi

    mean = sum(map(estimate, selections)) / M
    sq_dev = np.array([np.square(estimate(sel) - mean).sum() for sel in selections])
    variance = float(sq_dev.sum() / (M - 1))
    return VarianceReport(
        estimator_mean=mean,
        estimator_variance=variance,
        squared_deviation_std=float(sq_dev.std()),
    )


def memory_proxy(active_edge_counts, num_nodes: int,
                 per_edge_bytes: int = 512) -> MemoryProxy:
    """Peak directed-edge count (2 per active edge plus |V| self-loops).

    The default per-edge cost, 512 bytes, is 8-byte floats times a hidden
    width of 64; pass the actual ``8 * hidden_dim`` for other widths.
    """
    peak = max((2 * int(c) + num_nodes for c in active_edge_counts), default=num_nodes)
    return MemoryProxy(
        peak_directed_edges=int(peak),
        bytes_estimate=int(peak) * int(per_edge_bytes),
    )
