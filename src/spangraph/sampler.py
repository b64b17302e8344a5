"""Quality-aware edge sampling distributions and two-step edge selection.

Two weighting schemes steer edge selection toward high-benefit edges:

* ``vm`` (variance-minimized): weight(u,v) = 1/deg(u) + 1/deg(v), using
  original-graph degrees.  Edges between low-degree nodes carry more of
  their endpoints' aggregated signal, so picking them first minimizes the
  variance of the aggregated-embedding estimator.
* ``gnr`` (gradient-noise-reduced): weight of a directed pair is the L2
  norm of the destination column of the full-graph propagation matrix;
  the canonical undirected edge sums both directions.  Sampling
  proportionally to these weights reduces the bound on the gradient noise
  introduced by training on a spanning subgraph.

Both distributions are computed once per run from the original graph and
never change while the subgraph evolves.  A distribution holds only its
weights: setup forms no prefix sum over them.

Selection is either direct (build the cumulative weight array over the
whole edge set, then draw) or two-step: a uniform pre-sample of S1 distinct
edges confines the weighted draw of S2 edges to that pool.  The pool draw
is O(S1) only while S1 <= |E|/50 and |E| > 10,000: otherwise
``Generator.choice`` shuffles the tail of ``arange(|E|)``.  Above
S1 = |E|/50, two-step's speedup over direct falls below 5x (README.md,
"Two-step speedup by pool size").

Two-step draws its pool with ``Generator.choice(replace=False)`` and picks
the S2 edges by exponential keys ``E_i / w_i`` (``E_i ~ Exp(1)``), keeping
the S2 smallest (Efraimidis & Spirakis, *Weighted random sampling with a
reservoir*, 2006).  That is the successive-sampling law of one-at-a-time
weighted draws with repeats rejected, in one pass without rejections.
Those keys are defined for positive weights only, so every distribution's
weights are positive and finite.

``direct_sample`` deliberately rebuilds its cumulative array on every
call: it is the reference the two-step method is benchmarked against, and
keeping the full prefix array resident is exactly the memory cost the
two-step method avoids.  Its draw-and-reject loop ``_weighted_distinct``,
with the uniform fill after too many consecutive rejections, serves
``direct_sample`` only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graphstore import Graph, PropagationMatrix, column_norms
from .seeding import as_rng

log = logging.getLogger(__name__)

VM = "vm"
GNR = "gnr"
UNIFORM = "uniform"
SAMPLER_KINDS = (VM, GNR, UNIFORM)

# Consecutive rejected draws tolerated per requested edge before the
# sampler falls back to uniform fill (pathologically skewed weights).
_REJECTION_CAP_FACTOR = 100


@dataclass(frozen=True)
class EdgeProbabilities:
    """Sampling distribution over the canonical edge set.

    ``weights`` are unnormalized, positive and finite.  Reading
    ``total`` forms their prefix sum (sequential order, as ``direct_sample``
    accumulates them) and returns its last entry.  ``normalized()`` gives
    the probability vector (sums to 1).
    """

    weights: np.ndarray

    @classmethod
    def from_weights(cls, weights, *, copy: bool = True) -> "EdgeProbabilities":
        """``copy=False`` adopts a fresh float64 array that no caller holds."""
        weights = np.array(weights, dtype=np.float64, copy=copy or None)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        if weights.size == 0:
            raise ValueError("cannot build an edge distribution on an edgeless graph")
        if not 0.0 < weights.min() <= weights.max() < np.inf:   # NaN fails both
            raise ValueError("edge weights must be positive and finite")
        weights.flags.writeable = False
        return cls(weights=weights)

    @property
    def num_edges(self) -> int:
        return int(self.weights.shape[0])

    @property
    def total(self) -> float:
        return float(np.cumsum(self.weights)[-1])

    def normalized(self) -> np.ndarray:
        return self.weights / self.total


@dataclass(frozen=True)
class SampleRequest:
    """Two-step request: pool size s1, selection size s2, and the seed."""

    s1: int
    s2: int
    rng_seed: int

    def validate(self, num_edges: int) -> None:
        if not (0 < self.s2 <= self.s1 <= num_edges):
            raise ValueError(
                f"invalid sample request: need 0 < s2 <= s1 <= |E|, got "
                f"s1={self.s1}, s2={self.s2}, |E|={num_edges}"
            )


def uniform_weights(g: Graph) -> EdgeProbabilities:
    """Uniform distribution over the edge set."""
    return EdgeProbabilities.from_weights(np.ones(g.num_edges), copy=False)


def vm_weights(g: Graph) -> EdgeProbabilities:
    """Variance-minimized weights: 1/deg(u) + 1/deg(v) per canonical edge."""
    inv = 1.0 / np.maximum(g.degree, 1)     # an isolated node's entry is never read
    w = inv[g.edges[:, 0]]
    w += inv[g.edges[:, 1]]     # in place: w and one gather are the only |E| arrays
    return EdgeProbabilities.from_weights(w, copy=False)


def gnr_weights(g: Graph, p: PropagationMatrix) -> EdgeProbabilities:
    """Gradient-noise-reduced weights from full-graph column norms.

    ``p`` must be built over the full edge set of ``g``; each canonical
    edge weight sums the column norms of both endpoints (one per
    direction of the edge).
    """
    if not p.covers(g):
        raise ValueError(
            "propagation matrix does not cover the full edge set of the graph"
        )
    norms = column_norms(p)
    w = norms[g.edges[:, 0]]
    w += norms[g.edges[:, 1]]   # in place: w and one gather are the only |E| arrays
    return EdgeProbabilities.from_weights(w, copy=False)


def make_weights(kind: str, g: Graph, p: PropagationMatrix | None = None) -> EdgeProbabilities:
    """Dispatch on sampler kind; ``gnr`` requires the full-graph matrix."""
    if kind == VM:
        return vm_weights(g)
    if kind == GNR:
        if p is None:
            raise ValueError("gnr weights require the full-graph propagation matrix")
        return gnr_weights(g, p)
    if kind == UNIFORM:
        return uniform_weights(g)
    raise ValueError(f"unknown sampler kind {kind!r}")


def _first_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values`` in order of first occurrence."""
    order = np.argsort(values)
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    first = np.minimum.reduceat(order, starts)
    first.sort()
    return values[first]


def _weighted_distinct(rng: np.random.Generator, cumulative: np.ndarray,
                       count: int) -> np.ndarray:
    """Sequential weighted draws with duplicate rejection, batched.

    Equivalent to drawing one edge at a time from the cumulative array and
    rejecting repeats; batching only buffers the draws.  If consecutive
    rejections exceed 100x the requested count (pathological weight skew),
    the remainder is filled uniformly from the not-yet-chosen edges and a
    warning is logged.
    """
    m = int(cumulative.shape[0])
    total = float(cumulative[-1])
    chosen = np.zeros(m, dtype=bool)
    out = np.empty(count, dtype=np.int64)
    found = 0
    consecutive = 0
    rejection_cap = _REJECTION_CAP_FACTOR * count
    while found < count:
        batch = (count - found) + (count - found) // 8 + 16
        idx = cumulative.searchsorted(rng.random(batch) * total, side="right")
        np.minimum(idx, m - 1, out=idx)
        fresh = idx[~chosen[idx]] if found else idx
        if fresh.size:
            # keep first occurrences in draw order so the process matches
            # one-at-a-time rejection sampling exactly
            take = _first_distinct(fresh)[: count - found]
            chosen[take] = True
            out[found:found + take.size] = take
            found += take.size
            consecutive = 0
        else:
            consecutive += batch
            if consecutive > rejection_cap:
                remaining = np.flatnonzero(~chosen)
                fill = remaining[rng.permutation(remaining.size)[: count - found]]
                log.warning(
                    "weighted sampling exceeded %d consecutive rejections; "
                    "filling %d edge(s) uniformly", rejection_cap, fill.size,
                )
                out[found:found + fill.size] = fill
                found += fill.size
    out.sort()
    return out


def direct_sample(g: Graph, probs: EdgeProbabilities, s2: int, seed) -> np.ndarray:
    """Draw ``s2`` distinct edges from the whole edge set, weight-proportional.

    Builds the cumulative weight array over all edges on every call (see
    the module docstring), then binary-searches it per draw, rejecting
    duplicates.  Returns sorted canonical edge indices.
    """
    m = g.num_edges
    if probs.num_edges != m:
        raise ValueError("probability vector does not match the graph's edge count")
    if not (0 < s2 <= m):
        raise ValueError(f"invalid request: need 0 < s2 <= |E|, got s2={s2}, |E|={m}")
    if s2 == m:
        return np.arange(m, dtype=np.int64)
    rng = as_rng(seed)
    cumulative = probs.weights.cumsum()
    return _weighted_distinct(rng, cumulative, s2)


def two_step_sample(g: Graph, probs: EdgeProbabilities, req: SampleRequest) -> np.ndarray:
    """Uniform pool of s1 distinct edges, then weighted draw of s2 from it.

    The pool is ``Generator.choice`` without replacement.  Each pool edge
    then gets the key ``E_i / w_i`` with ``E_i ~ Exp(1)``, and the s2
    smallest keys win (Efraimidis & Spirakis): the same law as drawing
    weight-proportionally one edge at a time and rejecting repeats.  With
    s1 = |E| the pool is the whole edge set and the call matches direct
    weighted sampling in distribution.  Returns sorted canonical edge
    indices.  Each s1-sized array dies once it has been read, and the
    chosen ids are sorted in place.
    """
    m = g.num_edges
    if probs.num_edges != m:
        raise ValueError("probability vector does not match the graph's edge count")
    req.validate(m)
    rng = as_rng(req.rng_seed)
    pool = rng.choice(m, req.s1, replace=False, shuffle=False)
    keys = rng.standard_exponential(req.s1)
    keys /= probs.weights[pool]
    local = np.argpartition(keys, req.s2 - 1)[: req.s2]
    del keys
    chosen = np.take(pool, local)
    del pool, local
    chosen.sort()
    return chosen
