"""Epoch-by-epoch growth of the spanning subgraph under the edge-ratio cap.

The subgraph starts empty.  Each epoch a batch of edges is selected via
two-step sampling and merged in.  If the pre-merge sizes would already
reach the cap (``>=`` test on |active| + |selected|), a fixed proportion
``beta`` of the current edges is uniformly dropped first; the merge then
truncates the selected batch uniformly so the active count lands exactly
on the cap.  The cap is floor(alpha_up * |E|), so the edge ratio never
exceeds alpha_up at any epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphstore import Graph, SpanningSubgraph
from .sampler import SAMPLER_KINDS, EdgeProbabilities, SampleRequest, two_step_sample
from .seeding import as_rng, derive_seed, spawn_rng


def eps_floor(x: float) -> int:
    """floor(x) with an epsilon that recovers the integer intent of decimal
    alpha/beta literals (0.29 * 100 is 28.999999999999996)."""
    return int(math.floor(x + 1e-9))


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs for the subgraph growth schedule."""

    alpha_up: float
    beta: float
    s1: int
    s2: int
    sampler_kind: str = "vm"
    epochs: int = 100
    seed: int = 0

    def validate(self, num_edges: int) -> None:
        if not (0.0 < self.alpha_up <= 1.0):
            raise ConfigError(f"alpha_up must be in (0, 1], got {self.alpha_up}")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind {self.sampler_kind!r}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not (0 < self.s2 <= self.s1 <= num_edges):
            raise ConfigError(
                f"need 0 < s2 <= s1 <= |E|, got s1={self.s1}, s2={self.s2}, "
                f"|E|={num_edges}"
            )
        if self.cap(num_edges) < 1:
            raise ConfigError(
                f"alpha_up={self.alpha_up} allows fewer than one edge on a "
                f"graph with {num_edges} edges"
            )

    def cap(self, num_edges: int) -> int:
        return eps_floor(self.alpha_up * num_edges)


@dataclass
class EpochState:
    """Subgraph snapshot after a schedule step."""

    epoch_index: int
    subgraph: SpanningSubgraph
    dropped_this_epoch: int
    added_this_epoch: int


def init_schedule(g: Graph, cfg: ScheduleConfig) -> EpochState:
    """Validate the config and return the empty-subgraph starting state."""
    cfg.validate(g.num_edges)
    return EpochState(
        epoch_index=0,
        subgraph=SpanningSubgraph.empty(g),
        dropped_this_epoch=0,
        added_this_epoch=0,
    )


def random_drop(sub: SpanningSubgraph, beta: float, seed) -> SpanningSubgraph:
    """Uniformly remove floor(beta * |active|) active edges."""
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    active = sub.active_indices
    k = eps_floor(beta * active.size)
    if k == 0:
        return sub
    rng = as_rng(seed)
    victims = active[rng.permutation(active.size)[:k]]
    mask = sub.mask.copy()
    mask[victims] = False
    return SpanningSubgraph(sub.parent, mask)


def graph_update(sub: SpanningSubgraph, delta: np.ndarray, cap: int,
                 seed=0) -> SpanningSubgraph:
    """Merge selected edges, truncating uniformly to land exactly on cap.

    Already-active members of ``delta`` are no-ops; if the union would
    exceed ``cap``, a uniformly random subset of the fresh edges is
    discarded so the result has exactly ``cap`` active edges.
    """
    delta = np.asarray(delta, dtype=np.int64)
    if delta.size and (delta.min() < 0 or delta.max() >= sub.parent.num_edges):
        raise ValueError("delta contains edge indices outside the parent graph")
    mask = sub.mask.copy()
    fresh = delta[~mask[delta]]
    fresh = np.unique(fresh)
    current = sub.active_count
    if current + fresh.size > cap:
        keep = cap - current
        rng = as_rng(seed)
        fresh = fresh[rng.permutation(fresh.size)[:keep]]
    mask[fresh] = True
    return SpanningSubgraph(sub.parent, mask)


def step_epoch(state: EpochState, g: Graph, probs: EdgeProbabilities,
               cfg: ScheduleConfig) -> EpochState:
    """One schedule step: select, branch on the cap test, drop, merge."""
    if state.epoch_index >= cfg.epochs:
        raise ValueError(
            f"schedule exhausted: epoch {state.epoch_index} >= {cfg.epochs}"
        )
    i = state.epoch_index
    req = SampleRequest(cfg.s1, cfg.s2, derive_seed(cfg.seed, i, "sample"))
    delta = two_step_sample(g, probs, req)

    cap = cfg.cap(g.num_edges)
    before = state.subgraph.active_count
    if before + delta.size >= cap:
        pruned = random_drop(state.subgraph, cfg.beta, spawn_rng(cfg.seed, i, "drop"))
    else:
        pruned = state.subgraph
    merged = graph_update(pruned, delta, cap, spawn_rng(cfg.seed, i, "truncate"))

    return EpochState(
        epoch_index=i + 1,
        subgraph=merged,
        dropped_this_epoch=before - pruned.active_count,
        added_this_epoch=merged.active_count - pruned.active_count,
    )
