"""Epoch-by-epoch growth of the spanning subgraph under the edge-ratio cap.

The subgraph starts empty.  Each epoch a batch of edges is selected via
two-step sampling and merged in.  If the pre-merge sizes would already
reach the cap (``>=`` test on |active| + |selected|), a fixed proportion
``beta`` of the current edges is uniformly dropped first; the merge then
truncates the selected batch uniformly so the active count lands exactly
on the cap.  The cap is floor(alpha_up * |E|), so the edge ratio never
exceeds alpha_up at any epoch.

Each step works on the subgraph's sorted active edge ids
(``SpanningSubgraph.active``): the drop deletes random positions of that
array, and the merge finds the batch's already-active ids by binary
search, then sorts the survivors in with the active ones.  Both draw their
k positions by a partial shuffle (``Generator.choice(replace=False)``), so
a step's memory and work follow the active edges and the batch, never |E|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
    """Uniformly remove k = floor(beta * |active|) active edges in O(k) swaps."""
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    k = eps_floor(beta * sub.active_count)
    if k == 0:
        return sub
    active = sub.active_indices
    victims = as_rng(seed).choice(active.size, k, replace=False, shuffle=False)
    return SpanningSubgraph(sub.parent, np.delete(active, victims))


def graph_update(sub: SpanningSubgraph, delta: np.ndarray, cap: int,
                 seed=0) -> SpanningSubgraph:
    """Merge selected edges, truncating uniformly to land exactly on cap.

    Already-active members of ``delta`` are no-ops; if the union would
    exceed ``cap``, a uniform subset of the fresh edges, drawn in O(kept)
    swaps, is kept so the result has exactly ``cap`` active edges.
    """
    fresh = SpanningSubgraph.from_indices(sub.parent, delta).active
    active = sub.active_indices
    if active.size:
        at = np.minimum(active.searchsorted(fresh), active.size - 1)
        fresh = fresh[active[at] != fresh]
    if active.size + fresh.size > cap:
        keep = as_rng(seed).choice(fresh.size, cap - active.size, replace=False, shuffle=False)
        fresh = fresh[np.sort(keep)]    # still sorted, so the stable sort merges two runs
    if fresh.size == 0:
        return sub
    merged = np.concatenate([active, fresh])
    merged.sort(kind="stable")      # timsort merges the sorted active run
    return SpanningSubgraph(sub.parent, merged)


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
    # each generator is built only if its step draws from it
    if before + delta.size >= cap:
        pruned = random_drop(state.subgraph, cfg.beta, partial(spawn_rng, cfg.seed, i, "drop"))
    else:
        pruned = state.subgraph
    merged = graph_update(pruned, delta, cap, partial(spawn_rng, cfg.seed, i, "truncate"))

    return EpochState(
        epoch_index=i + 1,
        subgraph=merged,
        dropped_this_epoch=before - pruned.active_count,
        added_this_epoch=merged.active_count - pruned.active_count,
    )
