"""Subgraph growth schedule: drop, merge, cap invariants."""

import numpy as np
import pytest

from spangraph.errors import ConfigError
from spangraph.graphstore import SpanningSubgraph
from spangraph.sampler import uniform_weights, vm_weights
from spangraph.scheduler import (
    ScheduleConfig,
    graph_update,
    init_schedule,
    random_drop,
    step_epoch,
)

from conftest import graph_from_edges


def chain_graph(num_edges):
    """Path graph with the requested number of edges."""
    n = num_edges + 1
    return graph_from_edges(n, [[i, i + 1] for i in range(num_edges)])


class TestInitSchedule:
    def test_starts_empty(self, path4):
        cfg = ScheduleConfig(alpha_up=0.5, beta=0.0, s1=2, s2=1, epochs=5, seed=0)
        state = init_schedule(path4, cfg)
        assert state.epoch_index == 0
        assert state.subgraph.active_count == 0
        assert state.subgraph.edge_ratio == 0.0

    def test_alpha_zero_rejected(self, path4):
        cfg = ScheduleConfig(alpha_up=0.0, beta=0.0, s1=2, s2=1, epochs=5)
        with pytest.raises(ConfigError):
            init_schedule(path4, cfg)

    def test_cap_below_one_edge_rejected(self):
        g = chain_graph(3)
        cfg = ScheduleConfig(alpha_up=0.1, beta=0.0, s1=2, s2=1, epochs=5)
        with pytest.raises(ConfigError, match="fewer than one edge"):
            init_schedule(g, cfg)

    def test_s2_greater_than_s1_rejected(self, path4):
        cfg = ScheduleConfig(alpha_up=0.5, beta=0.0, s1=1, s2=2, epochs=5)
        with pytest.raises(ConfigError, match="s2"):
            init_schedule(path4, cfg)

    def test_beta_one_rejected(self, path4):
        cfg = ScheduleConfig(alpha_up=0.5, beta=1.0, s1=2, s2=1, epochs=5)
        with pytest.raises(ConfigError, match="beta"):
            init_schedule(path4, cfg)


class TestRandomDrop:
    def test_beta_zero_is_identity(self, path4):
        sub = SpanningSubgraph.full(path4)
        out = random_drop(sub, 0.0, 1)
        np.testing.assert_array_equal(out.mask, sub.mask)

    def test_floor_arithmetic(self):
        g = chain_graph(10)
        sub = SpanningSubgraph.full(g)
        out = random_drop(sub, 0.3, 7)
        assert out.active_count == 7

    def test_survival_is_uniform(self):
        """Each edge survives beta=0.3 with frequency 0.7 +- 0.01."""
        g = chain_graph(10)
        sub = SpanningSubgraph.full(g)
        rng = np.random.default_rng(5)
        trials = 100_000
        survived = np.zeros(10)
        for _ in range(trials):
            survived += random_drop(sub, 0.3, rng).mask
        np.testing.assert_allclose(survived / trials, 0.7, atol=0.01)

    def test_drops_only_active_edges(self):
        g = chain_graph(10)
        sub = SpanningSubgraph.from_indices(g, [0, 2, 4, 6])
        out = random_drop(sub, 0.5, 3)
        assert out.active_count == 2
        assert set(out.active_indices) <= {0, 2, 4, 6}


class TestGraphUpdate:
    def test_disjoint_delta_under_cap_grows(self):
        g = chain_graph(10)
        sub = SpanningSubgraph.from_indices(g, [0, 1])
        out = graph_update(sub, np.array([5, 6, 7]), cap=10)
        assert out.active_count == 5

    def test_union_is_idempotent(self):
        g = chain_graph(10)
        sub = SpanningSubgraph.from_indices(g, [0, 1, 2])
        out = graph_update(sub, np.array([1, 2]), cap=10)
        np.testing.assert_array_equal(out.mask, sub.mask)

    def test_truncation_lands_exactly_on_cap(self):
        """active=4 + 5 fresh with cap=6 -> exactly 6; discards are from delta."""
        g = chain_graph(12)
        old = [0, 1, 2, 3]
        delta = np.array([5, 6, 7, 8, 9])
        sub = SpanningSubgraph.from_indices(g, old)
        for seed in range(30):
            out = graph_update(sub, delta, cap=6, seed=seed)
            assert out.active_count == 6
            added = set(out.active_indices) - set(old)
            assert added <= set(delta.tolist())
            assert set(old) <= set(out.active_indices)

    def test_truncation_choice_is_random(self):
        g = chain_graph(12)
        sub = SpanningSubgraph.from_indices(g, [0])
        delta = np.arange(2, 12)
        picks = set()
        for seed in range(40):
            out = graph_update(sub, delta, cap=3, seed=seed)
            picks.add(tuple(sorted(set(out.active_indices) - {0})))
        assert len(picks) > 5


class TestStepEpoch:
    def test_growth_below_cap(self, ):
        g = chain_graph(40)
        cfg = ScheduleConfig(alpha_up=1.0, beta=0.0, s1=20, s2=10, epochs=10, seed=3)
        probs = uniform_weights(g)
        state = init_schedule(g, cfg)
        state = step_epoch(state, g, probs, cfg)
        assert state.epoch_index == 1
        assert state.subgraph.active_count == 10
        assert state.dropped_this_epoch == 0

    def test_drop_branch_at_cap(self):
        g = chain_graph(40)
        cfg = ScheduleConfig(alpha_up=0.25, beta=0.2, s1=20, s2=10, epochs=50, seed=3)
        probs = uniform_weights(g)
        state = init_schedule(g, cfg)
        cap = cfg.cap(g.num_edges)
        for _ in range(20):
            state = step_epoch(state, g, probs, cfg)
            assert state.subgraph.active_count <= cap
        # at cap=10 with s2=10 the drop branch must have fired
        assert state.dropped_this_epoch > 0

    def test_drop_then_merge_then_truncate_arithmetic(self):
        """beta=0.2 at cap 100 with 30 fresh offered -> exactly 100 active."""
        g = chain_graph(200)
        sub = SpanningSubgraph.from_indices(g, np.arange(100))
        pruned = random_drop(sub, 0.2, 11)
        assert pruned.active_count == 80
        fresh = np.arange(150, 180)
        merged = graph_update(pruned, fresh, cap=100, seed=12)
        assert merged.active_count == 100

    def test_exhausted_schedule_raises(self, path4):
        cfg = ScheduleConfig(alpha_up=1.0, beta=0.0, s1=2, s2=1, epochs=1, seed=0)
        probs = uniform_weights(path4)
        state = init_schedule(path4, cfg)
        state = step_epoch(state, path4, probs, cfg)
        with pytest.raises(ValueError, match="exhausted"):
            step_epoch(state, path4, probs, cfg)


class TestScheduleProperties:
    def test_cap_safety_and_monotone_growth(self):
        rng = np.random.default_rng(17)
        edges = rng.integers(0, 40, size=(240, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = graph_from_edges(40, edges)
        m = g.num_edges
        probs = vm_weights(g)
        for alpha in (0.3, 0.5, 0.7):
            cfg = ScheduleConfig(alpha_up=alpha, beta=0.25, s1=max(2, m // 5),
                                 s2=max(1, m // 20), epochs=300,
                                 seed=int(rng.integers(2**32)))
            state = init_schedule(g, cfg)
            cap = cfg.cap(m)
            prev = 0
            drop_seen = False
            for _ in range(cfg.epochs):
                state = step_epoch(state, g, probs, cfg)
                assert state.subgraph.active_count <= cap
                assert state.subgraph.edge_ratio <= alpha
                if not drop_seen and state.dropped_this_epoch == 0:
                    assert state.subgraph.active_count >= prev
                drop_seen = drop_seen or state.dropped_this_epoch > 0
                prev = state.subgraph.active_count

    def test_deterministic_subgraph_sequence(self):
        g = chain_graph(30)
        probs = vm_weights(g)
        cfg = ScheduleConfig(alpha_up=0.6, beta=0.3, s1=10, s2=4, epochs=25, seed=99)

        def run():
            state = init_schedule(g, cfg)
            masks = []
            for _ in range(cfg.epochs):
                state = step_epoch(state, g, probs, cfg)
                masks.append(state.subgraph.mask.copy())
            return masks

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_saturation_under_uniform_sampling(self):
        """The ratio reaches alpha_up - s2/|E| at some epoch."""
        g = chain_graph(30)
        probs = uniform_weights(g)
        cfg = ScheduleConfig(alpha_up=0.8, beta=0.3, s1=10, s2=2,
                             sampler_kind="uniform", epochs=10_000, seed=2)
        state = init_schedule(g, cfg)
        best = 0.0
        for _ in range(cfg.epochs):
            state = step_epoch(state, g, probs, cfg)
            best = max(best, state.subgraph.edge_ratio)
            if best >= cfg.alpha_up - cfg.s2 / g.num_edges:
                break
        assert best >= cfg.alpha_up - cfg.s2 / g.num_edges - 1.0 / g.num_edges

    def test_node_set_never_changes(self):
        g = chain_graph(12)
        probs = uniform_weights(g)
        cfg = ScheduleConfig(alpha_up=0.5, beta=0.2, s1=6, s2=2, epochs=40, seed=1)
        state = init_schedule(g, cfg)
        for _ in range(cfg.epochs):
            state = step_epoch(state, g, probs, cfg)
            assert state.subgraph.parent is g
            assert state.subgraph.mask.shape == (g.num_edges,)
