"""Subgraph growth schedule: drop, merge, cap invariants."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spangraph import scheduler
from spangraph.errors import ConfigError
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    SpanningSubgraph,
    build_propagation,
)
from spangraph.sampler import SampleRequest, two_step_sample, uniform_weights, vm_weights
from spangraph.scheduler import (
    ScheduleConfig,
    eps_floor,
    graph_update,
    init_schedule,
    random_drop,
    step_epoch,
)
from spangraph.seeding import as_rng, derive_seed, spawn_rng
from spangraph.synthetic import random_edge_graph

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
        np.testing.assert_array_equal(out.active_indices, sub.active_indices)

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
            survived[random_drop(sub, 0.3, rng).active] += 1
        np.testing.assert_allclose(survived / trials, 0.7, atol=0.01)

    def test_peak_follows_the_drop_not_the_active_set(self):
        """At beta=0.01 on 200k ids the victims come from Floyd's O(k) draw:
        the traced peak is the result, np.delete's 1-byte mask per id and
        64 KB.  A permutation of the active positions adds 8 bytes per id."""
        n = 200_000
        g = random_edge_graph(nodes=1_000, edges=n, seed=0)
        sub = SpanningSubgraph(g, np.arange(n, dtype=np.int32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = random_drop(sub, 0.01, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.active_count == n - n // 100
        assert peak <= out.active.nbytes + n + 64 * 1024, peak

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
        np.testing.assert_array_equal(out.active, sub.active)

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

    def test_truncation_survival_is_uniform(self):
        """Each fresh id survives a capped merge with frequency keep/|fresh|
        +- 0.01, and the merge lands exactly on the cap."""
        g = chain_graph(30)
        old = np.array([0, 3, 7, 11])
        sub = SpanningSubgraph.from_indices(g, old)
        fresh = np.arange(12, 24)
        delta = np.concatenate([fresh, fresh[::3], old[:2]])  # repeats, active ids
        cap, trials = 9, 40_000
        rng = np.random.default_rng(8)
        survived = np.zeros(g.num_edges)
        for _ in range(trials):
            out = graph_update(sub, delta, cap, rng)
            assert out.active_count == cap
            survived[out.active] += 1
        np.testing.assert_array_equal(survived[old], trials)
        assert survived.sum() == cap * trials
        np.testing.assert_allclose(survived[fresh] / trials,
                                   (cap - old.size) / fresh.size, atol=0.01)

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
            ids = []
            for _ in range(cfg.epochs):
                state = step_epoch(state, g, probs, cfg)
                ids.append(state.subgraph.active.copy())
            return ids

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
            p = build_propagation(state.subgraph, MEAN_ROW)
            assert p.matrix.shape == (g.num_nodes, g.num_nodes)


# The schedule as it ran on a boolean mask over all |E| edges, kept as the
# reference the id-based scheduler must reproduce draw for draw.

def mask_random_drop(mask, beta, seed):
    active = np.flatnonzero(mask)
    k = eps_floor(beta * active.size)
    if k == 0:
        return mask
    victims = active[as_rng(seed).choice(active.size, k, replace=False, shuffle=False)]
    mask = mask.copy()
    mask[victims] = False
    return mask


def mask_graph_update(mask, delta, cap, seed=0):
    delta = np.asarray(delta, dtype=np.int64)
    mask = mask.copy()
    fresh = np.unique(delta[~mask[delta]])
    current = int(np.count_nonzero(mask))
    if current + fresh.size > cap:
        fresh = fresh[as_rng(seed).choice(fresh.size, cap - current, replace=False,
                                          shuffle=False)]
    mask[fresh] = True
    return mask


def mask_step_epoch(mask, i, g, probs, cfg):
    """One reference step; returns the new mask, dropped and added counts."""
    req = SampleRequest(cfg.s1, cfg.s2, derive_seed(cfg.seed, i, "sample"))
    delta = two_step_sample(g, probs, req)
    cap = cfg.cap(g.num_edges)
    before = int(np.count_nonzero(mask))
    if before + delta.size >= cap:
        pruned = mask_random_drop(mask, cfg.beta, spawn_rng(cfg.seed, i, "drop"))
    else:
        pruned = mask
    merged = mask_graph_update(pruned, delta, cap, spawn_rng(cfg.seed, i, "truncate"))
    kept = int(np.count_nonzero(pruned))
    return merged, before - kept, int(np.count_nonzero(merged)) - kept


def mask_of(sub):
    mask = np.zeros(sub.parent.num_edges, dtype=bool)
    mask[sub.active_indices] = True
    return mask


def assert_same_set(sub, mask):
    """``sub`` holds exactly ``mask``'s edges as sorted, distinct ids."""
    assert sub.active_count == np.count_nonzero(mask)
    if sub.active is None:
        assert mask.all()
        return
    assert sub.active.dtype == np.int32
    np.testing.assert_array_equal(sub.active, np.flatnonzero(mask))


def mask_build(g, mask, kind):
    """The propagation matrix over ``mask``'s edges, built from a graph whose
    whole edge list they are, so no id gather takes part."""
    return build_propagation(SpanningSubgraph.full(dataclasses.replace(g, edges=g.edges[mask])),
                             kind).matrix


def random_graph(rng, n=40, pairs=240):
    edges = rng.integers(0, n, size=(pairs, 2))
    return graph_from_edges(n, edges[edges[:, 0] != edges[:, 1]])


class TestMatchesMaskReference:
    """The id-based drop, merge and step give the mask-based schedule's
    active sets and counts exactly, and the same propagation matrices."""

    def test_drop_and_update_over_seeds(self):
        rng = np.random.default_rng(23)
        for seed in range(300):
            g = random_graph(rng)
            m = g.num_edges
            size = int(rng.choice([0, m, rng.integers(m + 1)]))
            start = rng.permutation(m)[:size]
            sub = SpanningSubgraph.from_indices(g, start)
            mask = mask_of(sub)
            beta = float(rng.choice([0.0, 0.1, rng.random() * 0.99]))
            dropped = random_drop(sub, beta, seed)
            want = mask_random_drop(mask, beta, seed)
            assert_same_set(dropped, want)
            # with duplicates, overlapping the active set, and caps up to |E|
            delta = rng.integers(0, m, size=int(rng.integers(0, 2 * m)))
            cap = int(rng.choice([m, rng.integers(size, m + 1)]))
            assert_same_set(graph_update(dropped, delta, cap, seed + 1),
                            mask_graph_update(want, delta, cap, seed + 1))

    def test_empty_and_full_subgraphs(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        m = g.num_edges
        for seed in range(50):
            delta = rng.integers(0, m, size=30)
            cap = int(rng.integers(1, m + 1))
            empty = SpanningSubgraph.empty(g)
            assert_same_set(graph_update(empty, delta, cap, seed),
                            mask_graph_update(np.zeros(m, bool), delta, cap, seed))
            assert_same_set(random_drop(empty, 0.5, seed), np.zeros(m, bool))
            full = SpanningSubgraph.full(g)
            assert_same_set(random_drop(full, 0.3, seed),
                            mask_random_drop(np.ones(m, bool), 0.3, seed))
            assert graph_update(full, delta, m, seed) is full
            assert random_drop(full, 0.0, seed) is full

    @pytest.mark.parametrize("alpha_up,beta", [(0.3, 0.25), (1.0, 0.1), (0.5, 0.0)])
    def test_step_epoch_over_seeds(self, alpha_up, beta):
        rng = np.random.default_rng(41)
        for seed in range(8):
            g = random_graph(rng)
            m = g.num_edges
            probs = vm_weights(g)
            cfg = ScheduleConfig(alpha_up=alpha_up, beta=beta, s1=max(2, m // 5),
                                 s2=max(1, m // 20), epochs=40, seed=seed)
            state = init_schedule(g, cfg)
            mask = np.zeros(m, dtype=bool)
            for i in range(cfg.epochs):
                state = step_epoch(state, g, probs, cfg)
                mask, dropped, added = mask_step_epoch(mask, i, g, probs, cfg)
                assert_same_set(state.subgraph, mask)
                assert (state.dropped_this_epoch, state.added_this_epoch) == (dropped, added)
                if i % 10 == 9:
                    for kind in (GCN_SYMMETRIC, MEAN_ROW):
                        got = build_propagation(state.subgraph, kind).matrix
                        want = mask_build(g, mask, kind)
                        assert got.indptr.tobytes() == want.indptr.tobytes()
                        assert got.indices.tobytes() == want.indices.tobytes()
                        assert got.data.tobytes() == want.data.tobytes()


class TestLazyGenerators:
    def test_a_step_builds_only_the_generators_it_draws_from(self, monkeypatch):
        """The drop stream is built only when a capped step drops an edge, the
        truncate stream only when the merge lands on the cap; the draws stay
        those of ``TestMatchesMaskReference``'s eagerly built streams."""
        g = random_edge_graph(nodes=300, edges=2000, seed=1)
        probs = vm_weights(g)
        cfg = ScheduleConfig(alpha_up=0.2, beta=0.1, s1=200, s2=50, epochs=30, seed=9)
        built, spawn = [], scheduler.spawn_rng
        monkeypatch.setattr(scheduler, "spawn_rng",
                            lambda *tags: built.append(tags[1:]) or spawn(*tags))
        state = init_schedule(g, cfg)
        kinds = set()
        for i in range(cfg.epochs):
            built.clear()
            state = step_epoch(state, g, probs, cfg)
            assert ((i, "drop") in built) == (state.dropped_this_epoch > 0)
            if (i, "truncate") in built:
                assert state.subgraph.active_count == cfg.cap(g.num_edges)
            assert set(built) <= {(i, "drop"), (i, "truncate")}
            kinds.add(frozenset(tag for _, tag in built))
        # uncapped steps build neither; a capped step builds the drop stream,
        # and the truncate stream too when its merge passes the cap
        assert kinds == {frozenset(), frozenset({"drop"}), frozenset({"drop", "truncate"})}


class TestStepMemory:
    """A schedule step holds its active ids, the sample and their merge,
    never an |E|-sized array."""

    # traced peak per edge of |E| over 60 steps, capped from epoch ~20:
    # measured 0.375 (at epoch 0, the sampler's pool and keys); a bool mask
    # over |E| is 1.0, and the mask-based steps read 2.05
    MAX_BYTES_PER_EDGE = 1.0

    def test_peak_stays_below_one_byte_per_edge(self):
        g = random_edge_graph(nodes=40_000, edges=200_000, seed=0)
        m = g.num_edges
        probs = vm_weights(g)
        cfg = ScheduleConfig(alpha_up=0.02, beta=0.1, s1=m // 100, s2=m // 1000,
                             epochs=60, seed=4)
        state = init_schedule(g, cfg)
        peak = 0
        for _ in range(cfg.epochs):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                state = step_epoch(state, g, probs, cfg)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert state.subgraph.active_count > 0.9 * cfg.cap(m)   # the cap was reached
        assert peak < self.MAX_BYTES_PER_EDGE * m, peak / m
