"""Training orchestration: baselines, metrics emission, comparisons."""

import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from spangraph import cli, gnn, graphstore, runner
from spangraph.diagnostics import embedding_variance, gradient_noise
from spangraph.errors import ConfigError
from spangraph.gnn import (
    PANEL_BLOCKS,
    PROPAGATION_KIND,
    ROW_BLOCK,
    init_model,
    input_aggregate,
    train_step,
)
from spangraph.graphstore import SpanningSubgraph, build_propagation
from spangraph.runner import (
    METRIC_COLUMNS,
    RunConfig,
    run_compare,
    run_training,
    variant_config,
)
from spangraph.scheduler import random_drop
from spangraph.seeding import spawn_rng
from spangraph.synthetic import GeneratorSpec, make_graph

from conftest import graph_from_edges, rule_product

SPEC = GeneratorSpec(kind="sbm", nodes=60, classes=3, feature_dim=6,
                     seed=12, p_in=0.3, p_out=0.03)
# more nodes than one row block
BIG = GeneratorSpec(kind="sbm", nodes=2 * ROW_BLOCK + 100, classes=3, feature_dim=6,
                    seed=12, p_in=0.02, p_out=0.002)


def dropedge_subgraph(g, beta, seed, epoch):
    """The subgraph a dropedge run with this seed trains on in ``epoch``."""
    return random_drop(SpanningSubgraph.full(g), beta,
                       partial(spawn_rng, seed, epoch, "dropedge"))


def small_cfg(**over):
    base = dict(generator=SPEC, epochs=40, hidden_dim=8, learning_rate=0.2,
                alpha_up=0.5, beta=0.1, seed=5)
    base.update(over)
    return RunConfig(**base)


class TestRunTraining:
    def test_full_baseline_trains_on_everything(self):
        result = run_training(small_cfg(baseline="full"))
        assert all(m.edge_ratio == 1.0 for m in result.metrics)
        assert all(m.sampling_time_ms >= 0 for m in result.metrics)

    def test_dropedge_keeps_thirty_percent(self):
        result = run_training(small_cfg(baseline="dropedge", beta=0.7))
        g_edges = result.metrics[0].active_edges / result.metrics[0].edge_ratio
        m = round(g_edges)
        expected = m - int(np.floor(0.7 * m + 1e-9))
        assert all(r.active_edges == expected for r in result.metrics)

    def test_dropedge_trains_on_the_epoch_drop(self, monkeypatch):
        """Each epoch's matrix is built over ``dropedge_subgraph`` of that epoch."""
        built = []

        def watched_build(sub, kind):
            built.append(sub.active_indices)
            return build_propagation(sub, kind)
        monkeypatch.setattr(runner, "build_propagation", watched_build)
        run_training(small_cfg(baseline="dropedge", beta=0.3, epochs=4))
        g = make_graph(SPEC)
        assert len(built) == 5      # the full graph's in setup, then one per epoch
        for epoch, got in enumerate(built[1:]):
            np.testing.assert_array_equal(got, dropedge_subgraph(g, 0.3, 5, epoch).active)

    def test_dropedge_resamples_each_epoch(self):
        """Consecutive epochs use independent subsets of the original edges."""
        g = make_graph(SPEC)
        a = dropedge_subgraph(g, 0.7, seed=5, epoch=0)
        b = dropedge_subgraph(g, 0.7, seed=5, epoch=1)
        assert not np.array_equal(a.active, b.active)

    def test_dropedge_keeps_the_complement_of_the_epoch_choice(self):
        """The kept ids are the sorted complement of the floor(beta m) ids the
        epoch's generator chooses without replacement."""
        g = make_graph(SPEC)
        m = g.num_edges
        for epoch in range(5):
            dropped = spawn_rng(5, epoch, "dropedge").choice(m, int(0.7 * m + 1e-9),
                                                            replace=False, shuffle=False)
            want = np.setdiff1d(np.arange(m), dropped)
            got = dropedge_subgraph(g, 0.7, seed=5, epoch=epoch).active
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, np.sort(want))

    def test_dropedge_survival_is_uniform(self):
        """Each edge survives beta=0.3 with frequency 0.7 +- 0.01, and every
        epoch keeps exactly m - floor(0.3 m) edges."""
        m = 10
        g = graph_from_edges(m + 1, [[i, i + 1] for i in range(m)])
        trials = 50_000
        survived = np.zeros(m)
        for epoch in range(trials):
            sub = dropedge_subgraph(g, 0.3, seed=11, epoch=epoch)
            assert sub.active_count == m - int(0.3 * m + 1e-9)
            survived[sub.active] += 1
        np.testing.assert_allclose(survived / trials, 0.7, atol=0.01)

    def test_spangnn_respects_cap_in_metrics(self):
        result = run_training(small_cfg(alpha_up=0.3))
        assert all(m.edge_ratio <= 0.3 for m in result.metrics)

    def test_metrics_are_complete(self):
        result = run_training(small_cfg(epochs=10))
        assert len(result.metrics) == 10
        assert [m.epoch for m in result.metrics] == list(range(10))

    def test_peak_monotone_in_alpha(self):
        peaks = [run_training(small_cfg(alpha_up=a)).peak_directed_edges
                 for a in (0.3, 0.5, 0.7)]
        assert peaks[0] < peaks[1] < peaks[2]

    @pytest.mark.parametrize("baseline", ["spangnn", "dropedge", "full"])
    def test_peak_edges_are_the_running_maximum(self, baseline, monkeypatch):
        """Each epoch reports the peak over its active counts so far, from one
        proxy call per epoch and one after the loop, each handed one count.
        At ``alpha_up`` 0.1 and ``beta`` 0.9 the spangnn counts fall at every cap."""
        calls = []
        proxy = runner.memory_proxy

        def recording(counts, *args, **kwargs):
            calls.append(tuple(counts))
            return proxy(counts, *args, **kwargs)

        monkeypatch.setattr(runner, "memory_proxy", recording)
        cfg = small_cfg(baseline=baseline, epochs=12, alpha_up=0.1, beta=0.9)
        result = run_training(cfg)
        n = cfg.generator.nodes
        active = np.array([m.active_edges for m in result.metrics])
        assert (np.diff(active) < 0).any() == (baseline == "spangnn")
        directed = np.maximum.accumulate(2 * active + n)
        assert [m.peak_edges_so_far for m in result.metrics] == directed.tolist()
        assert result.peak_directed_edges == directed[-1]
        assert len(calls) == cfg.epochs + 1 and all(len(c) == 1 for c in calls)

    def test_output_files(self, tmp_path):
        cfg = small_cfg(epochs=5, out_dir=str(tmp_path / "run"))
        run_training(cfg)
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == ",".join(METRIC_COLUMNS)
        assert len(metrics) == 6
        assert (tmp_path / "run" / "checkpoint.spgw").exists()

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="baseline"):
            run_training(small_cfg(baseline="mini-batch"))
        with pytest.raises(ConfigError, match="dataset source"):
            run_training(RunConfig())
        with pytest.raises(ConfigError, match="missing dataset paths"):
            run_training(RunConfig(edges_path="x.txt"))

    def test_a_loaded_graph_needs_no_source(self):
        """The source rule is ``load_run_graph``'s: a run handed its graph
        reads none, and trains as if it had loaded it."""
        sourceless = run_training(small_cfg(generator=None, epochs=3), graph=make_graph(SPEC))
        loaded = run_training(small_cfg(epochs=3))
        rows = [[m.row(timings=False) for m in r.metrics] for r in (sourceless, loaded)]
        assert rows[0] == rows[1]


class TestEvalRelease:
    def test_eval_logits_are_dead_when_the_next_train_step_starts(self, monkeypatch):
        """The full-graph eval's logits (n x classes) must not stay alive
        through the next epoch's train step."""
        refs, alive = [], []
        eval_forward, step = runner.forward, runner.train_step

        def watched_forward(*args):
            tape = eval_forward(*args)
            refs.append(weakref.ref(tape.logits))
            return tape

        def watched_step(*args):
            alive.extend(ref() is not None for ref in refs)
            return step(*args)

        monkeypatch.setattr(runner, "forward", watched_forward)
        monkeypatch.setattr(runner, "train_step", watched_step)
        run_training(small_cfg(epochs=4))
        assert len(refs) == 4 and len(alive) == 6 and not any(alive), alive


class TestInputAggregate:
    WIDE = GeneratorSpec(kind="sbm", nodes=60, classes=3, feature_dim=64,
                         seed=12, p_in=0.3, p_out=0.03)

    @pytest.mark.parametrize("over,has_cache", [
        (dict(model="gcn"), True),
        (dict(model="sage"), True),
        (dict(generator=WIDE, hidden_dim=16), False),   # layer 0 transforms first
    ], ids=["gcn", "sage", "transform-first"])
    def test_one_aggregate_serves_every_eval(self, over, has_cache, monkeypatch):
        """A run forms one read-only aggregate (None when layer 0 transforms
        first), and every eval forward receives that same object."""
        made, seen = [], []
        aggregate, eval_forward = runner.input_aggregate, runner.forward

        def counted(*args):
            made.append(aggregate(*args))
            return made[-1]

        def watched_forward(*args):
            seen.append(args[3])
            return eval_forward(*args)

        monkeypatch.setattr(runner, "input_aggregate", counted)
        monkeypatch.setattr(runner, "forward", watched_forward)
        run_training(small_cfg(epochs=4, **over))
        [cached] = made
        assert (cached is not None) == has_cache
        assert cached is None or not cached.flags.writeable
        assert len(seen) == 4 and all(a is cached for a in seen)

    @pytest.mark.parametrize("baseline", ["full", "spangnn", "dropedge"])
    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_only_full_training_reads_the_aggregate(self, baseline, model, monkeypatch):
        """Every ``full`` train step receives the run's one aggregate; a step
        over a changing subgraph receives None."""
        made, seen = [], []
        aggregate, step = runner.input_aggregate, runner.train_step

        def counted(*args):
            made.append(aggregate(*args))
            return made[-1]

        def watched_step(*args):
            seen.append(args[6])
            return step(*args)

        monkeypatch.setattr(runner, "input_aggregate", counted)
        monkeypatch.setattr(runner, "train_step", watched_step)
        run_training(small_cfg(epochs=4, baseline=baseline, model=model))
        [cached] = made
        want = cached if baseline == "full" else None
        assert cached is not None and len(seen) == 4 and all(a is want for a in seen)

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_a_full_subgraph_matrix_forms_the_aggregate_bitwise(self, model):
        """The premise of handing ``full`` the cache: its per-epoch matrix
        times X is bitwise the setup's aggregate."""
        g = make_graph(BIG)
        layer_type = small_cfg(model=model).layer_type
        kind = PROPAGATION_KIND[layer_type]
        cached = input_aggregate(init_model(layer_type, g.feature_dim, 8, 3, seed=0),
                                 build_propagation(SpanningSubgraph.full(g), kind), g.features)
        epoch_p = build_propagation(SpanningSubgraph.full(g), kind)
        assert cached.tobytes() == rule_product(epoch_p, g.features).tobytes()

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_full_outputs_match_a_run_that_forms_it(self, model, tmp_path, monkeypatch):
        """``train --no-timings`` of ``full`` writes the same bytes whether its
        steps read the aggregate or form P X anew (over several row blocks)."""
        argv = ["train", "--gen", "sbm", "--nodes", str(BIG.nodes), "--classes", "3",
                "--feature-dim", "6", "--p-in", str(BIG.p_in), "--p-out", str(BIG.p_out),
                "--model", model, "--baseline", "full", "--epochs", "5", "--hidden", "8",
                "--seed", "4", "--no-timings"]
        assert cli.main([*argv, "--out", str(tmp_path / "cached")]) == 0
        step = runner.train_step
        monkeypatch.setattr(runner, "train_step", lambda *args: step(*args[:6]))
        assert cli.main([*argv, "--out", str(tmp_path / "formed")]) == 0
        for name in ("metrics.csv", "checkpoint.spgw"):
            assert ((tmp_path / "cached" / name).read_bytes()
                    == (tmp_path / "formed" / name).read_bytes()), name


def reference_accuracy(pred, labels, mask):
    """Accuracy as eval used to form it: a mean over mask-gathered rows."""
    return float(np.mean(pred[mask] == labels[mask]))


def reference_macro_f1(y_true, y_pred):
    """Macro-F1 as it used to be formed, over ``np.union1d``'s classes."""
    classes = np.union1d(y_true, y_pred)
    if classes.size == 0:
        return 0.0
    size = int(classes[-1]) + 1
    tp = np.bincount(y_true[y_true == y_pred], minlength=size)[classes]
    denom = (np.bincount(y_pred, minlength=size)
             + np.bincount(y_true, minlength=size))[classes]
    return float(np.mean(2.0 * tp / denom))


def scored_graph(n, val, seed):
    """An ``n``-node graph whose labels miss class 2 on the val split, with a
    tenth of the nodes unlabeled (-1) outside every split, and ``val`` nodes
    in the val split (0 leaves it empty)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=n)
    splits = np.full(n, "train", dtype=object)
    splits[:n // 5] = "test"
    splits[n // 5:n // 5 + val] = "val"
    labels[n // 5:n // 5 + val][labels[n // 5:n // 5 + val] == 2] = 3
    splits[-(n // 10):] = "none"
    labels[-(n // 10):] = -1
    return graphstore.build_graph(n, rng.integers(0, n, size=(4 * n, 2)),
                                  rng.standard_normal((n, 5)), labels, splits.astype(str))


def val_scores(monkeypatch, y_pred, y_true, rows):
    """``_evaluate``'s val accuracy and macro-F1 on ``rows`` when its forward
    predicts ``y_pred``: the forward returns their one-hot logits."""
    logits = np.eye(y_pred.max() + 1)[y_pred]
    monkeypatch.setattr(runner, "forward", lambda *args: SimpleNamespace(logits=logits))
    g = SimpleNamespace(features=None, labels=y_true, train_mask=np.ones(y_true.size, bool))
    return runner._evaluate(None, None, g, None, rows)[1:3]


class TestEvalScores:
    """Eval's scores are bitwise the old gather-and-mean accuracy and the
    ``union1d`` macro-F1, with no mask gather or sort of their own."""

    @pytest.mark.parametrize("n", [ROW_BLOCK - 200, 2 * ROW_BLOCK + 77])
    @pytest.mark.parametrize("val", [0, 1, 61])
    @pytest.mark.parametrize("silent", [False, True])
    def test_evaluate_matches_the_old_formulas_bitwise(self, n, val, silent):
        """Row counts below and above ROW_BLOCK, an empty, a one-node and a
        larger val split; ``silent`` zeroes the last layer, so every node
        predicts class 0 and the prediction misses every other class."""
        g = scored_graph(n, val, seed=n + val)
        model = init_model("gcn", g.feature_dim, 8, 4, 2, seed=3)
        if silent:
            model.weights[-1][:] = 0.0
        p = build_propagation(SpanningSubgraph.full(g), PROPAGATION_KIND["gcn"])
        val_rows = np.flatnonzero(g.val_mask)
        *scores, tape = runner._evaluate(model, p, g, input_aggregate(model, p, g.features),
                                         val_rows)
        pred = np.argmax(tape.logits, axis=1)
        assert silent == (np.unique(pred).size == 1)
        want = [reference_accuracy(pred, g.labels, g.train_mask), 0.0, 0.0]
        if val:
            want[1:] = (reference_accuracy(pred, g.labels, g.val_mask),
                        reference_macro_f1(g.labels[g.val_mask], pred[g.val_mask]))
        assert list(map(repr, scores)) == list(map(repr, want))
        assert all(type(x) is float for x in scores)

    def test_macro_f1_matches_the_old_formula_bitwise(self, monkeypatch):
        """Classes missing from the truth, from the prediction or from both,
        disjoint class sets, single nodes and empty inputs; ``_evaluate``
        scores a val split of them as the old gather did."""
        rng = np.random.default_rng(8)
        cases = [(np.zeros(0, dtype=np.int64),) * 2, (np.array([3]), np.array([3])),
                 (np.array([0]), np.array([5])), (np.array([1, 1]), np.array([4, 4]))]
        for size in (2, 7, 40, 600):
            for truth_classes, pred_classes in (((0, 1, 2, 3), (0, 1, 2, 3)), ((0, 3), (0, 1, 2, 3)),
                                                ((0, 1, 2, 3), (2,)), ((1, 5), (0, 2, 4)),
                                                ((6,), (6,))):
                cases.append((rng.choice(truth_classes, size), rng.choice(pred_classes, size)))
        for y_true, y_pred in cases:
            assert repr(gnn.macro_f1(y_true, y_pred)) == repr(reference_macro_f1(y_true, y_pred))
            rows = np.flatnonzero(rng.random(y_true.size) < 0.5)
            if rows.size:
                mask = np.zeros(y_true.size, dtype=bool)
                mask[rows] = True
                want = (reference_accuracy(y_pred, y_true, mask),
                        reference_macro_f1(y_true[mask], y_pred[mask]))
                assert list(map(repr, val_scores(monkeypatch, y_pred, y_true, rows))) == list(
                    map(repr, want))

    def test_the_val_rows_are_formed_once_per_run(self, monkeypatch):
        seen = []
        evaluate = runner._evaluate

        def watched(*args):
            seen.append(args[-1])
            return evaluate(*args)

        monkeypatch.setattr(runner, "_evaluate", watched)
        run_training(small_cfg(epochs=3))
        assert len(seen) == 3 and all(rows is seen[0] for rows in seen)
        assert (seen[0] == np.flatnonzero(make_graph(SPEC).val_mask)).all()


class TestMatrixRelease:
    @pytest.mark.parametrize("baseline", ["spangnn", "dropedge", "full"])
    def test_no_earlier_epoch_matrix_is_alive_at_the_next_build(self, baseline, monkeypatch):
        """Each epoch's propagation matrix dies before the next epoch builds
        its own; only the setup's full-graph matrix lives through the run.
        ``full`` builds only in setup and epoch 0, and epoch 0's matrix
        replaces the setup's, which is dead once epoch 0 has trained."""
        refs, alive, setup_alive = [], [], []
        build, step = runner.build_propagation, runner.train_step

        def watched_build(*args):
            alive.extend(ref() is not None for ref in refs[1:])
            p = build(*args)
            refs.append(weakref.ref(p.data))    # the matrix's per-entry values
            return p

        def watched_step(*args):
            loss = step(*args)
            setup_alive.append(refs[0]() is not None)
            return loss

        monkeypatch.setattr(runner, "build_propagation", watched_build)
        monkeypatch.setattr(runner, "train_step", watched_step)
        run_training(small_cfg(epochs=4, baseline=baseline, diag_every=2, diag_samples=2))
        if baseline == "full":
            assert len(refs) == 2 and setup_alive == [False] * 4, (len(refs), setup_alive)
        else:
            assert len(refs) == 1 + 4 and len(alive) == 6 and not any(alive), alive


# more nodes than one panel of a streamed layer-0 aggregate
PANEL_SPEC = GeneratorSpec(kind="sbm", nodes=ROW_BLOCK * PANEL_BLOCKS + 300, classes=3,
                           feature_dim=6, seed=12, p_in=0.002, p_out=0.0002)


def tape_blind_step(*args):
    """``train_step`` that ignores the tape it is handed and forms its own
    forward: the reference a step that consumes the eval's tape must match."""
    return train_step(*args[:7])


class TestFullTrainsFromTheEvalTape:
    def test_one_training_forward_and_one_eval_forward_per_epoch(self, monkeypatch):
        """Only epoch 0's train step runs a forward; every epoch runs one eval
        forward, whose tape the next step consumes."""
        train_forwards, evals, tapes = [], [], []
        gnn_forward, eval_forward, step = gnn.forward, runner.forward, runner.train_step

        def watched_train_forward(*args):
            train_forwards.append(args)
            return gnn_forward(*args)

        def watched_eval(*args):
            evals.append(eval_forward(*args))
            return evals[-1]

        def watched_step(*args):
            tapes.append(args[7])
            return step(*args)

        monkeypatch.setattr(gnn, "forward", watched_train_forward)
        monkeypatch.setattr(runner, "forward", watched_eval)
        monkeypatch.setattr(runner, "train_step", watched_step)
        run_training(small_cfg(epochs=5, baseline="full"))
        assert len(train_forwards) == 1 and len(evals) == 5
        assert tapes[0] is None and all(t is e for t, e in zip(tapes[1:], evals))
        assert all(e.logits is None for e in evals[:-1])     # each was consumed

    @pytest.mark.parametrize("baseline", ["spangnn", "dropedge"])
    def test_subgraph_steps_are_handed_no_tape(self, baseline, monkeypatch):
        tapes = []
        step = runner.train_step

        def watched_step(*args):
            tapes.append(args[7])
            return step(*args)

        monkeypatch.setattr(runner, "train_step", watched_step)
        run_training(small_cfg(epochs=3, baseline=baseline))
        assert tapes == [None] * 3

    @pytest.mark.parametrize("spec", [SPEC, PANEL_SPEC], ids=["small", "panels"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_outputs_match_a_run_that_forms_every_forward(self, model, layers, spec,
                                                          tmp_path, monkeypatch):
        """metrics.csv, checkpoint.spgw and diagnostics.csv are byte-identical
        to those of a run whose steps each form their own forward."""
        cfg = small_cfg(generator=spec, model=model, num_layers=layers, baseline="full",
                        epochs=4, timings=False, diag_every=2, diag_samples=2)
        run_training(replace(cfg, out_dir=str(tmp_path / "reused")))
        monkeypatch.setattr(runner, "train_step", tape_blind_step)
        run_training(replace(cfg, out_dir=str(tmp_path / "formed")))
        for name in ("metrics.csv", "checkpoint.spgw", "diagnostics.csv"):
            assert ((tmp_path / "reused" / name).read_bytes()
                    == (tmp_path / "formed" / name).read_bytes()), name

    @pytest.mark.parametrize("model,layers", [("gcn", 3), ("sage", 2)])
    def test_loop_peak_stays_at_a_run_whose_eval_tape_dies(self, model, layers, monkeypatch):
        """Keeping the eval tape until the next step raises the epoch loop's
        traced peak by at most 64 KB over a run that drops it after eval."""
        cfg = small_cfg(generator=PANEL_SPEC, model=model, num_layers=layers,
                        baseline="full", epochs=4, hidden_dim=16)
        g = make_graph(PANEL_SPEC)
        aggregate, evaluate = runner.input_aggregate, runner._evaluate

        def trace_from_here(*args):     # the last step of setup
            cached = aggregate(*args)
            tracemalloc.start()
            return cached

        def loop_peak():
            try:
                run_training(cfg, graph=g)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(runner, "input_aggregate", trace_from_here)
        kept = loop_peak()
        monkeypatch.setattr(runner, "_evaluate", lambda *args: (*evaluate(*args)[:3], None))
        dropped = loop_peak()
        assert kept <= dropped + 64 * 1024, (kept, dropped)


class TestDiagnosticsEmission:
    def test_diag_rows_written(self, tmp_path):
        cfg = small_cfg(epochs=10, diag_every=5, diag_samples=4,
                        out_dir=str(tmp_path / "run"))
        result = run_training(cfg)
        assert len(result.diagnostics) == 3  # epochs 0, 5, 9
        lines = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == ("epoch,sampler,noise_norm_l0,noise_norm_l1,"
                            "z_diff_norm,var_xi,peak_edges")
        assert len(lines) == 4

    def test_diag_rows_reuse_the_epoch_matrices(self, monkeypatch):
        """One full-graph matrix in setup and one per epoch, diagnostics or not."""
        built = []
        make = graphstore.PropagationMatrix

        def counting(*args, **kwargs):
            built.append(1)
            return make(*args, **kwargs)

        monkeypatch.setattr(graphstore, "PropagationMatrix", counting)
        run_training(small_cfg(epochs=5, diag_every=1, diag_samples=2))
        assert len(built) == 5 + 1

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_full_rows_skip_the_gradient_noise_passes(self, model, monkeypatch):
        """``full`` trains on the full graph's matrix, so its noise and
        Z-difference cells are 0.0 without the two passes; the passes
        themselves report exactly that on the trained model."""
        def refused(*args, **kwargs):
            raise AssertionError("gradient_noise ran for the full baseline")

        monkeypatch.setattr(runner, "gradient_noise", refused)
        cfg = small_cfg(model=model, baseline="full", epochs=5, diag_every=2,
                        diag_samples=3)
        result = run_training(cfg)
        assert [row[0] for row in result.diagnostics] == [0, 2, 4]
        for row in result.diagnostics:
            assert row[1] == "full" and row[2:5] == ["0.0", "0.0", "0.0"]
        g = make_graph(SPEC)
        kind = PROPAGATION_KIND[cfg.layer_type]
        p_full = build_propagation(SpanningSubgraph.full(g), kind)
        report = gradient_noise(result.model, p_full,
                                build_propagation(SpanningSubgraph.full(g), kind),
                                g.features, g.labels, g.train_mask)
        assert report.noise_norms == [0.0, 0.0] and report.total_z_diff_norm == 0.0

    def test_sage_var_xi_uses_the_aggregation_weights(self, monkeypatch):
        """The estimator targets P X W, and for sage the W that multiplies
        P H is W_agg, the lower block of the first layer's weights."""
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return embedding_variance(*args, **kwargs)

        monkeypatch.setattr(runner, "embedding_variance", spy)
        result = run_training(small_cfg(model="sage", epochs=1, diag_every=1,
                                        diag_samples=3))
        (args, kwargs), = calls
        w_self, w_agg = np.split(result.model.weights[0], 2)
        assert np.array_equal(args[6], w_agg)
        var = {name: embedding_variance(*args[:6], w, **kwargs).estimator_variance
               for name, w in (("agg", w_agg), ("self", w_self))}
        assert result.diagnostics[0][-2] == repr(var["agg"]) != repr(var["self"])


class TestCompare:
    def test_variants_share_data_and_align(self, tmp_path):
        cfg = small_cfg(epochs=8, out_dir=str(tmp_path / "cmp"))
        results = run_compare(cfg, ["spangnn-vm", "spangnn-gnr", "dropedge", "full"])
        assert set(results) == {"spangnn-vm", "spangnn-gnr", "dropedge", "full"}
        combined = (tmp_path / "cmp" / "combined.csv").read_text().splitlines()
        assert combined[0] == "variant," + ",".join(METRIC_COLUMNS)
        assert len(combined) == 1 + 4 * 8
        summary = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("variant,best_val_acc")
        assert len(summary) == 5

    def test_duplicate_variant_rows_identical(self, tmp_path):
        cfg = small_cfg(epochs=6, out_dir=str(tmp_path / "cmp"))
        run_compare(cfg, ["spangnn-vm", "spangnn-vm"])
        combined = (tmp_path / "cmp" / "combined.csv").read_text().splitlines()
        first = combined[1:7]
        second = combined[7:13]
        # identical apart from wall-clock timing columns
        for a, b in zip(first, second):
            ca, cb = a.split(","), b.split(",")
            ca[8] = ca[9] = cb[8] = cb[9] = "0"
            assert ca == cb

    def test_per_variant_seeds_differ(self):
        cfg = small_cfg()
        a = variant_config(cfg, "spangnn-vm")
        b = variant_config(cfg, "spangnn-gnr")
        assert a.seed != b.seed
        assert a.sampler_kind == "vm" and b.sampler_kind == "gnr"

    def test_needs_two_variants(self):
        with pytest.raises(ConfigError, match="2 variants"):
            run_compare(small_cfg(), ["full"])

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            run_compare(small_cfg(), ["full", "minibatch"])


class TestDeterminism:
    def test_same_config_same_metrics_without_timings(self, tmp_path):
        cfg_a = small_cfg(epochs=12, timings=False, out_dir=str(tmp_path / "a"))
        cfg_b = small_cfg(epochs=12, timings=False, out_dir=str(tmp_path / "b"))
        run_training(cfg_a)
        run_training(cfg_b)
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())

    def test_seed_changes_trajectory(self):
        r1 = run_training(small_cfg(seed=5))
        r2 = run_training(small_cfg(seed=6))
        assert any(a.loss != b.loss for a, b in zip(r1.metrics, r2.metrics))
