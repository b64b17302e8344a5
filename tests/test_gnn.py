"""Forward/backward correctness, optimizer behavior, and evaluation."""

import numpy as np
import pytest

from spangraph.errors import NumericalError
from spangraph.gnn import (
    BackwardTape,
    GnnModel,
    TrainState,
    forward,
    init_model,
    load_weights,
    loss_and_backward,
    macro_f1,
    masked_scores,
    save_weights,
    sgd_step,
    softmax_cross_entropy,
    train_step,
)
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    SpanningSubgraph,
    build_graph,
    build_propagation,
)
from spangraph.runner import RunConfig, run_training
from spangraph.synthetic import GeneratorSpec, make_graph

from conftest import graph_from_edges


def numeric_gradients(model, p, features, labels, mask, h=1e-5):
    """Central finite differences of the loss w.r.t. every weight entry."""
    grads = []
    for w in model.weights:
        grad = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            logits, tape = forward(model, p, features)
            loss_plus, _ = loss_and_backward(tape, logits, labels, mask, p)
            w[idx] = orig - h
            logits, tape = forward(model, p, features)
            loss_minus, _ = loss_and_backward(tape, logits, labels, mask, p)
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


class TestForward:
    def test_identity_propagation_identity_weights(self):
        g = graph_from_edges(3, np.zeros((0, 2)), feature_dim=3)
        p = build_propagation(SpanningSubgraph.empty(g), MEAN_ROW)
        model = GnnModel("gcn", [np.eye(3)])
        logits, _ = forward(model, p, g.features)
        np.testing.assert_array_equal(logits, g.features)

    def test_two_node_mean_row_hand_product(self):
        """Features [[2],[4]] under rows [1/2,1/2] with W=[[1]] -> [[3],[3]]."""
        g = build_graph(2, np.array([[0, 1]]), np.array([[2.0], [4.0]]),
                        np.array([0, 1]), np.array(["train", "train"]))
        p = build_propagation(SpanningSubgraph.full(g), MEAN_ROW)
        model = GnnModel("gcn", [np.array([[1.0]])])
        logits, _ = forward(model, p, g.features)
        np.testing.assert_allclose(logits, [[3.0], [3.0]])

    def test_zero_weights_give_zero_logits(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        model = GnnModel("gcn", [np.zeros((2, 4)), np.zeros((4, 2))])
        logits, _ = forward(model, p, triangle.features)
        np.testing.assert_array_equal(logits, np.zeros((3, 2)))

    def test_feature_dim_mismatch(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        model = init_model("gcn", 7, 4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            forward(model, p, triangle.features)

    def test_sage_concatenation_shapes(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), MEAN_ROW)
        model = init_model("sage-mean", 2, 4, 3, 2, seed=0)
        assert model.weights[0].shape == (4, 4)
        assert model.weights[1].shape == (8, 3)
        logits, tape = forward(model, p, triangle.features)
        assert logits.shape == (3, 3)
        assert tape.aggregated[0].shape == (3, 4)


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self, triangle):
        for k in (2, 3, 5):
            logits = np.zeros((3, k))
            loss, grad = softmax_cross_entropy(logits, triangle.labels,
                                               triangle.train_mask)
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_saturated_correct_prediction(self, triangle):
        logits = np.full((3, 2), -1e4)
        logits[np.arange(3), triangle.labels] = 1e4
        loss, grad = softmax_cross_entropy(logits, triangle.labels,
                                           triangle.train_mask)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_rows_outside_mask_are_zero(self, path4):
        logits = np.random.default_rng(0).normal(size=(4, 2))
        mask = np.array([True, False, True, False])
        _, grad = softmax_cross_entropy(logits, path4.labels, mask)
        np.testing.assert_array_equal(grad[1], 0.0)
        np.testing.assert_array_equal(grad[3], 0.0)

    def test_empty_mask_rejected(self, path4):
        with pytest.raises(ValueError, match="empty"):
            softmax_cross_entropy(np.zeros((4, 2)), path4.labels,
                                  np.zeros(4, bool))


class TestGradients:
    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_analytic_matches_finite_differences(self, layer_type, num_layers):
        spec = GeneratorSpec(kind="sbm", nodes=9, classes=2, feature_dim=3,
                             seed=41, p_in=0.8, p_out=0.3)
        g = make_graph(spec)
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = init_model(layer_type, 3, 5, 2, num_layers, seed=13)
        logits, tape = forward(model, p, g.features)
        _, analytic = loss_and_backward(tape, logits, g.labels, g.train_mask, p)
        numeric = numeric_gradients(model, p, g.features, g.labels, g.train_mask)
        assert max_relative_error(analytic, numeric) < 1e-4


class TestSgdStep:
    def _state(self, w):
        return TrainState(GnnModel("gcn", [np.array(w, dtype=float)]),
                          learning_rate=0.1)

    def test_zero_gradient_no_change(self):
        state = self._state([[1.0]])
        sgd_step(state, [np.array([[0.0]])])
        np.testing.assert_array_equal(state.model.weights[0], [[1.0]])

    def test_arithmetic(self):
        state = self._state([[1.0]])
        sgd_step(state, [np.array([[2.0]])])
        np.testing.assert_allclose(state.model.weights[0], [[0.8]])

    def test_two_steps_sum_for_constant_gradients(self):
        """With weight-independent gradients, steps compose additively."""
        rng = np.random.default_rng(4)
        g1 = rng.normal(size=(3, 2))
        g2 = rng.normal(size=(3, 2))
        a = TrainState(GnnModel("gcn", [np.ones((3, 2))]), learning_rate=0.05)
        b = TrainState(GnnModel("gcn", [np.ones((3, 2))]), learning_rate=0.05)
        sgd_step(a, [g1])
        sgd_step(a, [g2])
        sgd_step(b, [g1 + g2])
        np.testing.assert_allclose(a.model.weights[0], b.model.weights[0],
                                   atol=1e-12)

    def test_non_finite_gradient_aborts(self):
        state = self._state([[1.0]])
        with pytest.raises(NumericalError):
            sgd_step(state, [np.array([[np.nan]])])


class TestEvaluate:
    def test_perfect_one_hot(self):
        g = graph_from_edges(4, np.zeros((0, 2)), feature_dim=2,
                             labels=[0, 1, 0, 1])
        p = build_propagation(SpanningSubgraph.empty(g), MEAN_ROW)
        # identity propagation; pick weights mapping feature rows to labels
        w = np.zeros((2, 2))
        model = GnnModel("gcn", [w])
        logits = np.zeros((4, 2))
        logits[np.arange(4), g.labels] = 1.0
        # evaluate via a crafted model: use features == one-hot labels
        g2 = build_graph(4, np.zeros((0, 2)), logits, g.labels,
                         np.array(["train"] * 4))
        model = GnnModel("gcn", [np.eye(2)])
        pred = np.argmax(forward(model, p, g2.features)[0], axis=1)
        acc, f1 = masked_scores(pred, g2.labels, g2.train_mask)
        assert acc == 1.0
        assert f1 == 1.0

    def test_degenerate_single_class_predictor(self):
        """All-one-class predictions on balanced labels: acc .5, macro-F1 1/3."""
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 0, 0])
        assert np.mean(y_pred == y_true) == 0.5
        assert macro_f1(y_true, y_pred) == pytest.approx(1.0 / 3.0)

    def test_empty_edge_training_then_evaluate(self):
        g = graph_from_edges(6, np.zeros((0, 2)), feature_dim=2,
                             labels=[0, 1, 0, 1, 0, 1])
        p = build_propagation(SpanningSubgraph.empty(g), GCN_SYMMETRIC)
        model = init_model("gcn", 2, 4, 2, 2, seed=0)
        state = TrainState(model, learning_rate=0.1)
        train_step(state, p, g.features, g.labels, g.train_mask)
        pred = np.argmax(forward(model, p, g.features)[0], axis=1)
        acc, f1 = masked_scores(pred, g.labels, g.train_mask)
        assert 0.0 <= acc <= 1.0


class TestEquivariance:
    def test_permuting_nodes_permutes_logits(self):
        rng = np.random.default_rng(23)
        for layer_type, kind in (("gcn", GCN_SYMMETRIC), ("sage-mean", MEAN_ROW)):
            n = 10
            edges = rng.integers(0, n, size=(25, 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            feats = rng.normal(size=(n, 3))
            labels = rng.integers(0, 2, size=n)
            splits = np.array(["train"] * n)
            g = build_graph(n, edges, feats, labels, splits)
            model = init_model(layer_type, 3, 4, 2, 2, seed=7)
            p = build_propagation(SpanningSubgraph.full(g), kind)
            logits, _ = forward(model, p, g.features)

            perm = rng.permutation(n)
            pedges = perm[g.edges]
            pg = build_graph(n, pedges, feats[np.argsort(perm)],
                             labels[np.argsort(perm)], splits)
            pp = build_propagation(SpanningSubgraph.full(pg), kind)
            plogits, _ = forward(model, pp, pg.features)
            np.testing.assert_allclose(plogits[perm], logits, atol=1e-12)


class TestFullGraphEquivalence:
    def test_saturated_schedule_matches_full_training_bitwise(self):
        spec = GeneratorSpec(kind="sbm", nodes=30, classes=2, feature_dim=4,
                             seed=3, p_in=0.5, p_out=0.1)
        g = make_graph(spec)
        common = dict(generator=spec, epochs=30, hidden_dim=8,
                      learning_rate=0.2, seed=77)
        spangnn = RunConfig(baseline="spangnn", alpha_up=1.0, beta=0.0,
                            s1=g.num_edges, s2=g.num_edges, **common)
        full = RunConfig(baseline="full", **common)
        r1 = run_training(spangnn)
        r2 = run_training(full)
        for m1, m2 in zip(r1.metrics, r2.metrics):
            assert m1.loss == m2.loss
            assert m1.val_acc == m2.val_acc
            assert m1.edge_ratio == 1.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model("sage-mean", 3, 5, 2, 2, seed=9)
        path = tmp_path / "model.spgw"
        save_weights(path, model)
        back = load_weights(path)
        assert len(back) == 2
        for w, b in zip(model.weights, back):
            np.testing.assert_array_equal(w, b)

    @pytest.mark.parametrize("cut", [6, 4 + 8 + 5, 4 + 8 + 2 * 16 + 10])
    def test_truncated_checkpoint(self, tmp_path, cut):
        """Cut inside the layer count, the dims, or the payload."""
        path = tmp_path / "model.spgw"
        save_weights(path, init_model("gcn", 3, 5, 2, 2, seed=9))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_weights(path)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.spgw"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a weight checkpoint"):
            load_weights(path)


class TestLossFiniteness:
    def test_loss_finite_over_training(self):
        spec = GeneratorSpec(kind="sbm", nodes=60, classes=3, feature_dim=6,
                             seed=5, p_in=0.3, p_out=0.05)
        cfg = RunConfig(generator=spec, epochs=120, hidden_dim=16,
                        learning_rate=0.5, baseline="spangnn",
                        alpha_up=0.6, beta=0.1, seed=21)
        result = run_training(cfg)
        assert all(np.isfinite(m.loss) for m in result.metrics)
