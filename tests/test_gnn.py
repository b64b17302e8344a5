"""Forward/backward correctness, optimizer behavior, and evaluation."""

import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from spangraph import gnn, runner
from spangraph.diagnostics import gradient_noise
from spangraph.errors import ConfigError, NumericalError, refuse_unshapeable
from spangraph.gnn import (
    BackwardTape,
    GnnModel,
    forward,
    init_model,
    input_aggregate,
    load_weights,
    loss_and_backward,
    macro_f1,
    row_blocks,
    save_weights,
    sgd_step,
    train_step,
    transforms_first,
)
from spangraph.graphstore import (
    GCN_SYMMETRIC,
    MEAN_ROW,
    PropagationMatrix,
    SpanningSubgraph,
    build_graph,
    build_propagation,
    column_norms,
    load_dataset,
    save_dataset,
)
from spangraph.runner import RunConfig, run_training
from spangraph.synthetic import GeneratorSpec, make_graph

from conftest import (
    graph_from_edges,
    max_relative_error,
    numeric_gradients,
    rule_product,
    traced_peak,
)


def loss_in_a_copy(logits, labels, mask):
    """The loss and its gradient, written over a C-ordered float64 copy of
    the logits."""
    delta = np.array(logits, dtype=np.float64, order="C")
    return gnn.cross_entropy_in_place(delta, labels, mask), delta


class TestForward:
    def test_identity_propagation_identity_weights(self):
        g = graph_from_edges(3, np.zeros((0, 2)), feature_dim=3)
        p = build_propagation(SpanningSubgraph.empty(g), MEAN_ROW)
        model = GnnModel("gcn", [np.eye(3)])
        logits = forward(model, p, g.features).logits
        np.testing.assert_array_equal(logits, g.features)

    def test_two_node_mean_row_hand_product(self):
        """Features [[2],[4]] under rows [1/2,1/2] with W=[[1]] -> [[3],[3]]."""
        g = build_graph(2, np.array([[0, 1]]), np.array([[2.0], [4.0]]),
                        np.array([0, 1]), np.array(["train", "train"]))
        p = build_propagation(SpanningSubgraph.full(g), MEAN_ROW)
        model = GnnModel("gcn", [np.array([[1.0]])])
        logits = forward(model, p, g.features).logits
        np.testing.assert_allclose(logits, [[3.0], [3.0]])

    def test_zero_weights_give_zero_logits(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        model = GnnModel("gcn", [np.zeros((2, 4)), np.zeros((4, 2))])
        logits = forward(model, p, triangle.features).logits
        np.testing.assert_array_equal(logits, np.zeros((3, 2)))

    def test_feature_dim_mismatch(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        model = init_model("gcn", 7, 4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            forward(model, p, triangle.features)

    def test_a_hidden_width_numpy_cannot_shape_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^hidden_dim 288230376151711744 needs "
                                              r"a 32 x 288230376151711744 array"):
            init_model("sage-mean", 16, 2**58, 2, num_layers=2)

    def test_the_refused_shapes_are_those_numpy_cannot_shape(self):
        edge = sys.maxsize // 16
        refuse_unshapeable("x", 2, edge)
        with pytest.raises(MemoryError):    # shaped; no memory holds 2**63 bytes
            np.empty((2, edge))
        with pytest.raises(ConfigError, match="larger than numpy can shape"):
            refuse_unshapeable("x", 2, edge + 1)
        with pytest.raises(ValueError, match="too big"):
            np.empty((2, edge + 1))

    def test_sage_concatenation_shapes(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), MEAN_ROW)
        model = init_model("sage-mean", 2, 4, 3, 2, seed=0)
        assert model.weights[0].shape == (4, 4)
        assert model.weights[1].shape == (8, 3)
        tape = forward(model, p, triangle.features)
        assert tape.logits.shape == (3, 3)
        # the tape keeps the layer's input H and S = P H, the halves of [H || P H]
        h, s = tape.saved[0]
        assert h is tape.features and s.shape == (3, 2)
        assert np.hstack([h, s]).shape == (3, 4)


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self, triangle):
        for k in (2, 3, 5):
            logits = np.zeros((3, k))
            loss, grad = loss_in_a_copy(logits, triangle.labels,
                                               triangle.train_mask)
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_saturated_correct_prediction(self, triangle):
        logits = np.full((3, 2), -1e4)
        logits[np.arange(3), triangle.labels] = 1e4
        loss, grad = loss_in_a_copy(logits, triangle.labels,
                                           triangle.train_mask)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_rows_outside_mask_are_zero(self, path4):
        logits = np.random.default_rng(0).normal(size=(4, 2))
        mask = np.array([True, False, True, False])
        _, grad = loss_in_a_copy(logits, path4.labels, mask)
        np.testing.assert_array_equal(grad[1], 0.0)
        np.testing.assert_array_equal(grad[3], 0.0)

    def test_empty_mask_rejected(self, path4):
        with pytest.raises(ValueError, match="empty"):
            loss_in_a_copy(np.zeros((4, 2)), path4.labels,
                                  np.zeros(4, bool))

    @staticmethod
    def reference_loss(logits, labels, mask):
        """The loss with a fresh array per step: shift, exp, log-probs,
        then the gradient from exp / denom."""
        rows = np.flatnonzero(mask)
        z = logits[rows]
        z_shift = z - z.max(axis=1, keepdims=True)
        exp = np.exp(z_shift)
        denom = exp.sum(axis=1, keepdims=True)
        log_probs = z_shift - np.log(denom)
        y = labels[rows]
        loss = float(-log_probs[np.arange(rows.size), y].mean())
        grad_rows = exp / denom
        grad_rows[np.arange(rows.size), y] -= 1.0
        grad = np.zeros_like(logits)
        grad[rows] = grad_rows / rows.size
        return loss, grad

    def test_in_place_loss_matches_the_reference_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, k = int(rng.integers(1, 301)), int(rng.integers(1, 9))
            logits = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, np.log10(300))
            labels = rng.integers(0, k, size=n)
            mask = rng.random(n) < rng.uniform(0.05, 1.0)
            mask[rng.integers(n)] = True
            before = logits.copy()
            loss, grad = loss_in_a_copy(logits, labels, mask)
            want_loss, want_grad = self.reference_loss(logits, labels, mask)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert logits.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ["ties", "one row", "all rows", "2 classes",
                                      "1 class", "9 classes"])
    def test_delta_is_written_over_the_logits_bitwise(self, case):
        """``cross_entropy_in_place`` leaves in the logits' own buffer the
        gradient the gather-and-spread reference forms in fresh arrays, rows
        outside the mask +0 included.  Past 7 classes numpy sums a row
        pairwise, not left to right."""
        rng = np.random.default_rng(5)
        n = 60
        k = {"2 classes": 2, "1 class": 1, "9 classes": 9}.get(case, 4)
        logits = rng.normal(size=(n, k)) * 4.0
        if case == "ties":
            logits = rng.integers(-1, 2, size=(n, k)).astype(np.float64)
            assert (np.sort(logits, axis=1)[:, -1] == np.sort(logits, axis=1)[:, -2]).any()
        labels = rng.integers(0, k, size=n)
        mask = rng.random(n) < 0.5
        if case == "one row":
            mask = np.arange(n) == 17
        elif case == "all rows":
            mask = np.ones(n, dtype=bool)
        want_loss, want_delta = self.reference_loss(logits, labels, mask)
        delta = logits.copy()
        loss = gnn.cross_entropy_in_place(delta, labels, mask)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert delta.tobytes() == want_delta.tobytes()
        assert not np.signbit(delta[~mask]).any()

    def test_peak_is_the_gathered_rows_and_the_gradient(self):
        """The loss holds under 16 KB beyond the size of its gathered rows,
        their index and the gradient at its peak, though it no longer
        gathers: the gradient is the copy of the logits it works in, beside
        row-sized vectors that each die once read (measured 10.7 KB under
        that size on 50k x 4; gathering the rows and spreading them into a
        fresh gradient read 5.3 KB over it)."""
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(50_000, 4))
        labels = rng.integers(0, 4, size=50_000)
        mask = rng.random(50_000) < 0.6
        rows = int(mask.sum())
        peak = traced_peak(loss_in_a_copy, logits, labels, mask)
        held = rows * 4 * 8 + rows * 8 + logits.nbytes
        assert peak <= held + 16384, peak - held


def widths_id(widths):
    return "-".join(map(str, widths))


def model_with_widths(layer_type, widths, seed):
    """A model whose layer l maps widths[l] features to widths[l + 1]."""
    rng = np.random.default_rng(seed)
    rows = 2 if layer_type == "sage-mean" else 1
    return GnnModel(layer_type, [rng.uniform(-0.8, 0.8, size=(rows * a, b))
                                 for a, b in zip(widths, widths[1:])])


class TestGradients:
    @staticmethod
    def _max_error(layer_type, feature_dim, model):
        spec = GeneratorSpec(kind="sbm", nodes=9, classes=2, feature_dim=feature_dim,
                             seed=41, p_in=0.8, p_out=0.3)
        g = make_graph(spec)
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        _, analytic = loss_and_backward(forward(model, p, g.features), g.labels, g.train_mask)
        numeric = numeric_gradients(model, p, g.features, g.labels, g.train_mask)
        return max_relative_error(analytic, numeric)

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_analytic_matches_finite_differences(self, layer_type, num_layers):
        model = init_model(layer_type, 3, 5, 2, num_layers, seed=13)
        assert self._max_error(layer_type, 3, model) < 1e-4

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 3, 2), (6, 3, 3, 2), (6, 4, 3, 2)], ids=widths_id)
    def test_narrowing_layers_match_finite_differences(self, layer_type, widths):
        """A first layer that transforms first, below an aggregate-first or a
        transform-first hidden layer, gets its delta through their dH."""
        model = model_with_widths(layer_type, widths, seed=13)
        assert self._max_error(layer_type, widths[0], model) < 1e-4


class WidthRecorder:
    """Stands in for P (or P^T): delegates ``@`` to the real operator and
    logs the column count of every dense operand."""

    def __init__(self, p, log, name="P"):
        self._p, self.log, self.name = p, log, name

    def __matmul__(self, dense):
        self.log.append((self.name, dense.shape[1]))
        return self._p @ dense

    @property
    def T(self):
        return WidthRecorder(self._p.T, self.log, "P.T")

    def rows(self, panel):
        return WidthRecorder(self._p.rows(panel), self.log, self.name)


class LogitsWatcher:
    """Stands in for P (or P^T): delegates ``@`` to the real operator and
    logs, at every product, whether the logits' buffer behind ``ref`` is
    still alive as anything but the product's own operand."""

    def __init__(self, p, log, ref=None):
        self._p, self.log, self.ref = p, log, ref

    def __matmul__(self, dense):
        if self.ref is not None:
            self.log.append(self.ref() is not None and self.ref() is not dense)
        return self._p @ dense

    @property
    def T(self):
        return LogitsWatcher(self._p.T, self.log, self.ref)

    def rows(self, panel):
        return LogitsWatcher(self._p.rows(panel), self.log, self.ref)


class TestNarrowSide:
    """P meets every layer at width min(d_in, d_out)."""

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(16, 8, 8, 3), (4, 8, 3), (5, 5)], ids=widths_id)
    def test_sparse_products_run_at_the_narrow_width(self, layer_type, widths):
        spec = GeneratorSpec(kind="sbm", nodes=30, classes=3, feature_dim=widths[0],
                             seed=8, p_in=0.4, p_out=0.1)
        g = make_graph(spec)
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        log = []
        p = WidthRecorder(build_propagation(SpanningSubgraph.full(g), kind), log)
        model = model_with_widths(layer_type, widths, seed=2)
        layers = list(zip(widths, widths[1:]))
        fwd = [("P", min(a, b)) for a, b in layers]
        # going down: a narrowing layer always needs U = P^T delta for its
        # gradient; an aggregate-first one reads A from the tape and
        # propagates dH, except at layer 0 (the 4-8-3 and 5-5 models)
        bwd = [step for layer, (a, b) in reversed(list(enumerate(layers)))
               for step in ([("P.T", b)] if b < a else [("P.T", a)] * (layer > 0))]

        train_step(model, p, g.features, g.labels, g.train_mask, 0.1)
        assert log == fwd + bwd
        log.clear()
        forward(model, p, g.features)
        assert log == fwd


class TestOrderEquivalence:
    @staticmethod
    def textbook_logits(layer_type, p, h, weights):
        """P H W or [H || P H] W per layer, relu between layers."""
        for i, w in enumerate(weights):
            a = p @ h if layer_type == "gcn" else np.hstack([h, p @ h])
            h = a @ w if i == len(weights) - 1 else np.maximum(a @ w, 0.0)
        return h

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 2), (3, 5), (4, 4), (6, 3, 5, 2)], ids=widths_id)
    def test_forward_matches_textbook_order(self, layer_type, widths):
        """Both orders give the textbook logits; d_out < d_in transforms first."""
        rng = np.random.default_rng(17)
        n = 12
        dense = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
        m = sp.csr_matrix(dense)
        p = PropagationMatrix(m.indptr, m.indices, m.data, gnn.PROPAGATION_KIND[layer_type])
        h = rng.uniform(0.1, 1.0, size=(n, widths[0]))
        model = model_with_widths(layer_type, widths, seed=5)
        for w in model.weights:
            np.abs(w, out=w)  # positive: no cancellation, so rtol is meaningful
        logits = forward(model, p, h).logits
        expected = self.textbook_logits(layer_type, dense, h, model.weights)
        np.testing.assert_allclose(logits, expected, rtol=1e-12)


def reference_pass(model, p, features, labels, mask):
    """Forward and backward that keep every Z and mask with dh * (Z > 0);
    returns the logits, the gradients and the Zs."""
    sage = model.layer_type == "sage-mean"
    last = model.num_layers - 1
    h, saved, zs = features, [], []
    for layer, w in enumerate(model.weights):
        d = model.input_dim(layer)
        if transforms_first(model, layer):
            x = h
            z = h @ w[:d] + rule_product(p, h @ w[d:]) if sage else rule_product(p, h @ w)
        else:
            x = np.hstack([h, rule_product(p, h)]) if sage else rule_product(p, h)
            z = x @ w
        saved.append(x)
        zs.append(z)
        h = np.maximum(z, 0.0) if layer < last else z
    _, delta = loss_in_a_copy(h, labels, mask)
    grads = [None] * model.num_layers
    for layer in range(last, -1, -1):
        w, x, d = model.weights[layer], saved[layer], model.input_dim(layer)
        w_agg = w[d:] if sage else w
        narrow = transforms_first(model, layer)
        if narrow:
            u = p.matrix.T @ delta
            grads[layer] = np.vstack([x.T @ delta, x.T @ u]) if sage else x.T @ u
        else:
            grads[layer] = x.T @ delta
        if layer == 0:
            break
        dh = u @ w_agg.T if narrow else p.matrix.T @ (delta @ w_agg.T)
        if sage:
            dh += delta @ w[:d].T
        delta = dh * (zs[layer - 1] > 0.0)
    return h, grads, zs


def sbm40(layer_type, widths):
    """The 40-node SBM of the tape tests, with its full and half-edge P."""
    g = make_graph(GeneratorSpec(kind="sbm", nodes=40, classes=widths[-1],
                                 feature_dim=widths[0], seed=12, p_in=0.3, p_out=0.05))
    kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
    half = np.random.default_rng(4).permutation(g.num_edges)[:g.num_edges // 2]
    return (g, build_propagation(SpanningSubgraph.full(g), kind),
            build_propagation(SpanningSubgraph.from_indices(g, half), kind))


class TestBackwardTape:
    """The tape keeps each layer's input, not Z or a relu mask; backward forms
    each mask from the input it pops, and values stay bitwise."""

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 5, 2), (6, 3, 2), (6, 3, 5, 2), (4, 8, 8, 3)],
                             ids=widths_id)
    def test_matches_a_pass_that_keeps_z_bitwise(self, layer_type, widths):
        """(6, 3, 5, 2) has a transform-first and an aggregate-first hidden
        layer; (6, 3, 2) transforms first throughout, while (3, 5, 2) and
        (4, 8, 8, 3) aggregate first below the last layer."""
        g, p_full, p_sub = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        args = (g.features, g.labels, g.train_mask)

        tape = forward(model, p_sub, g.features)
        logits = tape.logits.copy()     # backward writes delta over them
        _, grads = loss_and_backward(tape, *args[1:])
        want_logits, want_grads, zs_sub = reference_pass(model, p_sub, *args)
        assert any((z <= 0.0).any() for z in zs_sub[:-1])  # relu masks something
        assert logits.tobytes() == want_logits.tobytes()
        for got, want in zip(grads, want_grads, strict=True):
            assert got.tobytes() == want.tobytes()

        _, _, zs_full = reference_pass(model, p_full, *args)
        report = gradient_noise(model, p_full, p_sub, *args)
        assert report.z_diff_norms == [float(np.linalg.norm(zs - zf))
                                       for zs, zf in zip(zs_sub, zs_full)]

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(4, 8, 8, 3), (6, 3, 5, 2)], ids=widths_id)
    def test_backward_writes_over_the_tape_but_not_the_features(self, layer_type, widths,
                                                                monkeypatch):
        """Layer 0 of (4, 8, 8, 3) aggregates first, so a sage tape holds the
        features themselves; six blocks write over every other entry."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, p, _ = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        before = g.features.copy()
        train_step(model, p, g.features, g.labels, g.train_mask, 0.1)
        assert g.features.tobytes() == before.tobytes()

    def test_a_consumed_tape_is_refused(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        model = init_model("gcn", 2, 4, 2, 2, seed=0)
        tape = forward(model, p, triangle.features)
        loss_and_backward(tape, triangle.labels, triangle.train_mask)
        with pytest.raises(ValueError, match="tape was consumed"):
            loss_and_backward(tape, triangle.labels, triangle.train_mask)

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 3, 2), (3, 5, 2)], ids=widths_id)
    def test_train_step_frees_the_logits_before_the_first_backward_product(
            self, layer_type, widths, monkeypatch):
        """No reference to the logits' buffer outlives the loss but delta,
        which the loss writes over it: not the caller's, not the tape's.
        (6, 3, 2) starts backward with P^T delta, delta in that buffer, and
        (3, 5, 2) with the recomputed A = P H, after which delta is dead."""
        spec = GeneratorSpec(kind="sbm", nodes=30, classes=2, feature_dim=widths[0],
                             seed=8, p_in=0.4, p_out=0.1)
        g = make_graph(spec)
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        alive = []
        watcher = LogitsWatcher(build_propagation(SpanningSubgraph.full(g), kind), alive)
        model = model_with_widths(layer_type, widths, seed=2)
        taped_forward = gnn.forward

        def forward_then_watch(*args):
            tape = taped_forward(*args)
            watcher.ref = weakref.ref(tape.logits)
            return tape

        monkeypatch.setattr(gnn, "forward", forward_then_watch)
        train_step(model, watcher, g.features, g.labels, g.train_mask, 0.1)
        assert alive and not any(alive), alive

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 3, 2), (4, 2, 3)], ids=widths_id)
    def test_the_logits_die_before_delta_takes_their_size(self, layer_type, widths,
                                                          monkeypatch):
        """delta takes no size of its own: the loss writes it over the tape's
        logits, bitwise the copy ``loss_in_a_copy`` returns.  (6, 3, 2)
        ends transform first, so its tape holds the logits as the last
        layer's Z too; (4, 2, 3) ends aggregate first."""
        g, p, _ = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=2)
        written, in_place, taped_forward = [], gnn.cross_entropy_in_place, gnn.forward

        def forward_then_watch(*args):
            tape = taped_forward(*args)
            ref = weakref.ref(tape.logits)
            want_loss, want_delta = loss_in_a_copy(tape.logits, g.labels, g.train_mask)

            def loss_then_watch(logits, labels, mask):
                loss = in_place(logits, labels, mask)
                written.append((logits is ref(), loss == want_loss,
                                logits.tobytes() == want_delta.tobytes()))
                return loss

            monkeypatch.setattr(gnn, "cross_entropy_in_place", loss_then_watch)
            return tape

        monkeypatch.setattr(gnn, "forward", forward_then_watch)
        train_step(model, p, g.features, g.labels, g.train_mask, 0.1)
        assert written == [(True, True, True)]

    # slack for the tape's Python objects and first-call caches
    TAPE_SLACK = 4096

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("hidden", [32, 8])
    def test_a_taped_forward_holds_only_narrow_products(self, layer_type, hidden, pa3k,
                                                        monkeypatch):
        """Every array on the tape is n x min(d_in, d_out) of its layer, and
        the tape holds nothing else: at hidden 32 (16-32-32-4) the hidden
        layers aggregate first, at hidden 8 (16-8-8-4) layer 0 transforms
        first.  Over three panels an aggregate-first layer 0's entry is None
        and holds nothing; in one panel it holds S = P X."""
        g = pa3k
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = init_model(layer_type, g.feature_dim, hidden, 4, 3, seed=0)
        for panel_blocks in (gnn.PANEL_BLOCKS, 2):
            monkeypatch.setattr(gnn, "PANEL_BLOCKS", panel_blocks)
            streamed = (len(row_blocks(g.num_nodes)) > panel_blocks
                        and not transforms_first(model, 0))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tape = forward(model, p, g.features)
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert tape.features is g.features
            assert (tape.saved[0] is None) == streamed
            for layer, entry in enumerate(tape.saved[streamed:], start=streamed):
                narrow = min(model.input_dim(layer), model.weights[layer].shape[1])
                assert entry and all(a.shape == (g.num_nodes, narrow) for a in entry), layer
            kept = {id(a): a.nbytes
                    for a in [tape.logits, *(a for e in tape.saved[streamed:] for a in e)]
                    if a is not g.features}
            assert sum(kept.values()) <= held <= sum(kept.values()) + self.TAPE_SLACK, held
            del tape


class TestEvalForward:
    """Eval is the training forward with its tape dropped: its logits are the
    ones the training loss reads, and its peak stays within a train step's."""

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 5, 2), (6, 3, 2), (6, 3, 5, 2)], ids=widths_id)
    def test_logits_match_the_taped_forward_bitwise(self, layer_type, widths):
        spec = GeneratorSpec(kind="sbm", nodes=40, classes=widths[-1], feature_dim=widths[0],
                             seed=5, p_in=0.3, p_out=0.05)
        g = make_graph(spec)
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = model_with_widths(layer_type, widths, seed=9)
        eval_logits = forward(model, p, g.features).logits
        tape = forward(model, p, g.features)
        logits = tape.logits.copy()     # backward writes delta over them
        assert len(tape.saved) == len(widths) - 1
        loss_and_backward(tape, g.labels, g.train_mask)
        assert tape.saved == [] and tape.logits is None
        assert eval_logits.tobytes() == logits.tobytes()

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_eval_never_sets_the_run_peak(self, layer_type, depth, pa3k):
        g = pa3k
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p_full = build_propagation(SpanningSubgraph.full(g), kind)
        model = init_model(layer_type, g.feature_dim, 64, 4, depth, seed=0)
        eval_peak = traced_peak(lambda: forward(model, p_full, g.features).logits)
        step_peak = traced_peak(train_step, model, p_full, g.features, g.labels,
                                g.train_mask, 0.1)
        assert eval_peak <= step_peak, (eval_peak, step_peak)


class TestInputAggregate:
    """Eval reads layer 0's P X from ``input_aggregate``: the logits are bitwise
    those of a forward that forms it, and nothing writes over it."""

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 4), (3, 5, 2), (3, 5, 5, 2)], ids=widths_id)
    @pytest.mark.parametrize("nodes", [40, 2 * gnn.ROW_BLOCK + 100])
    def test_logits_match_a_forward_that_forms_it_bitwise(self, layer_type, widths, nodes):
        g = make_graph(GeneratorSpec(kind="sbm", nodes=nodes, classes=widths[-1],
                                     feature_dim=widths[0], seed=5, p_in=0.3 * 40 / nodes,
                                     p_out=0.05 * 40 / nodes))
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = model_with_widths(layer_type, widths, seed=9)
        cached = input_aggregate(model, p, g.features)
        assert not cached.flags.writeable
        assert cached.tobytes() == rule_product(p, g.features).tobytes()
        got = forward(model, p, g.features, cached).logits
        assert got.tobytes() == forward(model, p, g.features).logits.tobytes()
        zeros = np.zeros_like(cached)   # read in place of P X, not beside it
        assert forward(model, p, g.features, zeros).logits.tobytes() != got.tobytes()

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    def test_a_transform_first_layer_0_has_none(self, layer_type):
        """Features of width 64 meet hidden 16, so layer 0 transforms first."""
        g = make_graph(GeneratorSpec(kind="sbm", nodes=60, classes=3, feature_dim=64,
                                     seed=2, p_in=0.3, p_out=0.03))
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = init_model(layer_type, 64, 16, 3, 2, seed=1)
        assert transforms_first(model, 0)
        assert input_aggregate(model, p, g.features) is None

    def test_forward_refuses_a_misused_aggregate(self, triangle):
        p = build_propagation(SpanningSubgraph.full(triangle), GCN_SYMMETRIC)
        wide = init_model("gcn", 2, 4, 2, 2, seed=0)
        narrow = init_model("gcn", 2, 1, 2, 2, seed=0)
        cached = input_aggregate(wide, p, triangle.features)
        with pytest.raises(ValueError, match="transforms first"):
            forward(narrow, p, triangle.features, cached)
        with pytest.raises(ValueError, match="input aggregate shape"):
            forward(wide, p, triangle.features, cached[:2])
        with pytest.raises(ValueError, match="input aggregate shape"):
            forward(wide, p, triangle.features, np.hstack([cached, cached]))

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 5, 2), (4, 8, 8, 3)], ids=widths_id)
    def test_backward_over_its_tape_leaves_it_unchanged(self, layer_type, widths,
                                                        monkeypatch):
        """Six blocks of backward write over every tape entry but layer 0's,
        and the gradients are bitwise those of a tape that formed P X."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, p, _ = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        cached = input_aggregate(model, p, g.features)
        before = cached.tobytes()
        _, grads = loss_and_backward(forward(model, p, g.features, cached),
                                     g.labels, g.train_mask)
        assert cached.tobytes() == before
        _, want = loss_and_backward(forward(model, p, g.features), g.labels, g.train_mask)
        for a, b in zip(grads, want, strict=True):
            assert a.tobytes() == b.tobytes()

    # slack for Python objects and first-call caches in a traced peak
    PEAK_SLACK = 4096

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("hidden, depth", [(32, 2), (64, 2), (32, 3)])
    def test_a_train_step_given_it_allocates_no_layer_0_product(self, layer_type, hidden,
                                                                depth, pa3k):
        """A full-graph train step handed the aggregate peaks at least one
        n x d_in array below one that forms P X (measured 1.000-1.006 arrays
        below), and takes the same step."""
        g = pa3k
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        formed, given = (init_model(layer_type, g.feature_dim, hidden, 4, depth, seed=0)
                         for _ in range(2))
        cached = input_aggregate(given, p, g.features)
        args = (p, g.features, g.labels, g.train_mask, 0.1)
        formed_peak = traced_peak(train_step, formed, *args)
        given_peak = traced_peak(train_step, given, *args, cached)
        assert formed_peak - given_peak >= cached.nbytes - self.PEAK_SLACK, (formed_peak,
                                                                             given_peak)
        for a, b in zip(given.weights, formed.weights, strict=True):
            assert a.tobytes() == b.tobytes()


class TestRowBlocks:
    """The dense chains between sparse products run ROW_BLOCK rows at a time;
    patched to 7 rows, a 40-node graph spans six blocks."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 14, 15, 40])
    def test_blocks_cover_the_rows_with_no_one_row_tail(self, n, monkeypatch):
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        blocks = row_blocks(n)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= 8 and (n < 2 or min(sizes) >= 2), sizes

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 3, 5, 2), (4, 8, 8, 3)], ids=widths_id)
    def test_many_blocks_match_one_block(self, layer_type, widths, monkeypatch):
        """Logits are bitwise those of one block; the gradients, summed over
        blocks, and the Z differences are within 1e-12 of the reference."""
        g, p_full, p_sub = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        args = (g.features, g.labels, g.train_mask)
        one_block = forward(model, p_sub, g.features).logits
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        assert len(row_blocks(g.num_nodes)) == 6
        tape = forward(model, p_sub, g.features)
        assert tape.logits.tobytes() == one_block.tobytes()
        _, grads = loss_and_backward(tape, *args[1:])
        _, want_grads, zs_sub = reference_pass(model, p_sub, *args)
        for got, want in zip(grads, want_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        _, _, zs_full = reference_pass(model, p_full, *args)
        report = gradient_noise(model, p_full, p_sub, *args)
        np.testing.assert_allclose(report.z_diff_norms,
                                   [np.linalg.norm(zs - zf) for zs, zf in zip(zs_sub, zs_full)],
                                   rtol=1e-12)

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(6, 3, 5, 2), (4, 8, 8, 3)], ids=widths_id)
    def test_many_blocks_match_finite_differences(self, layer_type, widths, monkeypatch):
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, p, _ = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=13)
        _, analytic = loss_and_backward(forward(model, p, g.features), g.labels, g.train_mask)
        numeric = numeric_gradients(model, p, g.features, g.labels, g.train_mask)
        assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("layer_type, depth, forward_peak, step_peak", [
        ("gcn", 2, 744_456, 854_820), ("sage-mean", 2, 971_720, 1_157_580),
        ("gcn", 3, 3_456_936, 3_495_774), ("sage-mean", 3, 4_437_224, 5_065_384)])
    def test_block_temporaries_die_per_block(self, layer_type, depth, forward_peak, step_peak,
                                             pa3k):
        """Six row blocks at hidden 64: the forward and the train step stay
        within a quarter block of their measured peaks.  A chain that keeps a
        block's H alive while the next block forms its own, or a backward
        that keeps a block's delta, reads a whole ROW_BLOCK x 64 float64
        block (262,144 bytes) more.  Before the chain wrote each block in
        place, the 2-layer gcn read 760,884 / 854,380 bytes."""
        g = pa3k
        p = build_propagation(SpanningSubgraph.full(g), gnn.PROPAGATION_KIND[layer_type])
        model = init_model(layer_type, g.feature_dim, 64, 4, depth, seed=0)
        slack = gnn.ROW_BLOCK * 64 * 8 // 4
        assert len(row_blocks(g.num_nodes)) == 6
        peak = traced_peak(lambda: forward(model, p, g.features).logits)
        assert peak <= forward_peak + slack, peak
        peak = traced_peak(train_step, model, p, g.features, g.labels, g.train_mask, 0.1)
        assert peak <= step_peak + slack, peak

    def test_a_gcn_train_step_holds_no_n_by_hidden_array(self, pa3k):
        """2-layer GCN at hidden 64: the step peaks below one n x 64 float64
        array (measured 0.85 MB against 1.54 MB; a tape of layer inputs
        reads 1.93 MB)."""
        g = pa3k
        p = build_propagation(SpanningSubgraph.full(g), GCN_SYMMETRIC)
        model = init_model("gcn", g.feature_dim, 64, 4, 2, seed=0)
        peak = traced_peak(train_step, model, p, g.features, g.labels, g.train_mask, 0.1)
        assert peak < g.num_nodes * 64 * 8, peak

    @pytest.mark.parametrize("layer_type, arrays", [("sage-mean", 4.0), ("gcn", 2.5)])
    def test_a_deep_train_step_holds_nothing_beside_tape_delta_and_u(self, layer_type, arrays,
                                                                     pa3k, monkeypatch):
        """3 layers at hidden 64 (16-64-64-4): backward writes each layer's G
        over the tape rows it has read, so U is its one new n x 64 array.
        ``arrays`` bounds a step whose tape holds layer 0's S = P X; formed a
        512-row panel at a time, S (n x 16, a quarter of an n x 64 array)
        comes off the bound.  Measured 3.09 (sage) and 2.07 (gcn) n x 64
        float64 arrays; a tape that holds S reads 3.30 and 2.27, and fresh G
        and delta W_self^T arrays 4.98 and 2.68 on top of that tape."""
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 1)
        g = pa3k
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = init_model(layer_type, g.feature_dim, 64, 4, 3, seed=0)
        peak = traced_peak(train_step, model, p, g.features, g.labels, g.train_mask, 0.1)
        unit = g.num_nodes * 64 * 8
        assert peak < (arrays - g.features.nbytes / unit) * unit, peak / unit


class FeatureSpy:
    """Stands in for P: delegates ``@`` to the real operator and logs, at
    every product, whether the dense operand is the features themselves."""

    def __init__(self, p, log, features):
        self._p, self.log, self.features = p, log, features

    def __matmul__(self, dense):
        self.log.append(dense is self.features)
        return self._p @ dense

    @property
    def T(self):
        return FeatureSpy(self._p.T, self.log, self.features)

    def rows(self, panel):
        return FeatureSpy(self._p.rows(panel), self.log, self.features)


class OperatorOnly:
    """Stands in for P with only what gnn may use of it, ``@``, ``T`` and
    ``rows``, each delegated to a real P; it has no ``matrix``."""

    def __init__(self, p):
        self._p = p

    def __matmul__(self, dense):
        return self._p @ dense

    @property
    def T(self):
        return self._p.T

    def rows(self, panel):
        return self._p.rows(panel)


class TestRowPanels:
    """Past one panel of PANEL_BLOCKS row blocks, an aggregate-first layer 0
    handed no cached aggregate forms S = P X a panel at a time; with 7-row
    blocks a 40-node graph is one panel, or three of two blocks each."""

    # traced bytes of a panel's Python objects: its view of indptr and the
    # operator around it
    PANEL_OBJECT_BYTES = 1024

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_panel_rows_are_the_whole_products_rows_and_share_p(self, kind, pa3k):
        """Forming a panel allocates no array: a rebased ``indptr`` of the
        whole graph's rows would take 12 KB, a copy of its entries far more."""
        g = pa3k
        p = build_propagation(SpanningSubgraph.full(g), kind)
        whole = p @ g.features
        for rows in (slice(0, 512), slice(1000, 2048), slice(2900, 3000), slice(0, 3000)):
            assert traced_peak(p.rows, rows) < self.PANEL_OBJECT_BYTES
            got = p.rows(rows) @ g.features
            assert got.shape == (rows.stop - rows.start, g.feature_dim)
            assert got.tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 4), (3, 5, 2), (4, 8, 8, 3), (3, 5, 4, 5)],
                             ids=widths_id)
    def test_a_multi_panel_step_matches_a_tape_that_holds_s_bitwise(self, layer_type, widths,
                                                                    monkeypatch):
        """1 to 3 layers; forward forms each panel of S once and backward once
        more, and a sage layer that transforms first forms its Z over the same
        panels."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, _, p = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        args = (g.labels, g.train_mask)
        tape = forward(model, p, g.features)
        assert tape.saved[0] is not None
        want_logits = tape.logits.tobytes()
        want_loss, want_grads = loss_and_backward(tape, *args)

        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 2)
        formed, panel_rows = [], PropagationMatrix.rows
        monkeypatch.setattr(PropagationMatrix, "rows",
                            lambda self, rows: formed.append(rows) or panel_rows(self, rows))
        tape = forward(model, p, g.features)
        assert tape.saved[0] is None
        assert tape.logits.tobytes() == want_logits
        loss, grads = loss_and_backward(tape, *args)
        sage_narrow = sum(layer_type == "sage-mean" and transforms_first(model, layer)
                          for layer in range(model.num_layers))
        assert formed == [slice(0, 14), slice(14, 28), slice(28, 40)] * (2 + sage_narrow)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for got, want in zip(grads, want_grads, strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 4), (3, 5, 2), (6, 3, 2), (4, 8, 8, 3)],
                             ids=widths_id)
    def test_a_multi_panel_step_needs_only_the_operator(self, layer_type, widths,
                                                        monkeypatch):
        """gnn multiplies P through ``@``, ``T`` and ``rows`` alone, and a
        stand-in with only those gives the same loss and gradients bitwise."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 2)
        g, _, p = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        results = []
        for operator in (p, OperatorOnly(p)):
            tape = forward(model, operator, g.features)
            assert (tape.saved[0] is None) == (not transforms_first(model, 0))
            loss, grads = loss_and_backward(tape, g.labels, g.train_mask)
            results.append([np.float64(loss).tobytes()] + [w.tobytes() for w in grads])
        assert results[0] == results[1]

    # slack for Python objects and first-call caches in a traced peak
    PEAK_SLACK = 4096

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("hidden, depth", [(32, 2), (64, 2), (32, 3)])
    def test_a_multi_panel_step_peaks_s_less_one_panel_below(self, layer_type, hidden, depth,
                                                             pa3k, monkeypatch):
        """pa3k is one panel of 4,096 rows, or six of 512 rows at PANEL_BLOCKS
        1.  Six panels hold one panel of S at a time where one panel holds all
        of S (n x 16), so the peak falls by S less a panel (measured within 500
        bytes of it), and the step is the same."""
        g = pa3k
        kind = GCN_SYMMETRIC if layer_type == "gcn" else MEAN_ROW
        p = build_propagation(SpanningSubgraph.full(g), kind)
        held, streamed = (init_model(layer_type, g.feature_dim, hidden, 4, depth, seed=0)
                          for _ in range(2))
        args = (p, g.features, g.labels, g.train_mask, 0.1)
        held_peak = traced_peak(train_step, held, *args)
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 1)
        assert len(row_blocks(g.num_nodes)) == 6
        streamed_peak = traced_peak(train_step, streamed, *args)
        panel = gnn.ROW_BLOCK * g.feature_dim * 8
        assert held_peak - streamed_peak >= g.features.nbytes - panel - self.PEAK_SLACK, (
            held_peak, streamed_peak)
        for a, b in zip(streamed.weights, held.weights, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_a_sage_z_is_formed_over_its_self_term_a_panel_at_a_time(self, pa3k,
                                                                      monkeypatch):
        """A sage layer that transforms first forms Z = P (X W_agg) + X W_self
        over the self term: bitwise ``P @ agg + self`` over 40 rows in three
        panels of 14 rows.  On pa3k (16 -> 4) in 14-row panels its forward
        peaks one n x 4 array, less a panel, below the one-panel forward,
        which holds the whole product beside both terms (measured 92,880
        bytes below, for 96,000 bytes of the array less 448 of a panel)."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, p, _ = sbm40("sage-mean", (6, 2))
        model = model_with_widths("sage-mean", (6, 2), seed=6)
        assert transforms_first(model, 0)
        w = model.weights[0]
        want = p @ (g.features @ w[6:]) + g.features @ w[:6]
        for panel_blocks in (gnn.PANEL_BLOCKS, 2):
            monkeypatch.setattr(gnn, "PANEL_BLOCKS", panel_blocks)
            assert forward(model, p, g.features).logits.tobytes() == want.tobytes()

        g = pa3k
        p = build_propagation(SpanningSubgraph.full(g), MEAN_ROW)
        model = init_model("sage-mean", g.feature_dim, 8, 4, 1, seed=0)
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 1000)
        one_panel = traced_peak(forward, model, p, g.features)
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 2)
        panels = traced_peak(forward, model, p, g.features)
        z_bytes, panel_bytes = g.num_nodes * 4 * 8, 14 * 4 * 8
        assert one_panel - panels >= z_bytes - panel_bytes - self.PEAK_SLACK, (one_panel, panels)

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 4), (3, 5, 2), (4, 8, 8, 3)], ids=widths_id)
    def test_a_one_panel_step_forms_p_x_once(self, layer_type, widths):
        """On a graph of one panel the step multiplies P itself (a stand-in
        with no CSR arrays could not be cut into panels) and keeps S."""
        g, p, _ = sbm40(layer_type, widths)
        assert len(row_blocks(g.num_nodes)) <= gnn.PANEL_BLOCKS
        log = []
        model = model_with_widths(layer_type, widths, seed=6)
        train_step(model, FeatureSpy(p, log, g.features), g.features, g.labels,
                   g.train_mask, 0.1)
        assert log.count(True) == 1, log

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 5, 2), (4, 8, 8, 3)], ids=widths_id)
    @pytest.mark.parametrize("cached", [True, False])
    def test_gradient_noise_reports_the_same_norms_bitwise(self, layer_type, widths, cached,
                                                           monkeypatch):
        """With the full pass's aggregate cached only the subgraph tape
        streams its S; without it both do, side by side in z_diff_norms."""
        monkeypatch.setattr(gnn, "ROW_BLOCK", 7)
        g, p_full, p_sub = sbm40(layer_type, widths)
        model = model_with_widths(layer_type, widths, seed=6)
        aggregate = input_aggregate(model, p_full, g.features) if cached else None
        args = (model, p_full, p_sub, g.features, g.labels, g.train_mask, aggregate)
        want = gradient_noise(*args)
        monkeypatch.setattr(gnn, "PANEL_BLOCKS", 2)
        got = gradient_noise(*args)
        assert np.array(got.z_diff_norms).tobytes() == np.array(want.z_diff_norms).tobytes()
        assert np.array(got.noise_norms).tobytes() == np.array(want.noise_norms).tobytes()


class TestSgdStep:
    def _model(self, w):
        return GnnModel("gcn", [np.array(w, dtype=float)])

    def test_zero_gradient_no_change(self):
        model = self._model([[1.0]])
        sgd_step(model, [np.array([[0.0]])], 0.1)
        np.testing.assert_array_equal(model.weights[0], [[1.0]])

    def test_arithmetic(self):
        model = self._model([[1.0]])
        sgd_step(model, [np.array([[2.0]])], 0.1)
        np.testing.assert_allclose(model.weights[0], [[0.8]])

    def test_two_steps_sum_for_constant_gradients(self):
        """With weight-independent gradients, steps compose additively."""
        rng = np.random.default_rng(4)
        g1 = rng.normal(size=(3, 2))
        g2 = rng.normal(size=(3, 2))
        a = GnnModel("gcn", [np.ones((3, 2))])
        b = GnnModel("gcn", [np.ones((3, 2))])
        sgd_step(a, [g1], 0.05)
        sgd_step(a, [g2], 0.05)
        sgd_step(b, [g1 + g2], 0.05)
        np.testing.assert_allclose(a.weights[0], b.weights[0], atol=1e-12)

    def test_non_finite_gradient_aborts(self):
        model = self._model([[1.0]])
        with pytest.raises(NumericalError):
            sgd_step(model, [np.array([[np.nan]])], 0.1)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_is_refused(self, rate):
        model = self._model([[1.0]])
        with pytest.raises(ValueError, match="finite"):
            sgd_step(model, [np.array([[2.0]])], rate)
        np.testing.assert_array_equal(model.weights[0], [[1.0]])


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
        _, acc, f1, _ = runner._evaluate(model, p, g2, None, np.flatnonzero(g2.train_mask))
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
        train_step(model, p, g.features, g.labels, g.train_mask, 0.1)
        _, acc, f1, _ = runner._evaluate(model, p, g, None, np.flatnonzero(g.train_mask))
        assert 0.0 <= acc <= 1.0


class TestTrainStepTape:
    """A train step handed a forward's tape consumes it in place of its own
    forward, and refuses one that is not that forward."""

    @pytest.mark.parametrize("layer_type", ["gcn", "sage-mean"])
    @pytest.mark.parametrize("widths", [(3, 5, 2), (6, 3, 2), (4, 8, 8, 3)], ids=widths_id)
    def test_takes_the_step_of_its_own_forward_bitwise(self, layer_type, widths,
                                                        monkeypatch):
        g, p, _ = sbm40(layer_type, widths)
        formed, given = (model_with_widths(layer_type, widths, seed=3) for _ in range(2))
        args = (g.features, g.labels, g.train_mask, 0.1)
        loss_formed = train_step(formed, p, *args)
        tape = forward(given, p, g.features)
        monkeypatch.setattr(gnn, "forward", None)     # a handed tape runs no forward
        loss_given = train_step(given, p, *args, None, tape)
        assert loss_given == loss_formed and tape.logits is None
        for a, b in zip(given.weights, formed.weights, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_refuses_a_tape_that_is_not_this_steps_forward(self):
        g, p, _ = sbm40("gcn", (3, 5, 2))
        model = model_with_widths("gcn", (3, 5, 2), seed=3)
        twin = model_with_widths("gcn", (3, 5, 2), seed=3)
        same_values = build_propagation(SpanningSubgraph.full(g), GCN_SYMMETRIC)
        before = [w.copy() for w in model.weights]
        args = (g.features, g.labels, g.train_mask, 0.1, None)
        consumed = forward(model, p, g.features)
        loss_and_backward(consumed, g.labels, g.train_mask)
        with pytest.raises(ValueError, match="consumed"):
            train_step(model, p, *args, consumed)
        with pytest.raises(ValueError, match="another model or matrix"):
            train_step(model, p, *args, forward(twin, p, g.features))
        with pytest.raises(ValueError, match="another model or matrix"):
            train_step(model, p, *args, forward(model, same_values, g.features))
        for a, b in zip(model.weights, before, strict=True):
            assert a.tobytes() == b.tobytes()


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
            logits = forward(model, p, g.features).logits

            perm = rng.permutation(n)
            pedges = perm[g.edges]
            pg = build_graph(n, pedges, feats[np.argsort(perm)],
                             labels[np.argsort(perm)], splits)
            pp = build_propagation(SpanningSubgraph.full(pg), kind)
            plogits = forward(model, pp, pg.features).logits
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


class TestPeakMemory:
    """Traced peaks on a dense PA graph (5k nodes, attach 50, about 242k
    edges): with node-sized state kept lean, the edge-sized state a smaller
    subgraph drops shows up, and the build holds little beyond its result."""

    # a window (build + train_step) may exceed the empty subgraph's by its
    # P's CSR bytes times this.  Measured 1.84 / 4.16 / 7.06 MB at 0.1 / 0.5
    # / 1.0 on 1.27 MB empty; a build through valued COO triplets reads
    # 6.94 and 13.71 MB at 0.5 and 1.0 and fails
    MAX_WINDOW_OVER_CSR = 1.1
    # measured 1.21; valued COO triplets read 2.37, and 4.37 with int64
    # coordinates and a sort pass
    MAX_BUILD_RATIO = 1.3
    # measured 0.108, one chunk of squares beside the n sums; one bincount
    # over all of P's squares reads 1.34, and summing P.multiply(P) by
    # columns 2.02
    MAX_NORMS_RATIO = 0.2
    # claim (b) over a whole run: setup, every epoch and eval.  Measured at
    # alpha_up 0.05: full 13.42 MB; vm 10.67, gnr 10.67 and uniform 10.67 MB
    # (0.795); gnr read 13.76 MB while its column norms squared all of P at once
    MAX_CAPPED_RUN_OVER_FULL = 0.85
    # the same runs loading the dataset inside the trace: vm 15.28 MB against
    # full 17.77 MB (0.860); the loader set vm's peak at 17.00 MB (0.960)
    # while it parsed a text copy of the edge list and re-sorted its edges
    MAX_CAPPED_DISK_RUN_OVER_FULL = 0.90
    # measured 1.14: 5.25 MB traced for the 4.61 MB the Graph keeps; 3.69
    # (17.00 MB) with the text copy and the re-sort
    MAX_LOAD_OVER_KEPT = 1.25
    # claim (b) for SAGE over a whole run.  Measured: full 8.06 MB, and 12.94
    # MB while a mean-row P kept its per-entry values
    MAX_FULL_SAGE_RUN_BYTES = 8_500_000
    # measured 0.840 at alpha_up 0.05: vm 6.77 MB
    MAX_CAPPED_SAGE_RUN_OVER_FULL = 0.9

    DENSE_PA = GeneratorSpec(kind="preferential-attachment", nodes=5000, classes=4,
                             feature_dim=16, attach=50, seed=1)

    @pytest.fixture(scope="class")
    def dense_pa(self):
        return make_graph(self.DENSE_PA)

    @pytest.fixture(scope="class")
    def dense_pa_dir(self, dense_pa, tmp_path_factory):
        directory = tmp_path_factory.mktemp("dense-pa")
        save_dataset(directory, dense_pa, binary_features=True)
        return directory

    @staticmethod
    def csr_bytes(matrix):
        return matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes

    def test_peak_follows_the_edge_fraction(self, dense_pa):
        g = dense_pa
        order = np.random.default_rng(0).permutation(g.num_edges)
        peaks, sizes = [], []
        for fraction in (0.0, 0.1, 0.5, 1.0):
            sub = SpanningSubgraph.from_indices(g, order[:round(fraction * g.num_edges)])
            model = init_model("gcn", g.feature_dim, 64, 4, 2, seed=0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                p = build_propagation(sub, GCN_SYMMETRIC)
                train_step(model, p, g.features, g.labels, g.train_mask, 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            sizes.append(self.csr_bytes(p.matrix))
        assert peaks[0] < peaks[1] < peaks[2] < peaks[3]
        for peak, size in zip(peaks[1:], sizes[1:]):
            assert peak <= peaks[0] + self.MAX_WINDOW_OVER_CSR * size, (peaks, sizes)

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_full_build_peak_stays_near_its_result(self, dense_pa, kind):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            matrix = build_propagation(SpanningSubgraph.full(dense_pa), kind).matrix
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        resident = self.csr_bytes(matrix)
        assert peak <= self.MAX_BUILD_RATIO * resident, peak / resident

    @pytest.mark.parametrize("kind", [GCN_SYMMETRIC, MEAN_ROW])
    def test_column_norms_peak_stays_near_the_matrix(self, dense_pa, kind):
        p = build_propagation(SpanningSubgraph.full(dense_pa), kind)
        peak = traced_peak(column_norms, p)
        assert peak <= self.MAX_NORMS_RATIO * self.csr_bytes(p.matrix), peak

    def test_a_capped_run_peaks_below_full(self, dense_pa):
        base = RunConfig(generator=self.DENSE_PA, hidden_dim=64, learning_rate=0.2, epochs=10,
                         alpha_up=0.05, seed=1)
        full = traced_peak(run_training, replace(base, baseline="full"), dense_pa)
        for sampler in ("vm", "gnr", "uniform"):
            peak = traced_peak(run_training, replace(base, sampler_kind=sampler), dense_pa)
            assert peak <= self.MAX_CAPPED_RUN_OVER_FULL * full, (sampler, peak, full)

    def test_a_capped_run_from_disk_peaks_below_full(self, dense_pa_dir):
        """Claim (b) with the load inside the trace, as ``train --data`` runs."""
        base = RunConfig(data_dir=str(dense_pa_dir), hidden_dim=64, learning_rate=0.2,
                         epochs=10, alpha_up=0.05, seed=1)
        full = traced_peak(run_training, replace(base, baseline="full"))
        peak = traced_peak(run_training, replace(base, sampler_kind="vm"))
        assert peak <= self.MAX_CAPPED_DISK_RUN_OVER_FULL * full, (peak, full)

    def test_a_mean_row_matrix_keeps_only_its_pattern(self, dense_pa):
        """What a mean-row build leaves traced is its indptr and indices, and
        the Python objects around them: no per-entry float64 array."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = build_propagation(SpanningSubgraph.full(dense_pa), MEAN_ROW)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        pattern = p.indptr.nbytes + p.indices.nbytes
        assert p.data is None
        assert pattern <= kept <= pattern + 1024, (kept, pattern)

    def test_a_sage_run_peaks_below_its_bound_and_capped_below_full(self, dense_pa):
        base = RunConfig(generator=self.DENSE_PA, model="sage", hidden_dim=64,
                         learning_rate=0.2, epochs=10, alpha_up=0.05, seed=1)
        full = traced_peak(run_training, replace(base, baseline="full"), dense_pa)
        assert full <= self.MAX_FULL_SAGE_RUN_BYTES, full
        peak = traced_peak(run_training, replace(base, sampler_kind="vm"), dense_pa)
        assert peak <= self.MAX_CAPPED_SAGE_RUN_OVER_FULL * full, (peak, full)

    def test_load_peak_stays_near_the_graph(self, dense_pa_dir):
        peak = traced_peak(load_dataset, dense_pa_dir)
        g = load_dataset(dense_pa_dir)
        kept = sum(getattr(g, name).nbytes for name in (
            "edges", "degree", "features", "labels", "train_mask", "val_mask", "test_mask"))
        assert peak <= self.MAX_LOAD_OVER_KEPT * kept, peak / kept
