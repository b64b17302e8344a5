"""Minimal full-batch GNN trainer with hand-derived backpropagation.

Layer rules (P is the propagation matrix, W the trainable weights, relu
on every layer except the last):

    gcn:        Z = P H W,            H' = relu(Z)
    sage-mean:  Z = [H || P H] W,     H' = relu(Z)

For sage-mean P is the row-mean matrix, so the concatenation is
"self features || neighborhood mean" (the mean includes the self-loop).

The loss is mean softmax cross-entropy over the training nodes.  The
backward pass mirrors the forward algebra exactly:

    grad W  = A^T delta         with A = P H  (gcn)  or  [H || P H]  (sage)
    dL/dH   = P^T (delta W^T)   (gcn)
            = (delta W^T)_self + P^T (delta W^T)_agg   (sage)
    delta'  = dL/dH * relu'(Z_prev)

Updates are plain gradient descent, W -= lr * grad, no momentum and no
weight decay.  Everything runs in float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graphstore import GCN_SYMMETRIC, MEAN_ROW, PropagationMatrix
from .seeding import spawn_rng

GCN = "gcn"
SAGE_MEAN = "sage-mean"
LAYER_TYPES = (GCN, SAGE_MEAN)

# the propagation matrix each layer rule multiplies by
PROPAGATION_KIND = {GCN: GCN_SYMMETRIC, SAGE_MEAN: MEAN_ROW}

WEIGHT_MAGIC = b"SPGW"


@dataclass
class GnnModel:
    """Layer weights plus the layer rule they implement."""

    layer_type: str
    weights: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def propagation_kind(self) -> str:
        return PROPAGATION_KIND[self.layer_type]

    def input_dim(self) -> int:
        rows = self.weights[0].shape[0]
        return rows // 2 if self.layer_type == SAGE_MEAN else rows


@dataclass
class TrainState:
    """Model plus optimizer state for the plain gradient-descent loop."""

    model: GnnModel
    learning_rate: float

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class BackwardTape:
    """Forward-pass cache consumed by loss_and_backward."""

    model: GnnModel
    aggregated: list[np.ndarray]  # A = P H  or  [H || P H]
    pre_acts: list[np.ndarray]    # Z per layer


def init_model(layer_type: str, in_dim: int, hidden_dim: int, out_dim: int,
               num_layers: int = 2, seed: int = 0) -> GnnModel:
    """Seeded uniform(-b, b) init with b = sqrt(6 / (fan_in + fan_out))."""
    if layer_type not in LAYER_TYPES:
        raise ValueError(f"unknown layer type {layer_type!r}")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    rng = spawn_rng(seed, "init")
    weights = []
    for layer in range(num_layers):
        d_in = in_dim if layer == 0 else hidden_dim
        d_out = out_dim if layer == num_layers - 1 else hidden_dim
        rows = 2 * d_in if layer_type == SAGE_MEAN else d_in
        bound = np.sqrt(6.0 / (rows + d_out))
        weights.append(rng.uniform(-bound, bound, size=(rows, d_out)))
    return GnnModel(layer_type=layer_type, weights=weights)


def forward(model: GnnModel, p: PropagationMatrix,
            features: np.ndarray) -> tuple[np.ndarray, BackwardTape]:
    """Full-batch forward pass; returns logits and the backward tape."""
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if model.input_dim() != h.shape[1]:
        raise ValueError(
            f"feature dim {h.shape[1]} does not match first layer "
            f"input dim {model.input_dim()}"
        )
    aggregated, pre_acts = [], []
    last = model.num_layers - 1
    for layer, w in enumerate(model.weights):
        if model.layer_type == SAGE_MEAN:
            a = np.hstack([h, p.matrix @ h])
        else:
            a = p.matrix @ h
        if a.shape[1] != w.shape[0]:
            raise ValueError(
                f"layer {layer}: aggregated dim {a.shape[1]} does not match "
                f"weight rows {w.shape[0]}"
            )
        z = a @ w
        aggregated.append(a)
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if layer < last else z
    return h, BackwardTape(model=model, aggregated=aggregated, pre_acts=pre_acts)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over masked rows and its gradient w.r.t. the logits.

    Gradient rows outside the mask are exactly zero.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("training mask is empty")
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


def loss_and_backward(tape: BackwardTape, logits: np.ndarray,
                      labels: np.ndarray, train_mask: np.ndarray,
                      p: PropagationMatrix) -> tuple[float, list[np.ndarray]]:
    """Loss plus per-layer weight gradients via the chain rule over P."""
    model = tape.model
    loss, delta = softmax_cross_entropy(logits, labels, train_mask)
    grads: list[np.ndarray] = [np.empty(0)] * model.num_layers
    for layer in range(model.num_layers - 1, -1, -1):
        w = model.weights[layer]
        grads[layer] = tape.aggregated[layer].T @ delta
        if layer == 0:
            break
        g = delta @ w.T
        if model.layer_type == SAGE_MEAN:
            d = g.shape[1] // 2
            dh = g[:, :d] + p.matrix.T @ g[:, d:]
        else:
            dh = p.matrix.T @ g
        delta = dh * (tape.pre_acts[layer - 1] > 0.0)
    return loss, grads


def sgd_step(state: TrainState, gradients: list[np.ndarray]) -> TrainState:
    """Plain gradient descent; aborts on non-finite gradients."""
    model = state.model
    if len(gradients) != model.num_layers:
        raise ValueError("gradient count does not match layer count")
    for layer, (w, g) in enumerate(zip(model.weights, gradients)):
        if w.shape != g.shape:
            raise ValueError(f"layer {layer}: gradient shape {g.shape} != {w.shape}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient at layer {layer}")
        w -= state.learning_rate * g
    return state


def train_step(state: TrainState, p: PropagationMatrix, features: np.ndarray,
               labels: np.ndarray, train_mask: np.ndarray) -> float:
    """One full-batch forward/backward/update; returns the loss."""
    logits, tape = forward(state.model, p, features)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits; the learning rate is likely too high")
    loss, grads = loss_and_backward(tape, logits, labels, train_mask, p)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite training loss {loss}")
    sgd_step(state, grads)
    return loss


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro F1 over the union of classes present in truth or prediction."""
    classes = np.union1d(np.unique(y_true), np.unique(y_pred))
    scores = []
    for c in classes:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores)) if scores else 0.0


def masked_scores(pred: np.ndarray, labels: np.ndarray,
                  mask: np.ndarray) -> tuple[float, float]:
    """Accuracy and macro-F1 of predicted classes on the masked nodes."""
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("evaluation mask is empty")
    truth = labels[rows]
    picked = pred[rows]
    return float(np.mean(picked == truth)), macro_f1(truth, picked)


def save_weights(path, model: GnnModel) -> None:
    """Checkpoint: magic, u64 layer count, per-layer u64 dims, f64 data."""
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<Q", model.num_layers))
        for w in model.weights:
            fh.write(struct.pack("<QQ", w.shape[0], w.shape[1]))
        for w in model.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes(order="C"))


def load_weights(path) -> list[np.ndarray]:
    """Read a checkpoint back into a list of float64 weight matrices."""
    with open(path, "rb") as fh:
        def read(size: int) -> bytes:
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError(f"{path}: truncated checkpoint")
            return buf

        if fh.read(4) != WEIGHT_MAGIC:
            raise ValueError(f"{path}: not a weight checkpoint")
        (count,) = struct.unpack("<Q", read(8))
        dims = [struct.unpack("<QQ", read(16)) for _ in range(count)]
        return [np.frombuffer(read(rows * cols * 8), dtype="<f8").reshape(rows, cols).copy()
                for rows, cols in dims]
