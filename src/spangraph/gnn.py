"""Minimal full-batch GNN trainer with hand-derived backpropagation.

Layer rules (P is the propagation matrix, W the trainable weights, relu
on every layer except the last):

    gcn:        Z = P H W,            H' = relu(Z)
    sage-mean:  Z = [H || P H] W,     H' = relu(Z)

For sage-mean P is the row-mean matrix, so the concatenation is
"self features || neighborhood mean" (the mean includes the self-loop),
and W stacks W_self over W_agg.

Each layer multiplies by P on its narrow side (``transforms_first``).
With d_in and d_out the layer's input and output widths, a layer with
d_out < d_in transforms first and propagates the narrow product; every
other layer aggregates first.  Every sparse product then has width
min(d_in, d_out).  With delta = dL/dZ:

    aggregate first (d_out >= d_in), A = P H  or  [H || P H]:
        forward   Z = A W
        grad W  = A^T delta
        dL/dH   = P^T (delta W^T)                           (gcn)
                = delta W_self^T + P^T (delta W_agg^T)      (sage)

    transform first (d_out < d_in), U = P^T delta:
        forward   Z = P (H W)              (gcn)
                  Z = H W_self + P (H W_agg)   (sage)
        grad W  = H^T U                    (gcn)
                = [H^T delta ; H^T U]      (sage)
        dL/dH   = U W^T                    (gcn)
                = delta W_self^T + U W_agg^T   (sage)

    delta'  = dL/dH * relu'(Z_prev)

The tape is P, each layer's input H and the logits, kept by the one forward
pass that training and eval share; relu overwrites Z in place.  Above the
first layer H = relu(Z_prev), which is > 0 exactly where Z_prev > 0, so
backward forms each relu mask from the H it pops.  An aggregate-first layer
recomputes A from H for its gradient, one sparse product at width d_in,
instead of holding A through the rest of the forward pass and the loss
(Chen et al., *Training Deep Nets with Sublinear Memory Cost*, 2016).
Backward consumes the tape: it drops the logits once the loss has read
them, each H once its gradient and mask are formed, and delta as soon as
only U is read, and it masks dL/dH in place.  Since backward reads P from
the tape, it propagates with the matrix the forward pass used.
The loss is mean softmax cross-entropy over the training nodes, computed
in place in one gathered copy of their logits.
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

    def input_dim(self, layer: int = 0) -> int:
        rows = self.weights[layer].shape[0]
        return rows // 2 if self.layer_type == SAGE_MEAN else rows


def transforms_first(model: GnnModel, layer: int) -> bool:
    """Whether ``layer`` multiplies by W before P: only when its output is
    narrower than its input, so that P always meets the narrow side."""
    return model.weights[layer].shape[1] < model.input_dim(layer)


@dataclass
class BackwardTape:
    """What backward reads of a forward pass; one loss_and_backward pops it."""

    model: GnnModel
    p: PropagationMatrix        # the matrix the pass propagated with
    saved: list[np.ndarray]     # per layer: its input H
    logits: np.ndarray | None   # the pass's output; backward drops it first


def aggregate(model: GnnModel, p: PropagationMatrix, h: np.ndarray) -> np.ndarray:
    """A of an aggregate-first layer with input ``h``: P H, or [H || P H]."""
    return np.hstack([h, p.matrix @ h]) if model.layer_type == SAGE_MEAN else p.matrix @ h


def pre_activation(model: GnnModel, layer: int, p: PropagationMatrix,
                   h: np.ndarray) -> np.ndarray:
    """Z of ``layer`` from its input ``h``."""
    w = model.weights[layer]
    if not transforms_first(model, layer):
        return aggregate(model, p, h) @ w
    if model.layer_type == SAGE_MEAN:
        d = model.input_dim(layer)
        return h @ w[:d] + p.matrix @ (h @ w[d:])
    return p.matrix @ (h @ w)


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
            features: np.ndarray) -> BackwardTape:
    """Full-batch forward pass; returns the backward tape, which holds P, the
    layers' inputs and the logits.  Eval reads the logits and drops the rest."""
    h = np.asarray(features, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    saved = []
    last = model.num_layers - 1
    for layer in range(model.num_layers):
        d = model.input_dim(layer)
        if h.shape[1] != d:
            raise ValueError(f"layer {layer}: input dim {h.shape[1]} does not "
                             f"match the weights' input dim {d}")
        saved.append(h)
        h = pre_activation(model, layer, p, h)
        if layer < last:
            np.maximum(h, 0.0, out=h)
    return BackwardTape(model=model, p=p, saved=saved, logits=h)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over masked rows and its gradient w.r.t. the logits.

    Gradient rows outside the mask are exactly zero.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("training mask is empty")
    z = logits[rows]
    z -= z.max(axis=1, keepdims=True)
    pick = (np.arange(rows.size), labels[rows])
    picked = z[pick]
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    loss = float(-(picked - np.log(denom[:, 0])).mean())
    z /= denom
    z[pick] -= 1.0
    z /= rows.size
    del pick, picked, denom
    grad = np.zeros_like(logits)
    grad[rows] = z
    return loss, grad


def loss_and_backward(tape: BackwardTape, labels: np.ndarray,
                      train_mask: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Loss plus per-layer weight gradients via the chain rule over the tape's
    P; consumes ``tape`` and drops its logits once the loss has read them."""
    if tape.logits is None:
        raise ValueError("the backward tape was consumed by an earlier backward")
    model, p = tape.model, tape.p
    sage = model.layer_type == SAGE_MEAN
    loss, delta = softmax_cross_entropy(tape.logits, labels, train_mask)
    tape.logits = None
    grads: list[np.ndarray] = [np.empty(0)] * model.num_layers
    for layer in range(model.num_layers - 1, -1, -1):
        w, x = model.weights[layer], tape.saved.pop()
        d = model.input_dim(layer)
        w_agg = w[d:] if sage else w
        narrow = transforms_first(model, layer)
        if narrow:
            u = p.matrix.T @ delta
            if not sage:
                del delta           # gcn reads only U from here on
            grads[layer] = np.vstack([x.T @ delta, x.T @ u]) if sage else x.T @ u
        else:
            grads[layer] = aggregate(model, p, x).T @ delta
        if layer == 0:
            break
        mask = x > 0.0              # x = relu(Z_prev): x > 0 iff Z_prev > 0
        del x
        if narrow:
            dh = u @ w_agg.T
            del u
        else:
            dh = p.matrix.T @ (delta @ w_agg.T)
        if sage:
            dh += delta @ w[:d].T
        delta = np.multiply(dh, mask, out=dh)
        del mask
    return loss, grads


def sgd_step(model: GnnModel, gradients: list[np.ndarray],
             learning_rate: float) -> None:
    """Plain gradient descent in place; aborts on non-finite gradients."""
    if not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if len(gradients) != model.num_layers:
        raise ValueError("gradient count does not match layer count")
    for layer, (w, g) in enumerate(zip(model.weights, gradients)):
        if w.shape != g.shape:
            raise ValueError(f"layer {layer}: gradient shape {g.shape} != {w.shape}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient at layer {layer}")
        w -= learning_rate * g


def train_step(model: GnnModel, p: PropagationMatrix, features: np.ndarray,
               labels: np.ndarray, train_mask: np.ndarray,
               learning_rate: float) -> float:
    """One full-batch forward/backward/update; returns the loss."""
    tape = forward(model, p, features)
    if not np.isfinite(tape.logits).all():
        raise NumericalError("non-finite logits; the learning rate is likely too high")
    loss, grads = loss_and_backward(tape, labels, train_mask)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite training loss {loss}")
    sgd_step(model, grads, learning_rate)
    return loss


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro F1 over the union of the (non-negative) classes present in truth
    or prediction; per class, 2 tp + fp + fn = predicted + true count."""
    classes = np.union1d(y_true, y_pred)
    if classes.size == 0:
        return 0.0
    size = int(classes[-1]) + 1
    tp = np.bincount(y_true[y_true == y_pred], minlength=size)[classes]
    denom = (np.bincount(y_pred, minlength=size)
             + np.bincount(y_true, minlength=size))[classes]
    return float(np.mean(2.0 * tp / denom))


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
