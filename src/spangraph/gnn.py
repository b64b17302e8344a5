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

Sparse products run on whole matrices.  The work between two of them
(the weight product after propagation, relu, the next layer's
transform-first product and sage's self term) is row-local, so it runs in
blocks of ROW_BLOCK rows (operator reorganization, Zhang et al., MLSys
2022).  The one forward pass that training and eval share returns the tape:
P, the features, the logits, and per layer only n x min(d_in, d_out)
arrays, S = P H of an aggregate-first layer (and H for sage) or Z of a
transform-first one.  Backward rebuilds each block of Z, of H = relu(Z)
and of the relu mask (H > 0 iff Z > 0) from them, then writes over the
rows it has read the layer's G, which P^T multiplies next: delta over Z,
or delta W_agg^T over S and sage's delta W_self^T over H (recomputation
and memory sharing, Chen et al., *Training Deep Nets with Sublinear Memory
Cost*, 2016).  So it holds nothing beside the tape, delta and U = P^T G;
an aggregate-first layer 0 writes nothing, as its entry may hold the
features or a cached P X.  It propagates with the tape's P, the matrix the
forward pass used.  Blocks leave the logits as a whole-matrix pass computes
them, save where the BLAS picks another kernel for a block than for the
whole product (last bits only); weight gradients are sums over blocks, so
past ROW_BLOCK rows their last bits move.
Eval runs every epoch over the same full-graph P and features, so a run
forms an aggregate-first layer 0's P X once (``input_aggregate``, as SGC
precomputes its propagation: Wu et al., *Simplifying Graph Convolutional
Networks*, ICML 2019) and each eval forward reads it, read-only, in place of
that product.  So does a train step over the full graph (``train_step``
passes ``aggregate`` on); backward never writes that entry.  A train step
over a subgraph forms its own, as its P changes every epoch, but holds it
only on a graph of one panel (PANEL_BLOCKS row blocks).  Past that, layer
0's tape entry is None: it holds no n x d_in array, and the forward pass,
backward and ``z_diff_norms`` each form S one panel at a time from the
tape's P and features, read the panel's blocks while it is still in cache,
and drop it (recomputation again, paid once more in backward).  A panel is
a CSR matrix over views of P's data and indices (``row_panel``): scipy's
constructor copies slices of a larger array, which would hold a second
copy of P's entries.  scipy forms each row of a CSR product from that
row's entries in storage order, so each panel row is bitwise that row of
P X.
A train step handed a tape runs no forward of its own and consumes that
tape.  The tape must be unconsumed and come from ``forward`` for the same
model object at its current weights, over the same P object and features;
the runner's ``full`` baseline hands it the previous epoch's eval forward.
``train_step`` refuses a consumed tape and one of another model or P
object; the weights and features it takes on trust.
The loss is mean softmax cross-entropy over the training nodes, computed
in place in one gathered copy of their logits; its row-sized vectors (the
label entries' flat indices, the picked logits, the softmax denominators)
each die once read.  Backward drops the logits before it spreads that copy
into the n-row delta, so the two never coexist.
Updates are plain gradient descent, W -= lr * grad, no momentum and no
weight decay.  Everything runs in float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, refuse_unshapeable
from .graphstore import GCN_SYMMETRIC, MEAN_ROW, PropagationMatrix
from .seeding import spawn_rng

GCN = "gcn"
SAGE_MEAN = "sage-mean"
LAYER_TYPES = (GCN, SAGE_MEAN)

# the propagation matrix each layer rule multiplies by
PROPAGATION_KIND = {GCN: GCN_SYMMETRIC, SAGE_MEAN: MEAN_ROW}

WEIGHT_MAGIC = b"SPGW"

# rows per block of the dense chains between sparse products
ROW_BLOCK = 512
# row blocks per panel of a layer-0 aggregate formed panel by panel
PANEL_BLOCKS = 8


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
    """What backward reads of a forward pass; one loss_and_backward consumes it."""

    model: GnnModel
    p: PropagationMatrix        # the matrix the pass propagated with
    features: np.ndarray        # the first layer's input
    # per layer: the narrow arrays Z is rebuilt from; None for a layer 0 whose
    # S = P X is formed again from P and the features a panel at a time
    saved: list[tuple[np.ndarray, ...] | None]
    logits: np.ndarray | None   # the pass's output; backward drops it first


def row_blocks(n: int) -> list[slice]:
    """Slices of at most ROW_BLOCK rows covering ``n`` rows; a 1-row tail joins
    the block before it, so no block's dense product becomes a vector product."""
    bounds = list(range(0, max(n - 1, 1), ROW_BLOCK)) + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def row_panel(matrix: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """Rows ``rows`` of ``matrix`` as a CSR matrix over views of its data and
    indices; scipy's constructor would copy slices of a larger array."""
    lo, hi = matrix.indptr[rows.start], matrix.indptr[rows.stop]
    panel = sp.csr_matrix((rows.stop - rows.start, matrix.shape[1]), dtype=matrix.dtype)
    panel.data, panel.indices = matrix.data[lo:hi], matrix.indices[lo:hi]
    panel.indptr = matrix.indptr[rows.start:rows.stop + 1] - lo
    return panel


def _blocks(model: GnnModel, p: PropagationMatrix, features: np.ndarray,
            entry: tuple[np.ndarray, ...] | None):
    """Per row block: its rows, then a tape entry and the block's rows in it.
    An entry of None is a layer 0 whose S = P X the tape does not hold: each
    panel of S, PANEL_BLOCKS row blocks, is formed from P's rows, stands in
    for the entry of its blocks, and dies once they have been read."""
    blocks = row_blocks(len(features))
    if entry is not None:
        for rows in blocks:
            yield rows, entry, rows
        return
    for first in range(0, len(blocks), PANEL_BLOCKS):
        run = blocks[first:first + PANEL_BLOCKS]
        panel = slice(run[0].start, run[-1].stop)
        s = row_panel(p.matrix, panel) @ features
        entry = (features[panel], s) if model.layer_type == SAGE_MEAN else (s,)
        for rows in run:
            yield rows, entry, slice(rows.start - panel.start, rows.stop - panel.start)
        del s, entry


def _by_rows(n: int, blocks, fill) -> list[np.ndarray]:
    """n-row arrays filled from ``fill(entry, rows)`` for each row block of
    ``_blocks``, one part each; each block's parts die before the next block
    is computed."""
    whole = None
    for rows, entry, local in blocks:
        parts = fill(entry, local)
        if whole is None:
            whole = [np.empty((n, part.shape[1])) for part in parts]
        for out, part in zip(whole, parts):
            out[rows] = part
        del parts, part
    return whole


def _a_rows(entry: tuple[np.ndarray, ...], rows: slice) -> np.ndarray:
    """An aggregate-first layer's A on ``rows``: P H, or [H || P H] for sage."""
    return entry[0][rows] if len(entry) == 1 else np.concatenate(
        [x[rows] for x in entry], axis=1)


def _pre_activation_rows(model: GnnModel, layer: int, entry: tuple[np.ndarray, ...],
                         rows: slice) -> np.ndarray:
    """Z of ``layer`` on ``rows``, rebuilt from the layer's tape entry (a
    transform-first layer's entry is Z itself, so this is a view of it)."""
    if transforms_first(model, layer):
        return entry[0][rows]
    return _a_rows(entry, rows) @ model.weights[layer]


def _hidden_rows(model: GnnModel, layer: int, entry: tuple[np.ndarray, ...],
                 rows: slice) -> np.ndarray:
    """H = relu(Z) of hidden ``layer`` on ``rows``, as a fresh array."""
    z = _pre_activation_rows(model, layer, entry, rows)
    return np.maximum(z, 0.0, out=z if z.flags.owndata else None)  # z may view the tape


def _operands(model: GnnModel, layer: int, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """What ``layer`` hands P for input rows ``h``, then sage's self term
    H W_self of a transform-first layer."""
    if not transforms_first(model, layer):
        return (h,)
    w, d = model.weights[layer], model.input_dim(layer)
    if model.layer_type == SAGE_MEAN:
        return h @ w[d:], h @ w[:d]
    return (h @ w,)


def _z_rows(tape: BackwardTape, layer: int):
    """Z of ``layer`` a row block at a time, rebuilt from ``tape``."""
    for _, entry, rows in _blocks(tape.model, tape.p, tape.features, tape.saved[layer]):
        yield _pre_activation_rows(tape.model, layer, entry, rows)


def z_diff_norms(tape_a: BackwardTape, tape_b: BackwardTape) -> list[float]:
    """Per layer, the Frobenius norm of the tapes' Z difference, formed a row
    block at a time and summed as np.linalg.norm sums, sqrt(d . d); read
    before a backward writes over either tape."""
    def sq_rows(z: np.ndarray, z_b: np.ndarray) -> float:
        diff = np.subtract(z, z_b, out=z if z.flags.owndata else None)  # z may view the tape
        return diff.ravel() @ diff.ravel()

    return [float(np.sqrt(sum(map(sq_rows, _z_rows(tape_a, layer), _z_rows(tape_b, layer)),
                              0.0)))
            for layer in range(tape_a.model.num_layers)]


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
        refuse_unshapeable(f"hidden_dim {hidden_dim}", rows, d_out)
        bound = np.sqrt(6.0 / (rows + d_out))
        weights.append(rng.uniform(-bound, bound, size=(rows, d_out)))
    return GnnModel(layer_type=layer_type, weights=weights)


def input_aggregate(model: GnnModel, p: PropagationMatrix,
                    features: np.ndarray) -> np.ndarray | None:
    """Layer 0's S = P X, read-only, for every forward over the same P and
    features to reuse; None when layer 0 transforms first, as its first
    sparse product then reads the weights."""
    if transforms_first(model, 0):
        return None
    s = p.matrix @ np.asarray(features, dtype=np.float64)
    s.flags.writeable = False
    return s


def forward(model: GnnModel, p: PropagationMatrix, features: np.ndarray,
            aggregate: np.ndarray | None = None) -> BackwardTape:
    """Full-batch forward pass; returns the backward tape, which holds P, each
    layer's narrow products and the logits.  Eval reads the logits and drops
    the rest.  ``aggregate``, from ``input_aggregate`` over the same P and
    features, stands in for layer 0's P X."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if aggregate is not None:
        if transforms_first(model, 0):
            raise ValueError("layer 0 transforms first, so it reads no input aggregate")
        if aggregate.shape != x.shape:
            raise ValueError(f"input aggregate shape {aggregate.shape} does not match "
                             f"the features' {x.shape}")
    width = x.shape[1]
    for layer, w in enumerate(model.weights):
        if width != model.input_dim(layer):
            raise ValueError(f"layer {layer}: input dim {width} does not match "
                             f"the weights' input dim {model.input_dim(layer)}")
        width = w.shape[1]
    n, last = x.shape[0], model.num_layers - 1
    saved = []
    parts = _operands(model, 0, x)
    # past one panel, a layer 0 that aggregates first holds no S = P X of its
    # own: every reader forms it again a panel at a time
    stream = (aggregate is None and not transforms_first(model, 0)
              and len(row_blocks(n)) > PANEL_BLOCKS)
    for layer in range(model.num_layers):
        if layer == 0 and stream:
            entry = None
        else:
            s = p.matrix @ parts[0] if layer or aggregate is None else aggregate
            if transforms_first(model, layer):
                if len(parts) > 1:
                    s += parts[1]   # sage's self term
                entry = (s,)        # s is Z
            else:
                entry = (parts[0], s) if model.layer_type == SAGE_MEAN else (s,)
        saved.append(entry)
        parts = None
        if layer == last:
            break
        # the row-local chain up to the next sparse product, a block at a time
        parts = _by_rows(n, _blocks(model, p, x, entry), lambda entry, rows: _operands(
            model, layer + 1, _hidden_rows(model, layer, entry, rows)))
    if transforms_first(model, last):
        logits = entry[0]
    else:
        [logits] = _by_rows(n, _blocks(model, p, x, entry),
                            lambda entry, rows: (_pre_activation_rows(model, last, entry, rows),))
    return BackwardTape(model=model, p=p, features=x, saved=saved, logits=logits)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over masked rows and its gradient w.r.t. the logits.

    Gradient rows outside the mask are exactly zero.
    """
    loss, rows, dz = _masked_loss(logits, labels, mask)
    return loss, _spread(rows, dz, logits.shape[0])


def _masked_loss(logits: np.ndarray, labels: np.ndarray,
                 mask: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean CE over masked rows, those rows, and the loss gradient on them,
    formed in place in one gathered copy of their logits; each row-sized
    vector dies once it has been read."""
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("training mask is empty")
    z = np.take(logits, rows, axis=0)
    # the row max over columns: exact, and faster than a reduce over short rows
    top = z[:, :1].copy()
    for col in range(1, z.shape[1]):
        np.maximum(top, z[:, col:col + 1], out=top)
    z -= top
    del top         # so it does not sit beside the exp and the gradient
    # each row's label entry, by its index into the flattened rows
    flat = np.take(labels, rows)
    flat += np.arange(0, z.size, z.shape[1])
    picked = np.take(z, flat)
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    z /= denom
    picked -= np.log(denom[:, 0], out=denom[:, 0])
    del denom
    loss = float(-picked.mean())
    del picked
    z.ravel()[flat] -= 1.0
    z /= rows.size
    return loss, rows, z


def _spread(rows: np.ndarray, dz: np.ndarray, n: int) -> np.ndarray:
    """The n-row gradient that is ``dz`` on ``rows`` and zero elsewhere."""
    grad = np.zeros((n, dz.shape[1]))
    grad[rows] = dz
    return grad


def _narrow_grad(model: GnnModel, h: np.ndarray, dz: np.ndarray | None,
                u: np.ndarray) -> np.ndarray:
    """A transform-first layer's gradient on a row block: H^T U (gcn) or
    [H^T delta ; H^T U] (sage)."""
    return np.vstack([h.T @ dz, h.T @ u]) if model.layer_type == SAGE_MEAN else h.T @ u


def _add_to(grads: list, layer: int, g: np.ndarray) -> None:
    """Sum a row block's gradient into ``grads[layer]`` (the first block is
    kept as it is, so a one-block pass is bitwise the whole-matrix one)."""
    grads[layer] = g if grads[layer] is None else grads[layer] + g


def _delta_rows(model: GnnModel, layer: int, h: np.ndarray, rows: slice,
                u: np.ndarray, carried: np.ndarray | None, grads: list) -> np.ndarray:
    """delta = dL/dZ of hidden ``layer`` on ``rows``, from its H = relu(Z)
    there and the layer above's U and sage term; adds the layer above's
    gradient if it transforms first."""
    sage = model.layer_type == SAGE_MEAN
    above = layer + 1
    w, d = model.weights[above], model.input_dim(above)
    mask = h > 0.0          # h = relu(Z) > 0 exactly where Z > 0
    if transforms_first(model, above):
        c = carried[rows] if sage else None
        _add_to(grads, above, _narrow_grad(model, h, c, u[rows]))
        del h
        dh = u[rows] @ (w[d:] if sage else w).T
        if sage:
            dh += c @ w[:d].T
    else:                   # a gcn dh is a view of U, which no later block reads
        del h
        dh = u[rows] + carried[rows] if sage else u[rows]
    return np.multiply(dh, mask, out=dh)


def loss_and_backward(tape: BackwardTape, labels: np.ndarray,
                      train_mask: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Loss plus per-layer weight gradients via the chain rule over the tape's
    P; consumes ``tape``: drops its logits once the loss has read them, before
    delta takes their size, and writes each layer's G over the entry rows it
    has read."""
    if tape.logits is None:
        raise ValueError("the backward tape was consumed by an earlier backward")
    model, p = tape.model, tape.p
    sage = model.layer_type == SAGE_MEAN
    n = tape.logits.shape[0]
    loss, rows, dz = _masked_loss(tape.logits, labels, train_mask)
    tape.logits = None
    if transforms_first(model, model.num_layers - 1):
        tape.saved[-1] = ()         # that layer's Z is the logits
    delta = _spread(rows, dz, n)
    del rows, dz
    grads: list = [None] * model.num_layers
    # from the layer above: U = P^T G and, for sage, delta (transform first)
    # or delta W_self^T (aggregate first)
    u = carried = None
    for layer in range(model.num_layers - 1, -1, -1):
        entry = tape.saved.pop()
        w, d = model.weights[layer], model.input_dim(layer)
        narrow = transforms_first(model, layer)
        if u is None and narrow:
            entry = (delta,)        # G is delta itself
        else:
            for rows, src, local in _blocks(model, p, tape.features, entry):
                dz = delta[rows] if u is None else _delta_rows(
                    model, layer, _hidden_rows(model, layer, src, local), rows, u, carried,
                    grads)
                if narrow:
                    entry[0][rows] = dz                 # G = delta, over Z
                else:
                    _add_to(grads, layer, _a_rows(src, local).T @ dz)
                    if layer > 0:   # G = delta W_agg^T over S, delta W_self^T over H
                        entry[-1][rows] = dz @ (w[d:] if sage else w).T
                        if sage:
                            entry[0][rows] = dz @ w[:d].T
                del dz
        delta = u = carried = None
        if layer == 0 and not narrow:
            break
        u = p.matrix.T @ entry[-1]
        carried = entry[0] if sage else None
        if layer == 0:
            grads[0] = _narrow_grad(model, tape.features, carried, u)
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
               labels: np.ndarray, train_mask: np.ndarray, learning_rate: float,
               aggregate: np.ndarray | None = None,
               tape: BackwardTape | None = None) -> float:
    """One full-batch forward/backward/update; returns the loss.
    ``aggregate`` is as for ``forward``.  A ``tape`` stands in for the
    step's own forward and is consumed; it must be an unconsumed forward of
    ``model`` over ``p`` and ``features`` at the current weights."""
    if tape is None:
        tape = forward(model, p, features, aggregate)
    elif tape.logits is None:
        raise ValueError("the backward tape was consumed by an earlier backward")
    elif tape.model is not model or tape.p is not p:
        raise ValueError("the backward tape was formed for another model or matrix")
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
