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

P is an operator that this module only multiplies: ``P @ Y``, ``P.T @ G``
and ``P.rows(panel) @ Y`` (``graphstore.PropagationMatrix``).  The dense
work between two sparse products is row-local, so it runs in blocks of
ROW_BLOCK rows, each written in place into the n-row result.

The one forward pass that training and eval share returns the tape: P, the
features, the logits, and per layer only n x min(d_in, d_out) arrays, S =
P H of an aggregate-first layer (and H for sage) or Z of a transform-first
one.  Layer 0's S is None when a forward handed no ``input_aggregate`` runs
over more than one panel (PANEL_BLOCKS row blocks): each reader forms it
again a panel at a time.  A sage layer that transforms first forms its Z
over its self term H W_self, adding P (H W_agg) a panel at a time.
Backward writes the loss gradient delta over the logits, propagates with
the tape's P, rebuilds Z, H and the relu mask from the tape a block at a
time, and writes the next G over the rows it has read, except in an
aggregate-first layer 0, whose entry may be the features or the read-only
aggregate.  Neither delta nor a sage Z takes an array of its own, and
backward consumes the tape.  A train step handed a tape runs no forward of
its own and consumes that tape.  The tape must be unconsumed and come from
``forward`` for the same model object at its current weights, over the
same P object and features; ``train_step`` refuses a consumed tape and one
of another model or P object; the weights and features it takes on trust.

Updates are plain gradient descent, W -= lr * grad, in float64.  README
"Models" and "Peak memory" give the reasons and measurements behind the
row blocks, the input aggregate, the panels and the in-place loss.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

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
    logits: np.ndarray | None   # the pass's output; backward writes delta over it


def row_blocks(n: int) -> list[slice]:
    """Slices of at most ROW_BLOCK rows covering ``n`` rows; a 1-row tail joins
    the block before it, so no block's dense product becomes a vector product."""
    bounds = list(range(0, max(n - 1, 1), ROW_BLOCK)) + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _panels(n: int):
    """Panels of PANEL_BLOCKS row blocks covering ``n`` rows: each panel's
    rows, then its row blocks."""
    blocks = row_blocks(n)
    for first in range(0, len(blocks), PANEL_BLOCKS):
        run = blocks[first:first + PANEL_BLOCKS]
        yield slice(run[0].start, run[-1].stop), run


def _blocks(model: GnnModel, p: PropagationMatrix, features: np.ndarray,
            entry: tuple[np.ndarray, ...] | None):
    """Per row block: its rows, then a tape entry and the block's rows in it.
    An entry of None is a layer 0 whose S = P X the tape does not hold: each
    panel of S, PANEL_BLOCKS row blocks, is formed from P's rows, stands in
    for the entry of its blocks, and dies once they have been read."""
    if entry is not None:
        for rows in row_blocks(len(features)):
            yield rows, entry, rows
        return
    for panel, run in _panels(len(features)):
        s = p.rows(panel) @ features
        entry = (features[panel], s) if model.layer_type == SAGE_MEAN else (s,)
        for rows in run:
            yield rows, entry, slice(rows.start - panel.start, rows.stop - panel.start)
        del s, entry


def _a_rows(entry: tuple[np.ndarray, ...], rows: slice) -> np.ndarray:
    """An aggregate-first layer's A on ``rows``: P H, or [H || P H] for sage."""
    return entry[0][rows] if len(entry) == 1 else np.concatenate(
        [x[rows] for x in entry], axis=1)


def _z(w: np.ndarray | None, entry: tuple[np.ndarray, ...], rows: slice,
       out: np.ndarray | None = None) -> np.ndarray:
    """Z on ``rows`` from a layer's tape entry and W: A W (into ``out`` if
    given), or, for a transform-first layer (W None), a view of its entry."""
    return entry[0][rows] if w is None else np.matmul(_a_rows(entry, rows), w, out=out)


def _hidden_rows(w: np.ndarray | None, entry: tuple[np.ndarray, ...], rows: slice,
                 out: np.ndarray | None = None) -> np.ndarray:
    """H = relu(Z) on ``rows``, as ``_z``, into ``out`` or a fresh array."""
    z = _z(w, entry, rows, out)
    return np.maximum(z, 0.0, out=out if w is None else z)     # z may view the tape


def _operand_weights(model: GnnModel, layer: int) -> tuple[np.ndarray, ...]:
    """What ``layer`` multiplies its input H by before P: nothing when it
    aggregates first, else W, or W_agg then W_self (sage's self term)."""
    if not transforms_first(model, layer):
        return ()
    w, d = model.weights[layer], model.input_dim(layer)
    return (w[d:], w[:d]) if model.layer_type == SAGE_MEAN else (w,)


def _chain(model: GnnModel, layer: int, p: PropagationMatrix, features: np.ndarray,
           entry: tuple[np.ndarray, ...] | None) -> list[np.ndarray]:
    """The row-local chain from ``layer``'s tape entry to the next sparse
    product: the logits, or the next layer's operands, H = relu(Z) or its
    products with ``_operand_weights``.  Each row block writes into the
    n-row outputs, and its temporaries die before the next block starts."""
    n, w = len(features), None if transforms_first(model, layer) else model.weights[layer]
    last = layer == model.num_layers - 1
    ws = () if last else _operand_weights(model, layer + 1)
    outs = None
    for rows, src, local in _blocks(model, p, features, entry):
        if not ws:
            outs = outs or [np.empty((n, model.weights[layer].shape[1]))]
            (_z if last else _hidden_rows)(w, src, local, outs[0][rows])
            continue
        h = _hidden_rows(w, src, local)
        outs = outs or [np.empty((n, wk.shape[1])) for wk in ws]
        for out, wk in zip(outs, ws):
            np.matmul(h, wk, out=out[rows])
        del h
    return outs


def _z_rows(tape: BackwardTape, layer: int):
    """Z of ``layer`` a row block at a time, rebuilt from ``tape``."""
    w = None if transforms_first(tape.model, layer) else tape.model.weights[layer]
    for _, entry, rows in _blocks(tape.model, tape.p, tape.features, tape.saved[layer]):
        yield _z(w, entry, rows)


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
    s = p @ np.asarray(features, dtype=np.float64)
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
    parts = [x @ w for w in _operand_weights(model, 0)] or [x]
    # past one panel, a layer 0 that aggregates first holds no S = P X of its
    # own: every reader forms it again a panel at a time
    stream = (aggregate is None and not transforms_first(model, 0)
              and len(row_blocks(n)) > PANEL_BLOCKS)
    for layer in range(model.num_layers):
        if layer == 0 and stream:
            entry = None
        elif len(parts) > 1:
            # sage transforming first: Z = P (H W_agg) + H W_self, formed a
            # panel at a time over the self term
            agg, z = parts
            for panel, _ in _panels(n):
                z[panel] += p.rows(panel) @ agg
            entry = (z,)
            del agg, z
        else:
            s = p @ parts[0] if layer or aggregate is None else aggregate
            # a transform-first gcn layer's s is Z
            entry = (parts[0], s) if model.layer_type == SAGE_MEAN else (s,)
        saved.append(entry)
        parts = None
        if layer == last:
            break
        parts = _chain(model, layer, p, x, entry)
    logits = entry[0] if transforms_first(model, last) else _chain(model, last, p, x, entry)[0]
    return BackwardTape(model=model, p=p, features=x, saved=saved, logits=logits)


def cross_entropy_in_place(logits: np.ndarray, labels: np.ndarray,
                           mask: np.ndarray) -> float:
    """Mean CE over the masked rows of C-ordered float64 ``logits``, finite
    outside the mask; writes the loss gradient over ``logits``, zero outside
    the mask.

    Every row goes through the same row-local steps, in place: shift by the
    row max, exp, divide by the row sum (by inf outside the mask, which
    leaves +0), and after 1 is subtracted at each masked row's label, divide
    by the masked row count.  A masked row gets the bits it would get in a
    gathered copy of the masked rows.  The loss reads the label entries and
    the row sums of the masked rows only; each row-sized vector dies once it
    has been read.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("training mask is empty")
    z, c = logits, logits.shape[1]

    def label_entries() -> np.ndarray:
        """Each masked row's label entry, by its index into the flattened rows."""
        flat = rows * c
        flat += np.take(labels, rows)
        return flat

    cols = [z[:, col] for col in range(c)]
    # the row max and the shift a column at a time: exact, and faster than
    # a reduce or a broadcast over short rows
    top = cols[0].copy()
    for col in cols[1:]:
        np.maximum(top, col, out=top)
    for col in cols:
        col -= top
    del top
    # the index dies here and is formed again below, so it does not sit
    # beside the row sums
    picked = np.take(z, label_entries())
    np.exp(z, out=z)
    # numpy's sum over a row of under 8 entries adds them left to right, as
    # this column loop does, and faster; longer rows add pairwise
    if c < 8:
        denom = cols[0].copy()
        for col in cols[1:]:
            denom += col
    else:
        denom = z.sum(axis=1)
    log_denom = np.take(denom, rows)
    denom.fill(np.inf)      # outside the mask z / inf leaves +0
    denom[rows] = log_denom
    z /= denom[:, None]
    del denom
    picked -= np.log(log_denom, out=log_denom)
    del log_denom
    loss = float(-picked.mean())
    del picked
    z.ravel()[label_entries()] -= 1.0
    z /= rows.size
    return loss


def _add_grad(grads: list, layer: int, x: np.ndarray, parts: tuple[np.ndarray, ...]) -> None:
    """Add a row block's [x^T part ; ...] into ``grads[layer]``, which starts
    at zeros: A^T delta, H^T U or [H^T delta ; H^T U]."""
    d = x.shape[1]
    if grads[layer] is None:
        grads[layer] = np.zeros((d * len(parts), parts[0].shape[1]))
    for k, part in enumerate(parts):
        grads[layer][k * d:(k + 1) * d] += x.T @ part


def _delta_rows(h: np.ndarray, u: np.ndarray, carried: np.ndarray | None,
                above: tuple, grads: list) -> np.ndarray:
    """delta = dL/dZ of a hidden layer on a row block, from its H = relu(Z) and
    the rows of U and sage term from ``above``: that layer's index, whether
    it transforms first (then its gradient is added), W_agg^T and W_self^T."""
    layer, narrow, agg_t, self_t = above
    mask = h > 0.0          # h = relu(Z) > 0 exactly where Z > 0
    if narrow:
        _add_grad(grads, layer, h, (u,) if carried is None else (carried, u))
        del h
        dh = u @ agg_t
        if self_t is not None:
            dh += carried @ self_t
    else:                   # a gcn dh is a view of U, which no later block reads
        del h
        dh = u if carried is None else u + carried
    return np.multiply(dh, mask, out=dh)


def loss_and_backward(tape: BackwardTape, labels: np.ndarray,
                      train_mask: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Loss plus per-layer weight gradients via the chain rule over the tape's
    P; consumes ``tape``: writes delta over its logits, and each layer's G
    over the entry rows it has read."""
    if tape.logits is None:
        raise ValueError("the backward tape was consumed by an earlier backward")
    model, p = tape.model, tape.p
    sage = model.layer_type == SAGE_MEAN
    loss = cross_entropy_in_place(tape.logits, labels, train_mask)
    delta, tape.logits = tape.logits, None
    if transforms_first(model, model.num_layers - 1):
        tape.saved[-1] = ()         # that layer's Z was the logits
    grads: list = [None] * model.num_layers
    # from the layer above: U = P^T G and, for sage, delta (transform first)
    # or delta W_self^T (aggregate first); then ``_delta_rows``' constants
    u = carried = above = None
    for layer in range(model.num_layers - 1, -1, -1):
        entry = tape.saved.pop()
        w, d = model.weights[layer], model.input_dim(layer)
        narrow = transforms_first(model, layer)
        agg_t, self_t = (w[d:].T, w[:d].T) if sage else (w.T, None)
        if u is None and narrow:
            entry = (delta,)        # G is delta itself
        else:
            w_z = None if narrow else w
            for rows, src, local in _blocks(model, p, tape.features, entry):
                dz = delta[rows] if u is None else _delta_rows(
                    _hidden_rows(w_z, src, local), u[rows],
                    None if carried is None else carried[rows], above, grads)
                if narrow:
                    entry[0][rows] = dz                 # G = delta, over Z
                else:
                    _add_grad(grads, layer, _a_rows(src, local), (dz,))
                    if layer > 0:   # G = delta W_agg^T over S, delta W_self^T over H
                        np.matmul(dz, agg_t, out=entry[-1][rows])
                        if sage:
                            np.matmul(dz, self_t, out=entry[0][rows])
                del dz
        delta = u = carried = None
        above = (layer, narrow, agg_t, self_t)
        if layer == 0 and not narrow:
            break
        u = p.T @ entry[-1]
        carried = entry[0] if sage else None
        if layer == 0:
            _add_grad(grads, 0, tape.features, (u,) if carried is None else (carried, u))
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
    """Macro F1 over the (non-negative) classes present in truth or
    prediction, in ascending order; per class, 2 tp + fp + fn = predicted +
    true count."""
    size = max(y_true.max(initial=-1), y_pred.max(initial=-1)) + 1
    if size == 0:
        return 0.0
    denom = np.bincount(y_pred, minlength=size) + np.bincount(y_true, minlength=size)
    classes = np.flatnonzero(denom)
    tp = np.bincount(y_true[y_true == y_pred], minlength=size)[classes]
    return float(np.mean(2.0 * tp / denom[classes]))


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
