"""Training orchestration: single runs, baselines, and comparisons.

A run trains one model for ``epochs`` full-batch steps.  Three modes:

* ``spangnn``: the scheduler grows the spanning subgraph each epoch and
  the model trains on the grown subgraph's propagation matrix.
* ``dropedge``: each epoch trains on ``random_drop`` of the ORIGINAL edge
  set, an independent uniform subset that keeps a (1 - beta) fraction;
  nothing carries over between epochs.
* ``full``: every epoch trains on the full graph, with the matrix built in
  epoch 0; each later step consumes the previous eval's tape, which is
  exactly its forward.

Evaluation always uses the full-graph propagation matrix, and every
full-graph forward reads the first layer's aggregate, formed once in setup
(README "Models").  One metrics row is emitted per epoch; timing columns
hold integer milliseconds from a monotonic clock and can be suppressed
(written as 0) for byte-identical reproducibility comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import embedding_variance, gradient_noise, memory_proxy
from .errors import ConfigError, DataError
from .gnn import (
    GCN,
    LAYER_TYPES,
    PROPAGATION_KIND,
    BackwardTape,
    GnnModel,
    forward,
    init_model,
    input_aggregate,
    macro_f1,
    save_weights,
    train_step,
)
from .graphstore import Graph, SpanningSubgraph, build_propagation, load_dataset, load_graph
from .sampler import SAMPLER_KINDS, make_weights, uniform_weights
from .scheduler import ScheduleConfig, init_schedule, random_drop, step_epoch
from .seeding import derive_seed, spawn_rng
from .synthetic import GeneratorSpec, make_graph

BASELINES = ("spangnn", "dropedge", "full")

# compare variant name -> the RunConfig fields it sets
VARIANTS = {
    "spangnn-vm": dict(baseline="spangnn", sampler_kind="vm"),
    "spangnn-gnr": dict(baseline="spangnn", sampler_kind="gnr"),
    "spangnn-uniform": dict(baseline="spangnn", sampler_kind="uniform"),
    "dropedge": dict(baseline="dropedge"),
    "full": dict(baseline="full"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs.

    Exactly one of ``data_dir`` / the four file paths / ``generator`` must
    describe the dataset; ``load_run_graph`` checks that.
    """

    data_dir: str | None = None
    edges_path: str | None = None
    features_path: str | None = None
    labels_path: str | None = None
    splits_path: str | None = None
    generator: GeneratorSpec | None = None

    model: str = GCN
    hidden_dim: int = 64
    num_layers: int = 2
    learning_rate: float = 0.2
    epochs: int = 200

    alpha_up: float = 0.5
    beta: float = 0.1
    s1: int | None = None       # default: |E| // 10
    s2: int | None = None       # default: |E| // 40
    sampler_kind: str = "vm"
    baseline: str = "spangnn"

    seed: int = 0
    out_dir: str | None = None
    timings: bool = True
    diag_every: int = 0         # 0 disables diagnostics rows
    diag_samples: int = 16

    def validate(self) -> None:
        if self.model not in LAYER_TYPES and self.model != "sage":
            raise ConfigError(f"unknown model {self.model!r}")
        if self.baseline not in BASELINES:
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler {self.sampler_kind!r}")
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ConfigError("hidden_dim and num_layers must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.diag_every < 0:
            raise ConfigError(f"diag_every must be >= 0, got {self.diag_every}")
        if self.diag_every and self.diag_samples < 2:
            raise ConfigError(
                f"diagnostics need diag_samples >= 2, got {self.diag_samples}")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")

    @property
    def layer_type(self) -> str:
        return "sage-mean" if self.model == "sage" else self.model


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float
    val_macro_f1: float
    edge_ratio: float
    active_edges: int
    sampling_time_ms: int
    train_time_ms: int
    peak_edges_so_far: int

    def row(self, timings: bool = True) -> list:
        return [
            self.epoch,
            repr(self.loss),
            f"{self.train_acc:.6f}",
            f"{self.val_acc:.6f}",
            f"{self.val_macro_f1:.6f}",
            repr(self.edge_ratio),
            self.active_edges,
            self.sampling_time_ms if timings else 0,
            self.train_time_ms if timings else 0,
            self.peak_edges_so_far,
        ]


METRIC_COLUMNS = tuple(f.name for f in fields(EpochMetrics))


@dataclass
class RunResult:
    config: RunConfig
    metrics: list[EpochMetrics]
    model: GnnModel
    best_val_acc: float
    best_val_macro_f1: float
    peak_directed_edges: int
    diagnostics: list[list] = field(default_factory=list)

    @property
    def mean_sampling_time_ms(self) -> float:
        return float(np.mean([m.sampling_time_ms for m in self.metrics]))


def load_run_graph(cfg: RunConfig) -> Graph:
    """The dataset of ``cfg``'s one source: a data directory, the four file
    paths, or a generator; zero, two or partial sources are a ConfigError."""
    paths = {"edges": cfg.edges_path, "features": cfg.features_path,
             "labels": cfg.labels_path, "splits": cfg.splits_path}
    given = [cfg.data_dir is not None, any(v is not None for v in paths.values()),
             cfg.generator is not None]
    if sum(given) != 1:
        raise ConfigError("configure exactly one dataset source: a data directory, "
                          "explicit file paths, or a generator spec")
    if cfg.generator is not None:
        return make_graph(cfg.generator)
    if cfg.data_dir is not None:
        return load_dataset(cfg.data_dir)
    missing = [name for name, v in paths.items() if v is None]
    if missing:
        raise ConfigError(f"missing dataset paths: {', '.join(missing)}")
    return load_graph(*paths.values())


def resolve_sample_sizes(cfg: RunConfig, num_edges: int) -> tuple[int, int]:
    """Fill in defaults; explicit values are left for validation to reject."""
    s1 = cfg.s1 if cfg.s1 is not None else max(1, num_edges // 10)
    s2 = cfg.s2 if cfg.s2 is not None else max(1, min(s1, num_edges // 40))
    return s1, s2


def _now_ms() -> int:
    return time.perf_counter_ns() // 1_000_000


def make_out_dir(path, outputs=()) -> Path:
    """Create an output directory (and its parents) and check that each file
    named in ``outputs`` can be opened for writing there; raise ConfigError
    if either fails.  A file that the check creates is removed again, so a
    run that fails later leaves none behind."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    for name in outputs:
        existed = (out / name).exists()
        try:
            open(out / name, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
        if not existed:
            (out / name).unlink()
    return out


def run_training(cfg: RunConfig, graph: Graph | None = None) -> RunResult:
    """Run one training configuration end to end.

    Pass ``graph`` to reuse an already-loaded dataset (the compare driver
    does this so every variant sees identical data).
    """
    cfg.validate()
    g = graph if graph is not None else load_run_graph(cfg)
    if g.num_edges == 0 and (cfg.baseline != "full" or cfg.diag_every):
        raise ConfigError("edge sampling and diagnostics require a graph with "
                          "at least one edge")
    if not g.train_mask.any():
        raise DataError("the dataset has no nodes in the train split")
    model = init_model(cfg.layer_type, g.feature_dim, cfg.hidden_dim,
                       max(g.num_classes, 2), cfg.num_layers, seed=cfg.seed)
    out = None
    if cfg.out_dir is not None:
        out = make_out_dir(cfg.out_dir, ("metrics.csv", "checkpoint.spgw")
                           + ("diagnostics.csv",) * bool(cfg.diag_every))

    kind = PROPAGATION_KIND[cfg.layer_type]
    p_full = build_propagation(SpanningSubgraph.full(g), kind)

    probs = None
    if cfg.baseline == "spangnn":
        probs = make_weights(cfg.sampler_kind, g, p_full)
        s1, s2 = resolve_sample_sizes(cfg, g.num_edges)
        sched_cfg = ScheduleConfig(
            alpha_up=cfg.alpha_up, beta=cfg.beta, s1=s1, s2=s2,
            sampler_kind=cfg.sampler_kind, epochs=cfg.epochs, seed=cfg.seed,
        )
        sched_state = init_schedule(g, sched_cfg)
    # after make_weights, so it does not sit beside gnr's transients
    px_full = input_aggregate(model, p_full, g.features)

    full = cfg.baseline == "full"
    tape = None     # full, after epoch 0: the last eval's forward
    val_rows = np.flatnonzero(g.val_mask)
    metrics: list[EpochMetrics] = []
    diagnostics: list[list] = []
    most_active = 0     # the largest active edge count so far
    best_acc = 0.0
    best_f1 = 0.0

    for epoch in range(cfg.epochs):
        t0 = _now_ms()
        if cfg.baseline == "spangnn":
            sched_state = step_epoch(sched_state, g, probs, sched_cfg)
            sub = sched_state.subgraph
        elif cfg.baseline == "dropedge":
            sub = random_drop(SpanningSubgraph.full(g), cfg.beta,
                              partial(spawn_rng, cfg.seed, epoch, "dropedge"))
        else:
            sub = SpanningSubgraph.full(g)
        t1 = _now_ms()

        if not full:
            p_train = build_propagation(sub, kind)
        elif epoch == 0:
            # equals the setup's P bit for bit and replaces it; built, not
            # reused, only because perfbench's EpochClock starts epoch 0 at
            # the second build_propagation call
            p_full = p_train = build_propagation(sub, kind)
        # full's forward reads the cache; after epoch 0 its step trains from
        # the last eval's tape, the forward it would repeat
        loss = train_step(model, p_train, g.features, g.labels, g.train_mask,
                          cfg.learning_rate, px_full if full else None, tape)
        t2 = _now_ms()

        train_acc, val_acc, val_f1, tape = _evaluate(model, p_full, g, px_full, val_rows)
        if not full:
            tape = None     # only full's next step reads it
        best_acc = max(best_acc, val_acc)
        best_f1 = max(best_f1, val_f1)

        active = sub.active_count
        most_active = max(most_active, active)
        peak = memory_proxy((most_active,), g.num_nodes, per_edge_bytes=8 * cfg.hidden_dim)
        metrics.append(EpochMetrics(
            epoch=epoch,
            loss=loss,
            train_acc=train_acc,
            val_acc=val_acc,
            val_macro_f1=val_f1,
            edge_ratio=sub.edge_ratio,
            active_edges=active,
            sampling_time_ms=int(t1 - t0),
            train_time_ms=int(t2 - t1),
            peak_edges_so_far=peak.peak_directed_edges,
        ))

        if cfg.diag_every and (epoch % cfg.diag_every == 0 or epoch == cfg.epochs - 1):
            diagnostics.append(_diagnostics_row(
                cfg, g, model, p_full, px_full, p_train, active, probs, epoch,
                peak.peak_directed_edges))
        if not full:
            del p_train     # so the next epoch's build does not sit beside it

    proxy = memory_proxy((most_active,), g.num_nodes, per_edge_bytes=8 * cfg.hidden_dim)
    result = RunResult(
        config=cfg,
        metrics=metrics,
        model=model,
        best_val_acc=best_acc,
        best_val_macro_f1=best_f1,
        peak_directed_edges=proxy.peak_directed_edges,
        diagnostics=diagnostics,
    )
    if out is not None:
        write_csv(out / "metrics.csv", METRIC_COLUMNS,
                  [m.row(timings=cfg.timings) for m in metrics])
        save_weights(out / "checkpoint.spgw", model)
        if diagnostics:
            write_csv(out / "diagnostics.csv", diag_columns(cfg.num_layers), diagnostics)
    return result


def _evaluate(model: GnnModel, p_full, g: Graph, aggregate,
              val_rows: np.ndarray) -> tuple[float, float, float, BackwardTape]:
    """Train accuracy, val accuracy and val macro-F1 (on ``val_rows``) of a
    full-graph forward that reads the run's ``input_aggregate``, then that
    forward's tape.  The predictions die on return; the tape, logits
    included, lives as long as the caller keeps it."""
    tape = forward(model, p_full, g.features, aggregate)
    pred = np.argmax(tape.logits, axis=1)
    hits = np.equal(pred, g.labels)
    hits &= g.train_mask
    train_acc = float(np.count_nonzero(hits) / np.count_nonzero(g.train_mask))
    if not val_rows.size:
        return train_acc, 0.0, 0.0, tape
    truth, picked = np.take(g.labels, val_rows), np.take(pred, val_rows)
    val_acc = float(np.count_nonzero(picked == truth) / val_rows.size)
    return train_acc, val_acc, macro_f1(truth, picked), tape


def _diagnostics_row(cfg: RunConfig, g: Graph, model: GnnModel, p_full, px_full,
                     p_train, active: int, probs, epoch: int, peak: int) -> list:
    """One diagnostics.csv row (``diag_columns``) from the epoch's matrices and
    the run's ``input_aggregate``.  ``full``'s ``p_train`` is ``p_full``, so
    its noise and Z-difference norms are 0.0 without the passes."""
    if cfg.baseline == "full":
        noise, z_diff = [0.0] * cfg.num_layers, 0.0
    else:
        report = gradient_noise(model, p_full, p_train, g.features, g.labels,
                                g.train_mask, px_full)
        noise, z_diff = report.noise_norms, report.total_z_diff_norm
    if probs is None:
        probs = uniform_weights(g)
    var = embedding_variance(
        g, p_full, probs, max(1, active), cfg.diag_samples, g.features,
        model.weights[0][-g.feature_dim:, :],  # W_agg for sage, all of W for gcn
        seed=derive_seed(cfg.seed, epoch, "diag"),
    )
    sampler = cfg.sampler_kind if cfg.baseline == "spangnn" else cfg.baseline
    return [epoch, sampler, *map(repr, noise), repr(z_diff),
            repr(var.estimator_variance), peak]


def diag_columns(num_layers: int) -> list[str]:
    return (["epoch", "sampler"] + [f"noise_norm_l{i}" for i in range(num_layers)]
            + ["z_diff_norm", "var_xi", "peak_edges"])


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells (each written with ``str``) as CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def variant_config(base: RunConfig, name: str) -> RunConfig:
    """Translate a variant name into a concrete run configuration."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from {tuple(VARIANTS)}")
    return replace(base, out_dir=None,
                   seed=derive_seed(base.seed, "variant", name), **VARIANTS[name])


def summary_lines(results: dict[str, RunResult], variants: list[str]) -> list[str]:
    """Header and one row per variant, as summary.csv holds and compare prints.

    The sampling-time column reads 0 for runs made without timings.
    """
    lines = ["variant,best_val_acc,best_val_macro_f1,peak_directed_edges,"
             "mean_sampling_time_ms"]
    for name in variants:
        r = results[name]
        ms = r.mean_sampling_time_ms if r.config.timings else 0.0
        lines.append(f"{name},{r.best_val_acc:.6f},{r.best_val_macro_f1:.6f},"
                     f"{r.peak_directed_edges},{ms:.3f}")
    return lines


def run_compare(cfg: RunConfig, variants: list[str]) -> dict[str, RunResult]:
    """Run several variants on the same data and write combined outputs.

    The dataset is materialized once from ``cfg`` (shared data seed);
    each variant trains with its own derived seed.  Writes combined.csv,
    summary.csv, and diagnostics.csv (when enabled) under cfg.out_dir.
    """
    if len(variants) < 2:
        raise ConfigError("compare needs at least 2 variants")
    cfg.validate()
    g = load_run_graph(cfg)
    out = None
    if cfg.out_dir is not None:
        out = make_out_dir(cfg.out_dir, ("combined.csv", "summary.csv")
                           + ("diagnostics.csv",) * bool(cfg.diag_every))
    results: dict[str, RunResult] = {}
    for name in variants:
        if name in results:
            continue
        results[name] = run_training(variant_config(cfg, name), graph=g)

    if out is not None:
        write_csv(out / "combined.csv", ("variant", *METRIC_COLUMNS),
                  [[name, *m.row(timings=cfg.timings)]
                   for name in variants for m in results[name].metrics])
        with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(line + "\n" for line in summary_lines(results, variants)))
        diag_rows = [row for name in variants for row in results[name].diagnostics]
        if diag_rows:
            write_csv(out / "diagnostics.csv", diag_columns(cfg.num_layers), diag_rows)
    return results
