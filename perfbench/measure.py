"""Measurement passes for the training and the sampling workloads.

End-to-end numbers come from runs whose only hooks are the EpochClock's
boundary stamps; on calibrated workloads they are rescaled by a
Metronome whose readings sit between epochs, calls and blocks.  Per-layer
numbers come from separate traced runs, which alternate with untraced
ones so that their ratio is the tracing overhead; they are not
calibrated.  tracemalloc runs only in its own untimed pass, which also
warms the process up before anything is timed.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from statistics import median

import numpy as np

from spangraph import graphstore, runner, sampler, scheduler, synthetic
from spangraph.seeding import derive_seed

from hooks import (EPOCH_HOOKS, SCHEDULER_HOOKS, TRAINING_HOOKS, BenchError,
                   EpochClock, Patches, PeakMeter, Tracer, check_samples,
                   now, valid_sample)
from metronome import Metronome
from workloads import Workload, dataset_dir

PROBE_SHARE = 0.2       # of a training run's --seconds spent on the probe
SAMPLING_SETUPS = 15    # make_weights repetitions behind setup_s on sample-1m
PROBE_BLOCK = 100       # sampler-call pairs per block: ten beyond the p90
MIN_BLOCKS = (2, 3)     # fewest timed and probe blocks behind an end-to-end timing
MB = 1e6


class Checks:
    """Checked operations: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed[what] += 1

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def _same_prefix(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


# --- training workloads --------------------------------------------------

def training_inputs(w: Workload, seed: int, cache):
    data_dir = dataset_dir(w, seed, cache) if w.on_disk else None
    cfg = w.config(seed, data_dir)
    g = graphstore.load_dataset(data_dir) if data_dir else synthetic.make_graph(w.spec(seed))
    return cfg, g


class RunChecks:
    """Per-epoch invariants of training runs, and reruns agreeing exactly."""

    def __init__(self, checks: Checks, w: Workload, cfg, g):
        self.checks = checks
        self.floor = w.acc_floor
        self.epochs = cfg.epochs
        m = g.num_edges
        self.cap = math.floor(cfg.alpha_up * m + 1e-9) if cfg.baseline == "spangnn" else m
        self.reference: list = []
        self.best_val_acc = 0.0

    def __call__(self, result) -> list:
        check = self.checks.check
        for row in result.metrics:
            check(row.active_edges <= self.cap, "active edges above floor(alpha_up*|E|)")
            check(math.isfinite(row.loss), "non-finite training loss")
        if len(result.metrics) == self.epochs:
            check(result.best_val_acc >= self.floor, f"best_val_acc below its floor {self.floor}")
        seq = [(m.loss, m.val_acc) for m in result.metrics]
        check(_same_prefix(seq, self.reference), "a rerun of the same run differs")
        if len(seq) >= len(self.reference):
            self.reference, self.best_val_acc = seq, result.best_val_acc
        return seq


def memory_pass(w: Workload, cfg, checks: Checks, layer_hooks=(), metronome=None):
    """Run ``peak_epochs`` epochs with tracemalloc on the epoch loop only.

    Returns the run's result, its PeakMeter and its setup interval, which
    is the process's first (cold) setup.  ``metronome`` takes readings
    just before the setup and just after it, never while tracemalloc runs.
    """
    epochs = w.peak_epochs
    meter = PeakMeter()

    def start(_t):
        if metronome is not None:
            metronome.tick(force=True)
        meter.start()

    def stop_after_last(i, _t):
        if i == epochs - 1:
            meter.stop()

    if metronome is not None:
        metronome.tick(force=True)

    try:
        with Patches() as patches:
            check_samples(patches, checks)
            for module, attr, name in layer_hooks:
                patches.wrap(module, attr, meter.wrapper(name))
            clock = EpochClock(epochs, on_start=start, on_epoch_end=stop_after_last)
            clock.install(patches)
            result = clock.run(replace(cfg, epochs=epochs))
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    return result, meter, clock.setup_span


def timed_run(cfg, metronome: Metronome | None = None):
    clock = EpochClock(cfg.epochs,
                       on_epoch_end=(lambda i, t: metronome.tick()) if metronome else None)
    with Patches() as patches:
        clock.install(patches)
        return clock.run(cfg), clock


def probe_inputs(cfg, g):
    p_full = None
    if cfg.sampler_kind == sampler.GNR:
        p_full = graphstore.build_propagation(graphstore.SpanningSubgraph.full(g),
                                              graphstore.GCN_SYMMETRIC)
    probs = sampler.make_weights(cfg.sampler_kind, g, p_full)
    return probs, *runner.resolve_sample_sizes(cfg, g.num_edges)


class Probe:
    """Alternating two_step_sample(s1, s2) and direct_sample(s2) calls.

    ``block()`` makes PROBE_BLOCK pairs and records each call's
    (start_ns, end_ns); the very first pair is an untimed warm-up.  A
    ``metronome`` gets a tick between pairs.
    """

    def __init__(self, g, probs, s1: int, s2: int, seed: int, checks: Checks,
                 tracer: Tracer | None = None, metronome: Metronome | None = None):
        self.g, self.probs, self.s1, self.s2, self.seed = g, probs, s1, s2, seed
        self.checks = checks
        self.call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))
        self.tick = metronome.tick if metronome else (lambda: None)
        self.two: list[tuple[int, int]] = []
        self.direct: list[tuple[int, int]] = []
        self.pairs = -1

    def block(self) -> None:
        g, s2, call = self.g, self.s2, self.call
        for _ in range(PROBE_BLOCK + (self.pairs < 0)):
            i = self.pairs
            req = sampler.SampleRequest(self.s1, s2, derive_seed(self.seed, "probe", i, "two-step"))
            t0 = now()
            a = call("sampler.two_step_sample", sampler.two_step_sample, g, self.probs, req)
            t1 = now()
            b = call("sampler.direct_sample", sampler.direct_sample, g, self.probs, s2,
                     derive_seed(self.seed, "probe", i, "direct"))
            t2 = now()
            self.checks.check(valid_sample(a, s2, g.num_edges),
                              "two_step_sample returned an invalid sample")
            self.checks.check(valid_sample(b, s2, g.num_edges),
                              "direct_sample returned an invalid sample")
            if i >= 0:
                self.two.append((t0, t1))
                self.direct.append((t1, t2))
            self.pairs += 1
            self.tick()


def interleave(seconds: float, probe_share: float, timed_block, probe: Probe,
               min_blocks: tuple[int, int] = MIN_BLOCKS, metronome: Metronome | None = None):
    """Alternate timed blocks and probe blocks for ``seconds``.

    The probe gets ``probe_share`` of the time, so both kinds of block are
    spread over the whole run instead of sitting in one stretch of it.
    Timed and probe blocks run at least ``min_blocks`` times each.  A
    ``metronome`` gets a tick before every block and a reading after the
    last.
    """
    tick = metronome.tick if metronome else (lambda force=False: None)
    spent = [0, 0]
    counts = [0, 0]
    start = now()
    while (counts[0] < min_blocks[0] or counts[1] < min_blocks[1]
           or now() - start < seconds * 1e9):
        kind = int(spent[1] < probe_share * sum(spent))
        tick()
        t0 = now()
        (probe.block if kind else timed_block)()
        spent[kind] += now() - t0
        counts[kind] += 1
    tick(force=True)


def pooled(blocks: list[list]) -> list:
    """Every sample of repeated blocks of identical work, in one list.

    A block is one training run, one schedule, or PROBE_BLOCK sampler-call
    pairs.
    """
    return [t for block in blocks for t in block]


def durations(intervals) -> list[float]:
    return [(t1 - t0) / 1e9 for t0, t1 in intervals]


def _timing_metrics(w: Workload, setups, blocks, probe: Probe, peak_bytes,
                    metronome: Metronome, what: str) -> tuple[dict, dict]:
    """End-to-end timings, and the readings and wall medians beside them.

    On calibrated workloads, setups are calibrated by the python kernel,
    sampler calls by the numpy kernel, and epochs, which mix both kinds of
    code, by both; elsewhere all timings are wall seconds.
    """
    def scale(intervals, *kernels):
        return metronome.seconds(intervals, kernels) if w.calibrated else durations(intervals)

    spans = pooled(blocks)
    epochs = scale(spans, "python", "numpy")
    two = [t * 1e3 for t in scale(probe.two, "numpy")]
    direct = [t * 1e3 for t in scale(probe.direct, "numpy")]
    epoch_note = f"{len(epochs)} epochs pooled from {len(blocks)} {what}s"
    call_note = f"{len(two)} calls pooled from {len(two) // PROBE_BLOCK} blocks"
    metrics = {
        "setup_s": (median(scale(setups, "python")), f"median of {len(setups)} setups"),
        "epoch_s": (median(epochs), f"median epoch, {epoch_note}"),
        "epoch_s_p75": (pct(epochs, 75), f"p75 epoch, {epoch_note}"),
        "peak_mb": (peak_bytes / MB, "tracemalloc peak over the loop, untimed pass"),
        "sample_ms": (median(two), f"median two_step_sample call, {call_note}"),
        "sample_ms_p90": (median(pct(two[i:i + PROBE_BLOCK], 90)
                                 for i in range(0, len(two), PROBE_BLOCK)),
                          f"median over blocks of a block's p90 two_step_sample call, {call_note}"),
        "direct_ms": (median(direct), f"median direct_sample call, {call_note}"),
    }
    detail = {f"metronome.{name}_us": median(readings) / 1e3
              for name, readings in metronome.kernel_ns.items()}
    detail["metronome.readings"] = len(metronome.at)
    if w.calibrated:
        detail.update({
            "wall.setup_s": median(durations(setups)),
            "wall.epoch_s": median(durations(spans)),
            "wall.sample_ms": median(durations(probe.two)) * 1e3,
            "wall.direct_ms": median(durations(probe.direct)) * 1e3,
        })
    return metrics, detail


def training_end_to_end(w: Workload, seed: int, seconds: float, cache,
                        checks: Checks) -> tuple[dict, dict]:
    cfg, g = training_inputs(w, seed, cache)
    verify = RunChecks(checks, w, cfg, g)
    metronome = Metronome()
    result, meter, setup = memory_pass(w, cfg, checks, metronome=metronome)
    verify(result)
    setups = [setup]
    blocks: list[list[tuple[int, int]]] = []

    def timed_block():
        result, clock = timed_run(cfg, metronome)
        setups.append(clock.setup_span)
        blocks.append(clock.epoch_spans)
        verify(result)

    probe = Probe(g, *probe_inputs(cfg, g), seed, checks, metronome=metronome)
    interleave(seconds, PROBE_SHARE, timed_block, probe, metronome=metronome)
    metrics, detail = _timing_metrics(w, setups, blocks, probe, meter.window, metronome,
                                      "training run")
    return metrics, {"best_val_acc": verify.best_val_acc, **detail}


def training_per_layer(w: Workload, seed: int, seconds: float, cache,
                       checks: Checks) -> tuple[dict, Tracer]:
    cfg, g = training_inputs(w, seed, cache)
    verify = RunChecks(checks, w, cfg, g)
    result, meter, _ = memory_pass(w, cfg, checks, layer_hooks=[
        (runner, "train_step", "gnn.train_step"), (runner, "forward", "gnn.forward_eval")])
    verify(result)
    tracer = Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []

    def timed_pair():
        result, clock = timed_run(cfg)
        untraced.append(clock.epoch_s)
        plain = verify(result)
        with Patches() as patches:
            tracer.install(patches, TRAINING_HOOKS)
            result, clock = tracer.traced_run(cfg)
        traced.append(clock.epoch_s)
        checks.check(verify(result) == plain, "traced run differs from the untraced run")

    interleave(seconds, PROBE_SHARE, timed_pair,
               Probe(g, *probe_inputs(cfg, g), seed, checks, tracer), min_blocks=(1, 1))

    spangnn = cfg.baseline == "spangnn"
    expected = [name for _, _, name in EPOCH_HOOKS
                if spangnn or name != "scheduler.step_epoch"]
    expected.append("graphstore.load_dataset" if w.on_disk else "synthetic.make_graph")
    if spangnn:
        expected.append("sampler.make_weights")
        expected += [name for _, _, name in SCHEDULER_HOOKS]
    extra = {
        "gnn.train_step.peak_mb": meter.layers.get("gnn.train_step", 0) / MB,
        "gnn.forward_eval.peak_mb": meter.layers.get("gnn.forward_eval", 0) / MB,
        "diagnostics.memory_proxy.bytes_estimate": tracer.proxy_bytes,
        "diagnostics.memory_proxy.measured_over_estimate":
            meter.window / tracer.proxy_bytes if tracer.proxy_bytes else 0.0,
        "trace_overhead": median(pooled(traced)) / median(pooled(untraced)),
        "best_val_acc": verify.best_val_acc,
    }
    return _layer_metrics(tracer, expected, extra, checks), tracer


# --- the sampling workload -----------------------------------------------

def schedule_run(g, probs, cfg, step=scheduler.step_epoch, tick=lambda: None):
    """One schedule of cfg.epochs steps; returns per-epoch state and
    (start_ns, end_ns) intervals.  ``tick`` runs between steps."""
    state = scheduler.init_schedule(g, cfg)
    seq, spans = [], []
    for _ in range(cfg.epochs):
        t0 = now()
        state = step(state, g, probs, cfg)
        spans.append((t0, now()))
        seq.append((state.subgraph.active_count, state.added_this_epoch,
                    state.dropped_this_epoch))
        tick()
    return seq, spans


class ScheduleChecks:
    """The cap on every schedule epoch, and reruns agreeing exactly."""

    def __init__(self, checks: Checks, cfg, g):
        self.checks = checks
        self.cap = math.floor(cfg.alpha_up * g.num_edges + 1e-9)
        self.reference = None

    def __call__(self, seq):
        for active, _, _ in seq:
            self.checks.check(active <= self.cap, "active edges above floor(alpha_up*|E|)")
        if self.reference is None:
            self.reference = seq
        self.checks.check(seq == self.reference, "a rerun of the same schedule differs")
        return seq


def sampling_inputs(w: Workload, seed: int):
    g = synthetic.random_edge_graph(seed=seed, **w.data)
    cfg = scheduler.ScheduleConfig(sampler_kind=sampler.VM, seed=seed, **w.schedule)
    return g, cfg


def sampling_end_to_end(w: Workload, seed: int, seconds: float, cache,
                        checks: Checks) -> tuple[dict, dict]:
    g, cfg = sampling_inputs(w, seed)
    metronome = Metronome()
    setups = []
    for _ in range(SAMPLING_SETUPS):
        metronome.tick(force=True)
        t0 = now()
        probs = sampler.make_weights(sampler.VM, g)
        setups.append((t0, now()))
    metronome.tick(force=True)
    verify = ScheduleChecks(checks, cfg, g)
    meter = PeakMeter()
    with Patches() as patches:
        check_samples(patches, checks)
        meter.start()
        try:
            seq, _ = schedule_run(g, probs, replace(cfg, epochs=w.peak_epochs))
        finally:
            meter.stop()
    verify(seq)
    blocks: list[list[tuple[int, int]]] = []

    def timed_block():
        seq, spans = schedule_run(g, probs, cfg, tick=metronome.tick)
        blocks.append(spans)
        verify(seq)

    probe = Probe(g, probs, cfg.s1, cfg.s2, seed, checks, metronome=metronome)
    interleave(seconds, 0.5, timed_block, probe, metronome=metronome)
    return _timing_metrics(w, setups, blocks, probe, meter.window, metronome, "schedule")


def sampling_per_layer(w: Workload, seed: int, seconds: float, cache,
                       checks: Checks) -> tuple[dict, Tracer]:
    g, cfg = sampling_inputs(w, seed)
    tracer = Tracer()
    for _ in range(SAMPLING_SETUPS):
        probs = tracer.call("sampler.make_weights", sampler.make_weights, sampler.VM, g)
    verify = ScheduleChecks(checks, cfg, g)

    def traced_step(state, g, probs, cfg):
        return tracer.call("scheduler.step_epoch", scheduler.step_epoch,
                           state, g, probs, cfg, after=tracer.after_step)

    untraced: list[list[float]] = []
    traced: list[list[float]] = []

    def timed_pair():
        seq, spans = schedule_run(g, probs, cfg)
        untraced.append(durations(spans))
        plain = verify(seq)
        tracer.run += 1
        with Patches() as patches:
            tracer.install(patches, SCHEDULER_HOOKS)
            seq, spans = schedule_run(g, probs, cfg, traced_step)
        traced.append(durations(spans))
        checks.check(verify(seq) == plain, "traced schedule differs from the untraced one")

    interleave(seconds, 0.5, timed_pair,
               Probe(g, probs, cfg.s1, cfg.s2, seed, checks, tracer), min_blocks=(1, 1))
    expected = ["sampler.make_weights", "scheduler.step_epoch", "sampler.direct_sample"]
    expected += [name for _, _, name in SCHEDULER_HOOKS]
    extra = {"trace_overhead": median(pooled(traced)) / median(pooled(untraced))}
    return _layer_metrics(tracer, expected, extra, checks), tracer


# --- per-layer metrics from spans -----------------------------------------

def _layer_metrics(tracer: Tracer, expected: list, extra: dict, checks: Checks) -> dict:
    durations, selfs, roots, calls = tracer.analyse()
    for name in expected:
        if not calls[name]:
            raise BenchError(f"hooked function {name} was never called")
    for duration, self_sum in roots:
        checks.check(duration == self_sum, "span self times do not sum to their root span")
    runs = tracer.counts_by_run()
    checks.check(all(c == runs[0] for c in runs), "traced runs counted different work")
    counts = runs[0] if runs else Counter()

    def med(name, table=durations):
        return median(table[name]) if table.get(name) else 0.0

    drawn = counts["sampler.drawn"]
    two, direct = med("sampler.two_step_sample"), med("sampler.direct_sample")
    metrics = {
        "synthetic.make_graph.s": med("synthetic.make_graph"),
        "graphstore.load_dataset.s": med("graphstore.load_dataset"),
        "graphstore.build_propagation.setup_s": med("graphstore.build_propagation.setup"),
        "graphstore.build_propagation.s": med("graphstore.build_propagation"),
        "graphstore.build_propagation.nnz": counts["graphstore.build_propagation.nnz"],
        "sampler.make_weights.s": med("sampler.make_weights"),
        "sampler.two_step_sample.s": two,
        "sampler.direct_sample.s": direct,
        "sampler.speedup": direct / two,
        "scheduler.step_epoch.self_s": med("scheduler.step_epoch", selfs),
        "scheduler.random_drop.s": med("scheduler.random_drop"),
        "scheduler.graph_update.s": med("scheduler.graph_update"),
        "scheduler.added": counts["scheduler.added"],
        "scheduler.dropped": counts["scheduler.dropped"],
        "scheduler.capped_epochs": counts["scheduler.capped_epochs"],
        "scheduler.useful_ratio": counts["scheduler.added"] / drawn if drawn else 0.0,
        "gnn.train_step.s": med("gnn.train_step"),
        "gnn.forward.s": med("gnn.forward"),
        "gnn.loss_and_backward.s": med("gnn.loss_and_backward"),
        "gnn.sgd_step.s": med("gnn.sgd_step"),
        "gnn.forward_eval.s": med("gnn.forward_eval"),
        "gnn.train_step.peak_mb": 0.0,
        "gnn.forward_eval.peak_mb": 0.0,
        "diagnostics.memory_proxy.bytes_estimate": 0,
        "diagnostics.memory_proxy.measured_over_estimate": 0.0,
        "runner.self_s": med("runner.epoch", selfs),
        "best_val_acc": 0.0,
    }
    metrics.update(extra)
    return {name: (value, "") for name, value in metrics.items()}
