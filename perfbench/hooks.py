"""Hooks at the call sites the runner and scheduler use.

``runner`` and ``scheduler`` look their collaborators up as module
attributes at call time (``runner.train_step``, ``scheduler.random_drop``,
...).  Replacing such an attribute with a wrapper intercepts exactly the
calls that module makes, while every other caller still reaches the
original.  That is how eval forwards (``runner.forward``) are told apart
from training forwards (``gnn.forward``, which ``train_step`` calls), and
how the full-graph build during setup is told apart from the per-epoch
builds.  Every hook lives for one ``with Patches()`` block.
"""

from __future__ import annotations

import json
import logging
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from spangraph import gnn, runner, scheduler

now = time.perf_counter_ns

# (module, attribute, layer name) for every hooked call site.  A layer
# name is the metric prefix its spans report under.
SETUP_HOOKS = (
    (runner, "load_dataset", "graphstore.load_dataset"),
    (runner, "make_graph", "synthetic.make_graph"),
    (runner, "make_weights", "sampler.make_weights"),
)
EPOCH_HOOKS = (
    (runner, "build_propagation", "graphstore.build_propagation"),
    (runner, "step_epoch", "scheduler.step_epoch"),
    (runner, "train_step", "gnn.train_step"),
    (gnn, "forward", "gnn.forward"),
    (gnn, "loss_and_backward", "gnn.loss_and_backward"),
    (gnn, "sgd_step", "gnn.sgd_step"),
    (runner, "forward", "gnn.forward_eval"),
    (runner, "memory_proxy", "diagnostics.memory_proxy"),
)
SCHEDULER_HOOKS = (
    (scheduler, "two_step_sample", "sampler.two_step_sample"),
    (scheduler, "random_drop", "scheduler.random_drop"),
    (scheduler, "graph_update", "scheduler.graph_update"),
)
TRAINING_HOOKS = SETUP_HOOKS + EPOCH_HOOKS + SCHEDULER_HOOKS


class BenchError(Exception):
    """A broken premise of the benchmark, such as a missing hook."""


class Patches:
    """Replace module attributes with wrappers; restore them on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, make):
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise BenchError(f"hooked function {module.__name__}.{attr} is missing")
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def valid_sample(idx, s2: int, num_edges: int) -> bool:
    """s2 distinct, sorted, in-range integer edge indices."""
    idx = np.asarray(idx)
    return (idx.shape == (s2,) and idx.dtype.kind in "iu"
            and idx[0] >= 0 and idx[-1] < num_edges
            and bool(np.all(np.diff(idx) > 0)))


def check_samples(patches, checks) -> None:
    """Check every ``scheduler.two_step_sample`` result as it returns."""
    def make(fn):
        def two_step_sample(g, probs, req):
            out = fn(g, probs, req)
            checks.check(valid_sample(out, req.s2, g.num_edges),
                         "scheduler.two_step_sample returned an invalid sample")
            return out
        return two_step_sample
    patches.wrap(scheduler, "two_step_sample", make)


class FallbackCounter(logging.Handler):
    """Counts warnings on the sampler's logger (uniform-fill fallbacks)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1

    def __enter__(self):
        logging.getLogger("spangraph.sampler").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("spangraph.sampler").removeHandler(self)


class EpochClock:
    """Setup and per-epoch boundaries of one ``runner.run_training`` call.

    Epoch 0 starts at the first ``runner.step_epoch`` call or the second
    ``runner.build_propagation`` call (the first builds the full-graph
    matrix during setup), whichever comes first.  Epoch i ends when the
    runner's (i+1)-th ``memory_proxy`` call returns; the call after the
    loop ends no epoch.  Epoch i+1 starts when ``on_epoch_end`` for epoch
    i returns, so work done there is outside every epoch.  Install it
    after any other hook on the same attributes, so that its stamps
    enclose theirs.
    """

    def __init__(self, epochs: int, on_start=None, on_epoch_end=None):
        self.epochs = epochs
        self.on_start = on_start
        self.on_epoch_end = on_epoch_end
        self.t_call = self.t_start = None
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.builds = 0
        self.proxies = 0

    def _start(self):
        if self.t_start is None:
            self.t_start = now()
            self.starts.append(self.t_start)
            if self.on_start is not None:
                self.on_start(self.t_start)

    def install(self, patches):
        def step(fn):
            def step_epoch(*a, **k):
                self._start()
                return fn(*a, **k)
            return step_epoch

        def build(fn):
            def build_propagation(*a, **k):
                self.builds += 1
                if self.builds == 2:
                    self._start()
                return fn(*a, **k)
            return build_propagation

        def proxy(fn):
            def memory_proxy(*a, **k):
                out = fn(*a, **k)
                self.proxies += 1
                if self.proxies <= self.epochs:
                    t = now()
                    self.ends.append(t)
                    if self.on_epoch_end is not None:
                        self.on_epoch_end(self.proxies - 1, t)
                    if self.proxies < self.epochs:
                        self.starts.append(now())
                return out
            return memory_proxy

        patches.wrap(runner, "step_epoch", step)
        patches.wrap(runner, "build_propagation", build)
        patches.wrap(runner, "memory_proxy", proxy)

    def run(self, cfg):
        self.t_call = now()
        result = runner.run_training(cfg)
        if self.t_start is None:
            raise BenchError("start of epoch 0 not seen: neither runner.step_epoch "
                             "nor a second runner.build_propagation call happened")
        if self.proxies != self.epochs + 1:
            raise BenchError(f"runner.memory_proxy was called {self.proxies} times "
                             f"in a {self.epochs}-epoch run, expected {self.epochs + 1}")
        return result

    @property
    def setup_span(self) -> tuple[int, int]:
        return self.t_call, self.t_start

    @property
    def epoch_spans(self) -> list[tuple[int, int]]:
        return list(zip(self.starts, self.ends))

    @property
    def epoch_s(self) -> list[float]:
        return [(e - s) / 1e9 for s, e in self.epoch_spans]


class PeakMeter:
    """tracemalloc peaks above the level at start, for a window and per hook.

    ``start``/``stop`` bound the window (the epoch loop).  Hooks made by
    ``wrapper`` record, per layer, the highest peak reached inside one call
    above the traced level at its entry; resetting the peak for a call
    first folds the peak so far into the window's.
    """

    def __init__(self):
        self.window = 0
        self.layers: dict[str, int] = {}

    def start(self, _t=None):
        tracemalloc.start()

    def stop(self):
        self.window = max(self.window, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    def wrapper(self, layer):
        def make(fn):
            def measured(*a, **k):
                if not tracemalloc.is_tracing():
                    return fn(*a, **k)
                base, peak = tracemalloc.get_traced_memory()
                self.window = max(self.window, peak)
                tracemalloc.reset_peak()
                try:
                    return fn(*a, **k)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.window = max(self.window, peak)
                    self.layers[layer] = max(self.layers.get(layer, 0), peak - base)
            return measured
        return make


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, run].

    A span's parent is the innermost open span, else the open root span
    (``runner.setup`` or ``runner.epoch``, driven by an EpochClock), else
    none (-1).  Spans of one training run share its run id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.root = -1
        self.run = 0
        self.counts: defaultdict = defaultdict(Counter)
        self.proxy_bytes = 0

    def _open(self, name, parent, t):
        self.spans.append([name, t, 0, parent, self.run])
        return len(self.spans) - 1

    def _root(self, name, t):
        if self.root >= 0:
            self.spans[self.root][2] = t
        self.root = self._open(name, -1, t) if name else -1

    def _phase(self):
        return self.spans[self.root][0] if self.root >= 0 else ""

    def call(self, name, fn, *args, after=None):
        """Record a span around one call the benchmark makes itself."""
        idx = self._open(name, self.stack[-1] if self.stack else self.root, now())
        self.stack.append(idx)
        try:
            out = fn(*args)
        finally:
            self.stack.pop()
            self.spans[idx][2] = now()
        if after is not None:
            after(out, args)
        return out

    def wrapper(self, name, after=None):
        def make(fn):
            def traced(*a, **k):
                return self.call(name, lambda: fn(*a, **k), after=after)
            return traced
        return make

    def install(self, patches, hooks):
        after = {
            "graphstore.build_propagation": self._after_build,
            "scheduler.step_epoch": self.after_step,
            "sampler.two_step_sample": self._after_sample,
            "diagnostics.memory_proxy": self._after_proxy,
        }
        for module, attr, name in hooks:
            patches.wrap(module, attr, self.wrapper(name, after.get(name)))

    def traced_run(self, cfg) -> tuple:
        """One traced training run; returns (result, EpochClock).

        The clock's hooks wrap the span hooks ``install`` put in place, so
        each root span encloses the spans of its phase.
        """
        self.run += 1
        clock = EpochClock(
            cfg.epochs,
            on_start=lambda t: self._root("runner.epoch", t),
            on_epoch_end=lambda i, t: self._root(
                "runner.epoch" if i + 1 < cfg.epochs else "", t),
        )
        with Patches() as patches:
            clock.install(patches)
            self._root("runner.setup", now())
            try:
                return clock.run(cfg), clock
            finally:
                self._root("", now())

    def _after_build(self, out, args):
        if self._phase() == "runner.epoch":
            self.counts[self.run]["graphstore.build_propagation.nnz"] += int(out.matrix.nnz)

    def after_step(self, state, args):
        """Count the work an ``EpochState`` reports."""
        counts = self.counts[self.run]
        counts["scheduler.added"] += state.added_this_epoch
        counts["scheduler.dropped"] += state.dropped_this_epoch
        counts["scheduler.capped_epochs"] += state.dropped_this_epoch > 0

    def _after_sample(self, out, args):
        self.counts[self.run]["sampler.drawn"] += len(out)

    def _after_proxy(self, out, args):
        self.proxy_bytes = out.bytes_estimate

    def counts_by_run(self) -> list[Counter]:
        return [self.counts[run] for run in range(1, self.run + 1)]

    def analyse(self) -> tuple[dict, dict, list, dict]:
        """Per-layer call durations and self times (seconds), epoch roots.

        Self time is a span's duration minus the part of it its children
        cover.  Returns (durations, self times, [(root duration, summed
        self time of its tree)] per root, calls per layer).  A
        ``graphstore.build_propagation`` span under ``runner.setup`` is
        reported as ``graphstore.build_propagation.setup``.
        """
        spans = self.spans
        covered = [0] * len(spans)
        root_of = [0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                p_start, p_end = spans[parent][1], spans[parent][2]
                covered[parent] += max(0, min(end, p_end) - max(start, p_start))
        durations, selfs, calls = defaultdict(list), defaultdict(list), Counter()
        tree_self = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - covered[i]
            tree_self[root_of[i]] += own
            if name == "graphstore.build_propagation" and spans[root_of[i]][0] == "runner.setup":
                name += ".setup"
            durations[name].append((end - start) / 1e9)
            selfs[name].append(own / 1e9)
            calls[name] += 1
        roots = [(spans[r][2] - spans[r][1], tree_self[r])
                 for r in range(len(spans)) if root_of[r] == r]
        return durations, selfs, roots, calls

    def dump(self, path, header: dict) -> None:
        """Write ``header``, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run}) + "\n")
