"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from spangraph import gnn
from spangraph.cli import main as cli_main
from spangraph.diagnostics import embedding_variance, gradient_noise, memory_proxy
from spangraph.graphstore import SpanningSubgraph, build_propagation
from spangraph.bench import bench_sampling
from spangraph.runner import RunConfig, run_training, variant_config
from spangraph.sampler import (
    SampleRequest,
    direct_sample,
    gnr_weights,
    two_step_sample,
    uniform_weights,
    vm_weights,
)
from spangraph.scheduler import ScheduleConfig, init_schedule, step_epoch
from spangraph.seeding import spawn_rng
from spangraph.synthetic import GeneratorSpec, make_graph, random_edge_graph

from conftest import max_relative_error, numeric_gradients
from test_diagnostics import oracle_estimator_stats


def report(number, name, ok, details):
    line = f"CRITERION {number:2d} ({name}): {'PASS' if ok else 'FAIL'} - {details}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_direct_sampler_distribution(path4):
    """Weighted draws on the path graph hit the degree-formula frequencies."""
    start = time.perf_counter()
    probs = vm_weights(path4)
    rng = np.random.default_rng(1001)
    trials = 300_000
    counts = np.zeros(3)
    for _ in range(trials):
        counts[direct_sample(path4, probs, 1, rng)[0]] += 1
    freqs = counts / trials
    expected = np.array([0.375, 0.25, 0.375])
    worst = float(np.abs(freqs - expected).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 0.005 and elapsed < 10.0
    report(1, "sampler distribution", ok,
           f"freqs {np.round(freqs, 4).tolist()} vs {expected.tolist()}, "
           f"max dev {worst:.4f} (<=0.005), {elapsed:.1f}s (<10s)")


def test_criterion_02_two_step_equals_direct_at_full_pool():
    """With s1=|E| the two-step marginals match direct sampling's."""
    start = time.perf_counter()
    g = random_edge_graph(30, 50, seed=77)
    m, s2, trials = g.num_edges, 10, 100_000
    probs = vm_weights(g)
    stream = np.random.default_rng(1002)
    counts_two = np.zeros(m)
    counts_direct = np.zeros(m)
    for _ in range(trials):
        req = SampleRequest(m, s2, int(stream.integers(2**62)))
        counts_two[two_step_sample(g, probs, req)] += 1
        counts_direct[direct_sample(g, probs, s2, stream)] += 1
    tv = 0.5 * float(np.abs(counts_two / counts_two.sum()
                            - counts_direct / counts_direct.sum()).sum())
    elapsed = time.perf_counter() - start
    ok = tv <= 0.01 and elapsed < 30.0
    report(2, "two-step == direct at s1=|E|", ok,
           f"TV distance {tv:.4f} (<=0.01) over {trials} trials, "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_03_gradient_correctness():
    """Analytic gradients match central differences for both layer rules."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    cases = 0
    # (layer type, feature dim, hidden dim, layers): a widening first layer,
    # then a narrowing one, which multiplies by W before P
    layer_types = ("gcn", "sage-mean")
    shapes = ([(t, 3, 4, n) for t in layer_types for n in (1, 2, 3)]
              + [(t, 6, 3, n) for t in layer_types for n in (2, 3)])
    for layer_type, in_dim, hidden, num_layers in shapes:
        n = int(rng.integers(5, 21))
        spec = GeneratorSpec(kind="sbm", nodes=n, classes=2, feature_dim=in_dim,
                             seed=int(rng.integers(2**31)),
                             p_in=0.7, p_out=0.3)
        g = make_graph(spec)
        kind = "gcn-symmetric" if layer_type == "gcn" else "mean-row"
        p = build_propagation(SpanningSubgraph.full(g), kind)
        model = gnn.init_model(layer_type, in_dim, hidden, 2, num_layers,
                               seed=int(rng.integers(2**31)))
        _, analytic = gnn.loss_and_backward(gnn.forward(model, p, g.features),
                                            g.labels, g.train_mask)
        numeric = numeric_gradients(model, p, g.features, g.labels,
                                    g.train_mask)
        worst = max(worst, max_relative_error(analytic, numeric))
        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(3, "gradient correctness", ok,
           f"{cases} cases, max elementwise rel err {worst:.2e} (<1e-4), "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_04_cap_invariant_over_randomized_runs():
    """Edge ratio never exceeds alpha_up; memory proxy stays under its bound."""
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    g = make_graph(GeneratorSpec(kind="sbm", nodes=120, classes=3,
                                 feature_dim=4, seed=55, p_in=0.12, p_out=0.02))
    m, n = g.num_edges, g.num_nodes
    probs = vm_weights(g)
    alphas = [0.3, 0.5, 0.7]
    violations = 0
    for run in range(10):
        alpha = alphas[run % 3]
        beta = float(rng.uniform(0.0, 0.5))
        s2 = int(rng.integers(1, max(2, m // 20)))
        s1 = int(rng.integers(s2, m + 1))
        cfg = ScheduleConfig(alpha_up=alpha, beta=beta, s1=s1, s2=s2,
                             epochs=1000, seed=int(rng.integers(2**31)))
        state = init_schedule(g, cfg)
        cap = cfg.cap(m)
        history = []
        for _ in range(cfg.epochs):
            state = step_epoch(state, g, probs, cfg)
            history.append(state.subgraph.active_count)
            if state.subgraph.active_count > cap or state.subgraph.edge_ratio > alpha:
                violations += 1
        proxy = memory_proxy(history, n)
        if proxy.peak_directed_edges > 2 * alpha * m + n:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    report(4, "cap invariant", ok,
           f"10 runs x 1000 epochs, {violations} violations, "
           f"{elapsed:.1f}s (<300s)")


def test_criterion_05_zero_noise_fixed_point():
    """Subgraph == full graph gives exactly zero gradient noise."""
    g = make_graph(GeneratorSpec(kind="sbm", nodes=40, classes=2,
                                 feature_dim=5, seed=9, p_in=0.4, p_out=0.08))
    exact_zero = True
    for layer_type in ("gcn", "sage-mean"):
        model = gnn.init_model(layer_type, 5, 8, 2, 2, seed=3)
        kind = gnn.PROPAGATION_KIND[layer_type]
        p_full = build_propagation(SpanningSubgraph.full(g), kind)
        p_sub = build_propagation(SpanningSubgraph.full(g), kind)
        rep = gradient_noise(model, p_full, p_sub,
                             g.features, g.labels, g.train_mask)
        exact_zero &= all(x == 0.0 for x in rep.noise_norms)
        exact_zero &= all(x == 0.0 for x in rep.z_diff_norms)
    report(5, "zero-noise fixed point", exact_zero,
           "all per-layer Frobenius norms exactly 0.0 for gcn and sage-mean")


def test_criterion_06_variance_reduction(path4):
    """Exact enumeration orders the samplers; Monte-Carlo agrees within 3 s.e."""
    start = time.perf_counter()
    w = np.array([[1.0], [0.5]])
    budget, M = 2, 10_000
    p_full = build_propagation(SpanningSubgraph.full(path4), "gcn-symmetric")
    exact = {}
    mc_ok = True
    details = []
    for kind, probs in (("vm", vm_weights(path4)), ("uniform", uniform_weights(path4))):
        exact_mean, exact_var = oracle_estimator_stats(
            path4, probs, budget, path4.features, w)
        rep = embedding_variance(path4, p_full, probs, budget, M, path4.features,
                                 w, seed=1006)
        se = rep.squared_deviation_std / np.sqrt(M)
        agrees = abs(rep.estimator_variance - exact_var) <= 3.0 * se
        mc_ok &= agrees
        exact[kind] = exact_var
        details.append(f"{kind}: exact {exact_var:.4f} "
                       f"mc {rep.estimator_variance:.4f} (3se={3 * se:.4f})")
    ordered = exact["vm"] <= exact["uniform"]
    elapsed = time.perf_counter() - start
    ok = ordered and mc_ok and elapsed < 30.0
    report(6, "variance reduction", ok,
           "; ".join(details) + f"; Var_vm<=Var_uniform: {ordered}, "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_07_noise_reduction_tendency_soft():
    """Soft check: gnr-weighted subgraphs tend to lower gradient noise."""
    start = time.perf_counter()
    # sparse SBM: heterogeneous degrees give the weighting signal to act on
    g = make_graph(GeneratorSpec(kind="sbm", nodes=50, classes=2,
                                 feature_dim=8, seed=5, p_in=0.10, p_out=0.015))
    m = g.num_edges
    budget = max(1, int(0.3 * m))
    model = gnn.init_model("gcn", 8, 16, 2, 2, seed=100)
    p_full = build_propagation(SpanningSubgraph.full(g), "gcn-symmetric")
    samplers = {"gnr": gnr_weights(g, p_full), "uniform": uniform_weights(g)}
    means = {}
    for kind, probs in samplers.items():
        total = 0.0
        for rep_i in range(200):
            sel = direct_sample(g, probs, budget, spawn_rng(1007, rep_i, kind))
            p_sub = build_propagation(SpanningSubgraph.from_indices(g, sel),
                                      "gcn-symmetric")
            total += np.linalg.norm(gradient_noise(model, p_full, p_sub, g.features,
                                                   g.labels, g.train_mask).noise_norms)
        means[kind] = total / 200
    elapsed = time.perf_counter() - start
    ordered = means["gnr"] <= means["uniform"]
    status = "ordered as motivated" if ordered else "FLAGGED: ordering not observed"
    # soft check: the ordering is reported, only the measurement itself must run
    ok = elapsed < 120.0 and np.isfinite(means["gnr"]) and np.isfinite(means["uniform"])
    report(7, "noise-reduction tendency (soft)", ok,
           f"mean ||G_noise||_F gnr {means['gnr']:.4f} vs uniform "
           f"{means['uniform']:.4f}; {status}; {elapsed:.1f}s (<120s)")


def test_criterion_08_end_to_end_desk_scale():
    """Quality-aware schedules match full-graph accuracy on a 2000-node SBM."""
    start = time.perf_counter()
    spec = GeneratorSpec(kind="sbm", nodes=2000, classes=4, feature_dim=16,
                         seed=2024, p_in=0.015, p_out=0.0015, feature_noise=3.0)
    g = make_graph(spec)
    base = RunConfig(generator=spec, epochs=150, hidden_dim=32,
                     learning_rate=0.3, alpha_up=0.5, beta=0.1, seed=7,
                     timings=False)
    acc = {}
    for name in ("spangnn-vm", "spangnn-gnr", "full"):
        acc[name] = run_training(variant_config(base, name), graph=g).best_val_acc
    dropedge_cfg = replace(variant_config(base, "dropedge"), beta=0.7)
    acc["dropedge"] = run_training(dropedge_cfg, graph=g).best_val_acc
    gap_vm = 100.0 * (acc["full"] - acc["spangnn-vm"])
    gap_gnr = 100.0 * (acc["full"] - acc["spangnn-gnr"])
    elapsed = time.perf_counter() - start
    ok = gap_vm <= 2.0 and gap_gnr <= 2.0 and elapsed < 300.0
    report(8, "end-to-end desk scale", ok,
           f"best val acc: vm {acc['spangnn-vm']:.4f}, gnr {acc['spangnn-gnr']:.4f}, "
           f"full {acc['full']:.4f}, dropedge(beta=0.7) {acc['dropedge']:.4f}; "
           f"gaps vm {gap_vm:.2f}pt gnr {gap_gnr:.2f}pt (<=2.0), "
           f"{elapsed:.1f}s (<300s)")


def test_criterion_09_sampling_efficiency():
    """Two-step sampling beats direct sampling by 5x on a million-edge graph."""
    start = time.perf_counter()
    g = random_edge_graph(200_000, 1_000_000, seed=1009)
    rep = bench_sampling(g, "vm", s1=10_000, s2=1_000, runs=9, seed=1009)
    elapsed = time.perf_counter() - start
    ok = rep.speedup >= 5.0 and elapsed < 120.0
    report(9, "sampling efficiency", ok,
           f"median two-step {rep.median_two_step_ms:.3f} ms vs direct "
           f"{rep.median_direct_ms:.3f} ms, speedup {rep.speedup:.1f}x (>=5x), "
           f"{elapsed:.1f}s (<120s)")


def test_criterion_10_byte_identical_metrics(tmp_path):
    """Identical config + seed produce byte-identical metrics CSVs."""
    data = tmp_path / "data"
    rc = cli_main(["gen-data", "--kind", "sbm", "--nodes", "200",
                   "--classes", "3", "--feature-dim", "8", "--p-in", "0.1",
                   "--p-out", "0.01", "--seed", "10", "--out", str(data)])
    assert rc == 0
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data={data}\nmodel=gcn\nhidden=16\nlayers=2\nlr=0.2\nepochs=25\n"
        f"alpha_up=0.5\nbeta=0.1\nsampler=vm\nseed=4242\ntimings=off\n"
    )
    outs = []
    for run_dir in ("r1", "r2"):
        rc = cli_main(["train", "--config", str(config),
                       "--out", str(tmp_path / run_dir)])
        assert rc == 0
        outs.append((tmp_path / run_dir / "metrics.csv").read_bytes())
    identical = outs[0] == outs[1]
    report(10, "determinism", identical,
           f"two runs, {len(outs[0])} bytes each, byte-identical: {identical}")
