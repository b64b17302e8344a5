"""Command-line front end.

Subcommands: train, compare, sample-inspect, bench-sampling, gen-data.
Options can come from a key=value config file (--config PATH); flags given
on the command line win over file values.  Exit codes: 0 success,
1 config error, 2 data error, 3 numerical error.

Numpy is imported only after the SPANGRAPH_THREADS cap (if set) has been
propagated to the BLAS thread-count environment variables, so keep module
level imports here free of numeric libraries.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    cap = os.environ.get("SPANGRAPH_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"SPANGRAPH_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, cap)


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    """Add the flags every subcommand shares; returns their actions."""
    add = p.add_argument
    return [
        add("--config", type=str, help="key=value config file"),
        add("--data", type=str, help="dataset directory with the standard filenames"),
        add("--edges", type=str),
        add("--features", type=str),
        add("--labels", type=str),
        add("--splits", type=str),
        add("--gen", type=str, choices=["sbm", "preferential-attachment"],
            help="generate the dataset in memory instead of loading"),
        add("--nodes", type=int),
        add("--classes", type=int),
        add("--feature-dim", type=int),
        add("--p-in", type=float),
        add("--p-out", type=float),
        add("--attach", type=int),
        add("--feature-noise", type=float),
        add("--alpha-up", type=float),
        add("--beta", type=float),
        add("--s1", type=int),
        add("--s2", type=int),
        add("--sampler", type=str, choices=["vm", "gnr", "uniform"]),
        add("--baseline", type=str, choices=["spangnn", "dropedge", "full"]),
        add("--model", type=str, choices=["gcn", "sage"]),
        add("--layers", type=int),
        add("--hidden", type=int),
        add("--lr", type=float),
        add("--epochs", type=int),
        add("--seed", type=int),
        add("--out", type=str),
        add("--no-timings", action="store_true",
            help="write timing columns as 0 for byte-stable output"),
        add("--diag-every", type=int,
            help="emit a diagnostics row every N epochs (0 = off)"),
        add("--diag-samples", type=int),
    ]


def _add_variants_flag(p: argparse.ArgumentParser) -> argparse.Action:
    return p.add_argument("--variants", type=str,
                          help="comma-separated variant names "
                               "(default: spangnn-vm,spangnn-gnr,dropedge,full)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spangraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    _add_common_flags(p_train)

    p_cmp = sub.add_parser("compare", help="run several variants on shared data")
    _add_common_flags(p_cmp)
    _add_variants_flag(p_cmp)

    p_ins = sub.add_parser("sample-inspect",
                           help="dump edge weights and normalized probabilities")
    _add_common_flags(p_ins)

    p_bench = sub.add_parser("bench-sampling",
                             help="time two-step vs direct edge sampling")
    _add_common_flags(p_bench)
    p_bench.add_argument("--bench-nodes", type=int, default=200_000)
    p_bench.add_argument("--bench-edges", type=int, default=1_000_000)
    p_bench.add_argument("--runs", type=int, default=9)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    _add_common_flags(p_gen)
    p_gen.add_argument("--kind", type=str, default="sbm",
                       choices=["sbm", "preferential-attachment"])
    p_gen.add_argument("--binary-features", action="store_true")
    return parser


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(value)
    return value == "on"


def _config_key_types() -> dict:
    """Config-file key -> value parser, one key per common flag and --variants.

    Keys are the flags' destinations; ``--no-timings`` becomes
    ``timings=on|off`` and ``--config`` has no key.
    """
    probe = argparse.ArgumentParser(add_help=False)
    actions = _add_common_flags(probe) + [_add_variants_flag(probe)]
    types = {a.dest: a.type for a in actions if a.dest not in ("config", "no_timings")}
    types["timings"] = _on_off
    return types


def parse_config_file(path) -> dict:
    """Parse a key=value file ('#' comments, blank lines ignored)."""
    types = _config_key_types()
    values: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = types[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for key {key!r}"
                ) from None
    return values


def _options(args) -> dict:
    """Config-file values, overridden by every flag given on the command line."""
    opts = parse_config_file(args.config) if args.config else {}
    opts.update((k, v) for k, v in vars(args).items() if v is not None)
    if opts.pop("no_timings"):
        opts["timings"] = False
    return opts


# flag destination -> RunConfig field, where the two names differ
_RUN_FIELDS = {
    "data": "data_dir", "edges": "edges_path", "features": "features_path",
    "labels": "labels_path", "splits": "splits_path", "hidden": "hidden_dim",
    "layers": "num_layers", "lr": "learning_rate", "sampler": "sampler_kind",
    "out": "out_dir",
}


def _generator_spec(opts: dict, kind: str):
    """GeneratorSpec of the given kind from the options that name its fields."""
    from .synthetic import GeneratorSpec
    names = {f.name for f in fields(GeneratorSpec)} - {"kind"}
    return GeneratorSpec(kind=kind, **{k: v for k, v in opts.items() if k in names})


def _build_run_config(opts: dict):
    """RunConfig from the options set; every other field keeps its default."""
    from .runner import RunConfig
    names = {f.name for f in fields(RunConfig)}
    values = {_RUN_FIELDS.get(k, k): v for k, v in opts.items()}
    values = {k: v for k, v in values.items() if k in names}
    if "gen" in opts:
        values["generator"] = _generator_spec(opts, opts["gen"])
    return RunConfig(**values)


def _cmd_train(opts: dict) -> int:
    from .runner import run_training
    cfg = _build_run_config(opts)
    if cfg.out_dir is None:
        raise ConfigError("train requires --out DIR for the metrics CSV")
    result = run_training(cfg)
    last = result.metrics[-1]
    print(f"trained {cfg.epochs} epochs; final loss {last.loss:.6f}, "
          f"best val acc {result.best_val_acc:.4f}, "
          f"peak directed edges {result.peak_directed_edges}")
    print(f"metrics: {Path(cfg.out_dir) / 'metrics.csv'}")
    return 0


def _cmd_compare(opts: dict) -> int:
    from .runner import run_compare, summary_lines
    cfg = _build_run_config(opts)
    if cfg.out_dir is None:
        raise ConfigError("compare requires --out DIR for the combined CSV")
    raw = opts.get("variants", "spangnn-vm,spangnn-gnr,dropedge,full")
    variants = [v.strip() for v in raw.split(",") if v.strip()]
    results = run_compare(cfg, variants)
    print("\n".join(summary_lines(results, variants)))
    return 0


def _cmd_sample_inspect(opts: dict) -> int:
    from .gnn import PROPAGATION_KIND
    from .graphstore import SpanningSubgraph, build_propagation
    from .runner import load_run_graph
    from .sampler import make_weights
    cfg = _build_run_config(opts)
    g = load_run_graph(cfg)
    p_full = build_propagation(SpanningSubgraph.full(g), PROPAGATION_KIND[cfg.layer_type])
    probs = make_weights(cfg.sampler_kind, g, p_full)
    norm = probs.normalized()
    lines = ["edge_index,u,v,weight,normalized_prob"]
    for i, (u, v) in enumerate(g.edges):
        lines.append(f"{i},{u},{v},{float(probs.weights[i])!r},{float(norm[i])!r}")
    text = "\n".join(lines) + "\n"
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sample_inspect.csv").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'sample_inspect.csv'}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench_sampling(opts: dict) -> int:
    from .bench import bench_sampling
    from .runner import load_run_graph
    cfg = _build_run_config(opts)
    have_data = (cfg.data_dir is not None or cfg.edges_path is not None
                 or cfg.generator is not None)
    if have_data:
        g = load_run_graph(cfg)
    else:
        from .synthetic import random_edge_graph
        g = random_edge_graph(opts["bench_nodes"], opts["bench_edges"], seed=cfg.seed)
    s1 = cfg.s1 if cfg.s1 is not None else 10_000
    s2 = cfg.s2 if cfg.s2 is not None else 1_000
    report = bench_sampling(g, cfg.sampler_kind, s1, s2, runs=opts["runs"],
                            seed=cfg.seed)
    print("method,run,elapsed_ms")
    for i, ms in enumerate(report.two_step_ms):
        print(f"two_step,{i},{ms:.3f}")
    for i, ms in enumerate(report.direct_ms):
        print(f"direct,{i},{ms:.3f}")
    print(f"# median two_step {report.median_two_step_ms:.3f} ms, "
          f"median direct {report.median_direct_ms:.3f} ms, "
          f"speedup {report.speedup:.2f}x")
    return 0


def _cmd_gen_data(opts: dict) -> int:
    from .synthetic import generate_synthetic
    out = opts.get("out")
    if out is None:
        raise ConfigError("gen-data requires --out DIR")
    spec = _generator_spec(opts, opts["kind"])
    g = generate_synthetic(spec, out, binary_features=opts["binary_features"])
    print(f"wrote {spec.kind} dataset to {out}: {g.num_nodes} nodes, "
          f"{g.num_edges} edges, {g.num_classes} classes")
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "compare": _cmd_compare,
    "sample-inspect": _cmd_sample_inspect,
    "bench-sampling": _cmd_bench_sampling,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        parser = build_parser()
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](_options(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
