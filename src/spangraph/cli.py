"""Command-line front end.

Subcommands: train, compare, sample-inspect, bench-sampling, gen-data.
Options can come from a key=value config file (--config PATH); flags given
on the command line win over file values.  Exit codes: 0 success,
1 config error, out of memory or an output that cannot be written, 2 data
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import bench, gnn, graphstore, runner, sampler, synthetic
from .errors import ConfigError, DataError, NumericalError

DEFAULT_VARIANTS = "spangnn-vm,spangnn-gnr,dropedge,full"


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


# readers of a flag in _FLAGS: the subcommands that read it
RUN = ("train", "compare")
DATA = (*RUN, "sample-inspect", "bench-sampling")      # those that load a dataset
ALL = (*DATA, "gen-data")
GENERATED = "generated"     # a generator field: gen-data and, given --gen, DATA read it


# (flag, readers, argparse keywords) per common flag, in help order.  Each
# flag's readers are written here once.  Every subcommand accepts every common
# flag, so ``main`` can name each one it does not read; ``--help`` lists only
# those it may read.  A flag's destination is its config-file key, save
# ``--config``'s.
_FLAGS = (
    ("--config", ALL, dict(type=str, help="key=value config file")),
    ("--data", DATA, dict(type=str, help="dataset directory with the standard filenames")),
    ("--edges", DATA, dict(type=str)),
    ("--features", DATA, dict(type=str)),
    ("--labels", DATA, dict(type=str)),
    ("--splits", DATA, dict(type=str)),
    ("--gen", ALL, dict(type=str, choices=synthetic.GENERATOR_KINDS,
                        help="generate the dataset in memory instead of loading")),
    ("--nodes", (GENERATED,), dict(type=int)),
    ("--classes", (GENERATED,), dict(type=int)),
    ("--feature-dim", (GENERATED,), dict(type=int)),
    ("--p-in", (GENERATED,), dict(type=float)),
    ("--p-out", (GENERATED,), dict(type=float)),
    ("--attach", (GENERATED,), dict(type=int)),
    ("--feature-noise", (GENERATED,), dict(type=float)),
    ("--alpha-up", RUN, dict(type=float)),
    ("--beta", RUN, dict(type=float)),
    ("--s1", (*RUN, "bench-sampling"), dict(type=int)),
    ("--s2", (*RUN, "bench-sampling"), dict(type=int)),
    ("--sampler", DATA, dict(type=str, choices=sampler.SAMPLER_KINDS)),
    ("--baseline", RUN, dict(type=str, choices=runner.BASELINES)),
    ("--model", (*RUN, "sample-inspect"), dict(type=str, choices=["gcn", "sage"])),
    ("--layers", RUN, dict(type=int)),
    ("--hidden", RUN, dict(type=int)),
    ("--lr", RUN, dict(type=float)),
    ("--epochs", RUN, dict(type=int)),
    ("--seed", (*RUN, "bench-sampling", GENERATED), dict(type=int)),
    ("--out", (*RUN, "sample-inspect", "gen-data"), dict(type=str)),
    ("--no-timings", RUN, dict(action="store_false", dest="timings", default=None,
                               help="write timing columns as 0 for byte-stable output")),
    ("--diag-every", RUN, dict(type=int,
                               help="emit a diagnostics row every N epochs (0 = off)")),
    ("--diag-samples", RUN, dict(type=int)),
    ("--variants", ("compare",), dict(type=str, help=f"comma-separated variant names "
                                                     f"(default: {DEFAULT_VARIANTS})")),
)


def _dest(flag: str, kw: dict) -> str:
    return kw.get("dest", flag[2:].replace("-", "_"))


def build_parser() -> _Parser:
    parser = _Parser(prog="spangraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, (_, text) in _COMMANDS.items():
        p = subparsers[command] = sub.add_parser(command, help=text)
        reads = _reads(command)     # as if given --gen
        for flag, _, kw in _FLAGS:
            hidden = _dest(flag, kw) not in reads
            p.add_argument(flag, **{**kw, "help": argparse.SUPPRESS} if hidden else kw)
    # the command-specific flags, which no config key sets
    add = subparsers["bench-sampling"].add_argument
    add("--bench-nodes", type=int, default=200_000)
    add("--bench-edges", type=int, default=1_000_000)
    add("--runs", type=int, default=9)
    add = subparsers["gen-data"].add_argument
    add("--kind", type=str, default="sbm", choices=synthetic.GENERATOR_KINDS)
    add("--binary-features", action="store_true")
    return parser


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(value)
    return value == "on"


def _value_parser(kw: dict):
    """Config value parser of a flag: its type, then its choices, as argparse
    applies them; ``--no-timings``' key reads on|off."""
    if "type" not in kw:
        return _on_off

    def parse(text: str):
        value = kw["type"](text)
        if "choices" in kw and value not in kw["choices"]:
            raise ValueError(text)
        return value
    return parse


def _config_key_types() -> dict:
    """Config-file key -> value parser, one key per common flag but --config."""
    return {_dest(flag, kw): _value_parser(kw) for flag, _, kw in _FLAGS
            if flag != "--config"}


def parse_config_file(path) -> dict:
    """Parse a key=value file ('#' comments, blank lines and a leading
    byte-order mark ignored)."""
    types = _config_key_types()
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
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
    return opts


# flag destination -> RunConfig field, where the two names differ
_RUN_FIELDS = {
    "data": "data_dir", "edges": "edges_path", "features": "features_path",
    "labels": "labels_path", "splits": "splits_path", "hidden": "hidden_dim",
    "layers": "num_layers", "lr": "learning_rate", "sampler": "sampler_kind",
    "out": "out_dir",
}


def _generator_spec(opts: dict, kind: str):
    """GeneratorSpec of the given kind from the options that name its fields;
    refuses the fields only the other kind reads."""
    unread = sorted(({"attach"} if kind == synthetic.SBM else {"p_in", "p_out"}) & set(opts))
    if unread:
        raise ConfigError(f"the {kind} generator does not read {', '.join(unread)}")
    names = {f.name for f in fields(synthetic.GeneratorSpec)} - {"kind"}
    return synthetic.GeneratorSpec(kind=kind, **{k: v for k, v in opts.items() if k in names})


def _build_run_config(opts: dict):
    """RunConfig from the options set; every other field keeps its default."""
    names = {f.name for f in fields(runner.RunConfig)}
    values = {_RUN_FIELDS.get(k, k): v for k, v in opts.items()}
    values = {k: v for k, v in values.items() if k in names}
    if "gen" in opts:
        values["generator"] = _generator_spec(opts, opts["gen"])
    return runner.RunConfig(**values)


def _cmd_train(opts: dict) -> int:
    cfg = _build_run_config(opts)
    if cfg.out_dir is None:
        raise ConfigError("train requires --out DIR for the metrics CSV")
    result = runner.run_training(cfg)
    last = result.metrics[-1]
    print(f"trained {cfg.epochs} epochs; final loss {last.loss:.6f}, "
          f"best val acc {result.best_val_acc:.4f}, "
          f"peak directed edges {result.peak_directed_edges}")
    print(f"metrics: {Path(cfg.out_dir) / 'metrics.csv'}")
    return 0


def _cmd_compare(opts: dict) -> int:
    cfg = _build_run_config(opts)
    if cfg.out_dir is None:
        raise ConfigError("compare requires --out DIR for the combined CSV")
    raw = opts.get("variants", DEFAULT_VARIANTS)
    variants = [v.strip() for v in raw.split(",") if v.strip()]
    results = runner.run_compare(cfg, variants)
    print("\n".join(runner.summary_lines(results, variants)))
    return 0


def _cmd_sample_inspect(opts: dict) -> int:
    cfg = _build_run_config(opts)
    g = runner.load_run_graph(cfg)
    if g.num_edges == 0:
        raise DataError("the graph has no edges to weight")
    p_full = (graphstore.build_propagation(graphstore.SpanningSubgraph.full(g),
                                           gnn.PROPAGATION_KIND[cfg.layer_type])
              if cfg.sampler_kind == sampler.GNR else None)     # only gnr weights read P
    probs = sampler.make_weights(cfg.sampler_kind, g, p_full)
    norm = probs.normalized()
    lines = ["edge_index,u,v,weight,normalized_prob"]
    for i, (u, v) in enumerate(g.edges):
        lines.append(f"{i},{u},{v},{float(probs.weights[i])!r},{float(norm[i])!r}")
    text = "\n".join(lines) + "\n"
    if cfg.out_dir is not None:
        out = runner.make_out_dir(cfg.out_dir)
        (out / "sample_inspect.csv").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'sample_inspect.csv'}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench_sampling(opts: dict) -> int:
    cfg = _build_run_config(opts)
    # any dataset flag, even a partial or second source, goes to load_run_graph's check
    have_data = {"data", "edges", "features", "labels", "splits", "gen"} & set(opts)
    if have_data:
        g = runner.load_run_graph(cfg)
    else:
        g = synthetic.random_edge_graph(opts["bench_nodes"], opts["bench_edges"], seed=cfg.seed)
    s1 = cfg.s1 if cfg.s1 is not None else 10_000
    s2 = cfg.s2 if cfg.s2 is not None else 1_000
    report = bench.bench_sampling(g, cfg.sampler_kind, s1, s2, runs=opts["runs"],
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
    out = opts.get("out")
    if out is None:
        raise ConfigError("gen-data requires --out DIR")
    if opts.get("gen", opts["kind"]) != opts["kind"]:
        raise ConfigError(f"--gen {opts['gen']!r} names another kind than --kind {opts['kind']!r}")
    spec = _generator_spec(opts, opts["kind"])
    spec.validate()     # before the directory, so a refused spec leaves none
    runner.make_out_dir(out)
    g = synthetic.generate_synthetic(spec, out, binary_features=opts["binary_features"])
    print(f"wrote {spec.kind} dataset to {out}: {g.num_nodes} nodes, "
          f"{g.num_edges} edges, {g.num_classes} classes")
    return 0


def _reads(command: str, generated: bool = True) -> set:
    """Options ``command`` reads; ``main`` refuses any other config key set.
    gen-data reads the generator's fields, and so does a ``generated`` dataset."""
    generated = generated or command == "gen-data"
    return {_dest(flag, kw) for flag, readers, kw in _FLAGS
            if command in readers or generated and GENERATED in readers}


# subcommand -> (handler, help)
_COMMANDS = {
    "train": (_cmd_train, "run one training configuration"),
    "compare": (_cmd_compare, "run several variants on shared data"),
    "sample-inspect": (_cmd_sample_inspect, "dump edge weights and normalized probabilities"),
    "bench-sampling": (_cmd_bench_sampling, "time two-step vs direct edge sampling"),
    "gen-data": (_cmd_gen_data, "write a synthetic dataset to disk"),
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        opts = _options(args)
        keys = set(opts).intersection(_config_key_types())
        unread = sorted(keys - _reads(args.command, "gen" in opts))
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        return _COMMANDS[args.command][0](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # reads fail as data or config errors where they happen
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
