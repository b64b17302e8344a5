"""Command-line interface: subcommands, config files, exit codes."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spangraph
from spangraph import graphstore, runner
from spangraph.cli import _config_key_types, _reads, main, parse_config_file
from spangraph.errors import ConfigError
from spangraph.graphstore import build_propagation


def run_cli(*argv):
    return main(list(argv))


# the generator flags only one kind reads
KIND_FLAGS = {"sbm": ["--p-in", "0.5", "--p-out", "0.1"],
              "preferential-attachment": ["--attach", "2"]}


@pytest.fixture
def dataset_dir(tmp_path):
    rc = run_cli("gen-data", "--kind", "sbm", "--nodes", "50", "--classes", "2",
                 "--feature-dim", "4", "--p-in", "0.4", "--p-out", "0.05",
                 "--seed", "3", "--out", str(tmp_path / "data"))
    assert rc == 0
    return tmp_path / "data"


class TestGenData:
    def test_writes_standard_files(self, dataset_dir):
        for name in ("edges.txt", "features.csv", "labels.txt", "splits.txt"):
            assert (dataset_dir / name).exists()

    def test_requires_out(self):
        assert run_cli("gen-data", "--kind", "sbm", "--nodes", "10",
                       "--classes", "2") == 1

    def test_bad_spec_is_config_error(self, tmp_path):
        rc = run_cli("gen-data", "--kind", "sbm", "--nodes", "3",
                     "--classes", "5", "--out", str(tmp_path / "d"))
        assert rc == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_gen_naming_another_kind_is_config_error(self, source, tmp_path, capsys):
        args = ["--nodes", "300", "--out", str(tmp_path / "d")]
        if source == "flag":
            args += ["--gen", "preferential-attachment"]
        else:
            (tmp_path / "c.cfg").write_text("gen = preferential-attachment\n")
            args += ["--config", str(tmp_path / "c.cfg")]
        assert run_cli("gen-data", *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "'preferential-attachment'" in err and "'sbm'" in err, err
        assert not (tmp_path / "d").exists()

    def test_gen_naming_the_same_kind_is_accepted(self, tmp_path):
        assert run_cli("gen-data", "--gen", "preferential-attachment", "--kind",
                       "preferential-attachment", "--nodes", "30", "--attach", "2",
                       "--out", str(tmp_path / "d")) == 0

    def test_binary_features_flag(self, tmp_path):
        rc = run_cli("gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--binary-features",
                     "--out", str(tmp_path / "d"))
        assert rc == 0
        assert (tmp_path / "d" / "features.bin").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_options_it_does_not_read_are_config_error(self, source, tmp_path, capsys):
        unread = ["--data", "/nonexistent", "--epochs", "5", "--baseline", "full",
                  "--no-timings"]
        if source == "config":
            cfg = tmp_path / "gen.cfg"
            cfg.write_text("data=/nonexistent\nepochs=5\nbaseline=full\ntimings=off\n")
            unread = ["--config", str(cfg)]
        rc = run_cli("gen-data", *unread, "--nodes", "30", "--out", str(tmp_path / "d"))
        assert rc == 1
        assert capsys.readouterr().err == (
            "config error: gen-data does not read baseline, data, epochs, timings\n")
        assert not (tmp_path / "d").exists()

    def test_every_option_it_reads_is_accepted(self, tmp_path):
        for kind, knobs in KIND_FLAGS.items():
            cfg = tmp_path / "gen.cfg"
            cfg.write_text(f"gen={kind}\nseed=4\n")
            rc = run_cli("gen-data", "--config", str(cfg), "--kind", kind,
                         "--nodes", "30", "--classes", "3", "--feature-dim", "2",
                         *knobs, "--feature-noise", "0.5", "--binary-features",
                         "--out", str(tmp_path / kind))
            assert rc == 0, kind


class TestTrain:
    def test_train_on_generated_dataset(self, dataset_dir, tmp_path, capsys):
        rc = run_cli("train", "--data", str(dataset_dir), "--epochs", "5",
                     "--hidden", "8", "--alpha-up", "0.5", "--s1", "20",
                     "--s2", "5", "--seed", "1", "--out", str(tmp_path / "run"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained 5 epochs" in out
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = run_cli("train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run"))
        assert rc == 2

    def test_malformed_edges_is_data_error(self, dataset_dir, tmp_path):
        (dataset_dir / "edges.txt").write_text("0 1\n1 zzz\n")
        rc = run_cli("train", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "run"))
        assert rc == 2

    def test_bad_flag_value_is_config_error(self, dataset_dir, tmp_path):
        rc = run_cli("train", "--data", str(dataset_dir), "--alpha-up", "1.5",
                     "--out", str(tmp_path / "run"))
        assert rc == 1

    def test_no_train_split_is_data_error(self, dataset_dir, tmp_path, capsys):
        splits = dataset_dir / "splits.txt"
        splits.write_text(splits.read_text().replace("train", "none"))
        rc = run_cli("train", "--data", str(dataset_dir), "--epochs", "2",
                     "--out", str(tmp_path / "run"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_unknown_flag_is_config_error(self, tmp_path):
        assert run_cli("train", "--nonsense") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_is_exit_three(self, dataset_dir, tmp_path):
        # the first step scales the weights by about lr, so the second
        # forward's logits (about lr**2) overflow before any relu can die
        rc = run_cli("train", "--data", str(dataset_dir), "--lr", "1e200",
                     "--epochs", "60", "--hidden", "8",
                     "--out", str(tmp_path / "run"))
        assert rc == 3

    def test_baseline_full(self, dataset_dir, tmp_path):
        rc = run_cli("train", "--data", str(dataset_dir), "--baseline", "full",
                     "--epochs", "3", "--hidden", "8",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "1.0" for row in rows)

    def test_determinism_with_no_timings(self, dataset_dir, tmp_path):
        common = ["train", "--data", str(dataset_dir), "--epochs", "8",
                  "--hidden", "8", "--seed", "42", "--no-timings"]
        assert run_cli(*common, "--out", str(tmp_path / "r1")) == 0
        assert run_cli(*common, "--out", str(tmp_path / "r2")) == 0
        assert ((tmp_path / "r1" / "metrics.csv").read_bytes()
                == (tmp_path / "r2" / "metrics.csv").read_bytes())


class TestConfigFile:
    def test_file_values_then_flag_overrides(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# experiment\ndata={dataset_dir}\nepochs=4\nhidden=8\n"
            f"alpha_up=0.5\nseed=2\nout={tmp_path / 'from_file'}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 0
        assert (tmp_path / "from_file" / "metrics.csv").exists()
        # flag wins over the file value
        assert run_cli("train", "--config", str(cfg), "--epochs", "2",
                       "--out", str(tmp_path / "flag_out")) == 0
        lines = (tmp_path / "flag_out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("energy=9000\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=many\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(cfg)

    def test_value_types_follow_the_flags(self, tmp_path):
        cfg = tmp_path / "types.cfg"
        cfg.write_text("feature_noise=0.5\nattach=3\nvariants=a,b\ntimings=off\n")
        values = parse_config_file(cfg)
        assert values == {"feature_noise": 0.5, "attach": 3, "variants": "a,b",
                          "timings": False}
        assert type(values["feature_noise"]) is float
        assert type(values["attach"]) is int
        cfg.write_text("timings=maybe\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(cfg)
        for key in ("config", "bench_nodes"):
            cfg.write_text(f"{key}=1\n")
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_file(cfg)

    def test_accepted_keys(self):
        assert set(_config_key_types()) == {
            "data", "edges", "features", "labels", "splits", "gen", "nodes",
            "classes", "feature_dim", "p_in", "p_out", "attach", "feature_noise",
            "alpha_up", "beta", "s1", "s2", "sampler", "baseline", "model",
            "layers", "hidden", "lr", "epochs", "seed", "out", "timings",
            "diag_every", "diag_samples", "variants",
        }

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("train", "--config", str(tmp_path / "none.cfg")) == 1

    @pytest.mark.parametrize("command", ["train", "compare", "sample-inspect",
                                         "bench-sampling", "gen-data"])
    @pytest.mark.parametrize("key", ["model", "sampler", "baseline"])
    def test_a_value_outside_the_flags_choices_is_config_error(self, key, command,
                                                                tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=foo\n")
        rc = run_cli(command, "--config", str(cfg), "--gen", "sbm", "--nodes", "40",
                     "--epochs", "2", "--s1", "20", "--s2", "5",
                     "--out", str(tmp_path / "out"))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}:1: bad value 'foo' for key {key!r}\n")


class TestSampleInspect:
    def test_csv_schema_and_content(self, tmp_path, capsys):
        rc = run_cli("gen-data", "--kind", "sbm", "--nodes", "12",
                     "--classes", "2", "--p-in", "0.6", "--p-out", "0.1",
                     "--out", str(tmp_path / "d"))
        assert rc == 0
        capsys.readouterr()
        rc = run_cli("sample-inspect", "--data", str(tmp_path / "d"),
                     "--sampler", "vm")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "edge_index,u,v,weight,normalized_prob"
        total = 0.0
        for line in lines[1:]:
            idx, u, v, w, p = line.split(",")
            assert int(u) < int(v)
            total += float(p)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_writes_file_with_out(self, dataset_dir, tmp_path):
        rc = run_cli("sample-inspect", "--data", str(dataset_dir),
                     "--sampler", "gnr", "--out", str(tmp_path / "ins"))
        assert rc == 0
        text = (tmp_path / "ins" / "sample_inspect.csv").read_text()
        assert text.startswith("edge_index,u,v,weight,normalized_prob")

    @pytest.mark.parametrize("sampler,builds", [("vm", 0), ("uniform", 0), ("gnr", 1)])
    def test_builds_the_full_matrix_only_for_gnr(self, sampler, builds, dataset_dir,
                                                  monkeypatch, capsys):
        calls = []

        def counted(sub, kind):
            calls.append(kind)
            return build_propagation(sub, kind)

        monkeypatch.setattr(graphstore, "build_propagation", counted)
        assert run_cli("sample-inspect", "--data", str(dataset_dir), "--sampler", sampler) == 0
        assert len(calls) == builds
        assert capsys.readouterr().out.startswith("edge_index,u,v,weight,normalized_prob\n")


class TestCompareCli:
    def test_compare_runs_and_prints_summary(self, dataset_dir, tmp_path, capsys):
        rc = run_cli("compare", "--data", str(dataset_dir), "--epochs", "4",
                     "--hidden", "8", "--s1", "20", "--s2", "5",
                     "--variants", "spangnn-vm,full",
                     "--out", str(tmp_path / "cmp"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "spangnn-vm" in out and "full" in out
        assert (tmp_path / "cmp" / "combined.csv").exists()
        assert (tmp_path / "cmp" / "summary.csv").exists()

    def test_no_timings_summary_is_byte_stable(self, dataset_dir, tmp_path,
                                               monkeypatch, capsys):
        """Reruns give the same summary.csv and stdout, whatever the clock reads."""
        outputs = []
        for run, step in enumerate((1, 7)):
            ticks = itertools.count(step=step)
            monkeypatch.setattr(runner, "_now_ms", lambda: next(ticks))
            rc = run_cli("compare", "--data", str(dataset_dir), "--epochs", "3",
                         "--hidden", "8", "--s1", "20", "--s2", "5",
                         "--variants", "spangnn-vm,full", "--no-timings",
                         "--out", str(tmp_path / f"cmp{run}"))
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert ((tmp_path / "cmp0" / "summary.csv").read_bytes()
                == (tmp_path / "cmp1" / "summary.csv").read_bytes())

    def test_single_variant_rejected(self, dataset_dir, tmp_path):
        rc = run_cli("compare", "--data", str(dataset_dir),
                     "--variants", "full", "--out", str(tmp_path / "cmp"))
        assert rc == 1

    def test_variants_from_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"data={dataset_dir}\nepochs=3\nhidden=8\n"
                       f"variants=spangnn-uniform,full\nout={tmp_path / 'cmp'}\n")
        assert run_cli("compare", "--config", str(cfg)) == 0
        summary = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        assert summary[1].startswith("spangnn-uniform,")


class TestBenchSamplingCli:
    def test_small_synthetic_bench(self, capsys):
        rc = run_cli("bench-sampling", "--bench-nodes", "2000",
                     "--bench-edges", "20000", "--s1", "400", "--s2", "100",
                     "--runs", "3", "--seed", "1")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("method,run,elapsed_ms")
        assert "speedup" in out


class TestUnreadOptions:
    """Every subcommand refuses, and names, each option it does not read,
    whether a flag or a config key sets it, before it reads any data."""

    @pytest.mark.parametrize("command,argv,named", [
        ("sample-inspect", "--gen sbm --nodes 30 --epochs 5 --alpha-up 0.3 "
         "--baseline full --lr 9 --no-timings", "alpha_up, baseline, epochs, lr, timings"),
        ("bench-sampling", "--bench-nodes 2000 --bench-edges 20000 --s1 400 --s2 100 "
         "--runs 1 --epochs 5 --baseline dropedge --hidden 3 --lr 9 --diag-every 4 "
         "--out {out}", "baseline, diag_every, epochs, hidden, lr, out"),
        # generator options without --gen
        ("sample-inspect", "--data /nonexistent --nodes 500 --attach 9 --sampler vm",
         "attach, nodes"),
        ("sample-inspect", "--data /nonexistent --seed 3", "seed"),
        ("train", "--data /nonexistent --nodes 500 --p-in 0.3 --out {out}", "nodes, p_in"),
        ("compare", "--data /nonexistent --feature-noise 2 --out {out}", "feature_noise"),
        ("bench-sampling", "--nodes 60 --classes 3", "classes, nodes"),
    ])
    def test_flags(self, command, argv, named, tmp_path, capsys):
        rc = run_cli(command, *argv.format(out=tmp_path / "out").split())
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {command} does not read {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,keys,named", [
        ("train", "variants=spangnn-vm,full\n", "variants"),
        ("sample-inspect", "alpha_up=0.3\nbeta=0.2\ns1=5\ns2=2\nlayers=3\n"
         "diag_every=1\ndiag_samples=2\nvariants=full\n",
         "alpha_up, beta, diag_every, diag_samples, layers, s1, s2, variants"),
        ("bench-sampling", "model=sage\nout=x\ntimings=off\nepochs=2\n",
         "epochs, model, out, timings"),
        ("gen-data", "sampler=gnr\nhidden=4\n", "hidden, sampler"),
        ("train", "nodes=500\np_out=0.1\n", "nodes, p_out"),
    ])
    def test_config_keys(self, command, keys, named, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data={dataset_dir}\n" * (command != "gen-data") + keys)
        out = ["--out", str(tmp_path / "out")] * (command in ("train", "gen-data"))
        capsys.readouterr()
        assert run_cli(command, "--config", str(cfg), *out) == 1
        assert capsys.readouterr().err == f"config error: {command} does not read {named}\n"
        assert not (tmp_path / "out").exists()

    def test_compare_reads_every_config_key(self):
        assert set(_config_key_types()) <= _reads("compare")

    def test_sample_inspect_accepts_every_option_it_reads(self, tmp_path):
        for kind, knobs in KIND_FLAGS.items():
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"gen={kind}\nseed=4\n")
            assert run_cli("sample-inspect", "--config", str(cfg), "--nodes", "30",
                           "--classes", "3", "--feature-dim", "2", *knobs,
                           "--feature-noise", "0.5", "--model", "sage", "--sampler", "gnr",
                           "--out", str(tmp_path / kind)) == 0, kind

    def test_bench_sampling_accepts_every_option_it_reads(self, tmp_path, capsys):
        for kind, knobs in KIND_FLAGS.items():
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"gen={kind}\nseed=4\n")
            assert run_cli("bench-sampling", "--config", str(cfg), "--nodes", "60",
                           "--classes", "3", "--feature-dim", "2", *knobs,
                           "--feature-noise", "0.5", "--sampler", "gnr", "--s1", "20",
                           "--s2", "5", "--runs", "1", "--bench-nodes", "100",
                           "--bench-edges", "200") == 0, kind
            assert "speedup" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,fault", [
        ("--nodes 60", "s1=10000"),
        ("--nodes 60 --s1 0", "s1=0"),
        ("--nodes 60 --s1 20 --s2 5 --runs 0", "runs must be >= 1"),
    ])
    def test_bench_sampling_names_its_own_faults(self, argv, fault, capsys):
        assert run_cli("bench-sampling", "--gen", "sbm", *argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and fault in err, err


class TestGeneratorKinds:
    """Each generator kind refuses, by name, the options only the other reads."""

    @pytest.mark.parametrize("argv,message", [
        ("train --gen sbm --attach 9 --out {out}", "the sbm generator does not read attach"),
        ("sample-inspect --gen preferential-attachment --p-in 0.3 --p-out 0.1",
         "the preferential-attachment generator does not read p_in, p_out"),
        ("gen-data --kind sbm --attach 3 --out {out}",
         "the sbm generator does not read attach"),
        ("gen-data --kind preferential-attachment --p-out 0.1 --out {out}",
         "the preferential-attachment generator does not read p_out"),
        ("train --config {cfg} --out {out}",
         "the preferential-attachment generator does not read p_in"),
    ])
    def test_options_of_the_other_kind(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gen=preferential-attachment\np_in=0.2\n")
        argv = argv.format(cfg=cfg, out=tmp_path / "out")
        assert run_cli(*argv.split()) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestInputErrors:
    """Bad input exits 1 (config) or 2 (data) with a message, never a traceback."""

    @pytest.mark.parametrize("argv,code,prefix", [
        ("train --gen sbm --nodes 60 --diag-every 1 --diag-samples 1", 1, "config error:"),
        ("train --gen sbm --nodes 60 --diag-every -1", 1, "config error:"),
        ("train --gen sbm --p-in 0 --p-out 0 --baseline full --diag-every 1",
         1, "config error:"),
        ("sample-inspect --gen sbm --p-in 0 --p-out 0", 2, "data error:"),
        ("bench-sampling --gen sbm --nodes 60", 1, "config error:"),
        ("bench-sampling --gen sbm --nodes 60 --s1 0", 1, "config error:"),
        ("bench-sampling --gen sbm --nodes 60 --s1 20 --s2 5 --runs 0",
         1, "config error:"),
        ("train --data {bad_data}", 2, "data error:"),
        ("train --config {bad_config}", 1, "config error:"),
        ("train --gen sbm --nodes 40 --epochs 2 --out {file}/x", 1, "config error:"),
        ("gen-data --out {file}/x", 1, "config error:"),
        ("train --gen sbm --nodes 40 --epochs 2 --lr nan", 1, "config error:"),
        ("train --gen sbm --nodes 40 --epochs 2 --lr inf", 1, "config error:"),
        ("train --gen sbm --nodes 40 --epochs 2 --feature-noise nan", 1, "config error:"),
        ("train --gen sbm --nodes 40 --epochs 2 --feature-noise inf", 1, "config error:"),
    ])
    def test_exit_code_and_message(self, argv, code, prefix, dataset_dir,
                                   tmp_path, capsys):
        (dataset_dir / "labels.txt").write_bytes(b"0\n\xff\xfe\n")
        (tmp_path / "bad.cfg").write_bytes(b"epochs=\xe9\n")
        (tmp_path / "file").write_bytes(b"")
        argv = argv.format(bad_data=dataset_dir, bad_config=tmp_path / "bad.cfg",
                           file=tmp_path / "file")
        reads_out = "out" in _reads(argv.split()[0]) and "--out" not in argv
        out = ["--out", str(tmp_path / "out")] * reads_out
        capsys.readouterr()
        assert run_cli(*argv.split(), *out) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err and "does not read" not in err, err


# the dataset source cases, and what each command reading a dataset answers
ONE_SOURCE = ("config error: configure exactly one dataset source: a data directory, "
              "explicit file paths, or a generator spec")
SOURCE_CASES = {
    "none": ("", ONE_SOURCE),
    "edges alone": ("--edges {d}/edges.txt",
                    "config error: missing dataset paths: features, labels, splits"),
    "data and gen": ("--data {d} --gen sbm", ONE_SOURCE),
    "features alone": ("--features {d}/features.csv",
                       "config error: missing dataset paths: edges, labels, splits"),
}


class TestDatasetSource:
    """Every command that reads a dataset refuses zero, two or partial
    sources with exit 1, before it reads data or makes its output directory;
    ``bench-sampling`` given no source times its own random graph, so a lone
    features path stands in for its no-source case."""

    @pytest.mark.parametrize("command,case", [
        *((command, case) for command in ("train", "compare", "sample-inspect")
          for case in ("none", "edges alone", "data and gen")),
        ("bench-sampling", "features alone"), ("bench-sampling", "edges alone"),
        ("bench-sampling", "data and gen")])
    def test_exits_one_with_a_config_error(self, command, case, tmp_path, capsys):
        source, fault = SOURCE_CASES[case]
        out = ["--out", str(tmp_path / "out")] * (command != "bench-sampling")
        assert run_cli(command, *source.format(d=tmp_path / "d").split(), *out) == 1
        assert capsys.readouterr().err == fault + "\n"
        assert not (tmp_path / "out").exists()

    def test_bench_sampling_without_a_source_times_its_own_graph(self, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(runner, "load_run_graph", loads.append)
        assert run_cli("bench-sampling", "--bench-nodes", "100", "--bench-edges", "200",
                       "--s1", "20", "--s2", "5", "--runs", "1") == 0
        assert loads == [] and "speedup" in capsys.readouterr().out


class TestUnwritableOutput:
    """An output file that cannot be written exits 1 with a config error.
    ``train`` and ``compare`` refuse it before any training step, and the
    check leaves no file behind."""

    @pytest.mark.parametrize("argv,name", [
        ("train --gen sbm --nodes 40 --epochs 2", "metrics.csv"),
        ("train --gen sbm --nodes 40 --epochs 2", "checkpoint.spgw"),
        ("train --gen sbm --nodes 40 --epochs 2 --diag-every 1", "diagnostics.csv"),
        ("compare --gen sbm --nodes 40 --epochs 2 --variants spangnn-vm,full", "combined.csv"),
        ("compare --gen sbm --nodes 40 --epochs 2 --variants spangnn-vm,full", "summary.csv"),
        ("compare --gen sbm --nodes 40 --epochs 2 --variants spangnn-vm,full --diag-every 1",
         "diagnostics.csv"),
        ("sample-inspect --gen sbm --nodes 40", "sample_inspect.csv"),
        ("gen-data --kind sbm --nodes 40", "edges.txt"),
    ])
    def test_a_directory_in_place_of_an_output_file(self, argv, name, tmp_path, capsys,
                                                    monkeypatch):
        steps = []
        step = runner.train_step
        monkeypatch.setattr(runner, "train_step", lambda *args: steps.append(1) or step(*args))
        (tmp_path / "out" / name).mkdir(parents=True)
        assert run_cli(*argv.split(), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ") and name in err, err
        assert err.count("\n") == 1
        assert not steps
        assert os.listdir(tmp_path / "out") == [name]


class TestOversizedInputs:
    """A node count past the edge-key bound, a negative edge count, or a
    width numpy cannot shape is refused as a config error before any array
    of that size is asked for."""

    @pytest.mark.parametrize("argv,fault", [
        ("bench-sampling --bench-edges -1", "edge count must be >= 0, got -1"),
        ("bench-sampling --bench-nodes 5000000000 --bench-edges 10 --s1 5 --s2 2 --runs 1",
         "nodes (5000000000) exceed the 3037000499"),
        ("gen-data --kind sbm --nodes 100000000000000000000 --classes 2 --out {out}",
         "nodes (100000000000000000000) exceed the 3037000499"),
        ("gen-data --kind preferential-attachment --nodes 100 --classes 2 "
         "--attach 100000000000000000000 --out {out}",
         "attach 100000000000000000000 needs a 20000000000000000000000 array"),
        ("train --gen sbm --nodes 200 --classes 2 --epochs 2 --out {out} "
         "--feature-dim 10000000000000000000",
         "feature_dim 10000000000000000000 needs a 200 x 10000000000000000000 array"),
        ("train --gen sbm --nodes 3000 --classes 2 --epochs 2 --out {out} "
         "--hidden 1000000000000000000",
         "hidden_dim 1000000000000000000 needs a 16 x 1000000000000000000 array"),
    ])
    def test_exits_one_with_a_config_error(self, argv, fault, tmp_path, capsys):
        assert run_cli(*argv.format(out=tmp_path / "out").split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and fault in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestConfigFaultMessages:
    """Config faults that name themselves, with exit code 1."""

    @pytest.mark.parametrize("command,fault", [
        ("train", "train requires --out DIR for the metrics CSV"),
        ("compare", "compare requires --out DIR for the combined CSV"),
    ])
    def test_run_without_out(self, command, fault, capsys):
        assert run_cli(command, "--gen", "sbm", "--nodes", "40", "--epochs", "2") == 1
        assert capsys.readouterr().err == f"config error: {fault}\n"

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# run\nepochs 4\n")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}:2: expected key=value, got 'epochs 4'\n")


class TestThreadCap:
    def test_invalid_thread_cap_is_config_error(self, monkeypatch):
        monkeypatch.setenv("SPANGRAPH_THREADS", "zero")
        assert main(["gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--out", "/tmp/ignored"]) == 1

    @pytest.mark.parametrize("cap", ["\u00b2", "\u0663", "\uff12", "0", "+2", "2.0"])
    def test_a_cap_of_anything_but_ascii_digits_is_config_error(self, cap, monkeypatch,
                                                                 tmp_path, capsys):
        """Superscripts pass str.isdigit and Arabic-Indic digits pass int(),
        but no BLAS reads either."""
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SPANGRAPH_THREADS", cap)
        assert main(["gen-data", "--nodes", "10", "--classes", "2",
                     "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.startswith("config error: SPANGRAPH_THREADS")
        assert "OMP_NUM_THREADS" not in os.environ

    def test_thread_cap_propagates(self, monkeypatch, tmp_path):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SPANGRAPH_THREADS", "2")
        assert main(["gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--out", str(tmp_path / "d")]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_importing_the_cli_loads_no_numpy(self):
        """The cap must be set before numpy loads, so the CLI module, its flag
        table included, imports no numeric library at module level."""
        code = "import sys, spangraph.cli; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(spangraph.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=env)
        assert done.stdout == "False\n", done.stderr


class TestHelp:
    @pytest.mark.parametrize("command,listed,omitted", [
        ("gen-data", ["--nodes", "--seed", "--out", "--kind"], ["--epochs", "--lr", "--data"]),
        ("train", ["--epochs", "--lr", "--data", "--nodes"], ["--variants", "--kind"]),
        ("compare", ["--variants", "--epochs"], ["--runs"]),
        ("sample-inspect", ["--sampler", "--model", "--gen"], ["--epochs", "--s1"]),
        ("bench-sampling", ["--s1", "--runs", "--seed"], ["--epochs", "--out"]),
    ])
    def test_lists_only_the_flags_a_command_reads(self, command, listed, omitted, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli(command, "--help")
        assert exit_.value.code == 0
        words = capsys.readouterr().out.split()
        assert all(flag in words for flag in listed), words
        assert not any(flag in words for flag in omitted), words


class TestOutOfMemory:
    def test_exits_one_with_numpys_message(self, monkeypatch, tmp_path, capsys):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(runner, "run_training", exhausted)
        assert run_cli("train", "--gen", "sbm", "--nodes", "40", "--epochs", "2",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err == "config error: out of memory: Unable to allocate 745. GiB for an array\n"
        assert "Traceback" not in err
