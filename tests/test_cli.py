"""Command-line interface: subcommands, config files, exit codes."""

import itertools

import pytest

from spangraph import runner
from spangraph.cli import _config_key_types, main, parse_config_file
from spangraph.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


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

    def test_binary_features_flag(self, tmp_path):
        rc = run_cli("gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--binary-features",
                     "--out", str(tmp_path / "d"))
        assert rc == 0
        assert (tmp_path / "d" / "features.bin").exists()


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
        rc = run_cli("train", "--data", str(dataset_dir), "--lr", "1e12",
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
        out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert run_cli(*argv.split(), *out) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err


class TestThreadCap:
    def test_invalid_thread_cap_is_config_error(self, monkeypatch):
        monkeypatch.setenv("SPANGRAPH_THREADS", "zero")
        assert main(["gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--out", "/tmp/ignored"]) == 1

    def test_thread_cap_propagates(self, monkeypatch, tmp_path):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SPANGRAPH_THREADS", "2")
        import os
        assert main(["gen-data", "--kind", "sbm", "--nodes", "10",
                     "--classes", "2", "--out", str(tmp_path / "d")]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
