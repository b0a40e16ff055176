"""Command-line interface tests: exit codes, artifacts, determinism."""

import json

import pytest

from pldlab import cli
from pldlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from pldlab.lab import init_mlp, save_model
from pldlab.numerics import make_rng

TINY_DATASET = {
    "n_classes": 4,
    "dim": 4,
    "train_per_class": 30,
    "test_per_class": 15,
    "spread": 1.0,
    "noise_rate": 0.1,
    "seed": 0,
}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return main(argv)


class TestLosscheck:
    def test_default_identities_pass(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"instances": 10})
        code = run(["losscheck", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        table = (tmp_path / "o" / "losscheck.csv").read_text()
        assert "pld-onehot-equals-ce" in table
        assert "FAIL" not in table
        assert "enumeration-total-probability" in table

    def test_malformed_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o"
        code = run(["losscheck", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not (out / "losscheck.csv").exists()

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"instancez": 10})
        assert run(["losscheck", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "bench"})
        assert run(["losscheck", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE


class TestGradcheck:
    BASE = {
        "trials": 6,
        "class_counts": [2, 5],
        "batch_sizes": [1, 3],
        "losses": ["ce", "kd", "pld"],
        "teacher_temperatures": [1.0],
    }

    def test_passes_and_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.BASE)
        out = tmp_path / "o"
        assert run(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "gradcheck.csv").read_text().strip().split("\n")
        assert lines[0] == "loss_kind,n_classes,batch,max_rel_error"
        assert len(lines) > 1

    def test_impossible_threshold_fails_verification(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {**self.BASE, "floor": 0.0, "threshold": 1e-300}
        )
        code = run(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_VERIFICATION
        # the full report is still written
        assert (tmp_path / "o" / "gradcheck.csv").exists()

    def test_zero_step_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**self.BASE, "step": 0.0})
        assert run(["gradcheck", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.fixture(scope="module")
def teacher_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    doc = {
        "dataset": TINY_DATASET,
        "layer_sizes": [4, 16, 4],
        "epochs": 4,
        "batch_size": 32,
    }
    cfg = out / "in.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train-teacher", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out


class TestTrainTeacher:
    def test_artifacts_written(self, teacher_dir):
        assert (teacher_dir / "teacher.json").exists()
        assert (teacher_dir / "metrics.csv").exists()
        echoed = json.loads((teacher_dir / "config.json").read_text())
        assert echoed["command"] == "train-teacher"
        assert echoed["format_version"] == 1
        assert echoed["epochs"] == 4
        assert echoed["optimizer"]["learning_rate"] == 1e-3  # default made explicit

    def test_metrics_header(self, teacher_dir):
        lines = (teacher_dir / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,test_top1,teacher_kl"
        assert len(lines) == 5

    def test_rerun_from_echoed_config_is_byte_identical(self, teacher_dir, tmp_path):
        out2 = tmp_path / "again"
        code = main(
            [
                "train-teacher",
                "--config",
                str(teacher_dir / "config.json"),
                "--out",
                str(out2),
            ]
        )
        assert code == EXIT_OK
        for name in ("teacher.json", "metrics.csv", "config.json"):
            assert (out2 / name).read_bytes() == (teacher_dir / name).read_bytes()

    def test_divergent_run_exits_training_failure(self, tmp_path):
        doc = {
            "dataset": TINY_DATASET,
            "layer_sizes": [4, 8, 4],
            "epochs": 3,
            "batch_size": 32,
            "optimizer": {"learning_rate": 1e30},
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == EXIT_TRAINING
        assert not (out / "teacher.json").exists()
        assert not (out / "metrics.csv").exists()


class TestDistill:
    def distill_doc(self, teacher_dir, **loss):
        return {
            "teacher": str(teacher_dir / "teacher.json"),
            "dataset": TINY_DATASET,
            "layer_sizes": [4, 8, 4],
            "loss": loss,
            "epochs": 3,
            "batch_size": 32,
        }

    def test_end_to_end_and_frozen_teacher(self, teacher_dir, tmp_path):
        teacher_bytes = (teacher_dir / "teacher.json").read_bytes()
        cfg = write_config(tmp_path, "c.json", self.distill_doc(teacher_dir, kind="pld"))
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "student.json").exists()
        assert (out / "metrics.csv").exists()
        assert (teacher_dir / "teacher.json").read_bytes() == teacher_bytes

    def test_kd_table_defaults_complete(self, teacher_dir, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            self.distill_doc(teacher_dir, kind="kd", ce_mix=0.1, kd_temperature=2.0),
        )
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == EXIT_OK
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(metrics) == 4
        for line in metrics[1:]:
            fields = line.split(",")
            assert all(f not in ("nan", "inf") for f in fields)

    def test_same_seed_byte_identical_metrics(self, teacher_dir, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.distill_doc(teacher_dir, kind="dist"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["distill", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run(["distill", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "student.json").read_bytes() == (out2 / "student.json").read_bytes()

    def test_missing_teacher_is_io_error(self, teacher_dir, tmp_path):
        doc = self.distill_doc(teacher_dir, kind="pld")
        doc["teacher"] = str(tmp_path / "nowhere.json")
        cfg = write_config(tmp_path, "c.json", doc)
        assert run(["distill", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_dimension_mismatch_is_usage_error(self, teacher_dir, tmp_path):
        doc = self.distill_doc(teacher_dir, kind="pld")
        doc["layer_sizes"] = [4, 8, 5]
        cfg = write_config(tmp_path, "c.json", doc)
        assert run(["distill", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "change, code",
        [
            # the teacher reads 4 features
            ({"dataset": {**TINY_DATASET, "dim": 5}, "layer_sizes": [5, 8, 4]}, EXIT_USAGE),
            ({"teacher": "nowhere.json"}, EXIT_IO),
            # 120 examples in batches of 7 leave a last batch of one row
            ({"loss": {"kind": "dist"}, "batch_size": 7}, EXIT_USAGE),
        ],
    )
    def test_error_before_anything_is_written(
        self, teacher_dir, tmp_path, monkeypatch, change, code
    ):
        monkeypatch.chdir(tmp_path)
        doc = {**self.distill_doc(teacher_dir, kind="pld"), **change}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == code
        assert not out.exists()


class TestLandscape:
    DOC = {
        "n_classes": 12,
        "resolution": 5,
        "temperatures": [2.0, 1.0],
        "loss_kinds": ["pld", "kd"],
    }

    def test_row_count_contract(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.DOC)
        out = tmp_path / "o"
        assert run(["landscape", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "landscape.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,beta,loss_kind,temperature,value"
        assert len(lines) == 1 + 5 * 5 * 2 * 2

    def test_seeded_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["landscape", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run(["landscape", "--config", str(out1 / "config.json"), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "landscape.csv").read_bytes() == (out2 / "landscape.csv").read_bytes()

    def test_invalid_spec_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**self.DOC, "resolution": 2})
        assert run(["landscape", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE


class TestBench:
    def test_tiny_run_produces_finite_report(self, tmp_path):
        doc = {"sizes": [[4, 8], [4, 16]], "kinds": ["ce", "pld"], "trials": 2, "warmup": 1}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["bench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == "loss_kind,batch,n_classes,trials,median_seconds"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[-1]) > 0

    def test_echoed_config_is_stable(self, tmp_path):
        doc = {"sizes": [[4, 8]], "kinds": ["ce"], "trials": 1, "warmup": 0}
        cfg = write_config(tmp_path, "c.json", doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["bench", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run(["bench", "--config", str(out1 / "config.json"), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()


class TestInvalidValues:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train-teacher", {"batch_size": 0}),
            ("train-teacher", {"layer_sizes": [16, 8, 7]}),
            ("train-teacher", {"layer_sizes": "abc"}),
            ("train-teacher", {"epochs": -1}),
            ("losscheck", {"instances": "x"}),
            ("gradcheck", {"trials": "x"}),
            ("gradcheck", {"class_counts": [1]}),  # dist needs two classes
            ("train-teacher", {"epochs": 1.9}),
            ("train-teacher", {"epochs": "1"}),
            ("landscape", {"n_classes": 12.9}),
            ("losscheck", {"instances": 2.7}),
            ("gradcheck", {"losses": "ce"}),
            ("bench", {"trials": 0}),
            ("bench", {"sizes": [[0, 8]]}),
            ("bench", {"kinds": ["foo"]}),
            ("landscape", {"span": float("inf")}),  # written as Infinity
            ("gradcheck", {"threshold": float("nan")}),
            ("gradcheck", {"losses": []}),  # would check 0 cells and pass
            ("gradcheck", {"losses": ["pld"], "teacher_temperatures": []}),
            ("bench", {"sizes": []}),  # would write a header-only bench.csv
            ("bench", {"kinds": []}),
        ],
    )
    def test_usage_error_before_anything_is_written(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()


DATASET_DEFAULTS = {
    "dim": 16,
    "n_classes": 10,
    "noise_rate": 0.1,
    "seed": 0,
    "spread": 1.0,
    "test_per_class": 200,
    "train_per_class": 500,
}
OPTIMIZER_DEFAULTS = {
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-08,
    "learning_rate": 0.001,
    "weight_decay": 0.01,
}
DEFAULT_ECHOES = {
    "losscheck": {"instances": 100, "oracle_max_classes": 6, "seed": 0},
    "gradcheck": {
        "batch_sizes": [1, 8],
        "class_counts": [2, 10, 100],
        "floor": 1e-08,
        "losses": ["ce", "ls", "kd", "dist", "listmle", "plistmle", "pld"],
        "seed": 0,
        "step": 1e-05,
        "teacher_temperatures": [0.5, 1.0, 4.0],
        "threshold": 1e-05,
        "trials": 20,
    },
    "train-teacher": {
        "batch_size": 128,
        "dataset": DATASET_DEFAULTS,
        "epochs": 20,
        "layer_sizes": [16, 256, 256, 10],
        "optimizer": OPTIMIZER_DEFAULTS,
        "seed": 0,
    },
    "distill": {
        "batch_size": 128,
        "dataset": DATASET_DEFAULTS,
        "epochs": 30,
        "layer_sizes": [16, 32, 10],
        "loss": {
            "ce_mix": 0.1,
            "dist_beta": 0.45,
            "dist_gamma": 0.45,
            "divergence": "forward-kl",
            "kd_temperature": 2.0,
            "kind": "pld",
            "ls_epsilon": 0.1,
            "pld_scheme": "teacher-softmax",
            "standardize": "none",
            "teacher_temperature": 1.0,
        },
        "optimizer": OPTIMIZER_DEFAULTS,
        "seed": 0,
        "teacher": "teacher.json",
    },
    "landscape": {
        "loss_kinds": ["pld", "kd", "dist"],
        "n_classes": 100,
        "resolution": 41,
        "seed": 0,
        "span": 5.0,
        "temperatures": [2.0, 1.0, 0.5, 0.1],
    },
    "bench": {
        "kinds": ["ce", "kd", "dist", "pld"],
        "seed": 0,
        "sizes": [[256, 128], [256, 256], [256, 512], [256, 1024], [256, 1000]],
        "trials": 11,
        "warmup": 3,
    },
}


@pytest.mark.parametrize("command", sorted(DEFAULT_ECHOES))
def test_default_config_echo_is_pinned(tmp_path, monkeypatch, command):
    """The echo of every default config, byte for byte; the run step is skipped."""
    save_model(init_mlp([16, 10], make_rng(0)), tmp_path / "teacher.json")
    monkeypatch.chdir(tmp_path)
    args_step, _ = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (args_step, lambda out_dir, **kw: EXIT_OK))
    assert main([command, "--out", "o"]) == EXIT_OK
    expected = {"format_version": 1, "command": command, **DEFAULT_ECHOES[command]}
    text = (tmp_path / "o" / "config.json").read_text()
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestSeedFlag:
    def test_seed_flag_overrides_config(self, tmp_path):
        doc = {
            "dataset": TINY_DATASET,
            "layer_sizes": [4, 8, 4],
            "epochs": 1,
            "batch_size": 32,
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["train-teacher", "--config", cfg, "--seed", "77", "--out", str(out)]) == EXIT_OK
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["seed"] == 77
