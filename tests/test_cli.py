"""Command-line interface tests: exit codes, artifacts, determinism."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pldlab import cli
from pldlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from pldlab.lab import MlpModel, init_mlp, model_to_dict
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


def write_model(model, path):
    path.write_text(json.dumps(model_to_dict(model)))


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

    @pytest.mark.parametrize("text", [None, "[1, 2]"], ids=["unreadable", "not-an-object"])
    def test_unusable_config_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert run(["losscheck", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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
        # the full report is still written, beside the echo and nothing else
        assert sorted(os.listdir(tmp_path / "o")) == ["config.json", "gradcheck.csv"]

    def test_step_beyond_float64_fails_verification_silently(self, tmp_path):
        """Rows perturbed to about 1e308 make ce's batch sum +inf: a failed
        check, with no numpy warning."""
        doc = {"losses": ["ce"], "class_counts": [2, 10], "trials": 2, "step": 1e308}
        cfg = write_config(tmp_path, "c.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_VERIFICATION
        assert sorted(os.listdir(tmp_path / "o")) == ["config.json", "gradcheck.csv"]

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

    def test_overflowing_spread_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"dataset": {"spread": 1e308}})
        out = tmp_path / "o"
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid dataset config: spread") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_optimizer_step_is_training_failure(self, tmp_path, capsys):
        """Features near 1e300 give gradients whose squares overflow Adam's
        second moment: the run exits 4 with one line, warns nothing and writes
        no model, where it used to stall at chance accuracy and exit 0."""
        cfg = write_config(tmp_path, "c.json", {"dataset": {"spread": 1e300}, "epochs": 1})
        out = tmp_path / "o"
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == EXIT_TRAINING
        assert capsys.readouterr().err == "training failure: optimizer step overflowed at epoch 0\n"
        assert not (out / "teacher.json").exists()

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

    @pytest.mark.parametrize("kind", ["ce", "kd", "pld"])
    def test_overflowing_teacher_is_training_failure(self, teacher_dir, tmp_path, kind):
        """A teacher whose forward overflows loads fine; the run fails before
        its first step with exit 4 and writes no model or metrics."""
        doc = json.loads((teacher_dir / "teacher.json").read_text())
        doc["weights"][0] = [w * 1e3 for w in doc["weights"][0]]
        doc["weights"][-1] = [w * 1e308 for w in doc["weights"][-1]]
        (tmp_path / "teacher.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path, "c.json", self.distill_doc(tmp_path, kind=kind))
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == EXIT_TRAINING
        assert not (out / "student.json").exists()
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("standardize", ["teacher-only", "both"])
    def test_huge_teacher_standardizes_as_its_unit_scale_self(self, tmp_path, standardize):
        """z-scores do not depend on scale.  A [16, 10] teacher with every
        parameter x1e155 (logit rows about 2.6e155 wide, whose squares overflow)
        trains a 1-epoch default student as the teacher itself does, to rounding,
        and raises no numpy warning."""
        (_, loss, top1, _), (_, huge_loss, huge_top1, _) = (
            rows[0] for rows in self.unit_and_huge_teacher_metrics(tmp_path, standardize, 1))
        assert float(huge_loss) == pytest.approx(float(loss), rel=1e-7)
        assert huge_top1 == top1

    @pytest.mark.parametrize("standardize", ["teacher-only", "both"])
    def test_teacher_kl_compares_the_logits_the_loss_sees(self, tmp_path, standardize):
        """teacher_kl is taken against the standardized teacher (and, under
        both, the standardized student), so the huge teacher's run reads the
        unit-scale run's teacher_kl, where the raw teacher logits would give
        0.183 and 1.997 at epoch 0 under teacher-only.  The two agree to the
        eps of the z-score: eps / std moves the unit teacher's z-scores by up
        to 6e-8 of a row's largest, and each teacher_kl by up to 3e-8 of itself."""
        unit, huge = self.unit_and_huge_teacher_metrics(tmp_path, standardize, 2)
        assert len(unit) == len(huge) == 2
        for row, huge_row in zip(unit, huge):
            assert float(huge_row[3]) == pytest.approx(float(row[3]), rel=1e-7)

    @staticmethod
    def unit_and_huge_teacher_metrics(tmp_path, standardize, epochs):
        """metrics.csv rows of default students of a [16, 10] teacher and of
        the same teacher x1e155, each run raising no numpy warning."""
        metrics = []
        for scale in (1.0, 1e155):
            teacher = init_mlp([16, 10], make_rng(0))
            teacher.params *= scale
            write_model(teacher, tmp_path / "teacher.json")
            doc = {"teacher": str(tmp_path / "teacher.json"),
                   "loss": {"standardize": standardize}, "epochs": epochs}
            out = tmp_path / f"o{scale}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["distill", "--config", write_config(tmp_path, "c.json", doc),
                            "--out", str(out)]) == EXIT_OK
            lines = (out / "metrics.csv").read_text().splitlines()[1:]
            metrics.append([line.split(",") for line in lines])
        return metrics

    def test_wide_teacher_reverse_kl_is_training_failure(self, tmp_path, capsys):
        """Teacher logits 2e308 apart give a class probability 0, where the
        student's is not: reverse KL is +inf.  The run exits 4 before it writes
        a model, and no numpy warning reaches stderr."""
        teacher = MlpModel(layer_sizes=(4, 4), weights=[np.zeros((4, 4))],
                           biases=[np.array([1e308, -1e308, 0.0, 0.0])])
        write_model(teacher, tmp_path / "teacher.json")
        doc = self.distill_doc(tmp_path, kind="kd", divergence="reverse-kl", kd_temperature=1.0)
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == EXIT_TRAINING
        assert not (out / "student.json").exists()
        assert not (out / "metrics.csv").exists()
        assert capsys.readouterr().err == "training failure: non-finite loss at epoch 0\n"

    def test_wide_teacher_reverse_kl_at_default_temperature_is_training_failure(
        self, tmp_path, capsys
    ):
        """At the default tau 2 the same teacher gives a finite divergence whose
        scaled mean is beyond the float64 range: exit 4 with only the one-line
        message on stderr."""
        teacher = MlpModel(layer_sizes=(4, 4), weights=[np.zeros((4, 4))],
                           biases=[np.array([1e308, -1e308, 0.0, 0.0])])
        write_model(teacher, tmp_path / "teacher.json")
        doc = self.distill_doc(tmp_path, kind="kd", divergence="reverse-kl")
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["distill", "--config", cfg, "--out", str(out)]) == EXIT_TRAINING
        assert not (out / "student.json").exists()
        assert capsys.readouterr().err == "training failure: non-finite loss at epoch 0\n"

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

    def test_huge_finite_span_writes_a_finite_grid(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**self.DOC, "span": 1e200})
        out = tmp_path / "o"
        assert run(["landscape", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "landscape.csv").read_text().strip().split("\n")[1:]
        coords = np.array([[float(f) for f in row.split(",")[:2]] for row in rows])
        assert np.isfinite(coords).all()
        assert np.abs(coords).max() == pytest.approx(1e200, rel=1e-12)

    def test_huge_span_is_silent(self, tmp_path, capsys):
        """At span 1e307 the pld rows of a grid point are finite but their flat
        sum over a 9x9 grid is not; the run writes its grid and stderr stays empty."""
        doc = {**self.DOC, "resolution": 9, "temperatures": [1.0], "loss_kinds": ["pld"]}
        cfg = write_config(tmp_path, "c.json", {**doc, "span": 1e307})
        assert run(["landscape", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert capsys.readouterr().err == ""

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
            ("gradcheck", {"losses": ["ce", "ce"]}),  # would write each ce row twice
            ("gradcheck", {"losses": ["pld"], "teacher_temperatures": [1.0, 1.0]}),
            ("landscape", {"temperatures": [1.0, 1]}),  # would write 18 rows per 9 points
            ("landscape", {"loss_kinds": ["pld", "kd", "pld"]}),
            ("landscape", {"seed": -1}),
            ("landscape", {"span": 1.5e308}),  # the grid would overflow to inf
            ("bench", {"kinds": ["ce", "ce"], "sizes": [[4, 8], [4, 8]]}),  # 4 equal rows
            ("bench", {"kinds": ["ce", "pld", "ce"], "sizes": [[4, 8]]}),
            ("bench", {"kinds": ["ce"], "sizes": [[4, 8], [4, 16], [4, 8]]}),
            # kd weighs by tau^2, which overflows to inf or underflows to 0
            ("distill", {"loss": {"kind": "kd", "kd_temperature": 1e200}}),
            ("landscape", {"temperatures": [1e200]}),
            ("landscape", {"temperatures": [5e-324]}),
            ("distill", {"loss": {"kind": "kd", "kd_temperature": 1e-320}}),
            ("bench", {"sizes": [[1, 10]], "kinds": ["dist"]}),  # intra-class term needs 2 rows
            ("gradcheck", {"threshold": -1.0}),  # a relative error is never below 0
            ("gradcheck", {"floor": -1.0}),
            ("distill", {"teacher": ""}),
            ("losscheck", {"format_version": 2}),
        ],
    )
    def test_usage_error_before_anything_is_written(
        self, tmp_path, capsys, tiny_teacher, command, doc
    ):
        if command == "distill":
            doc = {"teacher": tiny_teacher, **doc}
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
    write_model(init_mlp([16, 10], make_rng(0)), tmp_path / "teacher.json")
    monkeypatch.chdir(tmp_path)
    args_step, _ = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (args_step, lambda **kw: ({}, None)))
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


# Type-correct extremes for the fuzzer below.  No size lies between 1e8 and
# 1e9 elements, which might actually be allocated: 2**62 fails at once, and
# 2**64 is beyond numpy's index type.
_EXTREMES = {int: [0, -1, 2**62, 2**64], float: [0, -1, 2**62, 1e308, 5e-324]}


def _fields(doc, path=()):
    """Paths to every number and list of a default config (strings are names)."""
    for key, value in doc.items():
        if type(value) is dict:
            yield from _fields(value, path + (key,))
        elif type(value) is not str:
            yield path + (key,)


def _extremes(default):
    if type(default) is not list:
        return _EXTREMES[type(default)]
    lists = [[], default + default[:1]]  # empty, and the first entry repeated
    if default and type(default[0]) in _EXTREMES:
        lists += [[x] for x in _EXTREMES[type(default[0])]]
    return lists


@st.composite
def fuzzed_configs(draw):
    """A command and a config document that replaces one or two fields of
    its default config with extremes of the right JSON type."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    fields = list(_fields(cli._DEFAULTS[command]))
    doc = {}
    for path in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True)):
        default, node = cli._DEFAULTS[command], doc
        for key in path[:-1]:
            default, node = default[key], node.setdefault(key, {})
        node[path[-1]] = draw(st.sampled_from(_extremes(default[path[-1]])))
    return command, doc


@pytest.fixture(scope="module")
def tiny_teacher(tmp_path_factory):
    """A [16, 10] teacher for the default distill dataset."""
    path = tmp_path_factory.mktemp("fuzz") / "teacher.json"
    write_model(init_mlp([16, 10], make_rng(0)), path)
    return str(path)


@pytest.mark.parametrize("command, doc", [
    ("landscape", {"n_classes": 10**17}),
    ("gradcheck", {"class_counts": [10**17]}),
    ("bench", {"sizes": [[10**17, 10]]}),
    ("train-teacher", {"layer_sizes": [16, 10**16, 10]}),
    ("distill", {"layer_sizes": [16, 10**16, 10]}),
    # beyond numpy's largest array (2**63 bytes): numpy raises a ValueError
    ("landscape", {"n_classes": 2**62}),
    ("landscape", {"resolution": 2**62}),
    ("gradcheck", {"class_counts": [2**62]}),
    ("bench", {"sizes": [[2**62, 10]]}),
    ("train-teacher", {"layer_sizes": [16, 10**17, 10]}),
    ("distill", {"layer_sizes": [16, 10**17, 10]}),
    # at or beyond 2**63, numpy's index type: numpy raises "Maximum allowed ..."
    ("train-teacher", {"layer_sizes": [16, 10**30, 10]}),
    ("distill", {"layer_sizes": [16, 2**63, 10]}),
    ("gradcheck", {"class_counts": [10**30]}),
    ("gradcheck", {"batch_sizes": [2**64]}),
    ("bench", {"sizes": [[10**30, 2]]}),
    ("landscape", {"n_classes": 2**64}),
    ("landscape", {"resolution": 2**64}),
    ("landscape", {"resolution": 2**63 - 1}),  # np.linspace would index an empty grid
    # np.repeat's label count would overflow, refused in the argument step
    ("train-teacher", {"dataset": {"train_per_class": 2**63 - 1}}),
    ("distill", {"dataset": {"train_per_class": 2**63 - 1}}),
], ids=["landscape", "gradcheck", "bench", "train-teacher", "distill",
        "landscape-classes-too-big", "landscape-resolution-too-big", "gradcheck-too-big",
        "bench-too-big", "train-teacher-too-big", "distill-too-big",
        "train-teacher-beyond-index", "distill-beyond-index", "gradcheck-classes-beyond-index",
        "gradcheck-batch-beyond-index", "bench-beyond-index", "landscape-classes-beyond-index",
        "landscape-resolution-beyond-index", "landscape-resolution-int64-max",
        "train-teacher-rows-int64-max", "distill-rows-int64-max"])
def test_size_beyond_memory_is_usage_error(tmp_path, capsys, tiny_teacher, command, doc):
    """Each config fails at its first allocation, of 1e17 floats or more (711
    PiB, beyond any address space), or of more than numpy's largest array,
    which numpy refuses before allocating, or at a size numpy cannot index:
    exit 2 with a one-line message, and the output directory main made stays
    empty, since main writes only after the run.  The dataset rows fail in
    the argument step instead, before main makes the directory."""
    if command == "distill":
        doc = {**doc, "teacher": tiny_teacher}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    if "dataset" in doc:
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=fuzzed_configs())
@example(case=("train-teacher", {"dataset": {"spread": 1e308}}))  # features overflow float64
@example(case=("landscape", {"span": 1.5e308}))  # its grid would overflow to inf
@example(case=("train-teacher", {"dataset": {"train_per_class": 2**64}}))  # beyond C's long
def test_argument_step_returns_kwargs_or_config_error(tiny_teacher, case):
    """Every well-typed config either validates or is a usage error (exit 2)
    before anything is written: a config error, or a MemoryError for a size
    beyond numpy's largest array; no other exception and no numpy warning.  A
    rejected config also exits 2 through main, into a directory left empty."""
    command, doc = case
    if command == "distill":
        doc["teacher"] = tiny_teacher  # an unreadable teacher exits 5 by design
    try:
        kwargs = cli._COMMANDS[command][0](cli._merge(cli._DEFAULTS[command], doc))
    except (cli.ConfigError, MemoryError):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "o")
            with open(cfg, "w") as f:
                json.dump(doc, f)
            os.mkdir(out)
            assert main([command, "--config", cfg, "--out", out]) == EXIT_USAGE
            assert os.listdir(out) == []
        return
    assert type(kwargs) is dict


# Configs whose run steps take milliseconds, so the fuzzer can run them, and
# the artifacts each writes beside its config echo.
_TINY_TRAINING = {
    "dataset": {"train_per_class": 5, "test_per_class": 2}, "layer_sizes": [16, 8, 10],
    "epochs": 1,
}
_QUICK_RUNS = {
    "landscape": ({"resolution": 3, "n_classes": 4}, ["landscape.csv"]),
    "bench": ({"sizes": [[2, 4]], "trials": 1, "warmup": 0}, ["bench.csv"]),
    "train-teacher": (_TINY_TRAINING, ["metrics.csv", "teacher.json"]),
    "distill": (_TINY_TRAINING, ["metrics.csv", "student.json"]),
}
_DIVERGING = {"optimizer": {"learning_rate": 1e300}}


@st.composite
def fuzzed_quick_runs(draw):
    """A command from its quick config, with one or two fields replaced by
    extremes; the counts that set a run's length (bench's trials and warmup,
    epochs) are never drawn."""
    command = draw(st.sampled_from(sorted(_QUICK_RUNS)))
    doc = json.loads(json.dumps(_QUICK_RUNS[command][0]))
    defaults = cli._merge(cli._DEFAULTS[command], doc)
    fields = [f for f in _fields(defaults) if f[-1] not in ("trials", "warmup", "epochs")]
    for path in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True)):
        default, node = defaults, doc
        for key in path[:-1]:
            default, node = default[key], node.setdefault(key, {})
        node[path[-1]] = draw(st.sampled_from(_extremes(default[path[-1]])))
    return command, doc


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=fuzzed_quick_runs())
@example(case=("landscape", {**_QUICK_RUNS["landscape"][0], "temperatures": [1e200]}))
@example(case=("bench", {**_QUICK_RUNS["bench"][0], "sizes": [[1, 10]], "kinds": ["dist"]}))
@example(case=("train-teacher", {**_TINY_TRAINING, **_DIVERGING}))  # the last step diverges
@example(case=("distill", {**_TINY_TRAINING, **_DIVERGING}))
def test_run_step_exits_cleanly(tiny_teacher, case):
    """A config that passes the argument step also runs: through main, every
    config exits 0, 2 or, for the training commands, 4, with no exception and
    no warning, and leaves the files of its exit code: the echo and every
    artifact after 0, nothing after 2, the echo alone after 4."""
    command, doc = case
    if command == "distill":
        doc = {**doc, "teacher": tiny_teacher}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "o")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        os.mkdir(out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", out])
        left = {
            EXIT_OK: sorted(["config.json", *_QUICK_RUNS[command][1]]),
            EXIT_USAGE: [],
        }
        if command in ("train-teacher", "distill"):
            left[EXIT_TRAINING] = ["config.json"]
        assert code in left
        assert sorted(os.listdir(out)) == left[code]
