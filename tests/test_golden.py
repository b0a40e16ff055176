"""The default verify artifacts, a small training run and the pld kernel
keep their bytes.

``gradcheck``, ``losscheck`` and ``landscape`` at their default configs must write the
bytes recorded below, as must a two-epoch teacher and pld, kd and dist
student runs, and
``pld_loss`` on two seeded 32 x 1000 batches must return them (loss,
gradient and rows), as must ``kd_loss`` with reverse KL and with JS and
``dist_loss`` on the first of them.  A change that moves these bits on purpose, such as a
sort that moves a permutation, says so in CHANGES.md and records the new
digests here.  exp and log round differently
across numpy builds and the SIMD targets numpy dispatches to, so the digests
hold for the build they were recorded on, and the test skips anywhere else.
"""

import hashlib
import json

import numpy as np
import pytest

from pldlab.cli import EXIT_OK, main
from pldlab.losses import dist_loss, kd_loss, pld_loss
from pldlab.numerics import make_rng

RECORDED_ON = {"numpy": "2.4.6", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
DIGESTS = {
    "gradcheck": ("gradcheck.csv",
                  "6bda5d1c80171cb3ede8dd9ba538c31540c4fce303900b84b5a4632a3abed1ad"),
    "losscheck": ("losscheck.csv",
                  "a5a0717f3be561b6f118f787c795b2872e4165763864db44337554b57b2be0be"),
    "landscape": ("landscape.csv",
                  "4944e9b8cf01180a56bc020c0935336472f4fe3a675f6525bb22a054c0ab8eb8"),
}

# a [16, 32, 10] teacher and pld, kd and dist students of the same shape, 2 epochs each
TRAINING_DIGESTS = {
    "teacher/teacher.json": "4dfd7a7886eae086f55d4c2c9ccd510f32544a2a5105d600c352758cdc1e9380",
    "teacher/metrics.csv": "24a8dc81637082ec04d54e72be9e4ec3955650b729236452176dd0af9adeb00d",
    "student/student.json": "0454c498802842eb74537a73761a28147ed81abdca446a0b9d64f535580c680a",
    "student/metrics.csv": "ad9cb26b749d5c0727a38d3313e5d47293b301811e88dcfcb49a697b654876fc",
    "student-kd/student.json": "f3ecb35852e4ebb21cf8207b035ef1d37558bef9aa945a3dc8631d5ac43de099",
    "student-kd/metrics.csv": "2023f9799e4ad72cd3500f10f0149d90e53dbad0fe7fe150847d8e55c05de834",
    "student-dist/student.json": "567badef541e7d593798588f8c3c8187ade21fba99182f60ab26543c33cf1a47",
    "student-dist/metrics.csv": "3c1669351879a9d5c915bbd970fc83313d1c8549adb2968f49bb8c4e29f7141b",
}


# sha256 of the loss, gradient and row bytes of pld_loss at its defaults
KERNEL_DIGESTS = {
    "continuous": "d3adec380b7e6f4b438f80a9acb61000eefcf7dbd88259d6e2de6f2fd73c76ed",
    "tied": "bcb4133070d4bb4cec6f53cbf7e06902bae1c45aa2b8e7129e3ca6bcfb3e7194",
    "wide": "fe04b5e0fd0232e7ee89a8d4535bcf90862b1a35104554db1d4007020e0940e2",
}

# the same bytes (rows where the result has them) of the baselines at their other
# defaults on the continuous batch; forward-KL kd and dist also train above
BASELINE_KERNELS = {
    "kd-reverse-kl": lambda s, t, y: kd_loss(s, t, y, divergence="reverse-kl"),
    "kd-js": lambda s, t, y: kd_loss(s, t, y, divergence="js"),
    "dist": dist_loss,
}
BASELINE_KERNEL_DIGESTS = {
    "kd-reverse-kl": "a543e8b4c8264d81c47a634710d1a2cfe0bc55f56f9e78205f98de44720086bf",
    "kd-js": "903959dde6e9a7866f854f74ec08ed9186087dadf854e35c27038cf5effc7c19",
    "dist": "cb9d8aca0d6d0d7557afa5a7bc0015155a13d898e1a5d06aa6ee812a97d17e15",
}


def skip_other_builds():
    build = {"numpy": np.__version__,
             "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]}
    if build != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this build is {build}")


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_default_artifact_keeps_its_bytes(tmp_path, command):
    skip_other_builds()
    assert main([command, "--out", str(tmp_path)]) == EXIT_OK
    name, digest = DIGESTS[command]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_small_training_run_keeps_its_bytes(tmp_path):
    """The Adam step, forward and backward of train_teacher and the pld, kd
    and dist distill_student runs keep their bits, seen through the files they write."""
    skip_other_builds()
    teacher_cfg = tmp_path / "teacher.cfg"
    teacher_cfg.write_text(json.dumps({"layer_sizes": [16, 32, 10], "epochs": 2}))
    runs = [("train-teacher", teacher_cfg, "teacher")]
    for kind, out in (("pld", "student"), ("kd", "student-kd"), ("dist", "student-dist")):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(json.dumps(
            {"teacher": str(tmp_path / "teacher" / "teacher.json"), "loss": {"kind": kind},
             "epochs": 2}
        ))
        runs.append(("distill", cfg, out))
    for command, cfg, out in runs:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TRAINING_DIGESTS}
    assert got == TRAINING_DIGESTS


@pytest.mark.parametrize("mix", sorted(KERNEL_DIGESTS))
def test_pld_kernel_keeps_its_bytes(mix):
    """Student and teacher logits standard normal (seed 12); the tied mix puts
    the teacher on a 0.5 grid, so nearly every row has tied teacher logits, and
    the wide mix scales the student by 300 (the wide running log-sum-exp routes
    and the log-space gradient tail)."""
    skip_other_builds()
    s, t, y = _seeded_batch()
    if mix == "tied":
        t = np.round(2.0 * t) / 2.0
    if mix == "wide":
        s = 300.0 * s
    assert _result_digest(pld_loss(s, t, y)) == KERNEL_DIGESTS[mix]


@pytest.mark.parametrize("name", sorted(BASELINE_KERNEL_DIGESTS))
def test_baseline_kernel_keeps_its_bytes(name):
    """kd's reverse-KL and JS gradients and dist's, each pulled back through the
    tempered softmax, keep their bits on the pld kernel's continuous batch."""
    skip_other_builds()
    res = BASELINE_KERNELS[name](*_seeded_batch())
    assert _result_digest(res) == BASELINE_KERNEL_DIGESTS[name]


def _seeded_batch():
    """Student and teacher logits standard normal (seed 12) and labels, 32 x 1000."""
    rng = make_rng(12)
    s, t = rng.normal(size=(32, 1000)), rng.normal(size=(32, 1000))
    return s, t, rng.integers(0, 1000, 32)


def _result_digest(res) -> str:
    rows = b"" if res.rows is None else res.rows.tobytes()
    return hashlib.sha256(np.float64(res.loss).tobytes() + res.grad.tobytes() + rows).hexdigest()
