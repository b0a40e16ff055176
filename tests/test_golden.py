"""The default verify artifacts and the pld kernel keep their bytes.

``losscheck`` and ``landscape`` at their default configs must write the
bytes recorded below, and ``pld_loss`` on two seeded 32 x 1000 batches must
return them (loss, gradient and rows).  A change that moves these bits on
purpose, such as a sort that moves a permutation, says so in CHANGES.md and
records the new digests here.  exp and log round differently
across numpy builds and the SIMD targets numpy dispatches to, so the digests
hold for the build they were recorded on, and the test skips anywhere else.
"""

import hashlib

import numpy as np
import pytest

from pldlab.cli import EXIT_OK, main
from pldlab.losses import pld_loss
from pldlab.numerics import make_rng

RECORDED_ON = {"numpy": "2.4.6", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
DIGESTS = {
    "losscheck": ("losscheck.csv",
                  "ffded448a159f9ffc32769a82a4c7142563479dbcfd76807bfb5686de1cb0cdd"),
    "landscape": ("landscape.csv",
                  "4944e9b8cf01180a56bc020c0935336472f4fe3a675f6525bb22a054c0ab8eb8"),
}


# sha256 of the loss, gradient and row bytes of pld_loss at its defaults
KERNEL_DIGESTS = {
    "continuous": "d3adec380b7e6f4b438f80a9acb61000eefcf7dbd88259d6e2de6f2fd73c76ed",
    "tied": "bcb4133070d4bb4cec6f53cbf7e06902bae1c45aa2b8e7129e3ca6bcfb3e7194",
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


@pytest.mark.parametrize("mix", sorted(KERNEL_DIGESTS))
def test_pld_kernel_keeps_its_bytes(mix):
    """Student and teacher logits standard normal (seed 12); the tied mix puts
    the teacher on a 0.5 grid, so nearly every row has tied teacher logits."""
    skip_other_builds()
    rng = make_rng(12)
    s, t = rng.normal(size=(32, 1000)), rng.normal(size=(32, 1000))
    y = rng.integers(0, 1000, 32)
    if mix == "tied":
        t = np.round(2.0 * t) / 2.0
    res = pld_loss(s, t, y)
    got = hashlib.sha256(np.float64(res.loss).tobytes() + res.grad.tobytes() + res.rows.tobytes())
    assert got.hexdigest() == KERNEL_DIGESTS[mix]
