"""The default verify artifacts keep their bytes.

``losscheck`` and ``landscape`` at their default configs must write the
bytes recorded below.  A change that moves their bits on purpose says so in
CHANGES.md and records the new digests here.  exp and log round differently
across numpy builds and the SIMD targets numpy dispatches to, so the digests
hold for the build they were recorded on, and the test skips anywhere else.
"""

import hashlib

import numpy as np
import pytest

from pldlab.cli import EXIT_OK, main

RECORDED_ON = {"numpy": "2.4.6", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
DIGESTS = {
    "losscheck": ("losscheck.csv",
                  "ffded448a159f9ffc32769a82a4c7142563479dbcfd76807bfb5686de1cb0cdd"),
    "landscape": ("landscape.csv",
                  "4944e9b8cf01180a56bc020c0935336472f4fe3a675f6525bb22a054c0ab8eb8"),
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_default_artifact_keeps_its_bytes(tmp_path, command):
    build = {"numpy": np.__version__,
             "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]}
    if build != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this build is {build}")
    assert main([command, "--out", str(tmp_path)]) == EXIT_OK
    name, digest = DIGESTS[command]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
