"""Smoke test: the quick demos run to completion against the public API.

Each demo runs in a temporary working directory, so files it writes (demo
06's landscape.csv) stay out of the checkout.  Demos 05 and 07 are left out
for their run time; the acceptance suite covers distillation and the bench.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_stable_numerics.py",
        "02_ranking_model.py",
        "03_loss_zoo.py",
        "04_gradient_checks.py",
        "06_loss_landscape.py",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
