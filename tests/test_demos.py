"""Demos 01-04 run to the end in-process with their output captured.  Demo 05
repeats the criterion-10 relaxation sweep (several seconds) and is run by hand."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_spectrum_and_stability", "02_linear_decay_rates",
                                  "03_nonlinear_torus_run", "04_lyapunov_blocks"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
