"""Batch front door: config parsing, manifests, exit codes, CSV emission."""

import importlib.metadata
import json
from pathlib import Path

import numpy as np
import pytest

from chemorelax import cli, driver, hpc_solver
from chemorelax.cli import SCHEMAS, main
from chemorelax.model import MODEL_KEYS, params_from_config
from chemorelax.spectral import load_field, make_grid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def base_model(**over):
    cfg = {"epsilon": 0.25, "mu": 1.0, "a": 1.0, "b": 1.0, "rho_bar": 1.0,
           "gamma": 2.0, "kappa": 1.0, "k_offset": 0}
    cfg.update(over)
    return cfg


class TestAnalyzeSymbol:
    def test_stable_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "experiment": {"xi_max": 20.0, "samples": 100},
        })
        rc = main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "stable" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "spectrum.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["stable"] is True
        assert summary["max_re_lambda"] <= 1e-12

    def test_unstable_band_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.5, mu=3.0, gamma=1.0),  # c1 mu - b = 2
            "experiment": {"xi_max": 2.0, "samples": 200},
        })
        rc = main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["stable"] is False
        assert "unstable_band" in summary
        assert np.isclose(summary["unstable_band"][1], np.sqrt(2.0))

    def test_integral_float_samples_read_as_integer(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"model": base_model(),
                                                 "experiment": {"xi_max": 5.0, "samples": 10.0}})
        assert main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 11

    def test_zero_margin_reported_unstable(self, tmp_path, capsys):
        """A margin that rounds to exactly 0 is a result, not a crash; the
        band |xi|^2 < c1 mu - b is then empty and is not reported."""
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.1, mu=20.0, a=0.1, b=1.0, rho_bar=0.7),
            "experiment": {"xi_max": 5.0, "samples": 10},
        })
        assert main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["status"], summary["margin"], summary["stable"]) == ("completed", 0.0, False)
        assert "unstable_band" not in summary
        assert "unstable band" not in capsys.readouterr().out

    def test_missing_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"model": {"epsilon": 0.1}})
        rc = main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "mu" in capsys.readouterr().err

    def test_manifest_records_versions(self, tmp_path):
        import platform
        cfg = write_config(tmp_path / "c.json", {"model": base_model(),
                                                 "experiment": {"xi_max": 5.0, "samples": 10}})
        assert main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == importlib.metadata.version("scipy")

    def test_manifest_leaves_out_a_missing_scipy(self, tmp_path, monkeypatch):
        """Without scipy installed (a test-only dependency) the manifest has no
        scipy_version key, and the run still completes."""
        def version(name):
            if name == "scipy":
                raise importlib.metadata.PackageNotFoundError(name)
            return importlib.metadata.version(name)
        monkeypatch.setattr(cli.metadata, "version", version)
        cfg = write_config(tmp_path / "c.json", {"model": base_model(),
                                                 "experiment": {"xi_max": 5.0, "samples": 10}})
        assert main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "scipy_version" not in manifest
        assert manifest["numpy_version"] == np.__version__

    def test_config_file_missing(self, tmp_path, capsys):
        rc = main(["analyze-symbol", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out" / "new")])
        assert rc == 2
        summary = json.loads((tmp_path / "out" / "new" / "summary.json").read_text())
        assert summary == {"status": "config_error",
                           "message": f"config file not found: {tmp_path / 'nope.json'}"}


class TestSimulate:
    def test_equilibrium_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25},
            "initial": {"profile": "gaussian", "target_x0": 0.0},
        })
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        series = (tmp_path / "out" / "series.csv").read_text().strip().splitlines()
        assert len(series) >= 3
        assert (tmp_path / "out" / "snapshots" / "n_0000.npz").exists()

    def test_ks_run_and_series(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.02, "t_end": 0.4, "snap_dt": 0.1},
            "initial": {"amplitude": 0.02, "width": 0.6},
        })
        rc = main(["simulate-ks", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        header = (tmp_path / "out" / "series.csv").read_text().splitlines()[0]
        assert header.startswith("tau,mass,norm_d2")

    def test_blowup_exit_nonzero_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.5, mu=3.0, gamma=1.0),  # unstable
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 80.0, "snap_dt": 2.0},
            "initial": {"profile": "modes", "modes": [{"k": [1], "amp": 1.0}],
                        "target_x0": 0.008},
        })
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert (tmp_path / "out" / "manifest.json").exists()  # manifest-first
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "blowup"

    def test_ks_data_outside_window_is_blowup(self, tmp_path):
        """Limit-model data outside the validity window end the run before any
        step: exit 1, status "blowup", the initial snapshot kept."""
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.02, "t_end": 0.4, "snap_dt": 0.1},
            "initial": {"amplitude": 3.0, "width": 0.6},
        })
        rc = main(["simulate-ks", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "blowup"
        assert summary["snapshots"] == 1
        assert "density left the validity window" in summary["message"]

    def test_mass_drift_exit_nonzero(self, tmp_path, monkeypatch):
        """A leaking mass projection ends the run with status mass_drift."""
        from chemorelax import hpc_solver
        fix = hpc_solver._fix_mass

        def leaky(n, params, target):
            out = fix(n, params, target)
            out.coef[(0,) * (1 + n.grid.d)] += 1e-6
            return out

        monkeypatch.setattr(hpc_solver, "_fix_mass", leaky)
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25},
            "initial": {"profile": "gaussian", "target_x0": 0.01},
        })
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "mass_drift"
        assert "mass drifted" in summary["message"]
        assert summary["snapshots"] == 3

    def test_invalid_grid_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 37, "L": 1.0},
        })
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("solver", [
        {"dt": "abc", "t_end": 0.5},
        {"dt": 0.0, "t_end": 0.5},
        {"dt": 0.05, "t_end": -1.0},
        {"dt": 0.05, "t_end": 0.5, "snap_dt": "abc"},
        {"dt": 0.05, "t_end": 0.5, "snap_dt": -0.25},
        {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.0},
        {"dt": 0.05, "t_end": 0.1, "snap_dt": 0.5},
        {"dt": 0.05, "t_end": 0.55, "snap_dt": 0.25},
        {"dt": 0.05, "t_end": 0.5, "dealias": False},
        {"dt": 0.05, "t_end": 0.5, "mass_fix": False},
        {"dt": 0.05, "t_end": 0.5, "cfl_safety": 0.3},
        {"dt": 0.05, "t_end": 0.5, "mass_fx": False},
        {"dt": 0.05, "t_end": float("inf")},
        {"dt": 0.05, "t_end": 0.5, "snap_dt": float("inf")},
        {"dt": "0.01", "t_end": 0.5},
        {"dt": 0.05, "t_end": True},
    ], ids=["dt_not_a_number", "dt_not_positive", "t_end_not_positive", "snap_dt_not_a_number",
            "snap_dt_negative", "snap_dt_zero", "t_end_before_first_snapshot",
            "t_end_between_snapshots", "dealias_false", "mass_fix_key", "cfl_safety_key",
            "misspelled_key", "t_end_infinite", "snap_dt_infinite", "dt_string",
            "t_end_boolean"])
    def test_invalid_solver_block_exit_2(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "solver": solver,
        })
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: solver block" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "config_error"
        assert summary["message"].startswith("solver block")

    @pytest.mark.parametrize("block", ["solver", "initial"])
    def test_block_not_an_object_exit_2(self, tmp_path, capsys, block):
        payload = {"model": base_model(), "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
                   "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25}}
        payload[block] = 5
        cfg = write_config(tmp_path / "c.json", payload)
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        message = f"config block {block} must be a JSON object, got 5"
        assert f"config error: {message}" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary == {"status": "config_error", "message": message}

    @pytest.mark.parametrize("command", ["simulate-hpc", "lyapunov-check"])
    def test_initial_data_outside_window_exit_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25},
            "initial": {"profile": "gaussian", "target_x0": 50},
        })
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: initial block" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "config_error"
        assert "left the admissible range" in summary["message"]


class TestDecayStudy:
    def test_d1_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.1),
            "experiment": {"d": 1, "sigma0": -0.5, "sigma": 0.5},
        })
        rc = main(["decay-study", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        slopes = (tmp_path / "out" / "slopes.csv").read_text().splitlines()
        assert slopes[0] == "d,sigma0,sigma,quantity,fitted_slope,reference_slope,relative_gap"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert abs(summary["slopes"]["triple"] - (-0.5)) <= 0.05
        assert summary["reference"]["triple"] == -0.5
        assert summary["reference"]["damped"] == -1.0

    def test_sigma_equal_sigma0_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.1),
            "experiment": {"d": 1, "sigma0": 0.2, "sigma": 0.2},
        })
        rc = main(["decay-study", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2


class TestLyapunovCheck:
    def test_default_run_zero_violations(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.02, "t_end": 2.0, "snap_dt": 0.5},
            "initial": {"target_x0": 0.01},
            "experiment": {"eta0": 0.1, "c_tol": 10.0},
        })
        rc = main(["lyapunov-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "lyapunov.csv").exists()

    def test_equilibrium_vacuous_pass(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25},
            "initial": {"target_x0": 0.0},
            "experiment": {"eta0": 0.1},
        })
        rc = main(["lyapunov-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["rows"] == 0

    def test_violations_exit_1_with_summary(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "lyapunov_check.json").read_text())
        cfg["solver"]["t_end"] = 2.0
        cfg["experiment"]["c_tol"] = 1.0
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["lyapunov-check", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "lyapunov_violations"
        assert (summary["rows"], summary["violations"]) == (15, 15)
        assert f"lyapunov-check: {summary['message']}" in capsys.readouterr().err

    def test_blowup_exit_1_with_summary(self, tmp_path, monkeypatch):
        from chemorelax import hpc_solver
        from chemorelax.model import OutsideValidityWindow

        def escape(*args, **kwargs):
            raise OutsideValidityWindow("density left the validity window")

        monkeypatch.setattr(hpc_solver, "step", escape)
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "solver": {"dt": 0.05, "t_end": 0.5, "snap_dt": 0.25},
            "initial": {"target_x0": 0.01},
        })
        rc = main(["lyapunov-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "blowup"
        assert "density left the validity window" in summary["message"]

    def test_large_eta0_reports_not_crashes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "solver": {"dt": 0.02, "t_end": 1.0, "snap_dt": 0.5},
            "initial": {"target_x0": 0.01},
            "experiment": {"eta0": 0.99},
        })
        rc = main(["lyapunov-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc in (0, 1)  # violations allowed, crash is not
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("grid,t_end,n_rows", [
        ({}, None, 39),                       # configs/lyapunov_check_2d.json as committed
        ({"d": 3, "N": 16}, 5.0, 30),
    ], ids=["2d", "3d"])
    def test_higher_dimensions_zero_violations(self, tmp_path, grid, t_end, n_rows):
        """The L_j ~ eps block^2 and eps H_j >~ L_j equivalences hold in d = 2
        and d = 3 on the lyapunov-check model."""
        cfg = json.loads((CONFIGS / "lyapunov_check_2d.json").read_text())
        cfg["grid"].update(grid)
        if t_end is not None:
            cfg["solver"]["t_end"] = t_end
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["lyapunov-check", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["rows"], summary["violations"]) == (n_rows, 0)
        table = np.loadtxt(tmp_path / "out" / "lyapunov.csv", delimiter=",", skiprows=1,
                           usecols=(4, 5), ndmin=2)
        c_tol = cfg["experiment"]["c_tol"]
        assert len(table) == n_rows
        assert np.all((1.0 / c_tol <= table[:, 0]) & (table[:, 0] <= c_tol))
        assert np.all(table[:, 1] >= 1.0 / c_tol)


class TestRelaxationSweepCommand:
    def test_rejects_short_eps_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.2, 0.1]},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_tau_end_off_the_snapshot_grid_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.2),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.4, 0.283, 0.2], "tau_end": 0.08,
                           "snap_dtau": 0.05, "amplitude": 0.02},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: experiment block: tau_end=0.08" in capsys.readouterr().err

    @pytest.mark.parametrize("module,stepper", [("ks_solver", "ks_step"),
                                                ("hpc_solver", "step")])
    def test_blowup_exit_1_with_summary(self, tmp_path, monkeypatch, module, stepper):
        """A limit-model or member run that leaves the validity window fails
        the sweep's contract: exit 1 and a summary with status and reason."""
        import importlib
        from chemorelax.model import OutsideValidityWindow

        def escape(*args, **kwargs):
            raise OutsideValidityWindow("density left the validity window")

        monkeypatch.setattr(importlib.import_module(f"chemorelax.{module}"), stepper, escape)
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.2),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.4, 0.283, 0.2], "tau_end": 0.05,
                           "snap_dtau": 0.05, "amplitude": 0.02},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "blowup"
        assert "blew up: density left the validity window" in summary["message"]

    def test_slope_outside_window_exit_1_with_summary(self, tmp_path, capsys):
        """Without the O(eps) data offset the short N = 32 sweep converges
        faster than eps (slopes near 1.8), outside the window [0.8, 1.2]."""
        cfg = json.loads((CONFIGS / "relaxation_sweep.json").read_text())
        cfg["grid"]["N"] = 32
        cfg["experiment"].update(tau_end=0.05, offset_amplitude=None, high_freq_budget=None)
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["relaxation-sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "slope_outside_window"
        assert "outside declared window [0.8, 1.2]" in summary["message"]
        assert summary["eps_list"] == [0.2, 0.1, 0.05]
        assert summary["slopes"]["sup_drho"] > 1.2
        assert f"relaxation-sweep: {summary['message']}" in capsys.readouterr().err

    def test_threshold_mode_beyond_band_exit_2(self, tmp_path, capsys):
        """At N = 32 the eps = 0.05 member's threshold mode 16 lies outside the
        dealiased band, so its high-frequency data cannot be built."""
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.2),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.2, 0.1, 0.05], "tau_end": 0.05,
                           "snap_dtau": 0.05, "amplitude": 0.02,
                           "high_freq_budget": 0.01},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: experiment block: threshold mode 16" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "config_error"
        assert "exceeds the dealiased band" in summary["message"]

    def test_member_mass_drift_exit_1_with_summary(self, tmp_path, monkeypatch):
        """Members whose mass projection leaks fail the sweep's contract; the
        first in eps order is named, as if the members ran one after another.
        The projection of a member stack leaks in every member's row."""
        from chemorelax import hpc_solver
        fix = hpc_solver._fix_mass

        def leaky(n, params, target):
            out = fix(n, params, target)
            out.coef[(slice(None),) + (0,) * n.grid.d] += 1e-6
            return out

        monkeypatch.setattr(hpc_solver, "_fix_mass", leaky)
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.2),
            "grid": {"d": 1, "N": 32, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.4, 0.283, 0.2], "tau_end": 0.05,
                           "snap_dtau": 0.05, "amplitude": 0.02},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "mass_drift"
        assert summary["message"].startswith(
            "relaxation member eps=0.4 ended with status mass_drift: total mass drifted")

    @pytest.mark.slow
    def test_small_sweep_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(epsilon=0.2),
            "grid": {"d": 1, "N": 64, "L": 6.283185307179586},
            "experiment": {"eps_list": [0.4, 0.283, 0.2], "tau_end": 0.5,
                           "snap_dtau": 0.05, "amplitude": 0.02,
                           "slope_window": [-5.0, 5.0]},
        })
        rc = main(["relaxation-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "relaxation.csv").exists()
        assert (tmp_path / "out" / "relaxation.json").exists()


class TestCsvTables:
    STRING_COLUMNS = {"regime", "quantity", "ok"}
    SMALL = {"grid": {"N": 32}, "solver": {"t_end": 0.5}}

    @pytest.mark.parametrize("command,config,edits", [
        ("analyze-symbol", "analyze_symbol", {"experiment": {"samples": 50}}),
        ("simulate-hpc", "simulate_hpc", SMALL),
        ("simulate-ks", "simulate_ks", SMALL),
        ("decay-study", "decay_study_1d", {}),
        ("decay-study", "decay_study_damped_2d", {}),
        ("lyapunov-check", "lyapunov_check", {"grid": {"N": 32}, "solver": {"t_end": 1.0}}),
        ("relaxation-sweep", "relaxation_sweep",
         {"grid": {"N": 32}, "experiment": {"tau_end": 0.05, "high_freq_budget": None,
                                            "slope_window": [-5.0, 5.0]}}),
    ], ids=["symbol", "hpc", "ks", "decay-1d", "decay-2d", "lyapunov", "sweep"])
    def test_every_cell_is_a_number(self, tmp_path, command, config, edits):
        """Each CSV table a subcommand writes is rectangular, and every cell
        outside the label columns parses as a number."""
        cfg = json.loads((CONFIGS / f"{config}.json").read_text())
        for block, values in edits.items():
            cfg[block].update(values)
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert tables
        for table in tables:
            header, *rows = [line.split(",") for line in table.read_text().splitlines()]
            assert rows, table.name
            for row in rows:
                assert len(row) == len(header), (table.name, row)
                for name, cell in zip(header, row):
                    if name not in self.STRING_COLUMNS:
                        float(cell)   # raises on anything but a plain number


class TestSnapshotFiles:
    """The snapshot archives of a small 2D run of each solver, through ``main``."""

    GRID = {"d": 2, "N": 16, "L": 6.283185307179586}
    SOLVER = {"dt": 0.05, "t_end": 0.2, "snap_dt": 0.1}
    WIDTH = 0.8

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("snapshots")
        for command, initial in (("simulate-hpc", {"width": self.WIDTH, "target_x0": 0.01}),
                                 ("simulate-ks", {"amplitude": 0.02, "width": self.WIDTH})):
            cfg = write_config(root / f"{command}.json", {
                "model": base_model(), "grid": self.GRID, "solver": self.SOLVER,
                "initial": initial})
            assert main([command, "--config", cfg, "--out", str(root / command)]) == 0
        return root

    def test_hpc_snapshots_are_the_final_state(self, runs):
        """The last n, u and psi archives hold the 2/3 boxes of the final state
        of the same run built in-process, bit for bit, and load back as its
        half-spectra."""
        grid = make_grid(**self.GRID)
        state, _ = hpc_solver.build_initial_data(
            grid, params_from_config(base_model()),
            n_profile=hpc_solver.gaussian_bump(grid, width=self.WIDTH), target_x0=0.01)
        final = hpc_solver.run(state, driver.SolverConfig(**self.SOLVER)).states[-1]
        snaps = runs / "simulate-hpc" / "snapshots"
        last = max(int(p.stem[2:]) for p in snaps.glob("n_*.npz"))
        assert last == 2
        for name, field in (("n", final.n), ("u", final.u), ("psi", final.psi)):
            path = snaps / f"{name}_{last:04d}.npz"
            with np.load(path) as data:
                assert np.array_equal(data["coef"], field.coef[grid.box])
            assert np.array_equal(load_field(path).coef, field.coef)

    def test_archives_of_one_run_share_a_grid(self, runs):
        """Every archive of a run loads onto one Grid object."""
        paths = sorted((runs / "simulate-hpc" / "snapshots").glob("*.npz"))
        grids = [load_field(path).grid for path in paths]
        assert len(paths) == 9 and all(grid is grids[0] for grid in grids)

    @pytest.mark.parametrize("command", ["simulate-hpc", "simulate-ks"])
    def test_archive_holds_no_more_than_its_coefficients(self, runs, command):
        """Each archive is its 2/3 box plus at most 640 bytes of zip and npy
        headers: the two-member layout carries 526, the four-member one with
        separate d, N and L carried 988."""
        grid = make_grid(**self.GRID)
        paths = sorted((runs / command / "snapshots").glob("*.npz"))
        assert len(paths) == (9 if command == "simulate-hpc" else 3)
        for path in paths:
            box_bytes = load_field(path).coef[grid.box].nbytes
            assert path.stat().st_size <= box_bytes + 640, path.name


class TestPerformanceBudget:
    def test_small_data_run_n256(self, tmp_path):
        """Reference budget: a small-data 1D run at N = 256, T = 10 in < 60 s."""
        import time
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "grid": {"d": 1, "N": 256, "L": 6.283185307179586},
            "solver": {"dt": 0.01, "t_end": 10.0, "snap_dt": 0.5},
            "initial": {"target_x0": 0.01},
        })
        t0 = time.perf_counter()
        rc = main(["simulate-hpc", "--config", cfg, "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0


class TestDeterminism:
    def test_rerun_bit_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": base_model(),
            "experiment": {"xi_max": 10.0, "samples": 64},
        })
        main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "o1"), "--seed", "7"])
        main(["analyze-symbol", "--config", cfg, "--out", str(tmp_path / "o2"), "--seed", "7"])
        a = (tmp_path / "o1" / "spectrum.csv").read_bytes()
        b = (tmp_path / "o2" / "spectrum.csv").read_bytes()
        assert a == b


class TestExperimentBlockErrors:
    LYAP_RUN = {"grid": {"d": 1, "N": 32, "L": 6.283185307179586},
                "solver": {"dt": 0.02, "t_end": 0.2, "snap_dt": 0.1}}
    SWEEP_GRID = {"grid": {"d": 1, "N": 32, "L": 6.283185307179586}}
    EPS = [0.4, 0.283, 0.2]

    @pytest.mark.parametrize("command,experiment,extra,fragment", [
        ("decay-study", {"d": 4}, {}, "d must be 1, 2 or 3"),
        ("decay-study", {"window": 5}, {}, "experiment.window must be a pair"),
        ("analyze-symbol", {"xi_max": -1}, {}, "xi_max must be positive"),
        ("analyze-symbol", {"samples": 0}, {}, "samples must be at least 1"),
        ("lyapunov-check", {"eta0": 1.5}, LYAP_RUN, "eta0=1.5"),
        ("lyapunov-check", {"c_tol": 0}, LYAP_RUN, "c_tol=0.0"),
        ("lyapunov-check", {"eta0": "x"}, LYAP_RUN, 'experiment.eta0 must be a number, got "x"'),
        ("simulate-ks", {}, {**LYAP_RUN, "initial": {"amplitude": "x"}},
         'initial.amplitude must be a number, got "x"'),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"width": "x"}},
         'initial.width must be a finite number > 0, got "x"'),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "modes", "modes": [{"k": "a"}]}},
         "initial.modes must be a list of modes"),
        ("relaxation-sweep", {"eps_list": EPS, "amplitude": "x"}, SWEEP_GRID,
         'experiment.amplitude must be a number, got "x"'),
        ("relaxation-sweep", {"eps_list": 0.1}, SWEEP_GRID,
         "experiment.eps_list must be a list of numbers, got 0.1"),
        ("relaxation-sweep", {"eps_list": EPS, "slope_window": [1.0]}, SWEEP_GRID,
         "experiment.slope_window must be a pair [lo, hi], lo < hi, got [1.0]"),
        ("relaxation-sweep", {"eps_list": EPS, "slope_window": [1.2, 0.8]}, SWEEP_GRID,
         "experiment.slope_window must be a pair [lo, hi], lo < hi, got [1.2, 0.8]"),
        ("analyze-symbol", {"lowfreq_eps_xi": 5}, {},
         "experiment.lowfreq_eps_xi must be a list of numbers, got 5"),
        ("analyze-symbol", {"lowfreq_eps_xi": [1.0]}, {},
         "complex eigenvalues at xi=4.0: not in the low-frequency regime"),
        ("analyze-symbol", {}, {"model": base_model(epsilon=None)},
         "model block: epsilon must be a number, got null"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": None, "N": 32, "L": 1.0}},
         "grid.d must be an integer, got null"),
        ("analyze-symbol", {"samples": 2.7}, {}, "experiment.samples must be an integer, got 2.7"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1, "N": 64.5, "L": 1.0}},
         "grid.N must be an integer, got 64.5"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1.5, "N": 32, "L": 1.0}},
         "grid.d must be an integer, got 1.5"),
        ("decay-study", {"d": 2.5}, {}, "experiment.d must be an integer, got 2.5"),
        ("relaxation-sweep", {"eps_list": [0.2, 0.1, 0.0]}, SWEEP_GRID,
         "eps must lie in (0, 1], got 0.0"),
        ("relaxation-sweep", {"eps_list": [1.0, 0.5, 0.25]}, SWEEP_GRID,
         "threshold requires eps in (0, 1), got 1.0"),
        ("relaxation-sweep", {"eps_list": EPS, "dt_fast": 0}, SWEEP_GRID,
         "dt_fast must be positive and finite, got 0.0"),
        ("relaxation-sweep", {"eps_list": EPS, "dt_fast": -0.01}, SWEEP_GRID,
         "dt_fast must be positive and finite, got -0.01"),
        ("relaxation-sweep", {"eps_list": EPS, "dt_fast": float("inf")}, SWEEP_GRID,
         "dt_fast must be positive and finite, got inf"),
        ("relaxation-sweep", {"eps_list": EPS, "tau_end": float("inf")}, SWEEP_GRID,
         "tau_end=inf is not a whole number of snapshot intervals"),
        ("relaxation-sweep", {"eps_list": [0.2, 0.2, 0.2]}, SWEEP_GRID,
         "eps_list repeats a value: [0.2, 0.2, 0.2]"),
        ("analyze-symbol", {}, {"model": base_model(k_offset=2.7)},
         "model block: k_offset must be an integer, got 2.7"),
        # booleans and strings are not numbers
        ("analyze-symbol", {"samples": True}, {}, "experiment.samples must be an integer, got true"),
        ("analyze-symbol", {"xi_max": "5"}, {}, 'experiment.xi_max must be a number, got "5"'),
        ("analyze-symbol", {}, {"model": base_model(k_offset=True)},
         "model block: k_offset must be an integer, got true"),
        ("analyze-symbol", {}, {"model": base_model(mu=True)},
         "model block: mu must be a number, got true"),
        ("analyze-symbol", {}, {"model": base_model(epsilon="0.1")},
         'model block: epsilon must be a number, got "0.1"'),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1, "N": 32, "L": True}},
         "grid block: grid.L must be a number, got true"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": True, "N": 32, "L": 1.0}},
         "grid block: grid.d must be an integer, got true"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1, "N": 10 ** 400, "L": 1.0}},
         "grid block: grid.N must be an integer, got 1000"),
        # mode entries and the KS initial block
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "modes",
                                                      "modes": [{"k": [1], "ampl": 5}]}},
         'initial block: initial.modes must be a list of modes {"k": ..., "amp": ..., '
         '"phase": ...}, got [{"k": [1], "ampl": 5}]'),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "modes", "modes": [[1]]}},
         "initial block: initial.modes must be a list of modes"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "sine"}},
         'initial block: initial.profile must be "gaussian", "modes" or "random", got "sine"'),
        ("simulate-ks", {}, {**LYAP_RUN, "initial": {"profile": "modes"}},
         "initial block: unknown keys ['profile']; the keys are amplitude, width"),
        ("simulate-ks", {}, {**LYAP_RUN, "initial": {"target_x0": 0.01}},
         "initial block: unknown keys ['target_x0']"),
        ("simulate-ks", {}, {**LYAP_RUN, "initial": {"modes": [{"k": [1]}]}},
         "initial block: unknown keys ['modes']"),
        # one unknown key per block, and an unknown block
        ("analyze-symbol", {}, {"model": base_model(gama=3.0)},
         "model block: unknown keys ['gama']; the keys are epsilon, mu, a, b, rho_bar, gamma, "
         "kappa, k_offset"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1, "N": 32, "L": 1.0, "n": 64}},
         "grid block: unknown keys ['n']; the keys are d, N, L"),
        ("lyapunov-check", {}, {**LYAP_RUN, "initial": {"widht": 0.5}},
         "initial block: unknown keys ['widht']; the keys are profile, width, modes, target_x0"),
        ("analyze-symbol", {"sampels": 10}, {},
         "experiment block: unknown keys ['sampels']; the keys are xi_max, samples, "
         "lowfreq_eps_xi, highfreq_eps_xi"),
        ("relaxation-sweep", {"eps_list": EPS, "tau_ned": 0.5}, SWEEP_GRID,
         "experiment block: unknown keys ['tau_ned']"),
        ("analyze-symbol", {}, {"experimnt": {"samples": 10}},
         "experimnt block: unknown block; this subcommand reads model, experiment"),
        ("simulate-ks", {}, {**LYAP_RUN, "experiment": {}},
         "experiment block: unknown block; this subcommand reads model, grid, solver, initial"),
        # initial-data targets, mode wavevectors and Gaussian widths
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"target_x0": -0.01}},
         "initial block: target_x0 must be a finite number >= 0 or None, got -0.01"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"target_x0": float("inf")}},
         "initial block: target_x0 must be a finite number >= 0 or None, got inf"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "modes",
                                                      "modes": [{"k": [1, 2]}]}},
         "initial block: modes: k must be at most d = 1 integers, "
         "got [1.0, 2.0]"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"profile": "modes", "modes": [{"k": 1.5}]}},
         "initial block: modes: k must be at most d = 1 integers, got [1.5]"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"width": 0}},
         "initial block: initial.width must be a finite number > 0, got 0"),
        ("simulate-hpc", {}, {**LYAP_RUN, "initial": {"width": -0.5}},
         "initial block: initial.width must be a finite number > 0, got -0.5"),
        ("simulate-ks", {}, {**LYAP_RUN, "initial": {"width": 0}},
         "initial block: initial.width must be a finite number > 0, got 0"),
        ("relaxation-sweep", {"eps_list": EPS, "width": -0.8}, SWEEP_GRID,
         "experiment block: experiment.width must be a finite number > 0, got -0.8"),
        ("relaxation-sweep", {"eps_list": EPS, "offset_amplitude": 0.1, "offset_width": 0},
         SWEEP_GRID, "experiment.offset_width must be a finite number > 0, got 0"),
        # model constants beyond the decay study's numerics, and non-finite constants
        ("decay-study", {}, {"model": base_model(b=1e300)},
         "experiment block: near-defective symbol matrix in decay study"),
        ("decay-study", {}, {"model": base_model(kappa=1e-308)},
         "experiment block: near-defective symbol matrix in decay study"),
        ("simulate-hpc", {}, {**LYAP_RUN, "model": base_model(kappa=1e308)},
         "model block: c0 must be finite, got inf"),
        ("simulate-hpc", {}, {**LYAP_RUN, "grid": {"d": 1, "N": 32, "L": float("inf")}},
         "grid block: period length must be positive and finite, got inf"),
        # finite constants too extreme for the propagator tables, or for the data
        ("simulate-hpc", {}, {**LYAP_RUN, "model": base_model(b=1e300)},
         "model block: the propagator tables at dt=0.02 hold"),
        ("simulate-hpc", {}, {**LYAP_RUN, "model": base_model(mu=1e300)},
         "model block: the propagator tables at dt=0.02 hold"),
        ("simulate-hpc", {}, {**LYAP_RUN, "model": base_model(epsilon=1e-300)},
         "model block: the propagator tables at dt=0.02 hold"),
        ("simulate-hpc", {}, {**LYAP_RUN, "model": base_model(a=1e300)},
         "model block: the propagator tables at dt=0.02 hold"),
        ("lyapunov-check", {}, {**LYAP_RUN, "model": base_model(a=1e300)},
         "model block: the propagator tables at dt=0.02 hold"),
        ("relaxation-sweep", {"eps_list": EPS, "tau_end": 0.05, "high_freq_budget": None},
         {**SWEEP_GRID, "model": base_model(b=1e300)},
         "model block: the propagator tables at dt="),
        ("relaxation-sweep", {"eps_list": EPS, "tau_end": 0.05, "high_freq_budget": None},
         {**SWEEP_GRID, "model": base_model(mu=1e300)},
         "model block: the propagator tables at dt="),
        ("simulate-ks", {}, {**LYAP_RUN, "model": base_model(mu=1e300)},
         "model block: the propagator tables at dt=0.02 hold"),
        # the threshold lies above every block of the grid: nothing to check
        ("lyapunov-check", {}, {"model": base_model(epsilon=0.01),
                                "grid": {"d": 1, "N": 8, "L": 6.283185307179586},
                                "solver": {"dt": 0.02, "t_end": 1.0, "snap_dt": 0.5}},
         "grid block: no block to check: the check covers j >= J - 1 = 5, "
         "and the largest active j is 2"),
    ], ids=["decay-d4", "decay-window5", "symbol-xi_max", "symbol-samples0",
            "lyapunov-eta0", "lyapunov-c_tol0", "lyapunov-eta0-string", "ks-amplitude",
            "hpc-width", "hpc-modes", "sweep-amplitude", "sweep-eps_list-scalar",
            "sweep-slope_window", "sweep-slope_window-inverted", "symbol-lowfreq-scalar", "symbol-lowfreq-regime",
            "model-null", "grid-null", "symbol-samples-fraction", "grid-N-fraction",
            "grid-d-fraction", "decay-d-fraction", "sweep-eps-zero", "sweep-eps-one",
            "sweep-dt_fast-zero", "sweep-dt_fast-negative", "sweep-dt_fast-infinite",
            "sweep-tau_end-infinite", "sweep-eps-repeated", "model-k_offset-fraction",
            "symbol-samples-boolean", "symbol-xi_max-string", "model-k_offset-boolean",
            "model-mu-boolean", "model-epsilon-string", "grid-L-boolean", "grid-d-boolean",
            "grid-N-overflow",
            "hpc-mode-unknown-key", "hpc-mode-not-an-object", "hpc-profile-unknown",
            "ks-profile", "ks-target_x0", "ks-modes", "model-unknown-key", "grid-unknown-key",
            "initial-unknown-key", "experiment-unknown-key", "sweep-unknown-key",
            "unknown-block", "ks-experiment-block", "hpc-target_x0-negative",
            "hpc-target_x0-infinite", "hpc-mode-k-too-long", "hpc-mode-k-fraction",
            "hpc-width-zero", "hpc-width-negative", "ks-width-zero", "sweep-width-negative",
            "sweep-offset_width-zero", "decay-b-huge", "decay-kappa-tiny", "model-kappa-overflow",
            "grid-L-infinite", "hpc-b-huge", "hpc-mu-huge", "hpc-epsilon-tiny", "hpc-a-huge",
            "lyapunov-a-huge", "sweep-b-huge", "sweep-mu-huge", "ks-mu-huge", "lyapunov-no-block"])
    def test_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                   command, experiment, extra, fragment):
        from chemorelax import diagnostics, hpc_solver, ks_solver

        def no_run(*args):
            raise AssertionError("the config must be rejected before the run")

        for module, name in ((hpc_solver, "run"), (hpc_solver, "run_members"),
                             (ks_solver, "ks_run"), (diagnostics, "run_members"),
                             (diagnostics, "ks_run")):
            monkeypatch.setattr(module, name, no_run)
        payload = {"model": base_model(), **extra}
        if "experiment" in SCHEMAS[command]:   # only the subcommands that read one
            payload["experiment"] = experiment
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config_error"
        assert fragment in summary["message"]
        assert f"config error: {summary['message']}" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} <= {"manifest.json", "summary.json", "snapshots"}


def test_readme_lists_every_config_key():
    """The README's "Config keys" section names every key of every block that
    a subcommand reads."""
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme[readme.index("### Config keys"):readme.index("### Output formats")]
    missing = sorted({f"{block}.{key}" for schema in SCHEMAS.values()
                      for block, keys in schema.items()
                      for key in (MODEL_KEYS if callable(keys) else keys)
                      if f"`{key}`" not in section})
    assert not missing, f"README Config keys section does not name {missing}"
