"""Snapshot driver shared by both solvers: schedule, trajectory type, lazy series."""

import numpy as np
import pytest

from chemorelax.driver import SolverConfig, Trajectory
from chemorelax.hpc_solver import build_initial_data, gaussian_bump, run
from chemorelax.ks_solver import KsState, ks_run
from chemorelax.model import ModelParams, PressureLaw
from chemorelax.spectral import SpectralField, dealias, make_grid


@pytest.fixture(scope="module")
def params():
    return ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 32, 2 * np.pi)


@pytest.mark.parametrize("dt,t_end,snap_dt,expected", [
    (0.05, 1.0, 0.25, (5, 4)),
    (0.01, 10.0, None, (10, 100)),      # default: about 100 snapshots
    (0.05, 0.5, 0.07, (1, 10)),         # snap_dt rounds to whole steps
    (0.1, 0.3, 0.1, (1, 3)),            # 3 x 0.1 != 0.3 in floats, within round-off
])
def test_schedule_ends_at_t_end(dt, t_end, snap_dt, expected):
    config = SolverConfig(dt=dt, t_end=t_end, snap_dt=snap_dt)
    assert config.schedule() == expected
    steps_per_snap, n_snaps = expected
    assert n_snaps * steps_per_snap * dt == pytest.approx(t_end, rel=1e-12)


def test_run_and_ks_run_share_one_trajectory_type(grid, params):
    config = SolverConfig(dt=0.05, t_end=0.5, snap_dt=0.25)
    hpc, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid), target_x0=0.01)
    rho0 = params.rho_bar + 0.01 * gaussian_bump(grid)
    ks = KsState(0.0, dealias(SpectralField.from_physical(grid, rho0[None])), params)
    trajs = [run(hpc, config), ks_run(ks, config)]
    for traj, time_name in zip(trajs, ("t", "tau")):
        assert type(traj) is Trajectory
        assert traj.status == "completed"
        assert len(traj.states) == 3
        assert traj.initial is traj.states[0] and traj.final is traj.states[-1]
        # the series is built on first read, one row per kept snapshot
        assert "series" not in vars(traj)
        np.testing.assert_allclose(traj.series.column(time_name), [0.0, 0.25, 0.5], atol=1e-12)
        assert traj.series is traj.series
