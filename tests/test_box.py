"""The 2/3 box that snapshots store: ``Grid.box`` selects exactly the modes the
dealiasing mask keeps, and every state the solvers keep lies inside it, which
is what lets ``save_field`` drop the rest without loss."""

from dataclasses import replace

import numpy as np
import pytest

from chemorelax import hpc_solver
from chemorelax.driver import SolverConfig
from chemorelax.hpc_solver import PropagatorTables, build_initial_data, gaussian_bump
from chemorelax.ks_solver import KsState, ks_run
from chemorelax.spectral import SpectralField, make_grid

pytestmark = pytest.mark.filterwarnings("ignore:initial norm")


@pytest.mark.parametrize("N", [8, 16, 32, 64])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_is_the_support_of_the_dealias_mask(d, N):
    """The box holds only kept modes and every one of them, once each."""
    grid = make_grid(d, N, 2 * np.pi)
    K = grid.kept_columns
    mask = grid.dealias_mask[None]
    selected = mask[grid.box]
    assert selected.shape == (1,) + (2 * K - 1,) * (d - 1) + (K,)
    assert selected.all()
    assert selected.size == np.count_nonzero(mask)
    marks = np.zeros(mask.shape, dtype=int)
    np.add.at(marks, grid.box, 1)
    assert np.array_equal(marks, mask)


def assert_in_box(fields):
    """Each field has coefficients, and none of them outside the box."""
    for field in fields:
        inside = np.count_nonzero(field.coef[field.grid.box])
        assert inside > 0
        assert inside == np.count_nonzero(field.coef)


def hpc_initial(d, N, params, u_amplitude):
    """A Gaussian enthalpy bump and a rotational flow with a divergence."""
    grid = make_grid(d, N, 2 * np.pi)
    x = np.meshgrid(*grid.x_axes, indexing="ij")
    u = u_amplitude * np.stack([np.sin(x[(k + 1) % d]) + 0.5 * np.cos(x[k]) for k in range(d)])
    return build_initial_data(grid, params, n_profile=0.1 * gaussian_bump(grid, 0.6),
                              u_profile=u)[0]


@pytest.mark.parametrize("d,N,dt,halved", [(1, 64, 0.02, False), (1, 64, 0.2, True),
                                           (2, 16, 0.1, False), (3, 8, 0.1, False)],
                         ids=["1d", "1d-cfl-halving", "2d", "3d"])
def test_hpc_run_keeps_states_in_the_box(cubic_params, monkeypatch, d, N, dt, halved):
    state = hpc_initial(d, N, cubic_params, 0.3)
    steps = []
    original = hpc_solver.step
    monkeypatch.setattr(hpc_solver, "step", lambda *a: steps.append(a[1].dt) or original(*a))
    traj = hpc_solver.run(state, SolverConfig(dt=dt, t_end=4 * dt, snap_dt=2 * dt))
    assert traj.status == "completed"
    assert (min(steps) < dt) == halved
    assert len(traj.states) == 3
    for s in traj.states:
        assert_in_box((s.n, s.u, s.psi))


def test_member_stack_keeps_states_in_the_box(cubic_params, monkeypatch):
    """Three d = 1 members stepped together by run_members."""
    states = [hpc_initial(1, 64, replace(cubic_params, eps=eps), 0.1) for eps in (0.2, 0.1, 0.05)]
    configs = [SolverConfig(dt=0.02 / k, t_end=0.06, snap_dt=0.02) for k in (1, 2, 3)]
    tables = [PropagatorTables(s.grid, s.params, c.dt) for s, c in zip(states, configs)]
    dts = []
    original = hpc_solver.step
    monkeypatch.setattr(hpc_solver, "step", lambda *a: dts.append(a[1].dt) or original(*a))
    trajs = hpc_solver.run_members(states, configs, tables)
    assert any(np.ndim(dt) == 1 for dt in dts)   # the members stepped as one stack
    for traj in trajs:
        assert traj.status == "completed"
        assert len(traj.states) == 4
        for s in traj.states:
            assert_in_box((s.n, s.u, s.psi))


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_ks_run_keeps_states_in_the_box(cubic_params, d, N):
    grid = make_grid(d, N, 2 * np.pi)
    rho = cubic_params.rho_bar + 0.05 * gaussian_bump(grid, 0.6)
    initial = KsState(0.0, SpectralField.from_physical(grid, rho[None], dealiased=True),
                      cubic_params)
    traj = ks_run(initial, SolverConfig(dt=0.01, t_end=0.04, snap_dt=0.02))
    assert traj.status == "completed"
    assert len(traj.states) == 3
    assert_in_box([s.rho for s in traj.states])
