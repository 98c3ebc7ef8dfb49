"""Both solvers commute with a swap of two axes: a run of data whose last axis
is swapped with another, the velocity's components swapped to match, gives the
swapped solution to round-off.  The transforms treat the last axis apart from
the others (half-spectrum, pruned complex passes), so a pass over the wrong
axes breaks this in d >= 2 only."""

import numpy as np
import pytest

from chemorelax.hpc_solver import SolverConfig, build_initial_data, run
from chemorelax.ks_solver import KsState, ks_run
from chemorelax.spectral import SpectralField, make_grid

# (d, N, the axis swapped with the last one)
SWAPS = [(2, 32, 0), (3, 16, 0), (3, 16, 1)]
CONFIG = SolverConfig(dt=0.05, t_end=0.2, snap_dt=0.2)
RTOL = 1e-13   # of the largest value; under 1e-15 is measured

pytestmark = pytest.mark.filterwarnings("ignore:initial norm")


def profiles(grid):
    """(n, u): non-separable and not symmetric under any swap of axes."""
    d = grid.d
    x = np.meshgrid(*grid.x_axes, indexing="ij")
    phase = sum((k + 1) * x[k] for k in range(d))
    n = 0.1 * np.sin(phase) * np.cos(x[0] - 2 * x[-1]) + 0.05 * np.cos(x[1] + x[-1])
    u = 0.1 * np.stack([np.sin(x[(k + 1) % d] + x[k]) + 0.5 * np.cos(phase + k) for k in range(d)])
    return n, u


def swapped(values, axis, vector=False):
    """Rows shaped (rows, *grid.shape) with grid axis ``axis`` and the last one
    swapped; a vector's components ``axis`` and d - 1 swap too."""
    out = np.swapaxes(values, 1 + axis, -1)
    if vector:
        order = list(range(len(values)))
        order[axis], order[-1] = order[-1], order[axis]
        out = out[order]
    return out


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("d,N,axis", SWAPS)
def test_hpc_run_commutes_with_an_axis_swap(cubic_params, d, N, axis):
    grid = make_grid(d, N, 2 * np.pi)
    n, u = profiles(grid)
    finals = []
    for n_prof, u_prof in ((n, u), (swapped(n[None], axis)[0], swapped(u, axis, vector=True))):
        state, _ = build_initial_data(grid, cubic_params, n_profile=n_prof, u_profile=u_prof)
        traj = run(state, CONFIG)
        assert traj.status == "completed"
        finals.append(traj.final)
    plain, swap = finals
    assert_close(swap.n.to_physical(), swapped(plain.n.to_physical(), axis))
    assert_close(swap.u.to_physical(), swapped(plain.u.to_physical(), axis, vector=True))
    assert_close(swap.psi.to_physical(), swapped(plain.psi.to_physical(), axis))


@pytest.mark.parametrize("d,N,axis", SWAPS)
def test_ks_run_commutes_with_an_axis_swap(cubic_params, d, N, axis):
    grid = make_grid(d, N, 2 * np.pi)
    rho = cubic_params.rho_bar + profiles(grid)[0][None]
    finals = []
    for values in (rho, swapped(rho, axis)):
        initial = KsState(0.0, SpectralField.from_physical(grid, values, dealiased=True),
                          cubic_params)
        traj = ks_run(initial, CONFIG)
        assert traj.status == "completed"
        finals.append(traj.final.rho.to_physical())
    assert_close(finals[1], swapped(finals[0], axis))
