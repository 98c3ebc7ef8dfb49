"""Snapshot driver shared by both solvers: schedule, trajectory type, snapshot
stacks and the lazy series of columns."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from chemorelax import driver, hpc_solver, ks_solver
from chemorelax.diagnostics import (damped_mode_decay_check, lyapunov_equivalence_check,
                                    rescale_to_slow)
from chemorelax.driver import SNAPSHOT_CHUNK, SolverConfig, Trajectory, stacks
from chemorelax.hpc_solver import (HpcState, PropagatorTables, build_initial_data, gaussian_bump,
                                   run)
from chemorelax.ks_solver import KsState, ks_run, reconstruct_velocity, solve_phi
from chemorelax.model import ModelParams, PressureLaw, coefficient_H, density_perturbation
from chemorelax.spectral import SpectralField, gradient, make_grid
from norms import dealias, snapshot_besov, snapshot_hybrid


@pytest.fixture(scope="module")
def params():
    return ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 32, 2 * np.pi)


@pytest.mark.parametrize("dt,t_end,snap_dt,expected", [
    (0.05, 1.0, 0.25, (5, 4)),
    (0.01, 10.0, None, (10, 100)),      # default: at most 100 snapshots
    (0.05, 0.5, 0.07, (1, 10)),         # snap_dt rounds to whole steps
    (0.1, 0.3, 0.1, (1, 3)),            # 3 x 0.1 != 0.3 in floats, within round-off
    (0.01, 10.07, None, (19, 53)),      # default: 1007 = 19 x 53 steps
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
    for traj, initial, time_name in zip(trajs, (hpc, ks), ("t", "tau")):
        assert type(traj) is Trajectory
        assert traj.status == "completed"
        assert len(traj.states) == 3
        assert traj.initial is initial   # states are values: kept, not copied
        assert traj.initial is traj.states[0] and traj.final is traj.states[-1]
        # the series is built on first read, one row per kept snapshot
        assert "series" not in vars(traj)
        np.testing.assert_allclose(traj.series.columns[time_name], [0.0, 0.25, 0.5], atol=1e-12)
        assert traj.series is traj.series


def test_states_are_frozen(grid, params):
    """A state is a value: assigning any field of either state type raises."""
    hpc, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid), target_x0=0.01)
    rho = SpectralField.from_physical(grid, params.rho_bar + 0.01 * gaussian_bump(grid))
    for state in (hpc, KsState(0.0, rho, params)):
        for f in fields(state):
            with pytest.raises(FrozenInstanceError):
                setattr(state, f.name, getattr(state, f.name))


@pytest.mark.filterwarnings("ignore:initial norm")
@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)], ids=["1d", "2d"])
def test_nothing_writes_into_a_state(params, d, N):
    """Both solvers run from initial states whose coefficients are read-only;
    with every kept snapshot read-only too, the series, the damped-mode and
    Lyapunov checks and the sweep's per-stack helpers evaluate.  A write into
    a state's coefficients would raise."""
    grid = make_grid(d, N, 2 * np.pi)
    hpc, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid), target_x0=0.01)
    rho0 = params.rho_bar + 0.01 * gaussian_bump(grid)
    ks = KsState(0.0, dealias(SpectralField.from_physical(grid, rho0[None])), params)

    def read_only(states):
        for s in states:
            for f in (s.n, s.u, s.psi) if isinstance(s, HpcState) else (s.rho,):
                f.coef.flags.writeable = False

    read_only([hpc, ks])
    config = SolverConfig(dt=0.05, t_end=0.5, snap_dt=0.25)
    traj, ks_traj = run(hpc, config), ks_run(ks, config)
    assert traj.status == ks_traj.status == "completed"
    read_only(traj.states + ks_traj.states)
    assert len(traj.series.columns["t"]) == len(ks_traj.series.columns["tau"]) == 3
    assert damped_mode_decay_check(traj)["ok"]
    assert lyapunov_equivalence_check(traj).rows
    for s, k in zip(traj.states, ks_traj.states, strict=True):
        rho_phys = params.rho_bar + density_perturbation(s.n.to_physical(), params)
        rescale_to_slow(s, params.eps, rho_phys)
        reconstruct_velocity(k.rho, solve_phi(k.rho, params), params)


def test_stacks_join_chunks_of_snapshots(grid, params):
    """Each stack holds up to SNAPSHOT_CHUNK snapshots in order: the times as
    an array, one row per snapshot of each scalar field and d rows of u."""
    grid2 = make_grid(2, 8, 2 * np.pi)
    rng = np.random.default_rng(5)
    states = [build_initial_data(grid2, params, n_profile=0.01 * rng.standard_normal(grid2.shape),
                                 u_profile=0.01 * rng.standard_normal((2,) + grid2.shape))[0]
              for _ in range(SNAPSHOT_CHUNK + 3)]
    states = [replace(s, t=0.5 * k) for k, s in enumerate(states)]
    chunks = list(stacks(states))
    assert [len(c.t) for c in chunks] == [SNAPSHOT_CHUNK, 3]
    joined = states[SNAPSHOT_CHUNK:]
    last = chunks[1]
    assert last.params is params
    np.testing.assert_array_equal(last.t, [s.t for s in joined])
    for name, rows in (("n", 1), ("u", 2), ("psi", 1)):
        coef = getattr(last, name).coef
        assert coef.shape == (3 * rows,) + grid2.spec_shape
        np.testing.assert_array_equal(coef, np.concatenate([getattr(s, name).coef for s in joined]))


def hpc_reference_row(s) -> dict:
    """One series row of an HPC snapshot, computed on that snapshot alone."""
    p, grid = s.params, s.grid
    J, s_lo = p.threshold(), grid.d / 2.0
    parts = {name: snapshot_hybrid(f, s_lo, s_lo + 1.0, J)
             for name, f in (("n", s.n), ("u", s.u), ("psi", s.psi), ("grad_psi", gradient(s.psi)))}
    low = parts["n"][0] + parts["u"][0] + parts["psi"][0]
    high = parts["n"][1] + parts["u"][1] + parts["grad_psi"][1]
    n_phys = s.n.to_physical()[0]
    pert = density_perturbation(n_phys, p)
    zero = (0,) * (grid.d + 1)
    return dict(t=s.t, mass=(p.rho_bar + np.mean(pert)) * grid.volume,
                mean_n=s.n.coef[zero].real, mean_psi=s.psi.coef[zero].real,
                mean_H=np.mean(coefficient_H(n_phys, p, pert)),
                low_n=parts["n"][0], high_n=parts["n"][1], low_u=parts["u"][0],
                high_u=parts["u"][1], low_psi=parts["psi"][0], high_psi=parts["psi"][1],
                x_aggregate=low + p.eps * high, x_low=low, x_high=p.eps * high,
                max_u=np.max(np.abs(s.u.to_physical())))


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)], ids=["1d", "2d"])
def test_series_columns_match_per_snapshot_reference(params, d, N):
    """Both solvers' series, built over snapshot stacks, give every column of
    every snapshot within 1e-13 relative of the same row computed on the
    snapshot alone; the runs keep more snapshots than one stack holds."""
    grid = make_grid(d, N, 2 * np.pi)
    n_snaps = SNAPSHOT_CHUNK + 2
    config = SolverConfig(dt=0.02, t_end=0.02 * n_snaps, snap_dt=0.02)
    u_prof = np.stack([gaussian_bump(grid, width=0.7, center=[1.0 + k] * d) for k in range(d)])
    hpc, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid), u_profile=u_prof,
                                target_x0=0.01)
    rho0 = params.rho_bar + 0.01 * gaussian_bump(grid)
    ks = KsState(0.0, dealias(SpectralField.from_physical(grid, rho0[None])), params)
    traj, ks_traj = run(hpc, config), ks_run(ks, config)
    for t, reference in ((traj, hpc_reference_row),
                         (ks_traj, lambda s: dict(
                             tau=s.tau, mass=s.rho.coef[(0,) * (d + 1)].real * grid.volume,
                             norm_d2=snapshot_besov(s.rho, d / 2.0),
                             norm_d2p2=snapshot_besov(s.rho, d / 2.0 + 2.0)))):
        assert t.status == "completed" and len(t.states) == n_snaps + 1
        rows = [reference(s) for s in t.states]
        assert list(t.series.columns) == list(rows[0])
        for name, values in t.series.columns.items():
            np.testing.assert_allclose(values, [row[name] for row in rows], rtol=1e-13, atol=0.0,
                                       err_msg=name)


# -- sizes one chunk of snapshots at a time -------------------------------------

def chunk_invariant(monkeypatch, run_all) -> list:
    """The trajectories of ``run_all()`` with the default SNAPSHOT_CHUNK, after
    a check that their states (bit for bit), statuses and messages are those
    of size checks one snapshot at a time, and that the default run did check
    a chunk at a time: it sized several snapshots in one call, or it advanced
    intervals that it then retook one at a time."""
    def counted(chunk):   # the trajectories, the intervals advanced, the snapshots per size
        advanced, sized, integrate, stack = [], [], driver.integrate, driver.stack
        with monkeypatch.context() as patch:
            patch.setattr(driver, "SNAPSHOT_CHUNK", chunk)
            patch.setattr(driver, "stack", lambda parts: sized.append(len(parts)) or stack(parts))
            for solver in (hpc_solver, ks_solver):
                patch.setattr(solver, "integrate", lambda initials, advance, *rest: integrate(
                    initials, lambda s: advanced.append(1) or advance(s), *rest))
            return run_all(), len(advanced), max(sized, default=0)

    (got, advanced, sized), (ref, advanced_alone, _) = counted(SNAPSHOT_CHUNK), counted(1)
    assert sized > 1 or advanced > advanced_alone
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.status, a.message) == (b.status, b.message)
        assert len(a.states) == len(b.states)
        for s, r in zip(a.states, b.states):
            for f in fields(s):
                x, y = getattr(s, f.name), getattr(r, f.name)
                assert (np.array_equal(x.coef, y.coef) if isinstance(x, SpectralField)
                        else np.array_equal(x, y) if f.name in ("t", "tau") else x == y), f.name
    return got


def hpc_and_ks_initial(grid, params, amp):
    """Each solver's run and its initial state from the profile amp sum_i cos(x_i)."""
    profile = amp * sum(np.cos(x) for x in np.meshgrid(*grid.x_axes, indexing="ij"))
    hpc, _ = build_initial_data(grid, params, n_profile=profile)
    rho = dealias(SpectralField.from_physical(grid, (params.rho_bar + profile)[None]))
    return {"hpc": (run, hpc), "ks": (ks_run, KsState(0.0, rho, params))}


@pytest.mark.parametrize("d,solver", [(1, "hpc"), (1, "ks"), (2, "hpc"), (2, "ks")],
                         ids=["hpc", "ks", "2d-hpc", "2d-ks"])
def test_completed_run_is_chunk_invariant(params, monkeypatch, d, solver):
    """A run that keeps more snapshots than one chunk holds, on N = 32 in 1D
    and N = 16 in 2D."""
    config = SolverConfig(dt=0.02, t_end=0.02 * (SNAPSHOT_CHUNK + 6), snap_dt=0.02)
    run_solver, initial = hpc_and_ks_initial(make_grid(d, 32 // d, 2 * np.pi), params,
                                             0.01)[solver]
    traj, = chunk_invariant(monkeypatch, lambda: [run_solver(initial, config)])
    assert traj.status == "completed" and len(traj.states) == SNAPSHOT_CHUNK + 7


def three_members(grid, params, n_snaps):
    """The initials, configs and tables of hpc_solver.run_members over members
    of eps 0.2, 0.1 and 0.05 with 1, 2 and 3 steps per snapshot, over n_snaps
    snapshot intervals of 0.02."""
    initials = [build_initial_data(grid, replace(params, eps=eps),
                                   n_profile=0.01 * gaussian_bump(grid))[0]
                for eps in (0.2, 0.1, 0.05)]
    configs = [SolverConfig(dt=0.02 / k, t_end=0.02 * n_snaps, snap_dt=0.02) for k in (1, 2, 3)]
    tables = [PropagatorTables(grid, s.params, c.dt) for s, c in zip(initials, configs)]
    return initials, configs, tables


def test_member_stack_is_chunk_invariant(grid, params, monkeypatch):
    """Three members of 1, 2 and 3 steps per snapshot, over more snapshots than
    one chunk holds."""
    args = three_members(grid, params, SNAPSHOT_CHUNK + 6)
    trajs = chunk_invariant(monkeypatch, lambda: hpc_solver.run_members(*args))
    assert [(t.status, len(t.states)) for t in trajs] == [("completed", SNAPSHOT_CHUNK + 7)] * 3


def test_driver_sees_one_member_at_a_time(grid, params, monkeypatch):
    """The members of a 1D member stack reach the sizes and the series one at
    a time: every hybrid_aggregate call and every columns call takes a state
    whose params is one member's ModelParams."""
    args, seen = three_members(grid, params, SNAPSHOT_CHUNK + 6), []
    original = hpc_solver.hybrid_aggregate
    monkeypatch.setattr(hpc_solver, "hybrid_aggregate",
                        lambda s: seen.append(s.params) or original(s))
    trajs = hpc_solver.run_members(*args)
    for traj in trajs:
        columns = traj.columns
        traj.columns = lambda s, columns=columns: seen.append(s.params) or columns(s)
        assert len(traj.series.columns["t"]) == SNAPSHOT_CHUNK + 7
    # per member: sizes of the initial and two chunks; a columns call and its
    # hybrid_aggregate call for each of the series' two stacks
    assert len(seen) == 3 * (3 + 2 + 2)
    assert all(type(p) is ModelParams for p in seen)
    assert {p.eps for p in seen} == {0.2, 0.1, 0.05}


def test_kept_snapshots_own_their_rows(grid, params):
    """A member that leaves the stacked step takes a copy of its rows: at every
    snapshot, the arrays behind the members' kept states hold at most three
    rows (n, u, psi) per member, not the stacked step's rows of every member."""
    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    trajs = hpc_solver.run_members(*three_members(grid, params, 4))
    for snapshot in zip(*(t.states for t in trajs), strict=True):
        arrays = {id(a): a for a in (owner(f.coef) for s in snapshot for f in (s.n, s.u, s.psi))}
        rows = sum(a.size for a in arrays.values()) // grid.spec_shape[-1]
        assert rows <= 3 * len(snapshot)


@pytest.mark.filterwarnings("ignore:initial norm")
@pytest.mark.parametrize("d,solver,amp,reason", [
    (d, *case) for d in (1, 2) for case in [
        ("hpc", 1e-6, "norm explosion"), ("ks", 1e-6, "norm explosion"),
        ("hpc", 0.2, "enthalpy left the admissible range"),
        ("ks", 0.05, "density left the validity"),
    ]], ids=[d + case for d in ("", "2d-")
             for case in ("hpc-norm", "ks-norm", "hpc-window", "ks-window")])
def test_blowup_in_a_chunk_is_chunk_invariant(monkeypatch, d, solver, amp, reason):
    """Negative margin: the run leaves the admissible set at a snapshot in the
    middle of a chunk, on N = 32 in 1D and N = 16 in 2D; the run keeps the
    same snapshots and message as with size checks one snapshot at a time."""
    p = ModelParams(eps=0.5, mu=3.0, a=1.0, b=1.0, rho_bar=1.0,
                    pressure=PressureLaw(kappa=1.0, gamma=1.0), j_offset=0)
    run_solver, initial = hpc_and_ks_initial(make_grid(d, 32 // d, 2 * np.pi), p, amp)[solver]
    config = SolverConfig(dt=0.02, t_end=40.0, snap_dt=0.5)
    traj, = chunk_invariant(monkeypatch, lambda: [run_solver(initial, config)])
    assert traj.status == "blowup" and reason in traj.message
    assert 0 < (len(traj.states) - 1) % SNAPSHOT_CHUNK < SNAPSHOT_CHUNK - 1   # the failing one


@pytest.mark.parametrize("d,n_snaps,members,calls", [
    (1, 5, 1, 2), (1, SNAPSHOT_CHUNK, 1, 2), (1, SNAPSHOT_CHUNK + 1, 1, 3),
    (1, 2 * SNAPSHOT_CHUNK + 3, 1, 4), (1, SNAPSHOT_CHUNK + 1, 3, 9), (2, 5, 1, 2)],
    ids=["1-5-2", "1-64-2", "1-65-3", "1-131-4", "1-65-3-members-9", "2-5-2"])
def test_size_calls_per_chunk(params, monkeypatch, d, n_snaps, members, calls):
    """A run of M members and K snapshots, in any d, takes its sizes in
    M (ceil(K / SNAPSHOT_CHUNK) + 1) calls: for each member the initial one
    alone, then one per chunk."""
    grid = make_grid(d, 8, 2 * np.pi)
    if members > 1:
        args = three_members(grid, params, n_snaps)
    else:
        initial, _ = build_initial_data(grid, params, n_profile=0.01 * gaussian_bump(grid))
        config = SolverConfig(dt=0.02, t_end=0.02 * n_snaps, snap_dt=0.02)
        args = [initial], [config], [PropagatorTables(grid, params, config.dt)]
    sizes = []
    original = hpc_solver.hybrid_aggregate
    monkeypatch.setattr(hpc_solver, "hybrid_aggregate", lambda s: sizes.append(1) or original(s))
    trajs = hpc_solver.run_members(*args)
    assert [(t.status, len(t.states)) for t in trajs] == [("completed", n_snaps + 1)] * members
    assert len(sizes) == calls
