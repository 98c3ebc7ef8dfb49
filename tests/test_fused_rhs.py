"""The stacked right-hand sides against the per-field formulas they replace,
the 1D step and the d >= 2 step against the general formulas they replaced,
and the number of transform calls and the memory they take."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chemorelax import driver, hpc_solver, ks_solver, spectral
from chemorelax.diagnostics import relaxation_sweep
from chemorelax.driver import RunFailed, SolverConfig
from chemorelax.hpc_solver import (
    HpcState,
    PropagatorTables,
    build_initial_data,
    gaussian_bump,
    nonlinear_rhs,
    step,
)
from chemorelax.ks_solver import KsState, KsTables, ks_rhs, ks_step, pressure_remainder, solve_phi
from chemorelax.model import coefficient_G, coefficient_H, coefficients_GH, density_perturbation
from chemorelax.spectral import (
    SpectralField,
    divergence,
    gradient,
    laplacian,
    make_grid,
)
from norms import dealias

GRIDS = [(1, 128), (2, 32), (3, 16)]


def hpc_state(d, N, params, rng):
    grid = make_grid(d, N, 2 * np.pi)
    n = SpectralField.from_physical(grid, 0.05 * rng.standard_normal((1,) + grid.shape))
    u = SpectralField.from_physical(grid, 0.05 * rng.standard_normal((d,) + grid.shape))
    return HpcState(0.0, n, u, SpectralField.zeros(grid, 1), params)


def ks_state(d, N, params, rng):
    grid = make_grid(d, N, 2 * np.pi)
    rho = params.rho_bar + 0.05 * rng.standard_normal((1,) + grid.shape)
    return KsState(0.0, SpectralField.from_physical(grid, rho), params)


def per_field_nonlinear_rhs(state):
    """N_n = -u.grad n - G(n) div u, N_u = -(u.grad) u, N_psi = H(n), with one
    transform per field and per velocity component."""
    grid, p = state.grid, state.params
    nf, uf = dealias(state.n), dealias(state.u)
    n_phys = nf.to_physical()[0]
    u_phys = uf.to_physical()
    grad_n = gradient(nf).to_physical()
    div_u = divergence(uf).to_physical()[0]
    nn = -np.einsum("k...,k...->...", u_phys, grad_n) - coefficient_G(n_phys, p) * div_u
    nu = np.empty_like(u_phys)
    for i in range(grid.d):
        grad_ui = SpectralField(grid, 1j * grid.xi_diff * uf.coef[i]).to_physical()
        nu[i] = -np.einsum("k...,k...->...", u_phys, grad_ui)
    return [dealias(SpectralField.from_physical(grid, v))
            for v in (nn[None], nu, coefficient_H(n_phys, p)[None])]


def per_field_ks_rhs(state, remainder=pressure_remainder):
    """Lap Q(rho) - mu div((rho - rho_bar) grad phi), with one transform per
    field; ``remainder(rho_phys, params)`` evaluates Q."""
    grid, p = state.grid, state.params
    rho_f = dealias(state.rho)
    rho_phys = rho_f.to_physical()[0]
    pert = rho_phys - p.rho_bar
    term_a = laplacian(SpectralField.from_physical(grid, remainder(rho_phys, p)[None]))
    grad_phi = gradient(solve_phi(rho_f, p)).to_physical()
    term_b = divergence(SpectralField.from_physical(grid, pert[None] * grad_phi))
    return dealias(term_a - p.mu * term_b)


def quotient_remainder(rho, p):
    """Q as G1(rho) (rho - rho_bar), where G1 = Q / (rho - rho_bar) is evaluated
    exactly above |rho - rho_bar| = 1e-6 rho_bar and below it by its Taylor
    form from the second and third derivatives of P: the form the direct
    remainder replaced."""
    law, rb, g = p.pressure, p.rho_bar, p.pressure.gamma
    delta = rho - rb
    small = np.abs(delta) <= 1e-6 * rb
    delta_safe = np.where(small, 1.0, delta)
    z = delta_safe / rb
    exact = law.kappa * rb ** g * (np.expm1(g * np.log1p(z)) - g * z) / delta_safe
    d2p = law.kappa * g * (g - 1.0) * rb ** (g - 2.0)
    d3p = law.kappa * g * (g - 1.0) * (g - 2.0) * rb ** (g - 3.0)
    taylor = d2p * delta / 2.0 + d3p * delta ** 2 / 6.0
    return np.where(small, taylor, exact) * delta


def rhs_rows(fields):
    """Right-hand-side fields [N_n, N_u, N_psi] as the one array nonlinear_rhs
    returns, of rows [N_n, N_u, N_psi] shaped (2 + d, members, *spec_shape)."""
    grid = fields[0].grid
    return np.concatenate([f.coef for f in fields]).reshape((2 + grid.d, -1) + grid.spec_shape)


def general_nonlinear_rhs(state):
    """nonlinear_rhs as the general code forms it in 1D: dealiased fields, one
    transform per field each way, products summed over the components with
    einsum; div u is grad u_1."""
    grid = state.grid
    nf, uf = dealias(state.n), dealias(state.u)
    (n_phys,), u_phys, grad_n = nf.to_physical(), uf.to_physical(), gradient(nf).to_physical()
    (div_u,) = grad_u = SpectralField(grid, 1j * grid.xi_diff * uf.coef[0]).to_physical()
    nu = np.empty_like(u_phys)
    nu[0] = -np.einsum("k...,k...->...", u_phys, grad_u)
    g_vals, h_vals = coefficients_GH(n_phys, state.params)
    nn = -np.einsum("k...,k...->...", u_phys, grad_n) - g_vals * div_u
    return (rhs_rows([SpectralField.from_physical(grid, v, dealiased=True)
                      for v in (nn[None], nu, h_vals[None])]),
            np.abs(u_phys).max(axis=1))


def general_fix_mass(n, params, target_mean_pert):
    """The mass projection with np.mean."""
    out = SpectralField(n.grid, n.coef.copy())
    n_phys = out.to_physical()[0]
    for _ in range(3):
        pert = density_perturbation(n_phys, params)
        defect = target_mean_pert - float(np.mean(pert))
        floor = 8.0 * np.finfo(float).eps * float(np.mean(np.abs(pert)))
        if abs(defect) <= max(1e-15 * abs(target_mean_pert), floor):
            break
        rho = params.rho_bar + pert
        shift = defect / float(np.mean(rho / params.pressure.dP(rho)))
        out.coef[0, 0] += shift
        n_phys += shift
    return out


def general_step(state, tables, mass_target, rhs):
    """One exponential Runge-Kutta step from the general right-hand side and
    mass projection."""
    grid, dt = state.grid, tables.dt
    nn, nu, npsi = rhs[0]
    en, eu, ep = tables.apply_exp(state.n.coef, state.u.coef, state.psi.coef)
    fn, fu, fp = tables.apply_phi1(nn, nu, npsi)
    star = HpcState(state.t + dt, SpectralField(grid, en + fn), SpectralField(grid, eu + fu),
                    SpectralField(grid, ep + fp), state.params)
    sn, su, sp = general_nonlinear_rhs(star)[0]
    cn, cu, cp = tables.apply_phi2(sn - nn, su - nu, sp - npsi)
    return HpcState(state.t + dt,
                    general_fix_mass(SpectralField(grid, star.n.coef + cn), state.params,
                                     mass_target),
                    SpectralField(grid, star.u.coef + cu),
                    SpectralField(grid, star.psi.coef + cp), state.params)


def smooth_1d_state(params, u_amplitude):
    """d = 1, N = 64: a Gaussian enthalpy bump and u = u_amplitude sin(x)."""
    grid = make_grid(1, 64, 2 * np.pi)
    state, _ = build_initial_data(grid, params, n_profile=0.1 * gaussian_bump(grid, 0.6),
                                  u_profile=u_amplitude * np.sin(grid.x_axes[0])[None])
    return state


def assert_states_equal(a, b):
    assert a.t == b.t
    for name in ("n", "u", "psi"):
        assert np.array_equal(getattr(a, name).coef, getattr(b, name).coef), name


def test_1d_nonlinear_rhs_matches_general_code_outside_the_box(cubic_params, rng):
    """Data with energy outside the 2/3 box: the input mask still acts."""
    state = hpc_state(1, 64, cubic_params, rng)
    outside = ~state.grid.dealias_mask
    assert np.any(state.n.coef[:, outside]) and np.any(state.u.coef[:, outside])
    rows, vmax = nonlinear_rhs(state)
    ref_rows, ref_vmax = general_nonlinear_rhs(state)
    for got, ref in zip(rows, ref_rows, strict=True):
        assert np.any(ref)
        assert np.array_equal(got, ref)
    assert vmax == ref_vmax


def test_1d_steps_match_general_code(cubic_params):
    """20 steps of step / nonlinear_rhs / the mass projection give the same
    bits as the general formulas, with a mass target the projection has to
    reach by Newton passes."""
    state = smooth_1d_state(cubic_params, 0.05)
    tables = PropagatorTables(state.grid, cubic_params, 0.02)
    target = state.mass_perturbation() + 1e-7
    cur = ref = state
    for _ in range(20):
        cur = step(cur, tables, target, nonlinear_rhs(cur))
        ref = general_step(ref, tables, target, general_nonlinear_rhs(ref))
        assert_states_equal(cur, ref)


@pytest.mark.parametrize("dt,halved", [(0.02, False), (0.2, True)], ids=["plain", "cfl-halving"])
def test_1d_run_matches_general_code(cubic_params, monkeypatch, dt, halved):
    """run over 20 steps of dt, once as it is and once with the general
    formulas put in place of step, nonlinear_rhs and the mass projection: the
    same states, bit for bit, with and without a CFL halving."""
    state = smooth_1d_state(cubic_params, 0.3)
    cfg = SolverConfig(dt=dt, t_end=20 * dt, snap_dt=5 * dt)
    steps = []
    original = hpc_solver.step
    monkeypatch.setattr(hpc_solver, "step", lambda *a: steps.append(a[1].dt) or original(*a))
    got = hpc_solver.run(state, cfg)
    assert (min(steps) < dt) == halved
    monkeypatch.setattr(hpc_solver, "step", general_step)
    monkeypatch.setattr(hpc_solver, "nonlinear_rhs", general_nonlinear_rhs)
    ref = hpc_solver.run(state, cfg)
    assert got.status == ref.status == "completed"
    assert len(got.states) == len(ref.states) == 5
    for a, b in zip(got.states, ref.states, strict=True):
        assert_states_equal(a, b)


@pytest.mark.parametrize("d,N", GRIDS)
def test_nonlinear_rhs_matches_per_field_formulas(cubic_params, rng, d, N):
    """Stacking changes no bit: the transforms act row by row."""
    state = hpc_state(d, N, cubic_params, rng)
    rows, vmax = nonlinear_rhs(state)
    for got, ref in zip(rows, rhs_rows(per_field_nonlinear_rhs(state)), strict=True):
        assert np.any(ref)
        assert np.array_equal(got, ref)
    assert vmax == np.max(np.abs(dealias(state.u).to_physical()))


@pytest.mark.parametrize("d,N", GRIDS)
def test_ks_rhs_matches_per_field_formulas(cubic_params, rng, d, N):
    state = ks_state(d, N, cubic_params, rng)
    ref = per_field_ks_rhs(state)
    assert np.any(ref.coef)
    assert np.array_equal(ks_rhs(state), ref.coef)


@pytest.mark.parametrize("d,N", GRIDS[:2])
def test_ks_rhs_matches_quotient_form(cubic_params, rng, d, N):
    """Evaluating Q directly moves ks_rhs by round-off only, against
    G1 (rho - rho_bar) on data with and without points in the Taylor branch."""
    state = ks_state(d, N, cubic_params, rng)
    near = state.rho.to_physical()[0]
    near[::3] = cubic_params.rho_bar + 1e-7 * rng.standard_normal(near[::3].shape)
    for s in (state, KsState(0.0, SpectralField.from_physical(state.grid, near), cubic_params)):
        ref = per_field_ks_rhs(s, quotient_remainder).coef
        assert np.max(np.abs(ks_rhs(s) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.fixture()
def count_transforms(monkeypatch):
    """count_transforms(f, *args): the (pruned_inverse, pruned_forward) calls
    that f(*args) makes, counted in every module that looks them up; the
    row count of each inverse transform's input goes to count.inverse_rows."""
    calls = dict(pruned_inverse=0, pruned_forward=0)
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            if name == "pruned_inverse":
                count.inverse_rows.append(len(args[1]))
            return original(*args)

        for module in (spectral, hpc_solver, ks_solver):
            monkeypatch.setattr(module, name, counted)

    def count(fn, *args):
        calls.update(pruned_inverse=0, pruned_forward=0)
        count.inverse_rows = []
        fn(*args)
        return calls["pruned_inverse"], calls["pruned_forward"]

    count.inverse_rows = []
    return count


@pytest.mark.parametrize("d,N", GRIDS)
@pytest.mark.parametrize("rhs,state", [(nonlinear_rhs, hpc_state), (ks_rhs, ks_state)],
                         ids=["hpc", "ks"])
def test_one_transform_each_way_per_rhs(cubic_params, rng, count_transforms, rhs, state, d, N):
    """One transform each way per right-hand side.  The HPC inverse takes the
    rows [n, u, div u, grad n, grad u_1 .. grad u_d], without div u in d = 1,
    where it is grad u (4 rows, else 2 + 2d + d^2); the limit model's takes
    [rho, grad phi]."""
    assert count_transforms(rhs, state(d, N, cubic_params, rng)) == (1, 1)
    rows = (4 if d == 1 else 2 + 2 * d + d * d) if rhs is nonlinear_rhs else 1 + d
    assert count_transforms.inverse_rows == [rows]


@pytest.mark.parametrize("offset,passes", [(0.0, 2), (1e-4, 3)])
def test_three_inverse_two_forward_transforms_per_1d_step(cubic_params, monkeypatch,
                                                          count_transforms, offset, passes):
    """A 1D step with its first right-hand side: two right-hand sides and one
    mass projection, whether that projection takes two Newton passes or three."""
    state = smooth_1d_state(cubic_params, 0.05)
    tables = PropagatorTables(state.grid, cubic_params, 0.02)
    target = state.mass_perturbation() + offset
    evals = []
    original = hpc_solver.density_perturbation
    monkeypatch.setattr(hpc_solver, "density_perturbation",
                        lambda n, p: evals.append(1) or original(n, p))
    assert count_transforms(lambda: step(state, tables, target, nonlinear_rhs(state))) == (3, 2)
    assert len(evals) == passes


# -- member stacks: several runs, one per eps, stepped together --------------------

def members(stack):
    """The members of a d = 1 member stack (one row each, time an array) as
    views with the stack's params; a state of one time is its one member."""
    if np.ndim(stack.t) == 0:
        return [stack]
    return [HpcState(t, *(SpectralField(stack.grid, f.coef[m:m + 1])
                          for f in (stack.n, stack.u, stack.psi)), stack.params)
            for m, t in enumerate(stack.t)]


def member_states(params, eps_list, amplitudes):
    """d = 1, N = 64 members, one per eps: the data of smooth_1d_state with
    u = amplitude sin(x)."""
    grid = make_grid(1, 64, 2 * np.pi)
    return [build_initial_data(grid, replace(params, eps=eps),
                               n_profile=0.1 * gaussian_bump(grid, 0.6),
                               u_profile=amplitude * np.sin(grid.x_axes[0])[None])[0]
            for eps, amplitude in zip(eps_list, amplitudes, strict=True)]


@pytest.mark.parametrize("offset", [0.0, 1e-4], ids=["own-targets", "shifted-target"])
def test_member_stack_step_matches_each_member(cubic_params, monkeypatch, offset):
    """Ten steps of a 3-member stack, each member with its own eps and dt, give
    every member's rows, time and max|u| bit for bit as its own one-member
    step.  The members stop the mass projection's Newton passes at different
    counts, and a target off by 1e-4 forces the first member's third pass."""
    states = member_states(cubic_params, (0.2, 0.1, 0.05), (0.05, 0.1, 0.2))
    tables = [PropagatorTables(s.grid, s.params, dt) for s, dt in zip(states, (0.02, 0.015, 0.01))]
    targets = np.array([s.mass_perturbation() for s in states]) + [offset, 0.0, 0.0]
    passes = []
    original = hpc_solver.density_perturbation
    monkeypatch.setattr(hpc_solver, "density_perturbation",
                        lambda n, p: passes.append(1) or original(n, p))
    stack, counts = driver.stack(states), set()
    for k in range(10):
        rhs = nonlinear_rhs(stack)
        stack = step(stack, PropagatorTables.stack(tables), targets, rhs)
        own_passes = []
        for m, s in enumerate(states):
            own_rhs = nonlinear_rhs(s)
            assert own_rhs[1] == rhs[1][m]
            passes.clear()
            states[m] = step(s, tables[m], targets[m], own_rhs)
            own_passes.append(len(passes))
        counts.add(tuple(own_passes))
        assert own_passes[0] == (3 if offset and k == 0 else 2)
        for got, ref in zip(members(stack), states, strict=True):
            assert_states_equal(got, ref)
    assert any(len(set(c)) > 1 for c in counts)


@pytest.mark.filterwarnings("ignore:initial norm")
def test_member_stack_run_matches_member_runs_with_a_cfl_halving(cubic_params, monkeypatch):
    """run_members over three members whose steps per snapshot are 1, 2 and 3,
    the second with a velocity that needs a CFL halving, keeps every member's
    states bit for bit as its own run."""
    states = member_states(cubic_params, (0.2, 0.1, 0.05), (0.05, 4.2, 0.05))
    configs = [SolverConfig(dt=0.02 / k, t_end=0.06, snap_dt=0.02) for k in (1, 2, 3)]
    tables = [PropagatorTables(s.grid, s.params, c.dt) for s, c in zip(states, configs)]
    dts = []
    original = hpc_solver.step
    monkeypatch.setattr(hpc_solver, "step", lambda *a: dts.append(a[1].dt) or original(*a))
    got = hpc_solver.run_members(states, configs, tables)
    assert any(np.ndim(dt) == 1 for dt in dts)                  # members stepped together
    assert 0.01 / 2 in dts                                      # and the second one halved
    for traj, state, config in zip(got, states, configs, strict=True):
        ref = hpc_solver.run(state, config)
        assert traj.status == ref.status == "completed"
        assert len(traj.states) == len(ref.states) == 4
        for a, b in zip(traj.states, ref.states, strict=True):
            assert_states_equal(a, b)


def exploding_sizes(blowups: dict):
    """hybrid_aggregate with the size of member eps times 1e6 past slow time
    blowups[eps], read row by row: each call takes one member's snapshots."""
    original = hpc_solver.hybrid_aggregate

    def exploding(s):
        total, parts = original(s)
        eps = s.params.eps
        boom = [eps in blowups and eps * t > blowups[eps] for t in np.atleast_1d(s.t)]
        return np.where(boom, 1e6 * total, total), parts

    return exploding


@pytest.mark.parametrize("blowups,named", [({0.1: 0.0}, 0.1), ({0.1: 0.01, 0.05: 0.0}, 0.1)],
                         ids=["one-member", "a-later-member-first"])
def test_member_blowup_names_its_eps(cubic_params, monkeypatch, blowups, named):
    """A member whose size explodes fails the sweep with RunFailed naming its
    eps; when a member after it in eps order explodes first, the sweep still
    names the earlier member, as when the members ran one after another."""
    monkeypatch.setattr(hpc_solver, "hybrid_aggregate", exploding_sizes(blowups))
    grid = make_grid(1, 32, 2 * np.pi)
    rho0 = cubic_params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
    with pytest.raises(RunFailed, match=rf"^relaxation member eps={named} blew up: norm explosion"):
        relaxation_sweep(grid, cubic_params, rho0, [0.2, 0.1, 0.05], tau_end=0.05,
                         snap_dtau=0.05)


@pytest.mark.filterwarnings("ignore:initial norm")
@pytest.mark.parametrize("blowups", [{0.1: 0.01}, {0.1: 0.02, 0.05: 0.01}],
                         ids=["one-member", "a-later-member-first"])
def test_member_blowup_in_a_chunk_is_chunk_invariant(cubic_params, monkeypatch, blowups):
    """A member that explodes at a snapshot in the middle of a chunk: the member
    stack keeps the same states, statuses and messages as with size checks one
    snapshot at a time, and the sweep still names the member eps 0.1."""
    monkeypatch.setattr(hpc_solver, "hybrid_aggregate", exploding_sizes(blowups))
    grid = make_grid(1, 32, 2 * np.pi)
    rho0 = cubic_params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
    states = member_states(cubic_params, (0.2, 0.1, 0.05), (0.0, 0.0, 0.0))
    configs = [SolverConfig(dt=0.00125 / eps / k, t_end=0.05 / eps, snap_dt=0.00125 / eps)
               for eps, k in ((0.2, 1), (0.1, 2), (0.05, 3))]   # the sweep's schedules
    tables = [PropagatorTables(s.grid, s.params, c.dt) for s, c in zip(states, configs)]
    runs, messages, named = [], [], r"^relaxation member eps=0.1 blew up: norm explosion"
    for chunk in (driver.SNAPSHOT_CHUNK, 1):
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", chunk)
        runs.append(hpc_solver.run_members(states, configs, tables))
        with pytest.raises(RunFailed, match=named) as failed:
            relaxation_sweep(grid, cubic_params, rho0, [0.2, 0.1, 0.05], tau_end=0.05,
                             snap_dtau=0.05)
        messages.append(str(failed.value))
    assert messages[0] == messages[1]
    chunked, alone = runs
    assert [t.status for t in chunked] == ["completed", "blowup"]
    assert 2 < len(chunked[1].states) < 40   # the member fails inside the first chunk
    for a, b in zip(chunked, alone, strict=True):
        assert (a.status, a.message, len(a.states)) == (b.status, b.message, len(b.states))
        for x, y in zip(a.states, b.states, strict=True):
            assert_states_equal(x, y)


def test_sweep_builds_each_member_table_once(cubic_params, monkeypatch):
    """A 3-member sweep builds three propagator tables: one per member, handed to its run."""
    built = []
    original = PropagatorTables.__init__
    monkeypatch.setattr(PropagatorTables, "__init__",
                        lambda self, *args: built.append(args[1].eps) or original(self, *args))
    grid = make_grid(1, 32, 2 * np.pi)
    rho0 = cubic_params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
    relaxation_sweep(grid, cubic_params, rho0, [0.2, 0.1, 0.05], tau_end=0.05, snap_dtau=0.05)
    assert sorted(built) == [0.05, 0.1, 0.2]


def test_member_initial_norms_warn_once_each(cubic_params):
    """Each member above the small-data hint warns with its own initial norm,
    in member order."""
    states = member_states(cubic_params, (0.2, 0.1, 0.05), (0.5, 0.05, 1.0))
    configs = [SolverConfig(dt=0.02 / k, t_end=0.02, snap_dt=0.02) for k in (1, 2, 3)]
    tables = [PropagatorTables(s.grid, s.params, c.dt) for s, c in zip(states, configs)]
    sizes = [hpc_solver.hybrid_aggregate(s)[0] for s in states]
    with pytest.warns(UserWarning, match="initial norm") as record:
        hpc_solver.run_members(states, configs, tables)
    assert [str(w.message) for w in record] == [
        f"initial norm {x:.3g} exceeds the operational smallness 0.05; global boundedness "
        f"is not guaranteed" for x in sizes if x > 0.05]


# -- d >= 2: the right-hand side and the propagator apply in the grid's scratch ----

def per_field_rhs_and_speed(state):
    """per_field_nonlinear_rhs with the CFL speed max|u| of the dealiased u, for
    each member of a member stack, its rows stacked member by member."""
    refs = [(rhs_rows(per_field_nonlinear_rhs(m)),
             np.abs(dealias(m.u).to_physical()).reshape(1, -1).max(axis=1))
            for m in members(state)]
    return (np.concatenate([r[0] for r in refs], axis=1), np.concatenate([r[1] for r in refs]))


def split_apply(tables, k, n_coef, u_coef, psi_coef):
    """The d >= 2 propagator apply with table k as the split formula, a new array
    for every temporary: m = i w, w = xi.u/|xi|, enters the real 3x3 table with n
    and psi, and scal (u - unit w) - i unit m_out is the new velocity."""
    table3, scal = tables._tables[k]
    unit = tables._unit
    w = unit[0] * u_coef[0]
    for ax in range(1, tables.grid.d):
        w = w + unit[ax] * u_coef[ax]
    m = 1j * w
    n_out, m_out, psi_out = (row[0] * n_coef[0] + row[1] * m + row[2] * psi_coef[0]
                             for row in table3)
    return np.concatenate((n_out[None], scal * u_coef - unit * (scal * w + 1j * m_out),
                           psi_out[None]))[:, None]


def rotational_state(grid, params, rng, amplitude=0.1):
    """u_k = amplitude (sin x_{k+1} + cos(x_k) / 2), a rotational flow with a
    divergence, and a Gaussian enthalpy bump, both with noise outside the 2/3 box."""
    d = grid.d
    x = np.meshgrid(*grid.x_axes, indexing="ij")
    u = amplitude * np.stack([np.sin(x[(k + 1) % d]) + 0.5 * np.cos(x[k]) for k in range(d)])
    noise = 0.01 * rng.standard_normal((1 + d,) + grid.shape)
    n = 0.1 * gaussian_bump(grid, 0.6) + noise[0]
    return HpcState(0.0, SpectralField.from_physical(grid, n),
                    SpectralField.from_physical(grid, u + noise[1:]), SpectralField.zeros(grid, 1),
                    params)


def assert_rhs_equal(got, ref):
    for a, b in zip(got[0], ref[0], strict=True):
        assert np.any(b)
        assert np.array_equal(a, b)
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("d,N", GRIDS[1:])
def test_rotational_rhs_matches_per_field_formulas(cubic_params, rng, d, N):
    """A flow with vorticity, so the off-diagonal grad u rows carry data."""
    state = rotational_state(make_grid(d, N, 2 * np.pi), cubic_params, rng)
    xi, u = state.grid.xi_diff, dealias(state.u).coef
    assert np.max(np.abs(xi[1] * u[0] - xi[0] * u[1])) > 1e-3   # the vorticity
    assert_rhs_equal(nonlinear_rhs(state), per_field_rhs_and_speed(state))


STACK_EPS = (0.2, 0.1, 0.05)


def rotational_stack(d, N, params, rng, amplitude):
    """rotational_state on a d-dimensional grid; in d = 1 a member stack of three
    of them, with eps STACK_EPS and amplitudes scaled by 1, 2 and 3."""
    grid = make_grid(d, N, 2 * np.pi)
    if d > 1:
        return rotational_state(grid, params, rng, amplitude)
    return driver.stack([rotational_state(grid, replace(params, eps=eps), rng, m * amplitude)
                         for m, eps in enumerate(STACK_EPS, 1)])


@pytest.mark.parametrize("d,N", GRIDS)
def test_interleaved_rhs_calls_share_nothing(cubic_params, rng, d, N):
    """Calls on two states of one grid (in d = 1, two three-member stacks) in
    turn: each matches the per-field formulas, so the grid's scratch carries
    nothing from one call to the next, and an earlier output is unchanged
    after the later calls."""
    a = rotational_stack(d, N, cubic_params, rng, 0.1)
    b = rotational_stack(d, N, cubic_params, rng, 0.3)
    ref_a, ref_b = per_field_rhs_and_speed(a), per_field_rhs_and_speed(b)
    first = nonlinear_rhs(a)
    kept = first[0].copy()
    for state, ref in ((b, ref_b), (a, ref_a), (b, ref_b)):
        assert_rhs_equal(nonlinear_rhs(state), ref)
    assert np.array_equal(first[0], kept)
    assert_rhs_equal(first, ref_a)


@pytest.mark.parametrize("d,N", GRIDS[1:])
def test_apply_matches_split_formula(cubic_params, rng, d, N):
    """Each table's apply gives the bits of the split formula, and its output is
    unchanged by the right-hand side and the applies that follow."""
    state = rotational_state(make_grid(d, N, 2 * np.pi), cubic_params, rng)
    tables = PropagatorTables(state.grid, cubic_params, 0.05)
    args = [state.n.coef, state.u.coef, nonlinear_rhs(state)[0][-1]]
    outputs = []
    for k in range(3):
        got = tables._apply(k, *args)
        ref = split_apply(tables, k, *args)
        for a, b in zip(got, ref, strict=True):
            assert np.any(b) and np.array_equal(a, b)
        outputs.append(([a.copy() for a in got], got))
    nonlinear_rhs(state)
    for kept, got in outputs:
        for a, b in zip(got, kept, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dt,halved", [(0.1, False), (0.8, True)], ids=["plain", "cfl-halving"])
def test_2d_run_matches_per_field_code(cubic_params, rng, monkeypatch, dt, halved):
    """run over 4 steps of dt in 2D, once as it is and once with the per-field
    right-hand side and the split apply in place: the same states, bit for bit.
    A CFL halving reuses the first right-hand side in the first half-step, whose
    own right-hand side runs in the scratch before the reused one is read again."""
    grid = make_grid(2, 32, 2 * np.pi)
    rough = rotational_state(grid, cubic_params, rng)
    state, _ = build_initial_data(grid, cubic_params, n_profile=rough.n.to_physical(),
                                  u_profile=rough.u.to_physical())
    cfg = SolverConfig(dt=dt, t_end=4 * dt, snap_dt=2 * dt)
    steps = []
    original = hpc_solver.step
    monkeypatch.setattr(hpc_solver, "step", lambda *a: steps.append(a[1].dt) or original(*a))
    got = hpc_solver.run(state, cfg)
    assert (min(steps) < dt) == halved
    monkeypatch.setattr(hpc_solver, "nonlinear_rhs", per_field_rhs_and_speed)
    monkeypatch.setattr(PropagatorTables, "_apply", split_apply)
    ref = hpc_solver.run(state, cfg)
    assert got.status == ref.status == "completed"
    assert len(got.states) == len(ref.states) == 3
    for a, b in zip(got.states, ref.states, strict=True):
        assert_states_equal(a, b)


@pytest.mark.parametrize("d,N", [(1, 4096), (2, 128), (3, 32)])
def test_warm_rhs_allocates_little_beyond_its_output(cubic_params, rng, d, N):
    """A right-hand side after a first call on its grid (in d = 1, of a
    three-member stack): its traced peak stays under its output plus four
    grid-value arrays (G, H and the temporaries of the density perturbation).
    The 2D per-field code peaked at about eighteen arrays more."""
    state = rotational_stack(d, N, cubic_params, rng, 0.1)
    nonlinear_rhs(state)
    tracemalloc.start()
    try:
        out = nonlinear_rhs(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = out[0].nbytes + out[1].nbytes
    assert peak <= output + 4 * state.n.ncomp * N ** d * 8


@pytest.mark.parametrize("d,N,stacked", [(*GRIDS[0], True)] + [(*g, False) for g in GRIDS],
                         ids=["1-128-3-members", "1-128", "2-32", "3-16"])
def test_step_builds_six_fields(cubic_params, rng, monkeypatch, d, N, stacked):
    """A right-hand side and a step pass the rows between their stages as
    arrays: the only SpectralFields built are the star state's three and the
    new state's three (thirteen when each stage took and gave fields)."""
    state = (rotational_stack(d, N, cubic_params, rng, 0.1) if stacked
             else rotational_state(make_grid(d, N, 2 * np.pi), cubic_params, rng))
    tables = [PropagatorTables(state.grid, replace(cubic_params, eps=eps), 0.01)
              for eps in (STACK_EPS if stacked else [cubic_params.eps])]
    tables = PropagatorTables.stack(tables) if stacked else tables[0]
    targets = [m.mass_perturbation() for m in members(state)]
    built = []
    original = SpectralField.__init__
    monkeypatch.setattr(SpectralField, "__init__",
                        lambda self, *args: built.append(1) or original(self, *args))
    step(state, tables, targets, nonlinear_rhs(state))
    assert len(built) <= 6


@pytest.mark.parametrize("d,N", GRIDS)
def test_ks_step_builds_two_fields(cubic_params, rng, monkeypatch, d, N):
    """A limit-model step passes arrays between its stages: the only
    SpectralFields built are the star state's and the new state's (fourteen
    when each right-hand side built six)."""
    state = ks_state(d, N, cubic_params, rng)
    tables = KsTables(state.grid, cubic_params, 0.01)
    built = []
    original = SpectralField.__init__
    monkeypatch.setattr(SpectralField, "__init__",
                        lambda self, *args: built.append(1) or original(self, *args))
    ks_step(state, tables)
    assert len(built) <= 2
