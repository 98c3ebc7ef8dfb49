"""Exponential-integrator solver: propagators, nonlinear terms, runs."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.linalg

from chemorelax import hpc_solver, spectral
from chemorelax.hpc_solver import (
    HpcState,
    PropagatorTables,
    SolverConfig,
    build_initial_data,
    equilibrium_psi,
    gaussian_bump,
    hybrid_aggregate,
    mode_bump,
    nonlinear_rhs,
    run,
    step,
)
from chemorelax.linear_analysis import eigenvalues, symbol_matrix
from chemorelax.model import ModelParams, PressureLaw
from chemorelax.spectral import SpectralField, make_grid
from norms import l2_norm


@pytest.fixture(scope="module")
def solver_params():
    return ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, 128, 2 * np.pi)


def small_state(grid, params, target=0.01, width=0.5):
    state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=width),
                                  target_x0=target)
    return state


class TestLinearPropagator:
    def test_dt_zero_identity(self, solver_params, grid1d):
        tab = PropagatorTables(grid1d, solver_params, 0.0)
        eye = np.eye(3)[:, :, None]
        assert np.allclose(tab.E3, eye, rtol=0.0, atol=1e-15) and tab.e_inc == 1.0

    def test_zero_mode_closed_form(self, solver_params, grid1d):
        p = solver_params
        dt = 0.37
        tab = PropagatorTables(grid1d, p, dt)
        m, s = tab.E3[:, :, 0], tab.e_inc
        # n frozen; psi relaxes toward (c1/b) n; u factor exp(-dt/eps)
        assert np.isclose(s, np.exp(-dt / p.eps), atol=1e-14)
        assert np.isclose(m[0, 0], 1.0) and np.allclose(m[0, 1:], 0.0)
        assert np.isclose(m[2, 2], np.exp(-p.b * dt), atol=1e-13)
        assert np.isclose(m[2, 0], p.c1 / p.b * (1 - np.exp(-p.b * dt)), atol=1e-13)

    def test_semigroup_composition(self, solver_params, grid1d):
        t1 = PropagatorTables(grid1d, solver_params, 0.2)
        t2 = PropagatorTables(grid1d, solver_params, 0.4)
        for idx in (0, 1, 8, grid1d.spec_shape[0] - 1):
            m1, m2 = t1.E3[:, :, idx], t2.E3[:, :, idx]
            assert np.max(np.abs(m1 @ m1 - m2)) <= 1e-10
        assert abs(t1.e_inc * t1.e_inc - t2.e_inc) <= 1e-12

    def test_tables_match_expm(self, solver_params, grid1d):
        tab = PropagatorTables(grid1d, solver_params, 0.1)
        for idx in range(grid1d.spec_shape[0]):
            xi = float(grid1d.xi_mag_diff[idx])
            ref = scipy.linalg.expm(0.1 * symbol_matrix(xi, solver_params))
            assert np.max(np.abs(tab.E3[:, :, idx] - ref)) <= 1e-12

    def test_table_build_makes_one_symbol_call(self, solver_params, monkeypatch):
        """One symbol_matrix call over every unique wavenumber magnitude."""
        calls = []
        monkeypatch.setattr(hpc_solver, "symbol_matrix",
                            lambda xi, p: calls.append(np.shape(xi)) or symbol_matrix(xi, p))
        grid = make_grid(2, 32, 2 * np.pi)
        PropagatorTables(grid, solver_params, 0.1)
        assert calls == [(np.unique(grid.xi_mag_diff).size,)]

    def test_folded_1d_apply_matches_split(self, solver_params, rng):
        """The d=1 complex 3x3 apply against the compressible/transverse split
        written out here, on random coefficients that are not dealiased."""
        grid = make_grid(1, 64, 2 * np.pi)
        tab = PropagatorTables(grid, solver_params, 0.05)
        shape = (1,) + grid.spec_shape
        n, u, psi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                     for _ in range(3))
        unit = np.sign(grid.xi_diff[0])
        nyquist = grid.spec_shape[0] - 1
        assert unit[0] == 0 and unit[nyquist] == 0 and np.all(np.abs(unit[1:nyquist]) == 1)
        for table, scal, apply in ((tab.E3, tab.e_inc, tab.apply_exp),
                                   (tab.P13, tab.p1_inc, tab.apply_phi1),
                                   (tab.P23, tab.p2_inc, tab.apply_phi2)):
            m = 1j * unit * u[0]
            n_out, m_out, psi_out = (row[0] * n[0] + row[1] * m + row[2] * psi[0]
                                     for row in table)
            u_out = scal * (u[0] - unit * unit * u[0]) - 1j * unit * m_out
            got = apply(n, u, psi)
            for g, ref in zip(got, (n_out, u_out, psi_out)):
                assert g.shape == shape
                assert np.max(np.abs(g[0] - ref)) <= 1e-15 * np.max(np.abs(ref))
            # mean and Nyquist: n and psi through the |xi| = 0 table, u scaled alone
            for idx in (0, nyquist):
                assert np.array_equal(table[:, :, idx], table[:, :, 0])
                assert got[1][0, idx] == scal * u[0, idx]
                for row, g in ((0, got[0]), (2, got[2])):
                    ref = table[row, 0, idx] * n[0, idx] + table[row, 2, idx] * psi[0, idx]
                    assert abs(g[0, idx] - ref) <= 1e-15 * abs(ref)


class TestNonlinearRhs:
    def test_rest_state_only_h_survives(self, grid1d):
        # gamma = 3 so H is nonzero; u = 0 kills the transport terms
        params = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        n = SpectralField.from_physical(grid1d, 0.05 * gaussian_bump(grid1d)[None])
        state = HpcState(0.0, n, SpectralField.zeros(grid1d, 1),
                         SpectralField.zeros(grid1d, 1), params)
        nn, nu, npsi = (SpectralField(grid1d, r) for r in nonlinear_rhs(state)[0])
        assert l2_norm(nn) <= 1e-14
        assert l2_norm(nu) <= 1e-14
        assert l2_norm(npsi) > 0

    def test_gamma2_has_zero_psi_source(self, solver_params, grid1d, rng):
        n = SpectralField.from_physical(grid1d, 0.1 * gaussian_bump(grid1d)[None])
        u = SpectralField.from_physical(grid1d, 0.05 * rng.standard_normal((1,) + grid1d.shape))
        state = HpcState(0.0, n, u, SpectralField.zeros(grid1d, 1), solver_params)
        npsi = SpectralField(grid1d, nonlinear_rhs(state)[0][2])
        assert l2_norm(npsi) <= 1e-14

    def test_advection_trig_identity(self, solver_params, grid1d):
        """u = sin x: u u_x = sin x cos x = sin(2x)/2, so N_u = -sin(2x)/2."""
        x = grid1d.x_axes[0]
        u = SpectralField.from_physical(grid1d, np.sin(x)[None])
        state = HpcState(0.0, SpectralField.zeros(grid1d, 1), u,
                         SpectralField.zeros(grid1d, 1), solver_params)
        nu = SpectralField(grid1d, nonlinear_rhs(state)[0][1])
        assert np.allclose(nu.to_physical()[0], -0.5 * np.sin(2 * x), atol=1e-12)

    def test_rotational_advection_identity_2d(self, solver_params):
        """u = (sin y, sin x): (u.grad) u = (sin x cos y, cos x sin y), so
        N_u = -(sin x cos y, cos x sin y); the transposed gradient would give
        grad|u|^2/2 = (sin x cos x, sin y cos y) instead."""
        grid = make_grid(2, 16, 2 * np.pi)
        x, y = np.meshgrid(*grid.x_axes, indexing="ij")
        u = SpectralField.from_physical(grid, np.stack([np.sin(y), np.sin(x)]))
        state = HpcState(0.0, SpectralField.zeros(grid, 1), u,
                         SpectralField.zeros(grid, 1), solver_params)
        nu = SpectralField(grid, nonlinear_rhs(state)[0][1:3, 0]).to_physical()
        ref = -np.stack([np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)])
        assert np.allclose(nu, ref, rtol=0.0, atol=1e-12)


class TestStep:
    def test_zero_data_stays_zero(self, solver_params, grid1d):
        state = HpcState(0.0, SpectralField.zeros(grid1d, 1), SpectralField.zeros(grid1d, 1),
                         SpectralField.zeros(grid1d, 1), solver_params)
        out = step(state, PropagatorTables(grid1d, solver_params, 0.1), 0.0,
                   nonlinear_rhs(state))
        assert l2_norm(out.n) == 0.0 and l2_norm(out.u) == 0.0 and l2_norm(out.psi) == 0.0

    def test_linear_regime_matches_propagator_per_step(self, solver_params, grid1d):
        state = small_state(grid1d, solver_params, target=1e-10)
        dt = 1e-3
        tab = PropagatorTables(grid1d, solver_params, dt)
        out = step(state, tab, state.mass_perturbation(), nonlinear_rhs(state))
        en, eu, ep = tab.apply_exp(state.n.coef, state.u.coef, state.psi.coef)
        scale = np.max(np.abs(state.n.coef))
        dev = max(np.max(np.abs(out.n.coef - en)), np.max(np.abs(out.u.coef - eu)),
                  np.max(np.abs(out.psi.coef - ep)))
        assert dev <= 1e-12 * scale

    def test_second_order_self_convergence(self, solver_params, grid1d):
        state = small_state(grid1d, solver_params, target=0.05)

        def advance(dt):
            tab = PropagatorTables(grid1d, solver_params, dt)
            cur = state
            target = state.mass_perturbation()
            for _ in range(round(1.0 / dt)):
                cur = step(cur, tab, target, nonlinear_rhs(cur))
            return cur

        sols = {dt: advance(dt) for dt in (0.1, 0.05, 0.0125)}

        def dist(a, b):
            return max(np.max(np.abs(a.n.coef - b.n.coef)),
                       np.max(np.abs(a.u.coef - b.u.coef)),
                       np.max(np.abs(a.psi.coef - b.psi.coef)))

        e_coarse = dist(sols[0.1], sols[0.0125])
        e_fine = dist(sols[0.05], sols[0.0125])
        order = np.log2(e_coarse / e_fine)
        assert 1.5 <= order <= 2.5

    def test_second_order_self_convergence_2d(self, cubic_params):
        """2D, N = 32, with G, H, transport and div u all nonzero: halving dt
        cuts the change between successive solutions by 4."""
        grid = make_grid(2, 32, 2 * np.pi)
        x1, x2 = np.meshgrid(*grid.x_axes, indexing="ij")
        u_prof = 0.1 * np.stack([np.sin(x2) + 0.5 * np.cos(x1 + x2),
                                 np.cos(2 * x1) - 0.3 * np.sin(x1 - x2)])
        state, _ = build_initial_data(
            grid, cubic_params, n_profile=0.2 * gaussian_bump(grid, 0.8, center=[2.0, 3.5]),
            u_profile=u_prof)
        target = state.mass_perturbation()

        def advance(dt):
            tab = PropagatorTables(grid, cubic_params, dt)
            cur = state
            for _ in range(round(0.4 / dt)):
                cur = step(cur, tab, target, nonlinear_rhs(cur))
            return cur

        a, b, c = (advance(dt) for dt in (0.1, 0.05, 0.025))

        def dist(x, y):
            return max(np.max(np.abs(getattr(x, f).coef - getattr(y, f).coef))
                       for f in ("n", "u", "psi"))

        assert 3.6 <= dist(a, b) / dist(b, c) <= 4.4

    def test_second_order_self_convergence_3d(self, cubic_params):
        """3D, N = 16, non-separable data: from dt = 0.04 to 0.005 to t = 0.4,
        each halving of dt cuts the change between successive solutions by 4."""
        grid = make_grid(3, 16, 2 * np.pi)
        x1, x2, x3 = np.meshgrid(*grid.x_axes, indexing="ij")
        u_prof = 0.1 * np.stack([np.sin(x2 + x3) + 0.5 * np.cos(x1 - x3),
                                 np.cos(2 * x1 + x3) - 0.3 * np.sin(x1 - x2),
                                 np.sin(x1 + 2 * x2) + 0.2 * np.cos(x3)])
        n_prof = 0.1 * np.sin(x1 + 2 * x2 + 3 * x3) * np.cos(x1 - x3)
        state, _ = build_initial_data(grid, cubic_params, n_profile=n_prof, u_profile=u_prof)
        target = state.mass_perturbation()

        def advance(dt):
            tab = PropagatorTables(grid, cubic_params, dt)
            cur = state
            for _ in range(round(0.4 / dt)):
                cur = step(cur, tab, target, nonlinear_rhs(cur))
            return cur

        sols = [advance(dt) for dt in (0.04, 0.02, 0.01, 0.005)]

        def dist(x, y):
            return max(np.max(np.abs(getattr(x, f).coef - getattr(y, f).coef))
                       for f in ("n", "u", "psi"))

        changes = [dist(a, b) for a, b in zip(sols, sols[1:])]
        orders = np.log2(np.array(changes[:-1]) / changes[1:])
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders

    def test_mass_projection_stops_at_roundoff(self, solver_params, grid1d, monkeypatch):
        """A mean-zero bump's target mass perturbation is itself round-off; one
        Newton pass reaches the summation floor, so a step evaluates the
        density perturbation about once, and the mean stays on target."""
        state = small_state(grid1d, solver_params, target=0.05)
        target = state.mass_perturbation()
        dt, steps = 0.02, 50
        tab = PropagatorTables(grid1d, solver_params, dt)
        calls = []
        original = hpc_solver.density_perturbation
        monkeypatch.setattr(hpc_solver, "density_perturbation",
                            lambda n, p: calls.append(1) or original(n, p))
        cur = state
        for _ in range(steps):
            cur = step(cur, tab, target, nonlinear_rhs(cur))
        assert len(calls) <= 1.2 * steps
        pert = original(cur.n.to_physical()[0], solver_params)
        assert abs(np.mean(pert) - target) <= 1e-14 * np.mean(np.abs(pert))


class TestRun:
    def test_equilibrium_fixed_point(self, solver_params, grid1d):
        state, _ = build_initial_data(grid1d, solver_params, n_profile=None, target_x0=0.0)
        traj = run(state, SolverConfig(dt=0.05, t_end=1.0, snap_dt=0.25))
        assert traj.status == "completed"
        for s in traj.states:
            assert l2_norm(s.n) == 0.0 and l2_norm(s.u) == 0.0 and l2_norm(s.psi) == 0.0

    def test_mass_conservation(self, solver_params, grid1d):
        traj = run(small_state(grid1d, solver_params, target=0.05),
                   SolverConfig(dt=0.02, t_end=5.0, snap_dt=0.5))
        assert traj.status == "completed"
        mass = traj.series.columns["mass"]
        drift = np.max(np.abs(mass - mass[0])) / abs(mass[0]) / 5.0
        assert drift <= 1e-10

    def test_aggregate_bounded_small_data(self, solver_params, grid1d):
        traj = run(small_state(grid1d, solver_params, target=0.01),
                   SolverConfig(dt=0.02, t_end=10.0, snap_dt=0.5))
        assert traj.status == "completed"
        agg = traj.series.columns["x_aggregate"]
        assert np.max(agg) <= 10.0 * agg[0]

    def test_linear_regime_per_mode_fidelity(self, solver_params, grid1d):
        """Per-mode amplitudes after T match exp(T A) applied per mode to 1e-10."""
        state = small_state(grid1d, solver_params, target=1e-10)
        T, dt = 0.5, 0.01
        traj = run(state, SolverConfig(dt=dt, t_end=T, snap_dt=T))
        out = traj.final
        scale = np.max(np.abs(state.n.coef))
        worst = 0.0
        for idx in range(grid1d.spec_shape[0]):
            xi = float(grid1d.xi_mag_diff[idx])
            xi_v = grid1d.xi_diff[0, idx]
            em = scipy.linalg.expm(T * symbol_matrix(xi, solver_params))
            mhat = 1j * xi_v * state.u.coef[0, idx] / xi if xi > 0 else 0.0
            y = em @ np.array([state.n.coef[0, idx], mhat, state.psi.coef[0, idx]])
            if xi > 0:
                u_ref = -1j * (xi_v / xi) * y[1]
            else:
                u_ref = np.exp(-T / solver_params.eps) * state.u.coef[0, idx]
            worst = max(worst,
                        abs(out.n.coef[0, idx] - y[0]),
                        abs(out.psi.coef[0, idx] - y[2]),
                        abs(out.u.coef[0, idx] - u_ref))
        assert worst <= 1e-10 * scale

    def test_linear_regime_per_mode_fidelity_2d(self, solver_params):
        """2D, non-separable data with a transverse velocity: after T each stored
        mode's (n, i unit.u, psi) matches exp(T A(|xi|)) applied to it, and its
        transverse part u - unit (unit.u) has decayed by exp(-T/eps), to 1e-10
        of the data scale."""
        grid = make_grid(2, 16, 2 * np.pi)
        x1, x2 = np.meshgrid(*grid.x_axes, indexing="ij")
        u_prof = np.stack([np.sin(x2) + 0.5 * np.cos(x1 + x2), np.cos(x1) - 0.3 * np.sin(x1 - x2)])
        state, _ = build_initial_data(grid, solver_params,
                                      n_profile=gaussian_bump(grid, 0.6, [2.0, 3.5])
                                      + 0.2 * np.sin(x1 + 2 * x2),
                                      u_profile=u_prof, target_x0=1e-10)
        T, dt = 0.5, 0.01
        out = run(state, SolverConfig(dt=dt, t_end=T, snap_dt=T)).final
        scale = max(np.max(np.abs(f.coef)) for f in (state.n, state.u, state.psi))
        decay = np.exp(-T / solver_params.eps)
        worst, transverse, expm = 0.0, 0.0, {}
        for idx in np.ndindex(*grid.spec_shape):
            xi = float(grid.xi_mag_diff[idx])
            unit = grid.xi_diff[(slice(None),) + idx] / xi if xi > 0 else np.zeros(2)
            u0, u1 = state.u.coef[(slice(None),) + idx], out.u.coef[(slice(None),) + idx]
            if xi not in expm:
                expm[xi] = scipy.linalg.expm(T * symbol_matrix(xi, solver_params))
            y = expm[xi] @ np.array([state.n.coef[(0,) + idx], 1j * unit @ u0,
                                     state.psi.coef[(0,) + idx]])
            got = np.array([out.n.coef[(0,) + idx], 1j * unit @ u1, out.psi.coef[(0,) + idx]])
            worst = max(worst, np.max(np.abs(got - y)),
                        np.max(np.abs(u1 - unit * (unit @ u1) - decay * (u0 - unit * (unit @ u0)))))
            transverse = max(transverse, np.max(np.abs(u0 - unit * (unit @ u0))))
        assert transverse >= 0.1 * scale   # the data carry a transverse part
        assert worst <= 1e-10 * scale

    def test_mean_psi_ode(self):
        """The zero mode of psi follows dpsi/dt = -b psi + c1 n + mean(H(n))."""
        params = ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                             pressure=PressureLaw(1.0, 3.0), j_offset=0)
        grid = make_grid(1, 64, 2 * np.pi)
        # a raw wrapped Gaussian, not mean-zero, so the mean channel is actually exercised
        x, c = grid.x_axes[0], grid.L / 2.0
        r2 = np.minimum(np.abs(x - c), grid.L - np.abs(x - c)) ** 2
        n_prof = 0.05 * np.exp(-r2 / (2.0 * 0.6 ** 2))
        state, _ = build_initial_data(grid, params, n_profile=n_prof)
        dt = 0.005
        traj = run(state, SolverConfig(dt=dt, t_end=10.0, snap_dt=dt))
        t = traj.series.columns["t"]
        mean_n = traj.series.columns["mean_n"]
        mean_h = traj.series.columns["mean_H"]
        mean_psi = traj.series.columns["mean_psi"]
        source = scipy.interpolate.CubicSpline(t, params.c1 * mean_n + mean_h)
        sol = scipy.integrate.solve_ivp(
            lambda tt, y: -params.b * y + source(tt), (t[0], t[-1]),
            [mean_psi[0]], t_eval=t, rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(sol.y[0] - mean_psi)) <= 1e-8

    def test_unstable_band_growth_rate(self):
        """With a negative margin the lowest torus mode grows at the positive
        eigenvalue rate from the spectrum (10% tolerance in early time)."""
        params = ModelParams(eps=0.5, mu=3.0, a=1.0, b=1.0, rho_bar=1.0,
                             pressure=PressureLaw(kappa=1.0, gamma=1.0), j_offset=0)
        assert params.stability_margin < 0
        # unstable band |xi|^2 < c1 mu - b = 2; put the lowest mode at |xi| = 1
        grid = make_grid(1, 64, 2 * np.pi)
        n_prof = 1e-6 * mode_bump(grid, [([1], 1.0, 0.3)])
        state, _ = build_initial_data(grid, params, n_profile=n_prof)
        rate = float(eigenvalues(1.0, params)[0].real.max())
        assert rate > 0
        # measure on the tail, once the decaying branches have died out
        T = 24.0
        traj = run(state, SolverConfig(dt=0.02, t_end=T, snap_dt=T / 4))
        amp = [np.abs(s.n.coef[0, 1]) for s in traj.states]
        measured = np.log(amp[-1] / amp[-2]) / (T / 4)
        assert abs(measured - rate) <= 0.1 * rate

    def test_large_data_blowup_reported(self, solver_params, grid1d):
        n_prof = 0.9 * gaussian_bump(grid1d, width=0.4)
        state, _ = build_initial_data(grid1d, solver_params, n_profile=n_prof)
        u_big = SpectralField.from_physical(
            grid1d, 60.0 * np.sin(grid1d.x_axes[0])[None])
        state = replace(state, u=u_big)
        traj = run(state, SolverConfig(dt=0.05, t_end=5.0, snap_dt=0.5))
        assert traj.status == "blowup"
        assert traj.message

    @pytest.mark.parametrize("d,N,per_step", [(1, 32, 3), (2, 16, 3)])
    def test_inverse_transforms_per_step(self, solver_params, monkeypatch, d, N, per_step):
        """A step makes the inverse transforms of its two right-hand sides and
        of the mass fix, three in every d: the CFL test reads max|u| from the
        first right-hand side."""
        calls = []
        original = spectral.pruned_inverse

        def pruned_inverse(*args):
            calls.append(1)
            return original(*args)

        for module in (spectral, hpc_solver):
            monkeypatch.setattr(module, "pruned_inverse", pruned_inverse)
        state = small_state(make_grid(d, N, 2 * np.pi), solver_params)
        counts = []
        for steps in (2, 4):
            calls.clear()
            traj = run(state, SolverConfig(dt=0.01, t_end=0.01 * steps, snap_dt=0.01 * steps))
            assert traj.status == "completed"
            counts.append(len(calls))
        assert counts[1] - counts[0] == 2 * per_step

    def test_series_transforms_n_once_per_stack(self, solver_params, monkeypatch):
        """The series inverse-transforms the n of each snapshot stack once and
        evaluates one density perturbation per stack, for the mass and mean H
        of all its rows, with the same bits as total_mass() and
        coefficient_H(n) of each snapshot.  The run keeps more snapshots than
        one stack holds, so the series joins two stacks."""
        from chemorelax import model
        from chemorelax.driver import SNAPSHOT_CHUNK
        from chemorelax.model import coefficient_H
        state = small_state(make_grid(1, 32, 2 * np.pi), solver_params)
        n_snaps = SNAPSHOT_CHUNK + 6
        traj = run(state, SolverConfig(dt=0.01, t_end=0.01 * n_snaps, snap_dt=0.01))
        assert len(traj.states) == n_snaps + 1
        transformed, perturbations = [], []
        to_physical, perturbation = SpectralField.to_physical, model.density_perturbation

        def counted_to_physical(self):
            transformed.append(self.coef)
            return to_physical(self)

        def counted_perturbation(*args):
            perturbations.append(1)
            return perturbation(*args)

        monkeypatch.setattr(SpectralField, "to_physical", counted_to_physical)
        for module in (hpc_solver, model):
            monkeypatch.setattr(module, "density_perturbation", counted_perturbation)
        series = traj.series
        stacked_n = [np.concatenate([s.n.coef for s in chunk])
                     for chunk in (traj.states[:SNAPSHOT_CHUNK], traj.states[SNAPSHOT_CHUNK:])]
        assert [sum(c.shape == n.shape and np.array_equal(c, n) for c in transformed)
                for n in stacked_n] == [1, 1]
        assert len(perturbations) == 2
        monkeypatch.undo()
        assert len(series.columns["t"]) == len(traj.states)
        for k, s in enumerate(traj.states):
            assert series.columns["t"][k] == s.t
            assert series.columns["mass"][k] == s.total_mass()
            assert series.columns["mean_H"][k] == float(
                np.mean(coefficient_H(s.n.to_physical()[0], s.params)))

    def test_cfl_violation_halves_the_step(self, solver_params):
        """A first step of dt breaks dt max|u| <= CFL_SAFETY dx but dt/2 does
        not: the run ends exactly at t_end with the state of two steps of dt/2."""
        grid = make_grid(1, 64, 2 * np.pi)
        state, _ = build_initial_data(grid, solver_params,
                                      n_profile=0.01 * gaussian_bump(grid, width=0.5),
                                      u_profile=np.sin(grid.x_axes[0])[None])
        dt = 0.5
        limit = hpc_solver.CFL_SAFETY * grid.dx
        scale = 1.5 * limit / dt / float(np.max(np.abs(state.u.to_physical())))
        state = replace(state, u=scale * state.u)
        vmax = float(np.max(np.abs(state.u.to_physical())))
        assert dt * vmax > limit >= dt / 2 * vmax
        with pytest.warns(UserWarning, match="operational smallness"):
            traj = run(state, SolverConfig(dt=dt, t_end=dt, snap_dt=dt))
        assert traj.status == "completed" and traj.final.t == dt
        target = state.mass_perturbation()
        half = PropagatorTables(grid, solver_params, dt / 2)
        mid = step(state, half, target, nonlinear_rhs(state))
        ref = step(mid, half, target, nonlinear_rhs(mid))
        full = step(state, PropagatorTables(grid, solver_params, dt), target,
                    nonlinear_rhs(state))
        for name in ("n", "u", "psi"):
            got = getattr(traj.final, name).coef
            assert np.array_equal(got, getattr(ref, name).coef)
            assert not np.array_equal(got, getattr(full, name).coef)

    def test_cfl_violation_beyond_max_halvings_is_blowup(self, solver_params):
        """A velocity that needs one halving more than MAX_CFL_HALVINGS ends
        the run with status "blowup" before any step."""
        grid = make_grid(1, 64, 2 * np.pi)
        state, _ = build_initial_data(grid, solver_params,
                                      u_profile=np.sin(grid.x_axes[0])[None])
        dt = 0.5
        finest = dt / 2 ** hpc_solver.MAX_CFL_HALVINGS
        limit = hpc_solver.CFL_SAFETY * grid.dx
        scale = 1.5 * limit / finest / float(np.max(np.abs(state.u.to_physical())))
        state = replace(state, u=scale * state.u)
        vmax = float(np.max(np.abs(state.u.to_physical())))
        assert finest * vmax > limit >= finest / 2 * vmax
        with pytest.warns(UserWarning, match="operational smallness"):
            traj = run(state, SolverConfig(dt=dt, t_end=dt, snap_dt=dt))
        assert traj.status == "blowup"
        assert f"after {hpc_solver.MAX_CFL_HALVINGS} halvings" in traj.message
        assert len(traj.states) == 1


class TestDimensionConsistency:
    """Data varying along one axis only reproduce the d=1 run in d=2 and d=3.

    Along the first axis the modes lie on the last-axis plane 0 (multiplicity
    1); along the last axis they are the doubled half-spectrum modes.
    """

    @pytest.mark.parametrize("d,N,axis", [(2, 32, 0), (2, 32, 1), (3, 16, 0), (3, 16, 2)])
    def test_one_axis_data_reproduce_1d(self, solver_params, d, N, axis):
        L = 2 * np.pi
        config = SolverConfig(dt=0.05, t_end=1.0, snap_dt=0.25)
        g1, gd = make_grid(1, N, L), make_grid(d, N, L)
        x = g1.x_axes[0]
        n1 = 0.001 * gaussian_bump(g1, width=0.6)
        u1 = 0.0005 * np.sin(x) + 0.0002 * np.cos(3 * x)
        shape = [1] * d
        shape[axis] = N

        def spread(vals):
            return np.broadcast_to(vals.reshape(shape), gd.shape)

        ud = np.zeros((d,) + gd.shape)
        ud[axis] = spread(u1)
        traj1 = run(build_initial_data(g1, solver_params, n_profile=n1, u_profile=u1[None])[0],
                    config)
        trajd = run(build_initial_data(gd, solver_params, n_profile=spread(n1).copy(),
                                       u_profile=ud)[0], config)
        assert traj1.status == trajd.status == "completed"
        assert len(traj1.states) == len(trajd.states) == 5
        for a, b in zip(traj1.states, trajd.states):
            assert a.t == b.t
            for name in ("n", "psi"):
                ref = getattr(a, name).to_physical()[0]
                got = getattr(b, name).to_physical()[0]
                assert np.max(np.abs(got - spread(ref))) <= 1e-12 * np.max(np.abs(ref))
            ref_u = a.u.to_physical()[0]
            got_u = b.u.to_physical()
            expected = np.zeros_like(got_u)
            expected[axis] = spread(ref_u)
            assert np.max(np.abs(got_u - expected)) <= 1e-12 * np.max(np.abs(ref_u))
        for col in ("mean_n", "mean_psi", "mean_H", "max_u"):
            np.testing.assert_allclose(trajd.series.columns[col], traj1.series.columns[col],
                                       rtol=0.0, atol=1e-12 * np.max(np.abs(n1)))


class TestShearFlow:
    """u = (f(x_2), 0, ...) with n = psi = 0: div u = 0 and (u.grad) u = 0
    hold exactly in coefficient space, so the run is pure relaxation,
    u(t) = exp(-t/eps) u0, with n and psi exactly 0."""

    @pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
    def test_pure_relaxation(self, solver_params, d, N):
        grid = make_grid(d, N, 2 * np.pi)
        x2 = grid.x_axes[1]
        shape = [1] * d
        shape[1] = N
        u_prof = np.zeros((d,) + grid.shape)
        u_prof[0] = (1e-3 * np.sin(x2) + 5e-4 * np.cos(3 * x2 + 0.4)).reshape(shape)
        state, _ = build_initial_data(grid, solver_params, n_profile=None, u_profile=u_prof)
        dt = 0.05
        traj = run(state, SolverConfig(dt=dt, t_end=6 * dt, snap_dt=2 * dt))
        assert traj.status == "completed" and len(traj.states) == 4
        u0 = state.u.coef
        for s in traj.states:
            assert not np.any(s.n.coef) and not np.any(s.psi.coef)
            expected = np.exp(-s.t / solver_params.eps) * u0
            assert np.max(np.abs(s.u.coef - expected)) <= 1e-13 * np.max(np.abs(u0))


class TestBuildInitialData:
    def test_zero_target(self, solver_params, grid1d):
        state, parts = build_initial_data(grid1d, solver_params,
                                          n_profile=gaussian_bump(grid1d), target_x0=0.0)
        assert l2_norm(state.n) == 0.0
        assert parts["low"] == 0.0

    @pytest.mark.parametrize("profile", ["bump", None])
    def test_zero_target_breakdown(self, solver_params, grid1d, profile):
        """Target 0 gives the zero state and hybrid_aggregate's full breakdown,
        with the (low, high) pair of every field."""
        n_profile = gaussian_bump(grid1d) if profile else None
        state, parts = build_initial_data(grid1d, solver_params, n_profile=n_profile,
                                          target_x0=0)
        assert all(l2_norm(getattr(state, f)) == 0.0 for f in ("n", "u", "psi"))
        assert set(parts) == {"low", "high", "eps_high", "n", "u", "psi", "grad_psi"}
        assert parts == hybrid_aggregate(state)[1]
        assert parts["n"] == (0.0, 0.0) and parts["grad_psi"] == (0.0, 0.0)

    def test_target_matched_to_1e10(self, solver_params, grid1d):
        state, _ = build_initial_data(grid1d, solver_params,
                                      n_profile=gaussian_bump(grid1d), target_x0=0.01)
        x0, _ = hybrid_aggregate(state)
        assert abs(x0 - 0.01) <= 1e-10 * 0.01

    def test_well_prepared_effective_concentration_vanishes(self, grid1d):
        params = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        state, _ = build_initial_data(grid1d, params, n_profile=gaussian_bump(grid1d),
                                      target_x0=0.01)
        residual = state.psi - equilibrium_psi(state.n, params)
        assert l2_norm(residual) <= 1e-10 * max(l2_norm(state.psi), 1e-30)

    def test_zero_profile_nonzero_target_rejected(self, solver_params, grid1d):
        with pytest.raises(ValueError):
            build_initial_data(grid1d, solver_params, n_profile=None, target_x0=0.01)


