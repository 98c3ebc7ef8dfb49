"""Damped modes, Lyapunov functionals, decay fits, rescaling, sweep plumbing."""

from collections import Counter

import numpy as np
import pytest

from chemorelax.diagnostics import (
    damped_mode_decay_check,
    decay_fit,
    effective_modes,
    lyapunov_equivalence_check,
    lyapunov_evaluate,
    relaxation_sweep,
    rescale_to_fast,
    rescale_to_slow,
)
from chemorelax.hpc_solver import (
    HpcState,
    SolverConfig,
    build_initial_data,
    gaussian_bump,
    run,
)
from chemorelax.model import ModelParams, PressureLaw, coefficient_H
from chemorelax.spectral import SpectralField, divergence, make_decomposition, make_grid


@pytest.fixture(scope="module")
def params():
    return ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 128, 2 * np.pi)


@pytest.fixture(scope="module")
def small_traj(grid, params):
    state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                  target_x0=0.01)
    return run(state, SolverConfig(dt=0.02, t_end=8.0, snap_dt=0.5))


class TestEffectiveModes:
    def test_equilibrium_all_zero(self, grid, params):
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        modes = effective_modes(state)
        assert modes.v.l2_norm() == 0.0
        assert modes.phi_eff.l2_norm() == 0.0
        assert modes.phi_tilde.l2_norm() == 0.0
        assert modes.coupling_residual.l2_norm() <= 1e-12

    def test_well_prepared_phi_eff_zero(self, grid):
        p = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        state, _ = build_initial_data(grid, p, n_profile=gaussian_bump(grid), target_x0=0.01)
        modes = effective_modes(state)
        assert modes.phi_eff.l2_norm() <= 1e-10 * max(state.psi.l2_norm(), 1e-30)

    def test_coupling_identity(self, grid, rng):
        """b phi - a rho == b psi - c1 n - H(n) pointwise, to 1e-12."""
        p = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        n = SpectralField.from_physical(grid, 0.08 * gaussian_bump(grid)[None])
        psi = SpectralField.from_physical(grid, 0.03 * rng.standard_normal((1,) + grid.shape))
        state = HpcState(0.0, n, SpectralField.zeros(grid, 1), psi, p)
        modes = effective_modes(state)
        n_phys = n.to_physical()[0]
        rhs = p.b * psi.to_physical()[0] - p.c1 * n_phys - coefficient_H(n_phys, p)
        lhs = modes.coupling_residual.to_physical()[0]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_damped_velocity_equation_finite_difference(self, grid, params):
        """Along a near-linear trajectory, dt u + (1/eps) v ~ 0 (from the
        momentum equation with negligible advection)."""
        state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                      target_x0=1e-6)
        dt = 1e-3
        traj = run(state, SolverConfig(dt=dt, t_end=10 * dt, snap_dt=dt))
        u_prev = traj.states[4].u.to_physical()
        u_next = traj.states[6].u.to_physical()
        mid = traj.states[5]
        dudt = (u_next - u_prev) / (2 * dt)
        v_mid = effective_modes(mid).v.to_physical()
        residual = dudt + v_mid / params.eps
        scale = np.max(np.abs(v_mid)) / params.eps
        assert np.max(np.abs(residual)) <= 1e-4 * scale

    def test_phitilde_evolution_linear(self, grid, params):
        """d/dt (b psi - c1 n) + b(b psi - c1 n) ~ b Lap psi + c0 c1 div u
        in the linear regime."""
        state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                      target_x0=1e-6)
        dt = 1e-3
        traj = run(state, SolverConfig(dt=dt, t_end=10 * dt, snap_dt=dt))
        p = params
        prev, mid, nxt = traj.states[4], traj.states[5], traj.states[6]
        pt = [effective_modes(s).phi_tilde.to_physical()[0] for s in (prev, mid, nxt)]
        dpt = (pt[2] - pt[0]) / (2 * dt)
        from chemorelax.spectral import laplacian
        rhs = (p.b * laplacian(mid.psi).to_physical()[0]
               + p.c0 * p.c1 * divergence(mid.u).to_physical()[0])
        residual = dpt + p.b * pt[1] - rhs
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(residual)) <= 1e-3 * scale


class TestDampedModeDecayCheck:
    def test_equilibrium_zero(self, grid, params):
        state, _ = build_initial_data(grid, params, n_profile=None, target_x0=0.0)
        traj = run(state, SolverConfig(dt=0.1, t_end=1.0, snap_dt=0.5))
        out = damped_mode_decay_check(traj)
        assert out["int_v_over_eps"] == 0.0 and out["int_phi_eff"] == 0.0

    def test_small_data_contract(self, small_traj):
        out = damped_mode_decay_check(small_traj)
        assert out["ok"]
        assert out["int_v_over_eps"] <= 20.0 * out["x0"]
        assert out["int_phi_eff"] <= 20.0 * out["x0"]

    def test_eps_uniformity_of_v_integral(self, grid):
        """Halving eps keeps (1/eps) int ||v||^l in the same ballpark."""
        outs = []
        for eps in (0.25, 0.125):
            p = ModelParams(eps=eps, pressure=PressureLaw(1.0, 2.0), j_offset=0)
            state, _ = build_initial_data(grid, p, n_profile=gaussian_bump(grid, width=0.5),
                                          target_x0=0.01)
            traj = run(state, SolverConfig(dt=0.02, t_end=6.0, snap_dt=0.5))
            outs.append(damped_mode_decay_check(traj)["int_v_over_eps"])
        ratio = outs[1] / outs[0]
        assert 0.3 <= ratio <= 3.0


class TestLyapunov:
    def test_equilibrium_zero(self, grid, params):
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        rec = lyapunov_evaluate(state, 2, eta0=0.1)
        assert rec.energy == 0.0 and rec.dissipation == 0.0 and rec.block_sq == 0.0

    def test_pure_density_block(self, grid, params):
        """Single high-frequency n-mode with u = psi = 0 and H == 0 (gamma=2):
        L_j = eps ||n_j||^2/2 plus the eta0 cross terms that vanish here."""
        x = grid.x_axes[0]
        n = SpectralField.from_physical(grid, (0.01 * np.cos(6 * x))[None])
        state = HpcState(0.0, n, SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        dec = make_decomposition(grid)
        j = 2  # |xi| = 6 sits in ring j=2 ([3, 10.7])
        rec = lyapunov_evaluate(state, j, eta0=0.1, dec=dec)
        expected = params.eps * 0.5 * dec.block(n, j).l2_norm() ** 2
        # psi_j = 0 kills every cross term except the dt psi (= c1 n_j) square
        assert np.isclose(rec.energy, expected, rtol=1e-12)
        assert rec.dissipation > 0

    def test_eta0_validation(self, grid, params):
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        with pytest.raises(ValueError):
            lyapunov_evaluate(state, 1, eta0=1.5)

    def test_weight_bounds_small_data(self, small_traj, params):
        """c0/2 <= w_j <= 3 c0/2 on small-data states."""
        for s in small_traj.states[:: max(1, len(small_traj.states) // 4)]:
            rec = lyapunov_evaluate(s, 2, eta0=0.1)
            assert params.c0 / 2 <= rec.w_min <= rec.w_max <= 3 * params.c0 / 2

    def test_equivalence_zero_violations(self, small_traj):
        report = lyapunov_equivalence_check(small_traj, eta0=0.1, c_tol=10.0)
        assert report.ok
        assert len(report.rows) > 0

    def test_contract_excludes_low_blocks(self, small_traj):
        J = small_traj.initial.params.threshold()
        report = lyapunov_equivalence_check(small_traj)
        assert all(row[1] >= J - 1 for row in report.rows)

    def test_coefficients_once_per_snapshot(self, small_traj, monkeypatch):
        """G(n) and H(n) of a snapshot serve every block j of it."""
        from chemorelax import diagnostics
        calls = []
        monkeypatch.setattr(diagnostics, "coefficient_H",
                            lambda n, p: calls.append(1) or coefficient_H(n, p))
        report = lyapunov_equivalence_check(small_traj)
        assert len(report.rows) > len(small_traj.states)
        assert len(calls) == len(small_traj.states)

    def test_below_floor_blocks_skipped(self, grid, params):
        state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.9),
                                      target_x0=1e-4)
        traj = run(state, SolverConfig(dt=0.05, t_end=0.1, snap_dt=0.1))
        report = lyapunov_equivalence_check(traj, noise_floor=1e-12)
        assert report.skipped_below_floor > 0


class TestDecayFit:
    def test_exact_power_law(self):
        eps = 0.3
        t = np.linspace(1.0, 400.0, 200)
        vals = (1 + eps * t) ** (-1.0)
        slope, rms, used = decay_fit(t, vals, eps, window=(5.0, 50.0))
        assert abs(slope + 1.0) <= 1e-10 and rms <= 1e-10

    def test_constant_series(self):
        t = np.linspace(1.0, 300.0, 120)
        slope, _, _ = decay_fit(t, np.full_like(t, 2.7), 0.5, window=(5.0, 50.0))
        assert abs(slope) <= 1e-12

    def test_scale_invariance(self):
        eps = 0.2
        t = np.geomspace(10.0, 500.0, 60)
        vals = (1 + eps * t) ** (-0.75) * (1 + 0.1 * np.sin(t / 30))
        s1, _, _ = decay_fit(t, vals, eps)
        s2, _, _ = decay_fit(t, 137.0 * vals, eps)
        assert abs(s1 - s2) <= 1e-12

    def test_requires_enough_samples(self):
        t = np.array([30.0, 40.0, 50.0])
        with pytest.raises(ValueError):
            decay_fit(t, np.ones_like(t), 1.0)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 100.0, 50)
        vals = np.ones_like(t)
        vals[20] = 0.0
        with pytest.raises(ValueError):
            decay_fit(t, vals, 1.0)


class TestRescaling:
    def test_roundtrip_exact(self, grid):
        # power-of-two eps makes the multiply/divide pair bit-exact
        p = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 2.0))
        state, _ = build_initial_data(grid, p, n_profile=gaussian_bump(grid, width=0.5),
                                      target_x0=0.01)
        state.t = 3.0
        tau, rho, u_eps, phi = rescale_to_slow(state, p.eps)
        back = rescale_to_fast(tau, rho, u_eps, phi, p)
        assert back.t == state.t
        assert np.array_equal(back.u.coef, state.u.coef)
        assert np.allclose(back.psi.coef, state.psi.coef, atol=1e-16)
        assert np.max(np.abs(back.n.coef - state.n.coef)) <= 1e-14


class TestRelaxationSweep:
    def test_two_member_smoke(self, grid, params):
        """Plumbing: all report entries finite and nonnegative; no slopes
        with fewer than 3 eps values."""
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.25], tau_end=0.5,
                               snap_dtau=0.05, dt_fast=0.02)
        for name in ("sup_drho", "int_drho_high", "int_du", "int_dphi",
                     "int_rho_v", "int_dtphi"):
            vals = getattr(rep, name)
            assert len(vals) == 2
            assert all(np.isfinite(v) and v >= 0 for v in vals)
        assert "sup_drho" not in rep.slopes
        assert "int_rho_v_over_eps_spread" in rep.slopes

    def test_builds_no_diagnostic_series(self, params, monkeypatch):
        """The sweep reads snapshots only: no series row is ever recorded."""
        from chemorelax.diagnostics import DiagnosticSeries
        rows = []
        monkeypatch.setattr(DiagnosticSeries, "add", lambda self, **kw: rows.append(kw))
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.25], tau_end=0.1,
                               snap_dtau=0.05, dt_fast=0.02)
        assert len(rep.sup_drho) == 2
        assert rows == []

    @pytest.mark.filterwarnings("ignore:initial hybrid energy")
    def test_one_n_transform_per_kept_snapshot(self, params, monkeypatch):
        """The member loop inverse-transforms each kept snapshot's n once: the
        rescaled density, the momentum residual and H(n) share it."""
        from chemorelax import diagnostics
        kept, calls = [], []
        original_run, original_to_physical = diagnostics.run, SpectralField.to_physical

        def run(*args):   # counts only the calls made after a member's run
            start = len(calls)
            traj = original_run(*args)
            del calls[start:]
            kept.append(traj.states)
            return traj

        def to_physical(self):
            calls.append(self)   # holds the field, so no id is reused
            return original_to_physical(self)

        monkeypatch.setattr(diagnostics, "run", run)
        monkeypatch.setattr(SpectralField, "to_physical", to_physical)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        relaxation_sweep(grid, params, rho0, [0.5, 0.25], tau_end=0.1,
                         snap_dtau=0.05, dt_fast=0.02)
        per_field = Counter(id(f) for f in calls)
        assert len(kept) == 2
        for states in kept:
            assert len(states) == 5
            assert [per_field[id(s.n)] for s in states] == [1] * len(states)

    @pytest.mark.filterwarnings("ignore:initial hybrid energy")
    def test_one_density_perturbation_per_kept_snapshot(self, params, monkeypatch):
        """From the end of its run to the next member's setup, a member
        evaluates the density perturbation once per kept snapshot: the
        rescaled density and H(n) share it."""
        from chemorelax import diagnostics, model
        members, live = [], [False]   # per member: [kept snapshots, perturbations]
        original_run, original_initial = diagnostics.run, diagnostics._hpc_member_initial
        original = model.density_perturbation

        def run(*args):
            traj = original_run(*args)
            members.append([len(traj.states), 0])
            live[0] = True
            return traj

        def member_initial(*args):
            live[0] = False
            return original_initial(*args)

        def density_perturbation(*args):
            if live[0]:
                members[-1][1] += 1
            return original(*args)

        monkeypatch.setattr(diagnostics, "run", run)
        monkeypatch.setattr(diagnostics, "_hpc_member_initial", member_initial)
        for module in (diagnostics, model):
            monkeypatch.setattr(module, "density_perturbation", density_perturbation,
                                raising=False)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        relaxation_sweep(grid, params, rho0, [0.5, 0.25], tau_end=0.1,
                         snap_dtau=0.05, dt_fast=0.02)
        assert members == [[5, 5], [5, 5]]

    def test_bad_member_rejected_before_any_run(self, params, monkeypatch):
        """At N = 32 the eps = 0.05 member's threshold mode lies outside the
        dealiased band: the sweep stops before the limit-model run."""
        from chemorelax import diagnostics
        calls = []
        original = diagnostics.ks_run
        monkeypatch.setattr(diagnostics, "ks_run",
                            lambda *args: calls.append(1) or original(*args))
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        with pytest.raises(ValueError, match="exceeds the dealiased band"):
            relaxation_sweep(grid, params, rho0, [0.2, 0.1, 0.05], tau_end=0.05,
                             snap_dtau=0.05, high_freq_budget=0.01)
        assert calls == []

    def test_initial_errors_vanish_without_offset(self, grid, params):
        """Shared data: delta rho(0) = delta u(0) = 0 by construction."""
        from chemorelax.diagnostics import _hpc_member_initial
        from chemorelax.ks_solver import reconstruct_velocity, solve_phi
        from chemorelax.spectral import dealias
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        init = _hpc_member_initial(grid, params, rho0)
        rho_f = dealias(SpectralField.from_physical(grid, rho0[None]))
        phi = solve_phi(rho_f, params)
        u_star = reconstruct_velocity(rho_f, phi, params)
        du0 = (1.0 / params.eps) * init.u - u_star
        assert du0.l2_norm() <= 1e-14
        modes = effective_modes(init)
        assert modes.v.l2_norm() <= 1e-14 * max(1.0, init.u.l2_norm())
