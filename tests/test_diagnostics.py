"""Damped modes, Lyapunov functionals, decay fits, rescaling, sweep plumbing."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from chemorelax.diagnostics import (
    damped_mode_decay_check,
    effective_modes,
    lyapunov_blocks,
    lyapunov_equivalence_check,
    lyapunov_evaluate,
    relaxation_sweep,
    rescale_to_slow,
)
from chemorelax.driver import SNAPSHOT_CHUNK, RunFailed, Trajectory
from chemorelax.hpc_solver import (
    HpcState,
    SolverConfig,
    build_initial_data,
    gaussian_bump,
    run,
)
from chemorelax.linear_analysis import decay_fit
from chemorelax.model import (
    ModelParams,
    OutsideValidityWindow,
    PressureLaw,
    coefficient_H,
    coefficients_GH,
    density_perturbation,
    enthalpy_n,
)
from chemorelax.spectral import (
    SpectralField,
    bessel_inverse,
    divergence,
    gradient,
    laplacian,
    make_decomposition,
    make_grid,
)
from norms import dealias, l2_norm, snapshot_besov, snapshot_hybrid


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
        assert l2_norm(modes.v) == 0.0
        assert l2_norm(modes.phi_eff) == 0.0
        assert l2_norm(params.b * state.psi - params.c1 * state.n) == 0.0

    def test_well_prepared_phi_eff_zero(self, grid):
        p = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        state, _ = build_initial_data(grid, p, n_profile=gaussian_bump(grid), target_x0=0.01)
        modes = effective_modes(state)
        assert l2_norm(modes.phi_eff) <= 1e-10 * max(l2_norm(state.psi), 1e-30)

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
        pt = [(p.b * s.psi - p.c1 * s.n).to_physical()[0] for s in (prev, mid, nxt)]
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

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16)], ids=["1d", "2d"])
    def test_matches_per_snapshot_reference(self, params, d, N):
        """Over snapshot stacks, the check's integrals and x0 are within 1e-13
        relative of the damped modes evaluated snapshot by snapshot; the run
        keeps more snapshots than one stack holds."""
        grid = make_grid(d, N, 2 * np.pi)
        p = replace(params, pressure=PressureLaw(1.0, 3.0))   # H(n) != 0
        u_prof = np.stack([gaussian_bump(grid, width=0.7, center=[1.0 + k] * d) for k in range(d)])
        state, _ = build_initial_data(grid, p, n_profile=gaussian_bump(grid, width=0.8),
                                      u_profile=u_prof, target_x0=0.01)
        n_snaps = SNAPSHOT_CHUNK + 2
        traj = run(state, SolverConfig(dt=0.05, t_end=0.05 * n_snaps, snap_dt=0.05))
        assert len(traj.states) == n_snaps + 1
        J, d_half = p.threshold(), d / 2.0
        v_lo, pe_lo = [], []
        for s in traj.states:
            v = s.u + p.eps * gradient(s.n) - (p.eps * p.mu) * gradient(s.psi)
            h = SpectralField.from_physical(
                grid, coefficient_H(s.n.to_physical()[0], p)[None], dealiased=True)
            phi_eff = s.psi - bessel_inverse(p.c1 * s.n + h, p.b)
            v_lo.append(snapshot_hybrid(v, d_half, d_half, J)[0])
            pe_lo.append(snapshot_hybrid(phi_eff, d_half, d_half, J)[0]
                         + snapshot_hybrid(phi_eff, d_half + 2.0, d_half + 2.0, J)[0])
        times = [s.t for s in traj.states]
        out = damped_mode_decay_check(traj)
        assert out["int_v_over_eps"] > 0 and out["int_phi_eff"] > 0
        assert out["int_v_over_eps"] == pytest.approx(np.trapezoid(v_lo, times) / p.eps,
                                                      rel=1e-13, abs=0.0)
        assert out["int_phi_eff"] == pytest.approx(np.trapezoid(pe_lo, times), rel=1e-13, abs=0.0)
        assert out["x0"] == pytest.approx(0.01, rel=1e-10)


class TestLyapunov:
    def test_equilibrium_zero(self, grid, params):
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        rec = lyapunov_evaluate(state, [2], eta0=0.1)
        assert rec.energy[0] == 0.0 and rec.dissipation[0] == 0.0 and rec.block_sq[0] == 0.0

    def test_pure_density_block(self, grid, params):
        """Single high-frequency n-mode with u = psi = 0 and H == 0 (gamma=2):
        L_j = eps ||n_j||^2/2 plus the eta0 cross terms that vanish here."""
        x = grid.x_axes[0]
        n = SpectralField.from_physical(grid, (0.01 * np.cos(6 * x))[None])
        state = HpcState(0.0, n, SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        dec = make_decomposition(grid)
        j = 2  # |xi| = 6 sits in ring j=2 ([3, 10.7])
        rec = lyapunov_evaluate(state, [j], eta0=0.1)
        expected = params.eps * 0.5 * l2_norm(dec.block(n, j)) ** 2
        # psi_j = 0 kills every cross term except the dt psi (= c1 n_j) square
        assert np.isclose(rec.energy[0], expected, rtol=1e-12)
        assert rec.dissipation[0] > 0

    def test_eta0_validation(self, grid, params):
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), params)
        with pytest.raises(ValueError):
            lyapunov_evaluate(state, [1], eta0=1.5)

    def test_weight_bounds_small_data(self, small_traj, params):
        """c0/2 <= w_j <= 3 c0/2 on small-data states."""
        for s in small_traj.states[:: max(1, len(small_traj.states) // 4)]:
            rec = lyapunov_evaluate(s, [2], eta0=0.1)
            assert params.c0 / 2 <= rec.w_min[0] <= rec.w_max[0] <= 3 * params.c0 / 2

    def test_equivalence_zero_violations(self, small_traj):
        report = lyapunov_equivalence_check(small_traj, eta0=0.1, c_tol=10.0)
        assert report.ok
        assert len(report.rows) > 0

    def test_contract_excludes_low_blocks(self, small_traj):
        J = small_traj.initial.params.threshold()
        report = lyapunov_equivalence_check(small_traj)
        assert all(row[1] >= J - 1 for row in report.rows)

    def test_coefficients_once_per_snapshot(self, small_traj, monkeypatch):
        """G(n) and H(n) of a snapshot come from one density perturbation and
        serve every block j of it."""
        from chemorelax import model
        calls = []
        original = model.density_perturbation
        monkeypatch.setattr(model, "density_perturbation",
                            lambda n, p: calls.append(1) or original(n, p))
        report = lyapunov_equivalence_check(small_traj)
        assert len(report.rows) > len(small_traj.states)
        assert len(calls) == len(small_traj.states)

    def test_below_floor_blocks_skipped(self, grid, params):
        state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.9),
                                      target_x0=1e-4)
        traj = run(state, SolverConfig(dt=0.05, t_end=0.1, snap_dt=0.1))
        report = lyapunov_equivalence_check(traj)
        assert report.skipped_below_floor > 0


def per_block_reference(state, j, eta0):
    """One block's (L_j, H_j, block_sq, w_min, w_max), evaluated block by
    block: blocks and norms from per-j multipliers and ``l2_norm``."""
    p, grid = state.params, state.grid
    dec = grid.decomposition

    def integral(values):
        return float(np.sum(values) * grid.cell_volume)

    g_vals, h_vals = coefficients_GH(state.n.to_physical()[0], p)
    g_full, h_full = (SpectralField.from_physical(grid, v) for v in (g_vals, h_vals))
    n_j, u_j, psi_j = (dec.block(f, j) for f in (state.n, state.u, state.psi))
    ((n_phys,), u_phys, (psi_phys,), grad_psi, grad_n, (lap_psi,), (div_u,), (h_j,),
     (low_g,)) = (f.to_physical() for f in (n_j, u_j, psi_j, gradient(psi_j), gradient(n_j),
                                            laplacian(psi_j), divergence(u_j),
                                            dec.block(h_full, j), dec.lowpass(g_full, j - 1)))
    dt_psi = lap_psi - p.b * psi_phys + p.c1 * n_phys + h_j
    w = p.c0 + low_g
    two_mj = 2.0 ** (-j)
    u_grad_n = np.einsum("k...,k...->...", u_phys, grad_n)
    grad_n_grad_psi = np.einsum("k...,k...->...", grad_n, grad_psi)
    usq = np.einsum("k...,k...->...", u_phys, u_phys)
    gpsq = np.einsum("k...,k...->...", grad_psi, grad_psi)
    energy = p.eps * integral(
        0.5 * n_phys ** 2 + (two_mj ** 2 / (2.0 * eta0)) * h_j ** 2 + 0.5 * w * usq
        + (p.mu * p.b / (2.0 * p.c1)) * psi_phys ** 2 + (p.mu / (2.0 * p.c1)) * gpsq
        - p.mu * n_phys * psi_phys - h_j * psi_phys
    ) + eta0 * two_mj ** 2 * integral((p.mu / (2.0 * p.c1)) * gpsq + u_grad_n)
    dissipation = p.eps * integral(w * usq / p.eps + dt_psi ** 2) + eta0 * two_mj ** 2 * integral(
        np.einsum("k...,k...->...", grad_n, grad_n) + (p.mu * p.b / p.c1) * gpsq
        + (p.mu / p.c1) * lap_psi ** 2 - 2.0 * p.mu * grad_n_grad_psi - w * div_u ** 2
        + u_grad_n / p.eps)
    block_sq = p.eps * (l2_norm(n_j) ** 2 + l2_norm(u_j) ** 2 + l2_norm(psi_j) ** 2
                        + l2_norm(gradient(psi_j)) ** 2 + two_mj ** 2 * integral(h_j ** 2))
    return energy, dissipation, block_sq, float(w.min()), float(w.max())


class TestLyapunovStack:
    @pytest.fixture(scope="class", params=[(1, 128), (2, 32), (3, 16)], ids=["1d", "2d", "3d"])
    def state(self, request, params):
        d, N = request.param
        grid = make_grid(d, N, 2 * np.pi)
        state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                      target_x0=0.01)
        return run(state, SolverConfig(dt=0.02, t_end=0.2, snap_dt=0.2)).states[-1]

    def test_matches_per_block_reference(self, state):
        """Every active block of one stacked call equals the block-by-block
        evaluation: bit for bit, apart from block_sq, which comes from the
        block norms (Parseval) instead of per-block l2 norms."""
        dec = state.grid.decomposition
        js = np.arange(dec.j_min, dec.j_max + 1)
        rec = lyapunov_evaluate(state, js, eta0=0.1)
        assert np.array_equal(rec.j, js)
        ref = np.array([per_block_reference(state, int(j), 0.1) for j in js]).T
        assert np.count_nonzero(ref[2]) >= 3   # the state fills several blocks
        for name, want in zip(("energy", "dissipation", "w_min", "w_max"), ref[[0, 1, 3, 4]]):
            assert np.array_equal(getattr(rec, name), want), name
        np.testing.assert_allclose(rec.block_sq, ref[2], rtol=1e-15, atol=0.0)

    def test_transforms_per_snapshot_do_not_grow_with_blocks(self, state, monkeypatch):
        """One snapshot takes the same number of inverse transforms for one
        checked block as for all of them: 2, one of n and one of the stacked blocks."""
        calls = []
        original = SpectralField.to_physical
        monkeypatch.setattr(SpectralField, "to_physical",
                            lambda f: calls.append(1) or original(f))
        dec = state.grid.decomposition
        counts = []
        for shift in (dec.j_max + 1 - state.params.threshold(), -3):   # J - 1 = j_max, below j_min
            params = replace(state.params, j_offset=state.params.j_offset + shift)
            snapshot = replace(state, params=params)
            traj = Trajectory(states=[snapshot, snapshot], columns=None)
            n_blocks = len(lyapunov_blocks(params, state.grid))
            calls.clear()
            lyapunov_equivalence_check(traj)
            counts.append((n_blocks, len(calls) / 2))
        assert counts[0][0] == 1 and counts[1][0] == len(dec.active_js())
        assert counts[0][1] == counts[1][1] == 2

    def test_empty_block_range_rejected(self, params):
        """With J - 1 above the largest active block the check has nothing to
        check: ValueError before any snapshot is evaluated."""
        grid = make_grid(1, 8, 2 * np.pi)
        small = replace(params, eps=0.01)
        with pytest.raises(ValueError, match=r"J - 1 = 5, and the largest active j is 2"):
            lyapunov_blocks(small, grid)
        state = HpcState(0.0, SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1),
                         SpectralField.zeros(grid, 1), small)
        with pytest.raises(ValueError, match=r"J - 1 = 5"):
            lyapunov_equivalence_check(Trajectory(states=[state], columns=None))


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
        state = replace(state, t=3.0)
        tau, rho, u_eps, phi = rescale_to_slow(
            state, p.eps, p.rho_bar + density_perturbation(state.n.to_physical()[0], p))
        # the inverse rescaling: the same factors, applied inversely
        n = SpectralField.from_physical(grid, enthalpy_n(rho.to_physical()[0], p)[None])
        psi = phi.shifted(-p.phi_bar)
        back = HpcState(tau / p.eps, n, p.eps * u_eps, psi, p)
        assert back.t == state.t
        assert np.array_equal(back.u.coef, state.u.coef)
        assert np.allclose(back.psi.coef, state.psi.coef, atol=1e-16)
        assert np.max(np.abs(back.n.coef - state.n.coef)) <= 1e-14


def watch_members(monkeypatch, on_start, on_snaps):
    """Patch the sweep's member runs: ``on_start()`` when a run starts, and
    ``on_snaps(snaps)`` with each chunk of one member's snapshots as the run
    hands it to the sweep, before the sweep takes it."""
    from chemorelax import diagnostics
    original = diagnostics.stream_members

    def stream_members(initials, configs, tables, consume):
        on_start()
        return original(initials, configs, tables,
                        lambda m, snaps: on_snaps(snaps) or consume(m, snaps))

    monkeypatch.setattr(diagnostics, "stream_members", stream_members)


def flag_error_pass(monkeypatch) -> list:
    """A flag, [True] while the sweep takes the errors of a member's snapshot
    stack and [False] otherwise."""
    from chemorelax import diagnostics
    live, original = [False], diagnostics.stack_stream

    def stack_stream(take, count):
        def flagged(start, s):
            live[0] = True
            take(start, s)
            live[0] = False
        return original(flagged, count)

    monkeypatch.setattr(diagnostics, "stack_stream", stack_stream)
    return live


class TestRelaxationSweep:
    def test_three_member_smoke(self, grid, params):
        """Plumbing: all report entries finite and nonnegative, every slope
        and residual spread fitted."""
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.5,
                               snap_dtau=0.05, dt_fast=0.02)
        for name in ("sup_drho", "int_drho_high", "int_du", "int_dphi",
                     "int_rho_v", "int_dtphi"):
            vals = getattr(rep, name)
            assert len(vals) == 3
            assert all(np.isfinite(v) and v >= 0 for v in vals)
        assert set(rep.slopes) == {"sup_drho", "int_drho_high", "int_du", "int_dphi",
                                   "int_rho_v_over_eps_spread", "int_dtphi_over_eps_spread"}

    @pytest.mark.parametrize("eps_list,tau_end,message", [
        ([0.2, 0.1], 0.1, r"eps_list needs at least 3 values for the slope fit, got \[0.2, 0.1\]"),
        ([0.4, 0.283, 0.2], 0.07,
         "tau_end=0.07 is not a whole number of snapshot intervals of 0.05"),
    ], ids=["short-eps_list", "tau_end-off-the-snapshot-grid"])
    def test_sweep_shape_rejected_before_any_run(self, params, monkeypatch, eps_list, tau_end,
                                                 message):
        """Fewer than three eps (no slope to fit), or a horizon that is not a
        whole number of snapshot intervals, is a ValueError before any run."""
        from chemorelax import diagnostics

        def no_run(*args):
            raise AssertionError("the sweep must be rejected before any run")

        for name in ("stream_members", "ks_run"):
            monkeypatch.setattr(diagnostics, name, no_run)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        with pytest.raises(ValueError, match=message):
            relaxation_sweep(grid, params, rho0, eps_list, tau_end=tau_end, snap_dtau=0.05)

    def test_builds_no_diagnostic_series(self, params, monkeypatch):
        """The sweep reads snapshots only: no series row is ever recorded."""
        from chemorelax.diagnostics import DiagnosticSeries
        rows = []
        monkeypatch.setattr(DiagnosticSeries, "add", lambda self, **kw: rows.append(kw))
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                               snap_dtau=0.05, dt_fast=0.02)
        assert len(rep.sup_drho) == 3
        assert rows == []

    @pytest.mark.filterwarnings("ignore:initial norm")
    def test_one_n_transform_per_stack(self, params, monkeypatch):
        """The member loop inverse-transforms the n of each snapshot stack once:
        the rescaled density, the momentum residual and H(n) share it.  With
        stacks of two snapshots, a member's five snapshots make three stacks."""
        from chemorelax import driver
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", 2)
        kept, calls, live = {}, [], flag_error_pass(monkeypatch)
        original_to_physical = SpectralField.to_physical

        def to_physical(self):   # counts only the calls that take a stack's errors
            if live[0]:
                calls.append(self.coef)
            return original_to_physical(self)

        watch_members(monkeypatch, lambda: None, lambda snaps: kept.setdefault(
            snaps[0].params.eps, []).extend(snaps))
        monkeypatch.setattr(SpectralField, "to_physical", to_physical)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                         snap_dtau=0.05, dt_fast=0.02)
        assert len(kept) == 3
        for states in kept.values():
            assert len(states) == 5
            stacked = [np.concatenate([s.n.coef for s in states[k:k + 2]]) for k in (0, 2, 4)]
            assert [sum(c.shape == n.shape and np.array_equal(c, n) for c in calls)
                    for n in stacked] == [1, 1, 1]

    @pytest.mark.filterwarnings("ignore:initial norm")
    def test_one_density_perturbation_per_stack(self, params, monkeypatch):
        """Each member evaluates the density perturbation for its errors, with
        its own params, once per snapshot stack: the rescaled density and H(n)
        share it.  Stacks of two snapshots split a member's five snapshots
        into three stacks."""
        from chemorelax import diagnostics, driver, model
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", 2)
        kept, evals, live = {}, {}, flag_error_pass(monkeypatch)   # kept: snapshots, per eps
        original = model.density_perturbation

        def on_snaps(snaps):
            kept[snaps[0].params.eps] = kept.get(snaps[0].params.eps, 0) + len(snaps)

        def density_perturbation(n, p):   # counts only the calls that take a stack's errors
            if live[0]:
                evals[p.eps] = evals.get(p.eps, 0) + 1
            return original(n, p)

        watch_members(monkeypatch, lambda: None, on_snaps)
        for module in (diagnostics, model):
            monkeypatch.setattr(module, "density_perturbation", density_perturbation,
                                raising=False)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                         snap_dtau=0.05, dt_fast=0.02)
        assert [[kept[eps], evals[eps]] for eps in kept] == [[5, 3]] * 3

    @pytest.mark.filterwarnings("ignore:initial norm")
    @pytest.mark.parametrize("d,N", [(1, 32), (2, 16)], ids=["1d", "2d"])
    def test_member_errors_match_per_snapshot_reference(self, params, monkeypatch, d, N):
        """Every error and residual integral of the report is within 1e-13
        relative of the same quantities evaluated snapshot by snapshot on the
        member and limit-model trajectories; stacks of three snapshots split
        each member's five snapshots at a stack boundary."""
        from chemorelax import diagnostics, driver
        from chemorelax.ks_solver import reconstruct_velocity, solve_phi
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", 3)
        trajs = {}
        original_ks_run = diagnostics.ks_run
        watch_members(monkeypatch, lambda: None, lambda snaps: trajs.setdefault(
            snaps[0].params.eps, []).extend(snaps))
        monkeypatch.setattr(diagnostics, "ks_run", lambda initial, cfg: trajs.setdefault(
            "limit", original_ks_run(initial, cfg)))
        grid = make_grid(d, N, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        offset = 0.05 * gaussian_bump(grid, width=0.6, center=[2.0] * d)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                               snap_dtau=0.05, dt_fast=0.02, rho_offset_phys=offset)
        limit = trajs["limit"].states
        taus = 0.025 * np.arange(len(limit))   # snap_dtau refined for eps_min = 0.25
        d_half = d / 2.0
        for i, eps in enumerate(rep.eps_list):
            p = replace(params, eps=eps)
            rows = []
            for s, k in zip(trajs[eps], limit, strict=True):
                phi_k = solve_phi(k.rho, k.params)
                u_k = reconstruct_velocity(k.rho, phi_k, k.params)
                n_phys = s.n.to_physical()[0]
                pert = density_perturbation(n_phys, p)
                rho_phys = p.rho_bar + pert
                phi = s.psi.shifted(p.phi_bar)
                drho = SpectralField.from_physical(grid, rho_phys[None]) - k.rho
                dphi = phi - phi_k
                v = s.u + eps * gradient(s.n) - (eps * p.mu) * gradient(s.psi)
                rho_v = SpectralField.from_physical(grid, rho_phys[None] * v.to_physical() / eps,
                                                    dealiased=True)
                h = SpectralField.from_physical(grid, coefficient_H(n_phys, p, pert)[None],
                                                dealiased=True)
                dt_psi = laplacian(s.psi) - p.b * s.psi + p.c1 * s.n + h
                rows.append((snapshot_besov(drho, d_half - 1.0),
                             snapshot_besov(drho, d_half + 1.0),
                             snapshot_besov((1.0 / eps) * s.u - u_k, d_half),
                             snapshot_besov(dphi, d_half + 1.0)
                             + snapshot_besov(dphi, d_half + 2.0),
                             snapshot_besov(rho_v, d_half), snapshot_besov(dt_psi, d_half) / eps))
            cols = np.array(rows).T
            ref = dict(sup_drho=cols[0].max(), int_drho_high=np.trapezoid(cols[1], taus),
                       int_du=np.trapezoid(cols[2], taus), int_dphi=np.trapezoid(cols[3], taus),
                       int_rho_v=np.trapezoid(cols[4], taus),
                       int_dtphi=eps * np.trapezoid(cols[5], taus))
            for name, value in ref.items():
                assert value > 0, name
                assert getattr(rep, name)[i] == pytest.approx(value, rel=1e-13, abs=0.0), name

    @pytest.mark.filterwarnings("ignore:initial norm")
    @pytest.mark.parametrize("d", [1, 2], ids=["1d", "2d"])
    def test_sweep_keeps_nothing_it_no_longer_reads(self, params, monkeypatch, d):
        """When a member run starts, nothing the sweep has read is still alive:
        no limit-model velocity formed so far (the limit fields are formed per
        stack of each member's errors), and no earlier member's snapshot
        (in d >= 2 a member's errors are taken before the next member runs).
        The initial states are not tracked: the sweep's member data hold them."""
        from chemorelax import diagnostics
        refs, checked = [], []
        original_u = diagnostics.reconstruct_velocity

        def on_start():
            gc.collect()
            checked.append((len(refs), sum(ref() is not None for ref in refs)))

        def reconstruct_velocity(*args):
            u = original_u(*args)
            refs.append(weakref.ref(u.coef))
            return u

        watch_members(monkeypatch, on_start, lambda snaps: refs.extend(
            weakref.ref(s.n.coef) for s in snaps if s.t != 0.0))
        monkeypatch.setattr(diagnostics, "reconstruct_velocity", reconstruct_velocity)
        grid = make_grid(d, 16, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        rep = relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                               snap_dtau=0.05, dt_fast=0.02)
        assert len(rep.sup_drho) == 3
        assert len(checked) == (1 if d == 1 else 3)
        assert all(tracked > 0 and alive == 0 for tracked, alive in checked), checked

    @pytest.mark.filterwarnings("ignore:initial norm")
    def test_peak_does_not_grow_with_the_horizon(self, params, monkeypatch):
        """The sweep keeps no member trajectory: the traced peak of a 1D N=64
        sweep's member runs to 4T is within 10% of that to T (every member
        snapshot kept: 2.2 times).  The limit-model run keeps its density
        snapshots, so tracing starts when it returns; stacks of 16 snapshots
        let T hold a whole stack and keep the runs short."""
        from chemorelax import diagnostics, driver
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", 16)
        original = diagnostics.ks_run

        def ks_run(*args):
            traj = original(*args)
            tracemalloc.start()
            return traj

        monkeypatch.setattr(diagnostics, "ks_run", ks_run)
        grid = make_grid(1, 64, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)

        def peak(tau_end):   # 16 snapshot intervals per 0.4
            try:
                relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=tau_end,
                                 snap_dtau=0.05, dt_fast=0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(0.4), peak(1.6)
        assert long < 1.1 * short, (short, long)

    @pytest.mark.filterwarnings("ignore:initial norm")
    @pytest.mark.parametrize("explodes", [True, False], ids=["then-blows-up", "completes"])
    def test_member_snapshot_off_the_window(self, params, monkeypatch, explodes):
        """A member snapshot whose errors leave the validity window, taken in a
        stack before the member's run ends: if the member then blows up, the
        sweep fails with RunFailed naming it, as if its errors were taken after
        its run; if it completes, the window error is raised."""
        from chemorelax import diagnostics, driver, hpc_solver
        monkeypatch.setattr(driver, "SNAPSHOT_CHUNK", 2)
        original_rescale, original_size = diagnostics.rescale_to_slow, hpc_solver.hybrid_aggregate

        def rescale_to_slow(s, eps, rho_phys):   # off the window from slow time 0.025 on
            if eps == 0.4 and np.max(eps * s.t) > 0.02:
                raise OutsideValidityWindow("density left the validity window")
            return original_rescale(s, eps, rho_phys)

        def hybrid_aggregate(s):   # a norm explosion from slow time 0.075 on
            total, parts = original_size(s)
            boom = explodes and s.params.eps == 0.4
            return np.where(boom & (s.params.eps * np.asarray(s.t) > 0.06), 1e6 * total,
                            total), parts

        monkeypatch.setattr(diagnostics, "rescale_to_slow", rescale_to_slow)
        monkeypatch.setattr(hpc_solver, "hybrid_aggregate", hybrid_aggregate)
        grid = make_grid(1, 32, 2 * np.pi)
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        failure = ((RunFailed, r"^relaxation member eps=0.4 blew up: norm explosion")
                   if explodes else (OutsideValidityWindow, "density left the validity window"))
        with pytest.raises(failure[0], match=failure[1]):
            relaxation_sweep(grid, params, rho0, [0.5, 0.4, 0.25], tau_end=0.1,
                             snap_dtau=0.05, dt_fast=0.02)

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
        rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
        init = _hpc_member_initial(grid, params, rho0)
        rho_f = dealias(SpectralField.from_physical(grid, rho0[None]))
        phi = solve_phi(rho_f, params)
        u_star = reconstruct_velocity(rho_f, phi, params)
        du0 = (1.0 / params.eps) * init.u - u_star
        assert l2_norm(du0) <= 1e-14
        modes = effective_modes(init)
        assert l2_norm(modes.v) <= 1e-14 * max(1.0, l2_norm(init.u))
