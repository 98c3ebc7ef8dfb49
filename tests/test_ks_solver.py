"""Limit-model solver: symbol, elliptic solve, velocity reconstruction, runs."""

from fractions import Fraction

import numpy as np
import pytest

from chemorelax.hpc_solver import (
    HpcState,
    PropagatorTables,
    SolverConfig,
    build_initial_data,
    gaussian_bump,
    hybrid_aggregate,
    nonlinear_rhs,
    run,
    step,
)
from chemorelax.ks_solver import (
    KsState,
    KsTables,
    ks_rhs,
    ks_run,
    ks_step,
    ks_symbol,
    pressure_remainder,
    reconstruct_velocity,
    solve_phi,
)
from chemorelax.model import ModelParams, OutsideValidityWindow, PressureLaw
from chemorelax.spectral import (
    SpectralField,
    dealias,
    divergence,
    laplacian,
    make_decomposition,
    make_grid,
)
from norms import besov_norm, l2_norm


@pytest.fixture(scope="module")
def params():
    return ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 128, 2 * np.pi)


def rho_state(grid, params, amp=0.05, width=0.6):
    rho0 = params.rho_bar + amp * gaussian_bump(grid, width=width)
    return KsState(0.0, dealias(SpectralField.from_physical(grid, rho0[None])), params)


class TestSymbol:
    def test_plugin_example(self):
        # P' = 2, mu a rho = 1, b = 1, |xi|^2 = 1 -> -(2 - 1/2) = -1.5
        p = ModelParams(eps=0.5, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                        pressure=PressureLaw(1.0, 2.0))
        assert np.isclose(ks_symbol(1.0, p), -1.5)

    def test_zero_mode(self, params):
        assert ks_symbol(0.0, params) == 0.0

    def test_margin_dominates(self, params):
        xi = np.linspace(0.0, 40.0, 400)
        sym = ks_symbol(xi, params)
        assert np.all(sym <= -params.stability_margin * xi ** 2 + 1e-14)


class TestSolvePhi:
    def test_equilibrium(self, grid, params):
        rho = SpectralField.from_physical(grid, np.full(grid.shape, params.rho_bar)[None])
        phi = solve_phi(rho, params)
        assert np.allclose(phi.to_physical()[0], params.phi_bar, atol=1e-14)

    def test_single_mode_gain(self, grid, params):
        x = grid.x_axes[0]
        amp = 0.01
        rho = SpectralField.from_physical(grid, (params.rho_bar + amp * np.cos(2 * x))[None])
        phi = solve_phi(rho, params)
        pert = phi.to_physical()[0] - params.phi_bar
        expected = params.a * amp / (params.b + 4.0) * np.cos(2 * x)
        assert np.allclose(pert, expected, atol=1e-14)

    def test_elliptic_residual(self, grid, params, rng):
        rho = rho_state(grid, params).rho + SpectralField.from_physical(
            grid, 0.01 * rng.standard_normal((1,) + grid.shape))
        phi = solve_phi(rho, params)
        # -Lap phi - a rho + b phi = 0 (constants included via phi_bar)
        residual = (-laplacian(phi).to_physical()[0]
                    - params.a * rho.to_physical()[0]
                    + params.b * phi.to_physical()[0])
        assert np.max(np.abs(residual)) <= 1e-10


class TestReconstructVelocity:
    def test_equilibrium_velocity_zero(self, grid, params):
        rho = SpectralField.from_physical(grid, np.full(grid.shape, params.rho_bar)[None])
        u = reconstruct_velocity(rho, solve_phi(rho, params), params)
        assert l2_norm(u) <= 1e-14

    def test_linearized_single_mode(self, grid, params):
        """First order: u ~ (-P'(rho_bar) grad rho + mu rho_bar grad phi)/rho_bar."""
        x = grid.x_axes[0]
        amp = 1e-6
        rho = SpectralField.from_physical(grid, (params.rho_bar + amp * np.cos(x))[None])
        u = reconstruct_velocity(rho, solve_phi(rho, params), params)
        gain = (-params.c0 + params.mu * params.a * params.rho_bar / (params.b + 1.0))
        expected = gain * (-amp * np.sin(x)) / params.rho_bar
        assert np.allclose(u.to_physical()[0], expected, atol=amp * 1e-4)

    def test_divergence_identity_along_run(self, grid, params):
        """d rho/dtau = -div(rho u) holds to solver accuracy along a run."""
        state = rho_state(grid, params)
        dt = 2e-4
        tables = KsTables(grid, params, dt)
        traj_states = [state]
        for _ in range(2):
            traj_states.append(ks_step(traj_states[-1], tables))
        mid = traj_states[1]
        u = reconstruct_velocity(mid.rho, solve_phi(mid.rho, params), params)
        flux = SpectralField.from_physical(
            grid, mid.rho_physical()[None] * u.to_physical())
        div_flux = divergence(dealias(flux)).to_physical()[0]
        ddt = (traj_states[2].rho.to_physical()[0] - traj_states[0].rho.to_physical()[0]) / (2 * dt)
        scale = np.max(np.abs(div_flux))
        assert np.max(np.abs(ddt + div_flux)) <= 1e-4 * scale + 1e-12


class TestPressureRemainder:
    def test_zero_at_background(self, params):
        assert pressure_remainder(params.rho_bar, params) == 0.0

    def test_isothermal_is_exactly_zero(self, grid, rng):
        p = ModelParams(eps=0.25, pressure=PressureLaw(kappa=1.7, gamma=1.0))
        rho = p.rho_bar + 0.3 * np.tanh(rng.standard_normal(grid.shape))
        assert not np.any(pressure_remainder(rho, p))

    @pytest.mark.parametrize("gamma", [2, 3, 4])
    @pytest.mark.parametrize("z", [1e-8, 1e-7, 0.2, -0.3])
    def test_matches_exact_rational_value(self, gamma, z):
        """Q = kappa (rho^g - rho_bar^g - g rho_bar^(g-1) (rho - rho_bar)) in
        exact arithmetic at the floating-point rho, to 4 ulp of the linear
        term P'(rho_bar) |rho - rho_bar| (the size Q is resolved against)."""
        kappa, rho_bar = 1.5, 1.25
        p = ModelParams(eps=0.25, rho_bar=rho_bar,
                        pressure=PressureLaw(kappa=kappa, gamma=float(gamma)))
        rho = rho_bar * (1.0 + z)
        r, rb = Fraction(rho), Fraction(rho_bar)
        exact = Fraction(kappa) * (r ** gamma - rb ** gamma - gamma * rb ** (gamma - 1) * (r - rb))
        linear = p.c0 * abs(rho - rho_bar)
        assert abs(float(Fraction(float(pressure_remainder(rho, p))) - exact)) \
            <= 4 * np.spacing(linear)

    def test_outside_window_raises(self, params):
        with pytest.raises(OutsideValidityWindow):
            pressure_remainder(np.array([1.0, 2.5]), params)


class TestRun:
    def test_equilibrium_fixed_point(self, grid, params):
        rho = SpectralField.from_physical(grid, np.full(grid.shape, params.rho_bar)[None])
        traj = ks_run(KsState(0.0, rho, params), SolverConfig(dt=0.05, t_end=1.0, snap_dt=0.5))
        assert traj.status == "completed"
        for s in traj.states:
            pert = s.rho.to_physical()[0] - params.rho_bar
            assert np.max(np.abs(pert)) <= 1e-14

    def test_linear_regime_per_mode_decay(self, grid, params):
        """Tiny data:每 mode decays by exp(dt * symbol) to 1e-10."""
        amp = 1e-9
        x = grid.x_axes[0]
        rho0 = params.rho_bar + amp * (np.cos(x) + 0.3 * np.cos(3 * x))
        state = KsState(0.0, SpectralField.from_physical(grid, rho0[None]), params)
        T = 0.8
        traj = ks_run(state, SolverConfig(dt=0.01, t_end=T, snap_dt=T))
        out = traj.final.rho
        for idx in (1, 3):
            xi = float(grid.xi_mag_diff[idx])
            expected = state.rho.coef[0, idx] * np.exp(T * ks_symbol(xi, params))
            assert abs(out.coef[0, idx] - expected) <= 1e-10 * amp

    def test_mass_conserved_exactly(self, grid, params):
        traj = ks_run(rho_state(grid, params), SolverConfig(dt=0.01, t_end=2.0, snap_dt=0.5))
        mass = traj.series.columns["mass"]
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * abs(mass[0])

    def test_second_order_self_convergence(self, grid, params):
        state = rho_state(grid, params, amp=0.08)

        def advance(dt):
            tables = KsTables(grid, params, dt)
            cur = state
            for _ in range(round(1.0 / dt)):
                cur = ks_step(cur, tables)
            return cur

        sols = {dt: advance(dt) for dt in (0.1, 0.05, 0.0125)}
        ref = sols[0.0125]
        e1 = np.max(np.abs(sols[0.1].rho.coef - ref.rho.coef))
        e2 = np.max(np.abs(sols[0.05].rho.coef - ref.rho.coef))
        order = np.log2(e1 / e2)
        assert 1.5 <= order <= 2.5

    def test_norm_nonincreasing_proxy(self, grid, params):
        traj = ks_run(rho_state(grid, params, amp=0.02),
                      SolverConfig(dt=0.02, t_end=5.0, snap_dt=0.2))
        norms = traj.series.columns["norm_d2"]
        assert traj.status == "completed"
        assert np.max(norms) <= 10.0 * norms[0]

    def test_linear_modes_nonincreasing(self, grid, params):
        """Comparison-principle proxy: every mode modulus decays in the linear regime."""
        amp = 1e-9
        x = grid.x_axes[0]
        rho0 = params.rho_bar + amp * (np.cos(x) + np.cos(5 * x + 0.4))
        state = KsState(0.0, SpectralField.from_physical(grid, rho0[None]), params)
        nxt = ks_step(state, KsTables(grid, params, 0.1))
        mods0 = np.abs(state.rho.coef[0])
        mods1 = np.abs(nxt.rho.coef[0])
        mask = mods0 > 1e-16 * amp
        assert np.all(mods1[mask] <= mods0[mask] * (1 + 1e-10))


    @pytest.mark.parametrize("solver,amp,reason", [
        ("ks", 0.01, "validity window"), ("ks", 1e-6, "norm explosion"),
        ("hpc", 1e-6, "norm explosion"),
    ], ids=["0.01-validity window", "1e-06-norm explosion", "hpc-1e-06-norm explosion"])
    def test_unstable_run_blows_up_at_last_admissible_snapshot(self, grid, solver, amp, reason):
        """Negative margin: the lowest mode grows until the density leaves its
        window (larger data) or the solver's norm passes 1e3 x the initial one
        (tiny data), in the limit model and in the chemotaxis system alike.
        The run keeps every snapshot up to the last admissible one, and the
        message gives the time of the first inadmissible one."""
        p = ModelParams(eps=0.5, mu=3.0, a=1.0, b=1.0, rho_bar=1.0,
                        pressure=PressureLaw(kappa=1.0, gamma=1.0), j_offset=0)
        assert p.stability_margin < 0
        profile = amp * np.cos(grid.x_axes[0])
        dt, snap_dt = 0.02, 0.5
        if solver == "ks":
            state = KsState(0.0, dealias(SpectralField.from_physical(
                grid, (p.rho_bar + profile)[None])), p)
            tables = KsTables(grid, p, dt)
            run_solver, admissible = ks_run, KsState.rho_physical
            advance = lambda s: ks_step(s, tables)
            time, size = "tau", lambda s: besov_norm(make_decomposition(grid), s.rho, 0.5)
        else:
            state, _ = build_initial_data(grid, p, n_profile=profile)
            tables, target = PropagatorTables(grid, p, dt), state.mass_perturbation()
            run_solver, admissible = run, HpcState.mass_perturbation   # evaluates rho(n)
            advance = lambda s: step(s, tables, target, nonlinear_rhs(s))
            time, size = "t", lambda s: hybrid_aggregate(s)[0]
        traj = run_solver(state, SolverConfig(dt=dt, t_end=40.0, snap_dt=snap_dt))
        assert traj.status == "blowup"
        assert reason in traj.message
        assert 2 <= len(traj.states) < 81
        if reason == "norm explosion":
            assert traj.message.endswith(f"at t={len(traj.states) * snap_dt:g}")
        np.testing.assert_allclose(traj.series.columns[time],
                                   snap_dt * np.arange(len(traj.states)), atol=1e-9)
        norms = np.array([size(s) for s in traj.states])
        assert np.all(norms <= 1e3 * norms[0])
        for s in traj.states:
            admissible(s)  # inside the window
        # one more snapshot interval leaves the admissible set, for the stated reason
        nxt = traj.final
        try:
            for _ in range(round(snap_dt / dt)):
                nxt = advance(nxt)
            admissible(nxt)
        except OutsideValidityWindow:
            assert reason == "validity window"
        else:
            assert reason == "norm explosion"
            assert size(nxt) > 1e3 * norms[0]


class TestFormEquivalence:
    def test_rewritten_rhs_matches_divergence_form(self, grid, params, rng):
        """D rho + quadratic terms == div(grad P(rho) - mu rho grad phi) to 1e-8."""
        from chemorelax.spectral import gradient
        state = rho_state(grid, params, amp=0.03)
        # rewritten form: exact symbol on rho plus ks_rhs quadratic terms
        sym = ks_symbol(grid.xi_mag_diff, params)
        linear = SpectralField(grid, sym * state.rho.coef)
        total_rewritten = linear + ks_rhs(state)

        rho_phys = state.rho_physical()
        phi = solve_phi(state.rho, params)
        grad_phi = gradient(phi).to_physical()
        grad_rho = gradient(state.rho).to_physical()
        dp = params.pressure.dP(rho_phys)
        flux = dp[None] * grad_rho - params.mu * rho_phys[None] * grad_phi
        total_direct = divergence(dealias(SpectralField.from_physical(grid, flux)))

        diff = l2_norm(total_rewritten - total_direct)
        assert diff <= 1e-8 * max(l2_norm(total_direct), 1e-30)
