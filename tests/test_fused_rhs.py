"""The stacked right-hand sides against the per-field formulas they replace,
the 1D step against the general formulas it replaced, and the number of
transform calls they make."""

import numpy as np
import pytest

from chemorelax import hpc_solver
from chemorelax.driver import SolverConfig
from chemorelax.hpc_solver import (
    HpcState,
    PropagatorTables,
    build_initial_data,
    gaussian_bump,
    nonlinear_rhs,
    step,
)
from chemorelax.ks_solver import KsState, ks_rhs, pressure_remainder, solve_phi
from chemorelax.model import coefficient_G, coefficient_H, coefficients_GH, density_perturbation
from chemorelax.spectral import (
    SpectralField,
    dealias,
    divergence,
    from_physical_all,
    gradient,
    laplacian,
    make_grid,
    to_physical_all,
)

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


def general_nonlinear_rhs(state):
    """nonlinear_rhs as the general code forms it in 1D: dealiased fields,
    one stacked transform each way through to_physical_all / from_physical_all,
    products summed over the components with einsum."""
    grid = state.grid
    nf, uf = dealias(state.n), dealias(state.u)
    vals = to_physical_all(nf, uf, gradient(nf),
                           SpectralField(grid, 1j * grid.xi_diff * uf.coef[0]))
    (n_phys,), u_phys, grad_n, (div_u,) = vals
    nu = np.empty_like(u_phys)
    nu[0] = -np.einsum("k...,k...->...", u_phys, vals[-1])
    g_vals, h_vals = coefficients_GH(n_phys, state.params)
    nn = -np.einsum("k...,k...->...", u_phys, grad_n) - g_vals * div_u
    return (*from_physical_all(grid, nn[None], nu, h_vals[None], dealiased=True),
            float(np.abs(u_phys).max()))


def general_fix_mass(n, params, target_mean_pert):
    """The mass projection with np.mean."""
    out = n.copy()
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
    nn, nu, npsi, _ = rhs
    en, eu, ep = tables.apply_exp(state.n.coef, state.u.coef, state.psi.coef)
    fn, fu, fp = tables.apply_phi1(nn.coef, nu.coef, npsi.coef)
    star = HpcState(state.t + dt, SpectralField(grid, en + fn), SpectralField(grid, eu + fu),
                    SpectralField(grid, ep + fp), state.params)
    sn, su, sp, _ = general_nonlinear_rhs(star)
    cn, cu, cp = tables.apply_phi2(sn.coef - nn.coef, su.coef - nu.coef, sp.coef - npsi.coef)
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
    *fields, vmax = nonlinear_rhs(state)
    *ref_fields, ref_vmax = general_nonlinear_rhs(state)
    for got, ref in zip(fields, ref_fields, strict=True):
        assert np.any(ref.coef)
        assert np.array_equal(got.coef, ref.coef)
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
    """Stacking changes no bit: the 1D transforms act row by row, and d >= 2
    keeps one transform per field."""
    state = hpc_state(d, N, cubic_params, rng)
    *fields, vmax = nonlinear_rhs(state)
    for got, ref in zip(fields, per_field_nonlinear_rhs(state), strict=True):
        assert np.any(ref.coef)
        assert np.array_equal(got.coef, ref.coef)
    assert vmax == np.max(np.abs(dealias(state.u).to_physical()))


@pytest.mark.parametrize("d,N", GRIDS)
def test_ks_rhs_matches_per_field_formulas(cubic_params, rng, d, N):
    state = ks_state(d, N, cubic_params, rng)
    ref = per_field_ks_rhs(state)
    assert np.any(ref.coef)
    assert np.array_equal(ks_rhs(state).coef, ref.coef)


@pytest.mark.parametrize("d,N", GRIDS[:2])
def test_ks_rhs_matches_quotient_form(cubic_params, rng, d, N):
    """Evaluating Q directly moves ks_rhs by round-off only, against
    G1 (rho - rho_bar) on data with and without points in the Taylor branch."""
    state = ks_state(d, N, cubic_params, rng)
    near = state.rho.to_physical()[0]
    near[::3] = cubic_params.rho_bar + 1e-7 * rng.standard_normal(near[::3].shape)
    for s in (state, KsState(0.0, SpectralField.from_physical(state.grid, near), cubic_params)):
        ref = per_field_ks_rhs(s, quotient_remainder).coef
        assert np.max(np.abs(ks_rhs(s).coef - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.fixture()
def count_transforms(monkeypatch):
    """count_transforms(f, *args): the (to_physical, from_physical) calls that
    f(*args) makes."""
    calls = {"inverse": 0, "forward": 0}
    inverse, forward = SpectralField.to_physical, SpectralField.from_physical.__func__

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_forward(cls, grid, values, **kwargs):
        calls["forward"] += 1
        return forward(cls, grid, values, **kwargs)

    monkeypatch.setattr(SpectralField, "to_physical", counted_inverse)
    monkeypatch.setattr(SpectralField, "from_physical", classmethod(counted_forward))

    def count(fn, *args):
        calls.update(inverse=0, forward=0)
        fn(*args)
        return calls["inverse"], calls["forward"]

    return count


def test_one_transform_each_way_per_1d_nonlinear_rhs(cubic_params, rng, count_transforms):
    assert count_transforms(nonlinear_rhs, hpc_state(1, 64, cubic_params, rng)) == (1, 1)


def test_one_transform_each_way_per_1d_ks_rhs(cubic_params, rng, count_transforms):
    assert count_transforms(ks_rhs, ks_state(1, 64, cubic_params, rng)) == (1, 1)


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
