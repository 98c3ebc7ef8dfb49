"""The stacked right-hand sides against the per-field formulas they replace,
and the number of transform calls they make."""

import numpy as np
import pytest

from chemorelax.hpc_solver import HpcState, nonlinear_rhs
from chemorelax.ks_solver import KsState, ks_rhs, pressure_remainder, solve_phi
from chemorelax.model import coefficient_G, coefficient_H
from chemorelax.spectral import (
    SpectralField,
    dealias,
    divergence,
    gradient,
    laplacian,
    make_grid,
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
