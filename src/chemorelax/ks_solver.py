"""Pseudo-spectral solver for the parabolic-elliptic limit model in slow time.

The density evolves by

    dt rho = D rho + Lap Q(rho) - mu div((rho - rho_bar) grad phi),
    phi - phi_bar = a (b - Lap)^{-1} (rho - rho_bar),

where D = (P'(rho_bar) - mu a rho_bar (b - Lap)^{-1}) Lap is applied exactly
per mode and Q is the quadratic pressure remainder :func:`pressure_remainder`.
Every right-hand-side term is a perfect divergence, so the mean mode is
invariant to machine precision: mass conservation is structural here.
As in :mod:`chemorelax.hpc_solver`, the right-hand side forms its rows on the
last-axis columns that the 2/3 rule keeps, and a step passes arrays between
its stages and builds fields only for the star state and the new state.
The velocity is a reconstruction, rho u = -grad P(rho) + mu rho grad phi.
:func:`ks_run` runs on :func:`chemorelax.driver.integrate`, whose run policy
watches the B^{d/2}_{2,1} norm of rho - rho_bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import etd
from .driver import SolverConfig, Trajectory, integrate
from .model import ModelParams, _check_window
from .spectral import Grid, SpectralField, bessel_inverse, gradient, pruned_forward, pruned_inverse

__all__ = [
    "KsState",
    "ks_symbol",
    "solve_phi",
    "reconstruct_velocity",
    "pressure_remainder",
    "ks_rhs",
    "KsTables",
    "ks_step",
    "ks_run",
]

@dataclass(frozen=True)
class KsState:
    """Density snapshot at one slow-time instant, or a snapshot stack (eps plays
    no role); a value, frozen and never written into (see :mod:`chemorelax.driver`)."""

    tau: float
    rho: SpectralField
    params: ModelParams

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def ks_symbol(xi, params: ModelParams):
    """Dispersion relation of the exactly-applied linear operator:
    -(P'(rho_bar) - mu a rho_bar / (b + |xi|^2)) |xi|^2.

    Strictly negative for |xi| > 0 whenever the stability margin is positive,
    and bounded above by -margin |xi|^2.
    """
    xi = np.asarray(xi, dtype=np.float64)
    p = params
    return -(p.c0 - p.mu * p.a * p.rho_bar / (p.b + xi ** 2)) * xi ** 2


def solve_phi(rho: SpectralField, params: ModelParams) -> SpectralField:
    """Exact screened elliptic solve of each row of rho:
    phi = phi_bar + a (b - Lap)^{-1}(rho - rho_bar)."""
    source = params.a * rho.shifted(-params.rho_bar)
    return bessel_inverse(source, params.b).shifted(params.phi_bar)


def reconstruct_velocity(rho: SpectralField, phi: SpectralField, params: ModelParams) -> SpectralField:
    """Momentum balance u = (-grad P(rho) + mu rho grad phi) / rho, pointwise,
    for each row of rho and phi: d rows of u per row.  [rho, grad rho, grad phi]
    take one stacked inverse transform."""
    k, d = rho.ncomp, rho.grid.d
    rho_phys, grad_rho, grad_phi = np.split(SpectralField(rho.grid, np.concatenate(
        (rho.coef, gradient(rho).coef, gradient(phi).coef))).to_physical(), [k, k + k * d])
    rho_rows = np.repeat(_check_window(rho_phys, params, "density"), d, axis=0)
    dp = params.pressure.dP(rho_rows)
    u_phys = (-dp * grad_rho + params.mu * rho_rows * grad_phi) / rho_rows
    return SpectralField.from_physical(rho.grid, u_phys, dealiased=True)


def pressure_remainder(rho, params: ModelParams):
    """Q(rho) = P(rho) - P(rho_bar) - P'(rho_bar)(rho - rho_bar), evaluated as
    kappa rho_bar^g ((1 + z)^g - 1 - g z) with z = (rho - rho_bar)/rho_bar
    through expm1/log1p: within a few ulps of P'(rho_bar)|rho - rho_bar| as
    z -> 0, and exactly zero for the isothermal law.  A density outside the
    validity window raises OutsideValidityWindow."""
    rho = _check_window(rho, params, "density")
    law, rb = params.pressure, params.rho_bar
    if law.isothermal:
        return np.zeros_like(rho)
    z = (rho - rb) / rb
    g = law.gamma
    return law.kappa * rb ** g * (np.expm1(g * np.log1p(z)) - g * z)


def ks_rhs(state: KsState) -> np.ndarray:
    """Coefficients of the quadratic terms Lap Q(rho) - mu div((rho-rho_bar)
    grad phi), one new array, 2/3-dealiased on input and output.  [rho, grad
    phi], formed on the kept last-axis columns, take one inverse transform and
    [Q(rho), (rho-rho_bar) grad phi] one masked forward transform, and the
    symbols -|xi|^2 and i xi act on the masked rows directly.  grad phi is
    i xi a (b + |xi|^2)^{-1} rho: the gradient drops the constants of
    :func:`solve_phi`, so they are not formed."""
    grid, p, keep = state.grid, state.params, state.grid.kept_columns
    rho = state.rho.coef[..., :keep] * grid.dealias_mask[..., :keep]
    grad_phi = 1j * grid.xi_diff[..., :keep] * (rho * p.a / (p.b + grid.xi_sq[..., :keep]))
    vals = np.empty((1 + grid.d,) + grid.shape)
    rho_phys = pruned_inverse(grid, np.concatenate((rho, grad_phi)), vals)[0]
    np.multiply(rho_phys - p.rho_bar, vals[1:], out=vals[1:])
    vals[0] = pressure_remainder(rho_phys, p)
    q_flux = pruned_forward(grid, vals, np.empty((1 + grid.d,) + grid.spec_shape,
                                                 dtype=np.complex128), True)
    return (q_flux[:1] * grid.lap_symbol
            - np.add.reduce(1j * grid.xi_diff * q_flux[1:], axis=0) * p.mu)


class KsTables:
    """E / phi1 / phi2 factors of :func:`ks_symbol` for one (grid, params, dt);
    a non-finite factor (extreme model constants) is etd.NonFiniteTables."""

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        self.dt = dt
        with np.errstate(over="ignore", invalid="ignore"):   # non-finite factors raise below
            self.E, self.P1, self.P2 = etd.scalar_phis(ks_symbol(grid.xi_mag_diff, params), dt)
        etd.require_finite(dt, (self.E, self.P1, self.P2))


def ks_step(state: KsState, tables: KsTables) -> KsState:
    """One exponential Runge-Kutta step of ``tables.dt`` in slow time: with N
    the right-hand side, star = E rho + P1 N(rho), then
    rho+ = star + P2 (N(star) - N(rho)), formed in the array of N(star)."""
    grid, tau = state.grid, state.tau + tables.dt
    n0 = ks_rhs(state)
    star = tables.E * state.rho.coef + tables.P1 * n0
    n1 = ks_rhs(KsState(tau, SpectralField(grid, star), state.params))
    np.multiply(tables.P2, np.subtract(n1, n0, out=n1), out=n1)
    return KsState(tau, SpectralField(grid, np.add(star, n1, out=n1)), state.params)


def ks_run(initial: KsState, config: SolverConfig) -> Trajectory:
    """Integrate to config.t_end (interpreted in slow time tau), keeping every
    snapshot; a snapshot's size is its B^{d/2}_{2,1} norm after a window
    check, and each stack of snapshots takes one transform and one
    block-norm product for its sizes and its series."""
    grid = initial.grid
    dec = grid.decomposition
    tables = KsTables(grid, initial.params, config.dt)
    d_half = grid.d / 2.0

    def measure(s: KsState) -> tuple:   # one value per snapshot of a stack
        _check_window(s.rho.to_physical(), s.params, "density")
        # block norms exclude the zero mode, so this is the norm of rho - rho_bar
        norms = dec.block_norms(s.rho.energy(1))
        size = dec.besov_norm(norms, d_half)
        return size, dict(tau=s.tau, mass=s.rho.mean() * grid.volume, norm_d2=size,
                          norm_d2p2=dec.besov_norm(norms, d_half + 2.0))

    def advance(states: list) -> list:   # the one member, one snapshot interval on
        s, = states
        for _ in range(config.schedule()[0]):
            s = ks_step(s, tables)
        return [s]

    return integrate([initial], advance, measure, [config], True)[0]
