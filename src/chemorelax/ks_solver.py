"""Pseudo-spectral solver for the parabolic-elliptic limit model in slow time.

The density evolves by

    dt rho = D rho + Lap Q(rho) - mu div((rho - rho_bar) grad phi),
    phi - phi_bar = a (b - Lap)^{-1} (rho - rho_bar),

where D = (P'(rho_bar) - mu a rho_bar (b - Lap)^{-1}) Lap is applied exactly
per mode and Q is the quadratic pressure remainder :func:`pressure_remainder`.
Every right-hand-side term is a perfect divergence, so the mean mode is
invariant to machine precision: mass conservation is structural here.
The velocity is a reconstruction, rho u = -grad P(rho) + mu rho grad phi.
:func:`ks_run` steps on the snapshot schedule of :mod:`chemorelax.driver`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import etd
from .driver import (BLOWUP_FACTOR, SMALL_DATA_HINT, BlowupError, SolverConfig, Trajectory,
                     integrate)
from .model import ModelParams, _check_window
from .spectral import (
    Grid,
    SpectralField,
    bessel_inverse,
    dealias,
    divergence,
    from_physical_all,
    gradient,
    laplacian,
    to_physical_all,
)

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

@dataclass
class KsState:
    """Density snapshot at one slow-time instant (eps plays no role here)."""

    tau: float
    rho: SpectralField
    params: ModelParams

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def rho_physical(self) -> np.ndarray:
        return _check_window(self.rho.to_physical()[0], self.params, "density")

    def total_mass(self) -> float:
        return float(self.rho.mean()[0] * self.grid.volume)

    def copy(self) -> "KsState":
        return KsState(self.tau, self.rho.copy(), self.params)


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
    """Exact screened elliptic solve: phi = phi_bar + a (b - Lap)^{-1}(rho - rho_bar)."""
    grid = rho.grid
    zero = (0,) + (0,) * grid.d
    pert = rho.copy()
    pert.coef[zero] -= params.rho_bar
    phi = bessel_inverse(params.a * pert, params.b)
    phi.coef[zero] += params.phi_bar
    return phi


def reconstruct_velocity(rho: SpectralField, phi: SpectralField, params: ModelParams) -> SpectralField:
    """Momentum balance u = (-grad P(rho) + mu rho grad phi) / rho, pointwise."""
    (rho_phys,), grad_rho, grad_phi = to_physical_all(rho, gradient(rho), gradient(phi))
    rho_phys = _check_window(rho_phys, params, "density")
    dp = params.pressure.dP(rho_phys)
    u_phys = (-dp[None] * grad_rho + params.mu * rho_phys[None] * grad_phi) / rho_phys[None]
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


def ks_rhs(state: KsState) -> SpectralField:
    """Quadratic terms Lap Q(rho) - mu div((rho-rho_bar) grad phi),
    2/3-dealiased on input and output; in 1D [rho, grad phi] and
    [Q(rho), (rho-rho_bar) grad phi] each take one stacked transform."""
    rho_f = dealias(state.rho)
    p = state.params
    (rho_phys,), grad_phi = to_physical_all(rho_f, gradient(solve_phi(rho_f, p)))
    term_a, flux = from_physical_all(state.grid, pressure_remainder(rho_phys, p)[None],
                                     (rho_phys - p.rho_bar)[None] * grad_phi)
    return dealias(laplacian(term_a) - p.mu * divergence(flux))


class KsTables:
    """E / phi1 / phi2 factors of :func:`ks_symbol` for one (grid, params, dt)."""

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        self.dt = dt
        self.E, self.P1, self.P2 = etd.scalar_phis(ks_symbol(grid.xi_mag_diff, params), dt)


def ks_step(state: KsState, tables: KsTables) -> KsState:
    """One exponential Runge-Kutta step of ``tables.dt`` in slow time."""
    dt = tables.dt
    n0 = ks_rhs(state)
    star = KsState(state.tau + dt,
                   SpectralField(state.grid, tables.E * state.rho.coef + tables.P1 * n0.coef),
                   state.params)
    n1 = ks_rhs(star)
    rho_new = star.rho.coef + tables.P2 * (n1.coef - n0.coef)
    return KsState(state.tau + dt, SpectralField(state.grid, rho_new), state.params)


def ks_run(initial: KsState, config: SolverConfig) -> Trajectory:
    """Integrate to config.t_end (interpreted in slow time tau); a window escape
    or a B^{d/2}_{2,1} norm above BLOWUP_FACTOR x the initial one is "blowup"."""
    grid = initial.grid
    dec = grid.decomposition
    pert0 = float(np.max(np.abs(initial.rho.to_physical()[0] - initial.params.rho_bar)))
    if pert0 > SMALL_DATA_HINT:
        warnings.warn(f"initial density deviation {pert0:.3g} exceeds the operational "
                      f"smallness {SMALL_DATA_HINT}; global boundedness is not guaranteed",
                      stacklevel=2)
    tables = KsTables(grid, initial.params, config.dt)
    d_half = grid.d / 2.0
    # block norms exclude the zero mode, so these are norms of rho - rho_bar
    norm0 = dec.besov_norm(initial.rho, d_half)

    def advance(s: KsState) -> KsState:
        return ks_step(s, tables)

    def check(s: KsState):
        s.rho_physical()  # window check
        if norm0 > 0 and dec.besov_norm(s.rho, d_half) > BLOWUP_FACTOR * norm0:
            raise BlowupError(f"norm explosion at tau={s.tau}")

    def row(s: KsState) -> dict:
        return dict(tau=s.tau, mass=s.total_mass(),
                    norm_d2=dec.besov_norm(s.rho, d_half),
                    norm_d2p2=dec.besov_norm(s.rho, d_half + 2.0))

    return integrate(initial, advance, check, row, config)
