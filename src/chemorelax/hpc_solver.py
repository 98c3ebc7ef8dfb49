"""Pseudo-spectral solver for the reformulated chemotaxis system on the torus.

The evolved unknowns are the enthalpy perturbation n, the velocity u and the
concentration perturbation psi:

    dt n   + u . grad n + (c0 + G(n)) div u          = 0
    dt u   + u . grad u + u/eps + grad n - mu grad psi = 0
    dt psi - Lap psi + b psi - c1 n - H(n)             = 0

The full coupled linear part (not just the stiff diagonal) is applied exactly
per Fourier mode through the 3x3 compressible symbol and the scalar
incompressible relaxation factor; quadratic terms are formed in physical space
under the 2/3 dealiasing rule and advanced with the second-order exponential
integrator from :mod:`chemorelax.etd`; G and H share one density-perturbation
evaluation.  A 1D step is bound by per-call overhead, so the 1D right-hand side
masks the stacked rows [n, u] once, multiplies them by i xi for [dn, du], takes
all four rows to the grid in one inverse transform, forms N_n = -(u dn) - G du,
N_u = -(u du) and H with plain ufuncs in one (3, N) array, and returns its one
masked forward transform as row views.  d >= 2 transforms field by field.
Total mass of rho(n) is conserved by a mean-mode projection consistent with
the divergence form of the density equation.  :func:`run` runs on
:func:`chemorelax.driver.integrate`, whose run policy watches the hybrid
energy.  Its CFL test takes the speed max|u| from the step's first
right-hand side, which transforms the dealiased u; the states of a run lie in
the 2/3 box, where that is u itself, so the test costs no transform of its own.

Each step applies three propagator tables (E, P1, P2).  In d=1, unit =
sign(xi) is +-1 on every mode but the mean and Nyquist modes, where it is 0,
so the velocity split folds exactly into one complex 3x3 matrix per mode on
(n, u, psi), built once per table from the real table T and the scalar
factor s:

    [[T00, i unit T01, T02], [-i unit T10, s + unit^2 (T11 - s), -i unit T12],
     [T20, i unit T21, T22]]

and applied as one einsum.  d >= 2 keeps the split, nine multiply-adds on the
real table and the scalar transverse scaling: folded (2+d)x(2+d) complex tables
measured slower there and take several times the memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import etd
from .driver import BlowupError, SolverConfig, Trajectory, integrate
from .linear_analysis import symbol_matrix
from .model import (  # coefficient_G stays importable here for perfbench's tracer test
    ModelParams,
    coefficient_G,
    coefficient_H,
    coefficients_GH,
    density_perturbation,
)
from .spectral import (
    Grid,
    SpectralField,
    bessel_inverse,
    dealias,
    divergence,
    from_physical_all,
    gradient,
    to_physical_all,
)

__all__ = [
    "HpcState",
    "SolverConfig",
    "BlowupError",
    "PropagatorTables",
    "propagator_tables",
    "nonlinear_rhs",
    "step",
    "run",
    "build_initial_data",
    "equilibrium_psi",
    "hybrid_aggregate",
    "gaussian_bump",
    "mode_bump",
    "rough_mode_profile",
]

# a step of dt is taken when dt max|u| <= CFL_SAFETY dx, else halved, at most
# MAX_CFL_HALVINGS times before the run counts as blown up
CFL_SAFETY = 0.4
MAX_CFL_HALVINGS = 8


@dataclass(frozen=True)
class HpcState:
    """Snapshot of (n, u, psi) at one time instant, or a snapshot stack; a
    value, frozen and never written into (see :mod:`chemorelax.driver`)."""

    t: float
    n: SpectralField
    u: SpectralField
    psi: SpectralField
    params: ModelParams

    @property
    def grid(self) -> Grid:
        return self.n.grid

    def mass_perturbation(self) -> float:
        """Mean of rho - rho_bar, accurate at the perturbation scale."""
        return float(np.mean(density_perturbation(self.n.to_physical()[0], self.params)))

    def total_mass(self) -> float:
        return float((self.params.rho_bar + self.mass_perturbation()) * self.grid.volume)


# -- exact linear propagation -------------------------------------------------

class PropagatorTables:
    """Cached per-mode E / phi1 / phi2 tables for one (grid, params, dt).

    The compressible triple uses real 3x3 tables computed once per unique
    wavenumber magnitude (``index`` maps each stored mode to its magnitude)
    and spread over the half-spectrum at build time: ``E3[i, j]`` is the
    (i, j) entry at every mode, shape (3, 3, *grid.spec_shape).  The
    incompressible components use scalar factors.  In d=1 each table is also
    folded, once, into one complex 3x3 matrix per mode on (n, u, psi).  A
    non-finite entry or factor (extreme model constants) is etd.NonFiniteTables.
    """

    def __init__(self, grid: Grid, params: ModelParams, dt: float):
        self.grid = grid
        self.dt = dt
        mags, inverse = np.unique(grid.xi_mag_diff, return_inverse=True)
        self.index = inverse.reshape(grid.spec_shape)
        with np.errstate(over="ignore", invalid="ignore"):   # non-finite entries raise below
            phis = etd.batched_matrix_phis(symbol_matrix(mags, params), dt)
            scalars = etd.scalar_phis(-1.0 / params.eps, dt)
        etd.require_finite(dt, (*phis, *scalars))
        self.E3, self.P13, self.P23 = (
            np.ascontiguousarray(np.moveaxis(table[self.index], (-2, -1), (0, 1)))
            for table in phis)
        self.e_inc, self.p1_inc, self.p2_inc = (float(f.real) for f in scalars)

        mag = grid.xi_mag_diff
        self._unit = grid.xi_diff / np.where(mag > 0, mag, 1.0)  # (d, *spec_shape), 0 at mean
        self._tables = [(self.E3, self.e_inc), (self.P13, self.p1_inc), (self.P23, self.p2_inc)]
        self._folded = [self._fold(*t) for t in self._tables] if grid.d == 1 else None

    def _fold(self, t: np.ndarray, scal: float) -> np.ndarray:
        """Table t and scalar factor scal as the d=1 complex 3x3 matrix per
        mode given in the module docstring."""
        unit = self._unit[0]
        iu = 1j * unit
        return np.array([[t[0, 0], iu * t[0, 1], t[0, 2]],
                         [-iu * t[1, 0], scal + unit * unit * (t[1, 1] - scal), -iu * t[1, 2]],
                         [t[2, 0], iu * t[2, 1], t[2, 2]]])

    def _apply(self, k: int, n_coef, u_coef, psi_coef):
        """Propagate (n, u, psi) per mode with table k (0: E, 1: P1, 2: P2).

        d=1: one complex 3x3 product on the stacked coefficients.  d >= 2: the
        velocity splits into the compressible amplitude m = i w,
        w = xi.u/|xi|, which enters the real 3x3 table with n and psi, and
        the transverse rest u - (xi/|xi|) w, which is scaled by the scalar
        factor."""
        if self._folded is not None:
            out = np.einsum("ij...,j...->i...", self._folded[k],
                            np.concatenate((n_coef, u_coef, psi_coef)))
            return out[0:1], out[1:2], out[2:3]
        table3, scal = self._tables[k]
        unit = self._unit
        w = unit[0] * u_coef[0]
        for ax in range(1, self.grid.d):
            w += unit[ax] * u_coef[ax]
        m = 1j * w
        n, psi = n_coef[0], psi_coef[0]
        n_out, m_out, psi_out = (row[0] * n + row[1] * m + row[2] * psi for row in table3)
        # scal * (u - unit w) - i unit m_out
        u_out = scal * u_coef - unit * (scal * w + 1j * m_out)
        return n_out[None], u_out, psi_out[None]

    def apply_exp(self, n, u, psi):
        return self._apply(0, n, u, psi)

    def apply_phi1(self, n, u, psi):
        return self._apply(1, n, u, psi)

    def apply_phi2(self, n, u, psi):
        return self._apply(2, n, u, psi)


# the tables of the last (grid, params, dt) built: the CLI builds a run's first
# tables before the run, which reuses them
propagator_tables = lru_cache(maxsize=1)(PropagatorTables)


# -- nonlinear terms ----------------------------------------------------------

def nonlinear_rhs(state: HpcState):
    """(N_n, N_u, N_psi, max|u|) with products formed in physical space.

    N_n = -u.grad n - G(n) div u,  N_u = -(u.grad) u,  N_psi = H(n).
    The 2/3 mask is applied to the inputs and to the assembled outputs;
    max|u| is taken over the grid values of the dealiased u, for the CFL test.
    """
    grid, d = state.grid, state.grid.d
    if d == 1:
        rows = np.concatenate((state.n.coef, state.u.coef)) * grid.dealias_mask
        n_phys, u_phys, dn, du = SpectralField(
            grid, np.concatenate((rows, (1j * grid.xi_diff) * rows))).to_physical()
        g_vals, h_vals = coefficients_GH(n_phys, state.params)   # raises on window violation
        out = np.array((-(u_phys * dn) - g_vals * du, -(u_phys * du), h_vals))
        coef = SpectralField.from_physical(grid, out, dealiased=True).coef
        return (SpectralField(grid, coef[:1]), SpectralField(grid, coef[1:2]),
                SpectralField(grid, coef[2:]), float(np.abs(u_phys).max()))

    nf = dealias(state.n)
    uf = dealias(state.u)
    # rows [n, u, grad n, div u, grad u_1 .. grad u_d], one transform per field
    vals = to_physical_all(nf, uf, gradient(nf), divergence(uf),
                           *(SpectralField(grid, 1j * grid.xi_diff * uf.coef[i]) for i in range(d)))
    (n_phys,), u_phys, grad_n, (div_u,) = vals[:4]
    nu = np.empty_like(u_phys)
    for i in range(d):
        nu[i] = -np.einsum("k...,k...->...", u_phys, vals[i - d])
    del vals   # free the velocity gradients before G and H (peak memory)

    g_vals, h_vals = coefficients_GH(n_phys, state.params)   # raises on window violation
    nn = -np.einsum("k...,k...->...", u_phys, grad_n) - g_vals * div_u
    return (*from_physical_all(grid, nn[None], nu, h_vals[None], dealiased=True),
            float(np.abs(u_phys).max()))


def _fix_mass(n: SpectralField, params: ModelParams, target_mean_pert: float) -> SpectralField:
    """Shift the mean enthalpy so that mean(rho - rho_bar) matches the target.

    The density equation is in divergence form, so total mass is an invariant
    of the flow; the integrator's O(dt^3) mean defect is projected out with a
    couple of Newton corrections of the zero mode.  Working with the
    perturbation mean keeps the projection noise at the solution scale.  A
    zero-mode shift is a constant in physical space, so one inverse transform
    serves every Newton pass.
    """
    out = n.copy()
    zero = (0,) + (0,) * n.grid.d
    n_phys = out.to_physical()[0]
    size = n_phys.size   # x.sum() / size is np.mean(x) bit for bit, without its dispatch
    for _ in range(3):
        pert = density_perturbation(n_phys, params)
        defect = target_mean_pert - float(pert.sum() / size)
        # the pairwise sum rounds to a few ulps of mean|pert|: no pass can remove a
        # defect under 8 ulps, and for a round-off target no relative test passes.
        floor = 8.0 * np.finfo(float).eps * float(np.abs(pert).sum() / size)
        if abs(defect) <= max(1e-15 * abs(target_mean_pert), floor):
            break
        rho = params.rho_bar + pert
        drho_dn = rho / params.pressure.dP(rho)   # inverse of dn/drho = P'(rho)/rho
        shift = defect / float(drho_dn.sum() / size)
        out.coef[zero] += shift
        n_phys += shift
    return out


def step(state: HpcState, tables: PropagatorTables, mass_target: float,
         rhs: tuple) -> HpcState:
    """One exponential Runge-Kutta step of ``tables.dt``; reduces to the exact
    propagator when the nonlinearity vanishes identically.  ``rhs`` is
    ``nonlinear_rhs(state)``, and the step ends by projecting the mean density
    perturbation onto ``mass_target``."""
    dt = tables.dt
    n0, u0, p0 = state.n.coef, state.u.coef, state.psi.coef
    nn, nu, npsi, _ = rhs

    en, eu, ep = tables.apply_exp(n0, u0, p0)
    fn, fu, fp = tables.apply_phi1(nn.coef, nu.coef, npsi.coef)
    star = HpcState(state.t + dt,
                    SpectralField(state.grid, en + fn),
                    SpectralField(state.grid, eu + fu),
                    SpectralField(state.grid, ep + fp), state.params)

    sn, su, sp, _ = nonlinear_rhs(star)
    cn, cu, cp = tables.apply_phi2(sn.coef - nn.coef, su.coef - nu.coef, sp.coef - npsi.coef)
    return HpcState(state.t + dt,
                    _fix_mass(SpectralField(state.grid, star.n.coef + cn), state.params,
                              mass_target),
                    SpectralField(state.grid, star.u.coef + cu),
                    SpectralField(state.grid, star.psi.coef + cp), state.params)


def hybrid_aggregate(state: HpcState):
    """Hybrid energy of a snapshot, split at the threshold J of its parameters:
    ||(n,u,psi)||^l_{B^{d/2}_{2,1}} + eps ||(n,u,grad psi)||^h_{B^{d/2+1}_{2,1}}.

    Returns (total, breakdown dict).  Besides "low", "high" and "eps_high", the
    breakdown holds the (low, high) pair of each of n, u, psi and grad_psi.
    The block norms of the four fields come from one product.  Each value is
    a float for one snapshot and an array over the snapshots of a stack.
    """
    dec, d, k = state.grid.decomposition, state.grid.d, state.n.ncomp
    norms = dec.block_norms(np.concatenate([state.n.energy(1), state.u.energy(d),
                                            state.psi.energy(1), gradient(state.psi).energy(d)]))
    lows, highs = dec.hybrid_norm(norms.reshape(4, k, -1), d / 2.0, d / 2.0 + 1.0,
                                  state.params.threshold())
    if np.ndim(state.t) == 0:   # one snapshot: floats
        lows, highs = lows[:, 0], highs[:, 0]
    fields = dict(zip(("n", "u", "psi", "grad_psi"), zip(lows, highs)))
    low = fields["n"][0] + fields["u"][0] + fields["psi"][0]
    high = fields["n"][1] + fields["u"][1] + fields["grad_psi"][1]
    eps = state.params.eps
    return low + eps * high, {"low": low, "high": high, "eps_high": eps * high, **fields}


def run(initial: HpcState, config: SolverConfig) -> Trajectory:
    """Integrate to t_end; a snapshot's size is its :func:`hybrid_aggregate`,
    and a window escape or a CFL violation left after MAX_CFL_HALVINGS
    halvings is "blowup" too.  Every step projects the total mass back onto
    its initial value; a final total mass off the initial one by more than
    1e-8 relative gives status "mass_drift".
    """
    cache: dict = {}

    mass0 = initial.total_mass()
    mass_target = initial.mass_perturbation()

    def advance(s: HpcState, dt: float = config.dt, depth: int = 0,
                rhs: tuple | None = None) -> HpcState:
        """One step of dt, halved on a CFL violation (at most MAX_CFL_HALVINGS
        times).  The CFL speed is the max|u| of the step's first right-hand
        side ``rhs``, which the step and a first half-step reuse."""
        rhs = nonlinear_rhs(s) if rhs is None else rhs
        vmax = rhs[3]
        if dt * vmax <= CFL_SAFETY * s.grid.dx or vmax == 0.0:
            if dt not in cache:
                cache[dt] = propagator_tables(s.grid, s.params, dt)
            return step(s, cache[dt], mass_target, rhs)
        if depth >= MAX_CFL_HALVINGS:
            raise BlowupError(f"CFL violation persists after {depth} halvings at t={s.t}")
        return advance(advance(s, dt / 2, depth + 1, rhs), dt / 2, depth + 1)

    def columns(s: HpcState) -> dict:   # s is a snapshot stack: one value per snapshot
        agg, parts = hybrid_aggregate(s)
        n_phys = s.n.to_physical()
        pert = density_perturbation(n_phys, s.params)
        k = len(n_phys)
        mass = (s.params.rho_bar + pert.reshape(k, -1).mean(axis=1)) * s.grid.volume
        return dict(t=s.t, mass=mass, mean_n=s.n.mean(), mean_psi=s.psi.mean(),
                    mean_H=coefficient_H(n_phys, s.params, pert).reshape(k, -1).mean(axis=1),
                    low_n=parts["n"][0], high_n=parts["n"][1],
                    low_u=parts["u"][0], high_u=parts["u"][1],
                    low_psi=parts["psi"][0], high_psi=parts["psi"][1],
                    x_aggregate=agg, x_low=parts["low"], x_high=parts["eps_high"],
                    max_u=np.abs(s.u.to_physical()).reshape(k, -1).max(axis=1))

    traj = integrate(initial, advance, lambda s: hybrid_aggregate(s)[0], columns, config)
    if traj.status == "completed":
        # bookkeeping invariant, not the mass-conservation test itself
        drift = abs(traj.final.total_mass() - mass0)
        if drift > 1e-8 * abs(mass0) + 1e-14:
            traj.status = "mass_drift"
            traj.message = (f"total mass drifted by {drift:.3e} from {mass0!r} "
                            f"by t={traj.final.t} (bound 1e-8 relative)")
    return traj


# -- initial data --------------------------------------------------------------

def gaussian_bump(grid: Grid, width: float = 0.5, center=None) -> np.ndarray:
    """Smooth periodic bump (wrapped Gaussian) with its mean subtracted; the
    width must be positive and finite (ValueError)."""
    if not (0 < width < math.inf):
        raise ValueError(f"width must be positive and finite, got {width!r}")
    center = center if center is not None else [grid.L / 2.0] * grid.d
    r2 = np.zeros(grid.shape)
    for x, c in zip(np.meshgrid(*grid.x_axes, indexing="ij"), center, strict=True):
        r2 = r2 + np.minimum(np.abs(x - c), grid.L - np.abs(x - c)) ** 2
    vals = np.exp(-r2 / (2.0 * width ** 2))
    return vals - vals.mean()


def mode_bump(grid: Grid, modes) -> np.ndarray:
    """Low-mode trigonometric profile: sum of cos(k.x + phase) terms.

    ``modes`` is a list of (k_ints, amplitude, phase), each k_ints at most
    grid.d integers (ValueError otherwise); missing components are 0.
    """
    x_mesh = np.meshgrid(*grid.x_axes, indexing="ij")
    vals = np.zeros(grid.shape)
    for k_ints, amp, phase in modes:
        ks = np.atleast_1d(k_ints)
        if ks.ndim != 1 or len(ks) > grid.d or not np.all(np.mod(ks, 1) == 0):
            raise ValueError(f"modes: k must be at most d = {grid.d} integers, got {k_ints!r}")
        arg = sum((2.0 * np.pi * k * x / grid.L for k, x in zip(ks, x_mesh)), np.zeros(grid.shape))
        vals = vals + amp * np.cos(arg + phase)
    return vals


def rough_mode_profile(grid: Grid, params: ModelParams, budget: float) -> np.ndarray:
    """Single cosine mode (phase 0.7) at the low/high frequency threshold, with
    a prescribed high-frequency energy: eps * ||mode||_{B^{d/2+1}_{2,1}} = budget.

    This is how an eps-family of initial data keeps the high-frequency part of
    its energy uniformly filled: the mode tracks |xi| ~ 2^J as eps shrinks.
    ValueError if the threshold mode 2^J lies outside the grid's dealiased band.
    """
    k_int = 2 ** params.threshold()
    if k_int * grid.xi_min > grid.xi_max / math.sqrt(grid.d) * 2.0 / 3.0:
        raise ValueError(f"threshold mode {k_int} exceeds the dealiased band; refine the grid")
    profile = mode_bump(grid, [([k_int] + [0] * (grid.d - 1), 1.0, 0.7)])
    f = SpectralField.from_physical(grid, profile[None], dealiased=True)
    dec = grid.decomposition
    norm = dec.besov_norm(dec.block_norms(f.energy(1)), grid.d / 2.0 + 1.0)[0]
    return budget / (params.eps * norm) * profile


def equilibrium_psi(n: SpectralField, params: ModelParams) -> SpectralField:
    """Well-prepared concentration of each row of n:
    psi = (b - Lap)^{-1} (c1 n + H(n)), H dealiased."""
    h_field = SpectralField.from_physical(n.grid, coefficient_H(n.to_physical(), params),
                                          dealiased=True)
    return bessel_inverse(params.c1 * n + h_field, params.b)


def build_initial_data(grid: Grid, params: ModelParams, n_profile=None, u_profile=None,
                       target_x0: float | None = None):
    """Assemble a well-prepared initial state, optionally rescaled to a
    prescribed hybrid energy.

    The n and u profiles are physical-space arrays (or None for zero); both
    are dealiased.  The concentration is not an input: psi =
    :func:`equilibrium_psi` of n solves the screened elliptic balance, which
    zeroes the effective concentration at t = 0.  An n that leaves the
    validity window raises OutsideValidityWindow.  A target of 0 gives the
    equilibrium; a target that is not a finite number >= 0 or None is a
    ValueError.  Returns (state, breakdown), the breakdown of
    :func:`hybrid_aggregate`.
    """
    if target_x0 is not None and not (0 <= target_x0 < math.inf):
        raise ValueError(f"target_x0 must be a finite number >= 0 or None, got {target_x0!r}")
    n_shape, u_shape = (SpectralField.zeros(grid, ncomp) if profile is None
                        else SpectralField.from_physical(grid, profile, dealiased=True)
                        for profile, ncomp in ((n_profile, 1), (u_profile, grid.d)))

    def assemble(s: float) -> HpcState:
        nf = s * n_shape
        return HpcState(0.0, nf, s * u_shape, equilibrium_psi(nf, params), params)

    if target_x0 is None or target_x0 == 0:
        state = assemble(1.0 if target_x0 is None else 0.0)
        return state, hybrid_aggregate(state)[1]

    base = max(np.max(np.abs(n_shape.to_physical())), np.max(np.abs(u_shape.to_physical())))
    if base == 0:
        raise ValueError("zero profile cannot be scaled to a nonzero target")

    s = 1e-4 / base
    for _ in range(60):
        state = assemble(s)
        x, parts = hybrid_aggregate(state)
        if abs(x - target_x0) <= 1e-10 * target_x0:
            return state, parts
        s *= target_x0 / x
    raise RuntimeError("initial-data scaling did not converge")
