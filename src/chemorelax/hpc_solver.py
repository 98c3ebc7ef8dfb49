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
evaluation.  The right-hand side takes one path in every d, with one
transform each way, as a 1D step is bound by per-call overhead: it masks the
rows [n, u] on the last-axis columns that the 2/3 rule keeps and multiplies
them by i xi, for the 2 + 2d + d^2 rows [n, u, div u, grad n, grad u_1 ..
grad u_d] (each row holding a d=1 member stack's members), takes them to the
grid in one inverse transform (:func:`chemorelax.spectral.pruned_inverse`),
forms -u.grad of [n, u] in one einsum and N_n, N_u and H in output rows, and
takes those in one masked forward transform
(:func:`chemorelax.spectral.pruned_forward`) into the one array it returns,
of rows [N_n, N_u, N_psi].  The rows live in a scratch that each grid holds
for the length of a run (:func:`_scratch`).  A step passes one coefficient
array of rows [n, u, psi] through each stage (right-hand side, propagator
apply, sum) and builds fields only for the star state and the new state.
Total mass of rho(n) is conserved by a mean-mode projection consistent with
the divergence form of the density equation, which shifts the zero modes of
the new state's n rows in place.  :func:`run_members` runs a run, or the
members of a sweep's eps family, on :func:`chemorelax.driver.integrate`,
whose run policy watches each member's hybrid energy; in d=1 it steps the
members of an interval as one member stack (one row per member, each stepped
at its own eps and dt, bit for bit as alone), which no caller sees.  The CFL test takes the speed max|u| from the step's first
right-hand side, which transforms the dealiased u; the states of a run lie in
the 2/3 box, where that is u itself, so the test costs no transform of its own.

Each step applies three propagator tables (E, P1, P2).  In d=1, unit =
sign(xi) is +-1 on every mode but the mean and Nyquist modes, where it is 0,
so the velocity split folds exactly into one complex 3x3 matrix per mode on
(n, u, psi), built once per table from the real table T and the scalar
factor s:

    [[T00, i unit T01, T02], [-i unit T10, s + unit^2 (T11 - s), -i unit T12],
     [T20, i unit T21, T22]]

on a member axis (one long; a member stack's tables are joined on it), and
applied as one einsum for every member count.  d >= 2 keeps the split, nine
multiply-adds on the real table and the scalar transverse scaling, with its
temporaries in the grid's scratch: folded (2+d)x(2+d) complex tables measured
slower there and take several times the memory.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import etd
from .driver import BlowupError, SolverConfig, Trajectory, integrate, stack
from .linear_analysis import symbol_matrix
from .model import (  # coefficient_G stays importable here for perfbench's tracer test
    ModelParams,
    OutsideValidityWindow,
    coefficient_G,
    coefficient_H,
    coefficients_GH,
    density_perturbation,
)
from .spectral import (
    Grid,
    SpectralField,
    bessel_inverse,
    gradient,
    pruned_forward,
    pruned_inverse,
)

__all__ = [
    "HpcState",
    "SolverConfig",
    "BlowupError",
    "PropagatorTables",
    "nonlinear_rhs",
    "step",
    "run",
    "run_members",
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


@dataclass(frozen=True, slots=True)
class HpcState:
    """Snapshot of (n, u, psi) at one time instant, or a stack of snapshots or
    of d=1 members (one row each, time an array); a value, frozen and never
    written into (see :mod:`chemorelax.driver`).  A member stack lives only
    inside :func:`run_members` and carries its first member's params."""

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


# -- work arrays -----------------------------------------------------------------

_SCRATCH = weakref.WeakKeyDictionary()   # grid -> {members: work arrays}; a run drops its grid's


def _scratch(grid: Grid, k: int) -> tuple:
    """(flat complex buffer, complex rows, their gradient rows, real rows, their
    gradient rows, i xi_diff, 2/3 mask) of the right-hand side of k members (one
    unless d = 1) on grid, made on first use.  The complex rows, a view of the
    buffer shaped (2 + 2d + d^2, k, *grid.shape[:-1], kept), take the rows
    [n, u, div u, grad n, grad u_1 .. grad u_d] on the kept last-axis columns,
    the gradient rows viewed as (1 + d, d, ...); the buffer also takes the
    4 + d temporaries of the d >= 2 propagator apply (the two never run at
    once).  The real rows take the rows' grid values, then 2 + d output rows.
    i xi_diff (with a member axis) and the mask are on the kept columns.  No
    array a caller receives points into them."""
    per_grid = _SCRATCH.setdefault(grid, {})
    if k not in per_grid:
        d, keep = grid.d, grid.kept_columns
        n_rows, size = 2 + 2 * d + d * d, math.prod(grid.spec_shape)
        shape = (n_rows, k) + grid.shape[:-1] + (keep,)
        buf = np.empty(max(math.prod(shape), (4 + d) * size), dtype=np.complex128)
        rows = buf[:math.prod(shape)].reshape(shape)
        vals = np.empty((n_rows + 2 + d, k) + grid.shape)
        per_grid[k] = (buf, rows, rows[2 + d:].reshape((1 + d, d) + shape[1:]), vals,
                       vals[2 + d:n_rows].reshape((1 + d, d) + vals.shape[1:]),
                       1j * grid.xi_diff[:, None, ..., :keep], grid.dealias_mask[..., :keep])
    return per_grid[k]


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

    @classmethod
    def stack(cls, tables: list) -> "PropagatorTables":
        """The d=1 tables of a member stack: joined on the member axis, dt an array."""
        out = cls.__new__(cls)
        out.index, out.dt = tables[0].index, np.array([t.dt for t in tables])
        out._folded = [np.concatenate(p, axis=2) for p in zip(*(t._folded for t in tables))]
        return out

    def _fold(self, t: np.ndarray, scal: float) -> np.ndarray:
        """Table t and scalar factor scal as the d=1 complex 3x3 matrix per
        mode given in the module docstring, on a member axis of one."""
        unit = self._unit[0]
        iu = 1j * unit
        return np.array([[t[0, 0], iu * t[0, 1], t[0, 2]],
                         [-iu * t[1, 0], scal + unit * unit * (t[1, 1] - scal), -iu * t[1, 2]],
                         [t[2, 0], iu * t[2, 1], t[2, 2]]])[:, :, None]

    def _apply(self, k: int, n_coef, u_coef, psi_coef) -> np.ndarray:
        """Propagate (n, u, psi) per mode with table k (0: E, 1: P1, 2: P2) into
        one new array of rows [n, u, psi], shaped (2 + d, members, *spec_shape).

        d=1: one complex 3x3 product per member on the stacked rows.  d >= 2: the
        velocity splits into the compressible amplitude m = i w,
        w = xi.u/|xi|, which enters the real 3x3 table with n and psi, and
        the transverse rest u - (xi/|xi|) w, which is scaled by the scalar
        factor; the temporaries live in the grid's scratch."""
        if self._folded is not None:
            rows = np.concatenate((n_coef, u_coef, psi_coef)).reshape(3, len(n_coef), -1)
            return np.einsum("ij...,j...->i...", self._folded[k], rows)
        table3, scal = self._tables[k]
        unit, d, spec = self._unit, self.grid.d, self.grid.spec_shape
        c_buf, size = _scratch(self.grid, 1)[0], math.prod(spec)
        w, m, m_out, tmp = (c_buf[i * size:(i + 1) * size].reshape(spec) for i in range(4))
        out = np.empty((2 + d,) + spec, dtype=np.complex128)
        np.multiply(unit[0], u_coef[0], out=w)
        for ax in range(1, d):
            np.add(w, np.multiply(unit[ax], u_coef[ax], out=tmp), out=w)
        np.multiply(1j, w, out=m)
        for row, dest in zip(table3, (out[0], m_out, out[1 + d])):
            np.multiply(row[0], n_coef[0], out=dest)
            np.add(dest, np.multiply(row[1], m, out=tmp), out=dest)
            np.add(dest, np.multiply(row[2], psi_coef[0], out=tmp), out=dest)
        # scal * (u - unit w) - i unit m_out, as scal u - unit (scal w + i m_out)
        u_out = np.multiply(scal, u_coef, out=out[1:1 + d])
        np.add(np.multiply(scal, w, out=w), np.multiply(1j, m_out, out=tmp), out=w)
        scaled = c_buf[4 * size:(4 + d) * size].reshape(unit.shape)
        np.subtract(u_out, np.multiply(unit, w, out=scaled), out=u_out)
        return out[:, None]

    def apply_exp(self, n, u, psi):
        return self._apply(0, n, u, psi)

    def apply_phi1(self, n, u, psi):
        return self._apply(1, n, u, psi)

    def apply_phi2(self, n, u, psi):
        return self._apply(2, n, u, psi)


# -- nonlinear terms ----------------------------------------------------------

def nonlinear_rhs(state: HpcState):
    """(rows, max|u|): the coefficients of N_n, N_u and N_psi as one new array
    of rows [N_n, N_u, N_psi], shaped (2 + d, members, *spec_shape), with
    products formed in physical space.

    N_n = -u.grad n - G(n) div u,  N_u = -(u.grad) u,  N_psi = H(n).
    The 2/3 mask is applied to the inputs and to the assembled outputs;
    max|u|, one per member of a d=1 member stack, is taken
    over the grid values of the dealiased u, for the CFL test.
    """
    grid, d, k = state.grid, state.grid.d, state.n.ncomp
    # rows [n, u, div u, grad n, grad u_1 .. grad u_d] of the dealiased input on the
    # kept columns, then their grid values; grad f[i] = i xi_i f for f in [n, u],
    # and div u sums the diagonal rows grad u_i[i] over the stacked products
    _, rows, grad_rows, vals, grad_vals, ixi, mask = _scratch(grid, k)
    keep, n_rows = grid.kept_columns, len(rows)
    np.multiply(state.n.coef[..., :keep], mask, out=rows[0])
    np.multiply(state.u.coef.reshape((d, k) + grid.spec_shape)[..., :keep], mask,
                out=rows[1:1 + d])
    np.multiply(ixi, rows[:1 + d, None], out=grad_rows)
    np.add.reduce(rows[2 + 2 * d::d + 1], axis=0, out=rows[1 + d])
    pruned_inverse(grid, rows, vals[:n_rows])

    n_phys, u_phys, div_u = vals[0], vals[1:1 + d], vals[1 + d]
    g_vals, h_vals = coefficients_GH(n_phys, state.params)   # raises off the window
    # [N_n, N_u, H] in the output rows: -u.grad of [n, u] in one einsum, then G div u
    out = vals[n_rows:]
    np.einsum("jk...,k...->j...", grad_vals, u_phys, out=out[:1 + d])
    np.negative(out[:1 + d], out=out[:1 + d])
    np.subtract(out[0], np.multiply(g_vals, div_u, out=div_u), out=out[0])
    out[1 + d] = h_vals
    vmax = np.abs(u_phys, out=u_phys).reshape(d, k, -1).max(axis=(0, 2))

    return pruned_forward(grid, out, np.empty(out.shape[:-1] + grid.spec_shape[-1:],
                                              dtype=np.complex128), True), vmax


def _fix_mass(n: SpectralField, params: ModelParams, target_mean_pert) -> SpectralField:
    """Shift the mean enthalpy of each row (member) of n, in place, so that its
    mean(rho - rho_bar) matches its target (one per row, or one number);
    returns n.

    The density equation is in divergence form, so total mass is an invariant
    of the flow; the integrator's O(dt^3) mean defect is projected out with a
    couple of Newton corrections of the zero mode.  Working with the
    perturbation mean keeps the projection noise at the solution scale.  A
    zero-mode shift is a constant in physical space, so one inverse transform
    serves every Newton pass.
    """
    n_phys = n.to_physical().reshape(n.ncomp, -1)
    size = n_phys.shape[1]   # x.sum() / size is np.mean(x) bit for bit, without its dispatch
    for row, target in enumerate(np.array(target_mean_pert, ndmin=1).tolist()):
        for _ in range(3):
            pert = density_perturbation(n_phys[row], params)
            defect = target - float(pert.sum() / size)
            # the pairwise sum rounds to a few ulps of mean|pert|: no pass can remove a
            # defect under 8 ulps, and for a round-off target no relative test passes.
            floor = 8.0 * np.finfo(float).eps * float(np.abs(pert).sum() / size)
            if abs(defect) <= max(1e-15 * abs(target), floor):
                break
            rho = params.rho_bar + pert
            drho_dn = rho / params.pressure.dP(rho)   # inverse of dn/drho = P'(rho)/rho
            shift = defect / float(drho_dn.sum() / size)
            n.coef[(row,) + (0,) * n.grid.d] += shift
            n_phys[row] += shift
    return n


def _fields(grid: Grid, rows: np.ndarray) -> tuple:
    """The (n, u, psi) coefficient views of rows [n, u, psi] shaped
    (2 + d, members, *spec_shape), u with its d rows per member component-major."""
    return rows[0], rows[1:1 + grid.d].reshape((-1,) + grid.spec_shape), rows[1 + grid.d]


def step(state: HpcState, tables: PropagatorTables, mass_target: float,
         rhs: tuple) -> HpcState:
    """One exponential Runge-Kutta step of ``tables.dt``; reduces to the exact
    propagator when the nonlinearity vanishes identically.  ``rhs`` is
    ``nonlinear_rhs(state)``, and the step ends by projecting the mean density
    perturbation onto ``mass_target``; a member stack's members each take their
    own target and :meth:`PropagatorTables.stack` table, bit for bit as alone.
    With y the rows [n, u, psi] and N their right-hand side:
    star = E y + P1 N(y), then y+ = star + P2 (N(star) - N(y))."""
    grid, t, n0 = state.grid, state.t + tables.dt, rhs[0]
    # peak memory: the phi1 term goes into the new array of apply_exp and is dropped
    star = tables.apply_exp(state.n.coef, state.u.coef, state.psi.coef)
    star += tables.apply_phi1(*_fields(grid, n0))
    n1 = nonlinear_rhs(HpcState(t, *(SpectralField(grid, f) for f in _fields(grid, star)),
                                state.params))[0]
    new = tables.apply_phi2(*_fields(grid, np.subtract(n1, n0, out=n1)))
    n, u, psi = (SpectralField(grid, f) for f in _fields(grid, np.add(star, new, out=new)))
    return HpcState(t, _fix_mass(n, state.params, mass_target), u, psi, state.params)


def hybrid_aggregate(state: HpcState):
    """Hybrid energy of a snapshot, split at the threshold J of its parameters:
    ||(n,u,psi)||^l_{B^{d/2}_{2,1}} + eps ||(n,u,grad psi)||^h_{B^{d/2+1}_{2,1}}.

    Returns (total, breakdown dict).  Besides "low", "high" and "eps_high", the
    breakdown holds the (low, high) pair of each of n, u, psi and grad_psi.
    The block norms of the four fields come from one product.  Each value is
    a float for one snapshot and an array over the snapshots of a stack.
    """
    dec, d, p = state.grid.decomposition, state.grid.d, state.params
    norms = dec.block_norms(np.concatenate([state.n.energy(1), state.u.energy(d),
                                            state.psi.energy(1), gradient(state.psi).energy(d)]))
    lows, highs = dec.hybrid_norm(norms.reshape(4, state.n.ncomp, -1), d / 2.0, d / 2.0 + 1.0,
                                  p.threshold())
    if np.ndim(state.t) == 0:   # one snapshot: floats
        lows, highs = lows[:, 0], highs[:, 0]
    fields = dict(zip(("n", "u", "psi", "grad_psi"), zip(lows, highs)))
    low = fields["n"][0] + fields["u"][0] + fields["psi"][0]
    high = fields["n"][1] + fields["u"][1] + fields["grad_psi"][1]
    return low + p.eps * high, {"low": low, "high": high, "eps_high": p.eps * high, **fields}


def run(initial: HpcState, config: SolverConfig) -> Trajectory:
    """Integrate to t_end: the one-member :func:`run_members`."""
    return run_members([initial], [config],
                       [PropagatorTables(initial.grid, initial.params, config.dt)])[0]


def run_members(initials: list, configs: list, tables: list) -> list:
    """Integrate members (params differing in eps only, the tables of each
    config's dt; several in d=1 only, in order of steps per snapshot) on
    :func:`chemorelax.driver.integrate`.  An interval stacks the members once:
    substep j steps the members with more than j steps, and after each
    substep the members that have taken all their steps (a prefix) leave the
    stack as copies of their rows.  A CFL violation or an error sends the
    interval one member at a time through steps halved on a CFL violation
    (speed from the first right-hand side, which a first half-step reuses;
    MAX_CFL_HALVINGS at most, else "blowup").  Sizes are
    :func:`hybrid_aggregate` of one member's snapshots; a final mass off by
    1e-8 relative is "mass_drift"."""
    grid, substeps = initials[0].grid, [config.schedule()[0] for config in configs]
    if len(initials) > 1 and (grid.d != 1 or substeps != sorted(substeps)):
        raise ValueError("members stack in d=1 only, in order of their steps per snapshot")
    targets = [s.mass_perturbation() for s in initials]
    member_tables = lru_cache(maxsize=None)(lambda m, dt: (   # for a step of dt of member m
        tables[m] if dt == configs[m].dt else PropagatorTables(grid, initials[m].params, dt)))
    batch_tables = lru_cache(maxsize=None)(   # for a step of members start .. stop - 1
        lambda start, stop: PropagatorTables.stack(tables[start:stop]))

    def alone(s: HpcState, m: int, dt: float, depth: int = 0, rhs: tuple | None = None):
        rhs = nonlinear_rhs(s) if rhs is None else rhs
        if dt * rhs[1][0] <= CFL_SAFETY * grid.dx:   # no flow passes too: 0 <= CFL_SAFETY dx
            return step(s, member_tables(m, dt), targets[m], rhs)
        if depth >= MAX_CFL_HALVINGS:
            raise BlowupError(f"CFL violation persists after {depth} halvings at t={s.t}")
        return alone(alone(s, m, dt / 2, depth + 1, rhs), m, dt / 2, depth + 1)

    def batched(states: list) -> list:   # BlowupError on a CFL violation
        # the stack carries its first member's params: the right-hand side, the step
        # and the mass projection read only G, H and the pressure law, which the
        # members share; each member's eps reaches the step through its tables
        start, stop, cur, done = 0, len(states), stack(states), []
        for j in range(1, substeps[stop - 1] + 1):
            rhs, step_tables = nonlinear_rhs(cur), batch_tables(start, stop)
            if np.count_nonzero(step_tables.dt * rhs[1] <= CFL_SAFETY * grid.dx) < stop - start:
                raise BlowupError("CFL violation")   # each member: dt max|u| <= CFL_SAFETY dx
            cur = step(cur, step_tables, targets[start:stop], rhs)
            # the members with all their steps taken (a prefix) leave as copies of their
            # rows, so a kept state holds no other member's rows; the rest stay on as views
            cut = substeps[start:stop].count(j)
            fields = (cur.n, cur.u, cur.psi)
            done += [HpcState(cur.t[i], *(SpectralField(grid, f.coef[i:i + 1].copy())
                                          for f in fields), initials[start + i].params)
                     for i in range(cut)]
            cur = HpcState(cur.t[cut:], *(SpectralField(grid, f.coef[cut:]) for f in fields),
                           cur.params)
            start += cut
        return done

    def advance(states: list) -> list:
        if len(states) > 1:
            try:
                return batched(states)
            except (OutsideValidityWindow, BlowupError):   # go one member at a time
                pass
        out = []
        for m, member in enumerate(states):
            try:
                for _ in range(substeps[m]):
                    member = alone(member, m, configs[m].dt)
            except (OutsideValidityWindow, BlowupError) as exc:
                exc.member = m
                raise
            out.append(member)
        return out

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

    try:
        trajs = integrate(initials, advance, lambda s: hybrid_aggregate(s)[0], columns,
                          configs)
    finally:
        _SCRATCH.pop(grid, None)
    for traj, initial in zip(trajs, initials):
        if traj.status == "completed":
            # bookkeeping invariant, not the mass-conservation test itself
            mass0 = initial.total_mass()
            drift = abs(traj.final.total_mass() - mass0)
            if drift > 1e-8 * abs(mass0) + 1e-14:
                traj.status = "mass_drift"
                traj.message = (f"total mass drifted by {drift:.3e} from {mass0!r} "
                                f"by t={traj.final.t} (bound 1e-8 relative)")
    return trajs


# -- initial data --------------------------------------------------------------

def gaussian_bump(grid: Grid, width: float = 0.5, center=None) -> np.ndarray:
    """Periodic bump (a Gaussian of the wrapped distance to ``center``) with its
    mean subtracted; the width must be positive and finite (ValueError).

    The bump is continuous, not smooth: the wrapped distance has a corner at
    the antipode of the centre, where the derivative jumps by
    (L / w^2) exp(-L^2 / (8 w^2)).  There the bump is exp(-L^2 / (8 w^2)) of
    its peak: 4.5e-4 for the sweep's w = 0.8 on L = 2 pi."""
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
