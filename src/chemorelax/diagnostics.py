"""Measurements on solutions: damped modes, Lyapunov functionals and the
relaxation-limit error sweep.

Nothing here advances a solution; every function is a pure evaluation of
states or trajectories produced by the solvers.  The damped-mode check and
the relaxation sweep run over snapshot stacks: one inverse transform of n and
one density perturbation per stack, and row-wise block norms; the sweep's
norms are the series of its member runs, which keep no snapshot between
their initial and final states.
A snapshot's Lyapunov blocks of every field are one stack with one inverse
transform, so its transform count does not grow with the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .driver import (DiagnosticSeries, RunFailed, SolverConfig, Trajectory, stack, stacks,
                     whole_count, write_csv)
from .hpc_solver import (
    HpcState,
    PropagatorTables,
    equilibrium_psi,
    hybrid_aggregate,
    rough_mode_profile,
    stream_members,
)
from .ks_solver import KsState, KsTables, ks_run, reconstruct_velocity, solve_phi
from .model import (
    ModelParams,
    coefficient_H,
    coefficients_GH,
    density_perturbation,
    enthalpy_n,
)
from .spectral import SpectralField, divergence, gradient, laplacian

__all__ = [
    "DiagnosticSeries",
    "DampedModes",
    "LyapunovRecord",
    "LyapunovReport",
    "RelaxationReport",
    "effective_modes",
    "damped_mode_decay_check",
    "lyapunov_blocks",
    "lyapunov_evaluate",
    "lyapunov_equivalence_check",
    "relaxation_sweep",
    "rescale_to_slow",
    "write_csv",
]

# damped_mode_decay_check's bound, in units of the initial hybrid energy
CONTRACT_FACTOR = 20.0
# lyapunov_equivalence_check skips blocks whose energy is at round-off level
LYAPUNOV_NOISE_FLOOR = 1e-20
# the series columns of a relaxation member: the norms of its errors and residuals
NORMS = ("drho_low", "drho_high", "du", "dphi", "rho_v", "dtphi")


# -- effective damped modes -----------------------------------------------------

@dataclass
class DampedModes:
    """The damped modes of a state or a snapshot stack; phi_eff on first read."""

    state: HpcState
    v: SpectralField          # u + eps grad n - eps mu grad psi

    @cached_property
    def phi_eff(self) -> SpectralField:   # psi - (b - Lap)^{-1}(c1 n + H(n))
        return self.state.psi - equilibrium_psi(self.state.n, self.state.params)


def effective_modes(state: HpcState) -> DampedModes:
    p = state.params
    return DampedModes(state, state.u + p.eps * gradient(state.n)
                       - (p.eps * p.mu) * gradient(state.psi))


def damped_mode_decay_check(traj: Trajectory) -> dict:
    """Time-integrated low-frequency norms of the damped modes.

    Returns (1/eps) int ||v||^l_{B^{d/2}_{2,1}} dt and
    int ||phi_eff||^l_{B^{d/2}_{2,1} cap B^{d/2+2}_{2,1}} dt, with a contract
    flag comparing both against CONTRACT_FACTOR times the initial energy.
    """
    initial = traj.initial
    p = initial.params
    dec = initial.grid.decomposition
    J, d, d_half = p.threshold(), initial.grid.d, initial.grid.d / 2.0

    rows = []   # per snapshot stack: times and the low norms of v and phi_eff
    for stack in stacks(traj.states):
        modes = effective_modes(stack)
        v, pe = dec.block_norms(modes.v.energy(d)), dec.block_norms(modes.phi_eff.energy(1))
        rows.append((stack.t, dec.hybrid_norm(v, d_half, d_half, J)[0],
                     dec.hybrid_norm(pe, d_half, d_half, J)[0]
                     + dec.hybrid_norm(pe, d_half + 2.0, d_half + 2.0, J)[0]))
    times, v_lo, pe_lo = map(np.concatenate, zip(*rows))
    int_v = float(np.trapezoid(v_lo, times)) / p.eps
    int_pe = float(np.trapezoid(pe_lo, times))
    x0, _ = hybrid_aggregate(initial)
    return {
        "int_v_over_eps": int_v,
        "int_phi_eff": int_pe,
        "x0": x0,
        "bound": CONTRACT_FACTOR * x0,
        "ok": (int_v <= CONTRACT_FACTOR * x0) and (int_pe <= CONTRACT_FACTOR * x0),
    }


# -- Lyapunov functional ---------------------------------------------------------

@dataclass
class LyapunovRecord:
    j: np.ndarray             # the blocks; every field below is an array over them
    energy: np.ndarray        # L_j
    dissipation: np.ndarray   # H_j
    block_sq: np.ndarray      # eps ||(n_j,u_j,psi_j,grad psi_j,2^-j H_j)||_L2^2
    w_min: np.ndarray
    w_max: np.ndarray


def lyapunov_blocks(params: ModelParams, grid) -> np.ndarray:
    """The blocks the Lyapunov check covers, the active j >= J - 1; ValueError if none."""
    dec, J = grid.decomposition, params.threshold()
    if J - 1 > dec.j_max:
        raise ValueError(f"no block to check: the check covers j >= J - 1 = {J - 1}, "
                         f"and the largest active j is {dec.j_max}")
    return np.arange(max(dec.j_min, J - 1), dec.j_max + 1)


def lyapunov_evaluate(state: HpcState, js, eta0: float) -> LyapunovRecord:
    """Block energies L_j and dissipations H_j of one snapshot at every active j in ``js``.

    The psi time derivative is taken from the equation itself,
    dt psi_j = Lap psi_j - b psi_j + c1 n_j + H(n)_j, never from time
    differencing; the weight w_j = c0 + S_{j-1} G(n) is a physical-space field.
    ``block_sq`` comes from the block norms of n, u, psi, grad psi and H(n)
    (int h_j^2 = ||H(n)||_j^2 by Parseval).
    """
    if not (0.0 < eta0 < 1.0):
        raise ValueError(f"eta0 must lie in (0, 1), got {eta0}")
    p, grid = state.params, state.grid
    dec = grid.decomposition
    js = np.asarray(js)
    if js.ndim != 1 or not np.all((dec.j_min <= js) & (js <= dec.j_max)):
        raise ValueError(f"js must be active blocks {dec.j_min}..{dec.j_max}, got {js}")
    g_vals, h_vals = coefficients_GH(state.n.to_physical()[0], p)
    g_h = SpectralField.from_physical(grid, np.stack((g_vals, h_vals))).coef
    g_full, h_full = SpectralField(grid, g_h[:1]), SpectralField(grid, g_h[1:])

    # every value below is shaped (block, component, point); scalars have one component
    n_j, u_j, psi_j = (dec.block(f, js) for f in (state.n, state.u, state.psi))
    fields = (n_j, u_j, psi_j, gradient(psi_j), gradient(n_j), laplacian(psi_j),
              divergence(u_j), dec.block(h_full, js), dec.lowpass(g_full, js - 1))
    vals = SpectralField(grid, np.concatenate([f.coef for f in fields])).to_physical()
    n_phys, u_phys, psi_phys, grad_psi, grad_n, lap_psi, div_u, h_j, low_g = (
        v.reshape(len(js), -1, grid.N ** grid.d)
        for v in np.split(vals, np.cumsum([f.ncomp for f in fields])[:-1]))
    dt_psi = lap_psi - p.b * psi_phys + p.c1 * n_phys + h_j
    w = p.c0 + low_g

    def integral(values):
        return values.sum(axis=(1, 2)) * grid.cell_volume

    two_mj = 2.0 ** -js
    u_grad_n = np.einsum("jkm,jkm->jm", u_phys, grad_n)[:, None]
    grad_n_grad_psi = np.einsum("jkm,jkm->jm", grad_n, grad_psi)[:, None]
    usq = np.einsum("jkm,jkm->jm", u_phys, u_phys)[:, None]
    gpsq = np.einsum("jkm,jkm->jm", grad_psi, grad_psi)[:, None]

    energy = p.eps * integral(
        0.5 * n_phys ** 2
        + (two_mj[:, None, None] ** 2 / (2.0 * eta0)) * h_j ** 2
        + 0.5 * w * usq
        + (p.mu * p.b / (2.0 * p.c1)) * psi_phys ** 2
        + (p.mu / (2.0 * p.c1)) * gpsq
        - p.mu * n_phys * psi_phys
        - h_j * psi_phys
    ) + eta0 * two_mj ** 2 * integral(
        (p.mu / (2.0 * p.c1)) * gpsq + u_grad_n
    )

    dissipation = p.eps * integral(
        w * usq / p.eps + dt_psi ** 2
    ) + eta0 * two_mj ** 2 * integral(
        np.einsum("jkm,jkm->jm", grad_n, grad_n)[:, None]
        + (p.mu * p.b / p.c1) * gpsq
        + (p.mu / p.c1) * lap_psi ** 2
        - 2.0 * p.mu * grad_n_grad_psi
        - w * div_u ** 2
        + u_grad_n / p.eps
    )

    norms_sq = [dec.block_norms(f.energy(f.ncomp))[0, js - dec.j_min] ** 2
                for f in (state.n, state.u, state.psi, gradient(state.psi), h_full)]
    block_sq = p.eps * (sum(norms_sq[:4]) + two_mj ** 2 * norms_sq[4])
    return LyapunovRecord(j=js, energy=energy, dissipation=dissipation, block_sq=block_sq,
                          w_min=w.min(axis=(1, 2)), w_max=w.max(axis=(1, 2)))


@dataclass
class LyapunovReport:
    rows: list = field(default_factory=list)   # (t, j, L, H, ratio1, ratio2, ok)
    violations: list = field(default_factory=list)
    skipped_below_floor: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self, path):
        write_csv(path, ("t", "j", "L_j", "H_j", "ratio1", "ratio2", "ok"), self.rows)


def lyapunov_equivalence_check(traj: Trajectory, eta0: float = 0.1,
                               c_tol: float = 10.0) -> LyapunovReport:
    """Check L_j ~ eps block^2 and eps H_j >~ L_j on every snapshot and every
    block of :func:`lyapunov_blocks` whose energy exceeds LYAPUNOV_NOISE_FLOOR."""
    p = traj.initial.params
    js = lyapunov_blocks(p, traj.initial.grid)
    report = LyapunovReport()
    for s in traj.states:
        rec = lyapunov_evaluate(s, js, eta0)
        skip = (rec.energy <= LYAPUNOV_NOISE_FLOOR) | (rec.block_sq <= LYAPUNOV_NOISE_FLOOR)
        report.skipped_below_floor += int(np.count_nonzero(skip))
        energy, dissipation = rec.energy[~skip], rec.dissipation[~skip]
        ratio1 = energy / rec.block_sq[~skip]
        ratio2 = p.eps * dissipation / energy
        ok = (1.0 / c_tol <= ratio1) & (ratio1 <= c_tol) & (ratio2 >= 1.0 / c_tol)
        for row in zip(*(v.tolist() for v in (js[~skip], energy, dissipation, ratio1, ratio2, ok))):
            report.rows.append((s.t, *row))
            if not row[-1]:
                report.violations.append((s.t, row[0], row[3], row[4]))
    return report


# -- relaxation sweep --------------------------------------------------------------

def rescale_to_slow(state: HpcState, eps: float, rho_phys: np.ndarray):
    """Diffusive rescaling tau = eps t, u -> u/eps of a fast-time snapshot or stack.

    ``rho_phys`` is the physical density, one row per snapshot.  Returns
    (tau, rho_field, u_field, phi_field) in slow variables.
    """
    rho = SpectralField.from_physical(state.grid, rho_phys.reshape((-1,) + state.grid.shape))
    return eps * state.t, rho, (1.0 / eps) * state.u, state.psi.shifted(state.params.phi_bar)


@dataclass
class RelaxationReport:
    """Per-eps relaxation errors, residual norms, and fitted log-log slopes."""

    eps_list: list
    sup_drho: list            # sup_tau ||drho||_{B^{d/2-1}_{2,1}}
    int_drho_high: list       # int ||drho||_{B^{d/2+1}_{2,1}} dtau
    int_du: list              # int ||du||_{B^{d/2}_{2,1}} dtau
    int_dphi: list            # int ||dphi||_{B^{d/2+1} cap B^{d/2+2}} dtau
    int_rho_v: list           # int ||rho^eps v^eps||_{B^{d/2}_{2,1}} dtau
    int_dtphi: list           # eps int ||dt phi^eps||_{B^{d/2}_{2,1}} dtau
    slopes: dict = field(default_factory=dict)

    def fit_slopes(self):
        le = np.log(np.asarray(self.eps_list, dtype=float))
        for name in ("sup_drho", "int_drho_high", "int_du", "int_dphi"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if np.all(vals > 0):
                self.slopes[name] = float(np.polyfit(le, np.log(vals), 1)[0])
        # residual ratios: the estimate is O(eps), so value/eps should be flat
        for name in ("int_rho_v", "int_dtphi"):
            vals = np.asarray(getattr(self, name), dtype=float)
            ratios = vals / np.asarray(self.eps_list, dtype=float)
            self.slopes[name + "_over_eps_spread"] = float(ratios.max() / ratios.min())
        return self.slopes

    def to_csv(self, path):
        names = ("sup_drho", "int_drho_high", "int_du", "int_dphi", "int_rho_v", "int_dtphi")
        write_csv(path, ("eps",) + names,
                  zip(self.eps_list, *(getattr(self, name) for name in names)))

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump({"eps_list": list(self.eps_list), "slopes": self.slopes}, fh, indent=2)


def _hpc_member_initial(grid, params: ModelParams, rho0_phys: np.ndarray) -> HpcState:
    """Well-prepared fast-variable data from a shared density profile.

    u0 is the Darcy reconstruction scaled back to fast variables (u0 = eps u*0)
    and psi0 solves the screened elliptic balance, so the damped modes vanish
    at t = 0 and the data agree with the limit model's at order 0.
    """
    rho_f = SpectralField.from_physical(grid, rho0_phys[None], dealiased=True)
    n0 = SpectralField.from_physical(grid, enthalpy_n(rho_f.to_physical()[0], params)[None],
                                     dealiased=True)
    phi0 = solve_phi(rho_f, params)
    u_star = reconstruct_velocity(rho_f, phi0, params)
    return HpcState(0.0, n0, params.eps * u_star, equilibrium_psi(n0, params), params)


def _require_completed(traj: Trajectory, name: str) -> None:
    if traj.status != "completed":
        outcome = "blew up" if traj.status == "blowup" else f"ended with status {traj.status}"
        raise RunFailed(traj.status, f"{name} {outcome}: {traj.message}")


def relaxation_sweep(grid, base_params: ModelParams, rho0_phys: np.ndarray, eps_list,
                     tau_end: float = 2.0, snap_dtau: float = 0.05,
                     dt_fast: float = 0.01,
                     rho_offset_phys: np.ndarray | None = None,
                     high_freq_budget: float | None = None,
                     threads: int = 1) -> RelaxationReport:
    """Run the relaxation family and the limit model from shared density data.

    For each eps the fast system runs to t = tau_end/eps with snapshots on a
    shared slow-time grid; the limit model runs once.  Errors follow the
    quantitative estimates (all O(eps)): density in B^{d/2-1} (sup) and
    B^{d/2+1} (time-integrated), velocity in B^{d/2}, concentration in
    B^{d/2+1} cap B^{d/2+2}; residuals are the momentum balance rho v and the
    concentration relaxation eps dt phi.  The snapshot grid is refined beyond
    snap_dtau so the O(eps^2)-thick relaxation layer is resolved by the
    time-quadratures.

    Data knobs (both default off, giving members that share the limit data
    exactly; the dynamic error is then super-convergent, empirically ~eps^1.7
    at moderate eps, and the momentum residual is Theta(eps^2)):

    * ``rho_offset_phys``: member eps starts from rho0 + eps * offset, seeding
      the admissible O(eps) data discrepancy while staying fully well-prepared
      in velocity and concentration.  Needed to exhibit the sharp O(eps) rate.
    * ``high_freq_budget``: adds a per-member mode at |xi| ~ 2^{J_eps} sized so
      eps * ||mode||_{B^{d/2+1}} equals the budget, filling the high-frequency
      part of the initial energy uniformly in eps.  Needed for the momentum
      residual over eps to be flat (it is the high-frequency data energy that
      saturates that bound).

    Every member's data are built before any run.  By then eps_list must
    hold at least three distinct eps, each giving valid parameters and a
    threshold J_eps, ``tau_end`` must be a whole number of ``snap_dtau``,
    ``dt_fast`` must be positive and finite, and with ``high_freq_budget``
    every member's threshold mode must lie in the grid's dealiased band
    (ValueError otherwise); so are every run's first propagator tables
    (etd.NonFiniteTables, a ValueError), which the runs take.  A run that does
    not complete raises :class:`RunFailed` with its status ("blowup" or
    "mass_drift"), as if the members ran in turn; they run as one member stack
    (:func:`stream_members`) in d = 1, one at a time in d >= 2.  A member's
    norms are its series, taken on each chunk of its snapshots as the run
    measures it (a snapshot whose errors leave the validity window ends the
    member there as "blowup"), and its trajectory keeps only its initial and
    final states, so the sweep's memory does not grow with ``tau_end`` beyond
    the limit model's density snapshots.  ``threads`` must be 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (members run serially), got {threads!r}")
    if not (0 < dt_fast < math.inf):
        raise ValueError(f"dt_fast must be positive and finite, got {dt_fast!r}")
    if len(set(eps_list)) < len(eps_list):   # the slope fit needs distinct log(eps)
        raise ValueError(f"eps_list repeats a value: {list(eps_list)}")
    if len(eps_list) < 3:
        raise ValueError(f"eps_list needs at least 3 values for the slope fit, "
                         f"got {list(eps_list)}")
    whole_count(tau_end, snap_dtau, "tau_end")

    def member_initial(eps: float) -> HpcState:
        """The member's data; rough_mode_profile checks the threshold mode."""
        params = replace(base_params, eps=eps)
        params.threshold()
        member_rho0 = rho0_phys
        if rho_offset_phys is not None:
            member_rho0 = member_rho0 + eps * rho_offset_phys
        if high_freq_budget is not None:
            member_rho0 = member_rho0 + rough_mode_profile(grid, params, high_freq_budget)
        return _hpc_member_initial(grid, params, member_rho0)

    eps_list = sorted(eps_list, reverse=True)
    initials = [member_initial(eps) for eps in eps_list]
    dec = grid.decomposition
    d_half = grid.d / 2.0

    # refine the shared grid so tau ~ eps_min^2 layers survive the trapezoids
    eps_min = min(eps_list)
    refine = max(1, math.ceil(snap_dtau / (0.5 * eps_min ** 2)))
    fine_dtau = snap_dtau / refine
    ks_cfg = SolverConfig(dt=fine_dtau / 2.0, t_end=tau_end, snap_dt=fine_dtau)
    taus = fine_dtau * np.arange(ks_cfg.schedule()[1] + 1)

    def member_config(eps: float) -> SolverConfig:
        """The member's schedule: snapshots land exactly on the shared slow grid."""
        t_snap = fine_dtau / eps
        substeps = max(1, math.ceil(t_snap / dt_fast))
        return SolverConfig(dt=t_snap / substeps, t_end=tau_end / eps, snap_dt=t_snap)

    configs = [member_config(eps) for eps in eps_list]
    ks_params = replace(base_params, eps=eps_min)
    # every run's first tables, before any run (NonFiniteTables for extreme constants)
    KsTables(grid, ks_params, ks_cfg.dt)
    tables = [PropagatorTables(grid, initial.params, cfg.dt)
              for initial, cfg in zip(initials[::-1], configs[::-1])][::-1]

    # the shared limit-model run (eps plays no role in it): only density snapshots
    rho_f0 = SpectralField.from_physical(grid, rho0_phys[None], dealiased=True)
    ks_traj = ks_run(KsState(0.0, rho_f0, ks_params), ks_cfg)
    _require_completed(ks_traj, "limit-model run")

    def columns(s: HpcState, aggregate) -> dict:
        """A member stack's six norms, one per snapshot, against the limit
        snapshots at its slow times; no temporary outlives the call."""
        params, eps = s.params, s.params.eps
        first = round(eps * s.t[0] / fine_dtau)   # limit snapshot k is at tau = k fine_dtau
        ks = stack(ks_traj.states[first:first + len(s.t)])
        ks_phi = solve_phi(ks.rho, ks_params)
        ks_u = reconstruct_velocity(ks.rho, ks_phi, ks_params)
        n_phys = s.n.to_physical()   # one inverse transform of n per stack
        pert = density_perturbation(n_phys, params)   # and one density perturbation
        rho_phys = params.rho_bar + pert
        _, rho_eps, u_eps, phi_eps = rescale_to_slow(s, eps, rho_phys)
        drho = dec.block_norms((rho_eps - ks.rho).energy(1))
        dphi = dec.block_norms((phi_eps - ks_phi).energy(1))
        # residuals, evaluated in slow variables
        rho_v = SpectralField.from_physical(grid, np.repeat(rho_phys, grid.d, axis=0)
                                            * effective_modes(s).v.to_physical() / eps,
                                            dealiased=True)
        # dt psi from the equation, never from differences in time
        h_field = SpectralField.from_physical(grid, coefficient_H(n_phys, params, pert),
                                              dealiased=True)
        dt_psi = laplacian(s.psi) - params.b * s.psi + params.c1 * s.n + h_field
        return dict(zip(NORMS, (
            dec.besov_norm(drho, d_half - 1.0), dec.besov_norm(drho, d_half + 1.0),
            dec.besov_norm(dec.block_norms((u_eps - ks_u).energy(grid.d)), d_half),
            dec.besov_norm(dphi, d_half + 1.0) + dec.besov_norm(dphi, d_half + 2.0),
            dec.besov_norm(dec.block_norms(rho_v.energy(grid.d)), d_half),
            dec.besov_norm(dec.block_norms(dt_psi.energy(1)), d_half) / eps)))

    def run(members: list) -> list:
        """The trajectories of the members (indices), holding their initial and
        final states and the series of their norms."""
        return stream_members([initials[i] for i in members], [configs[i] for i in members],
                              [tables[i] for i in members], columns, False)

    def member_errors(traj: Trajectory) -> tuple:
        """A member's six report entries, in RelaxationReport's field order."""
        eps = traj.initial.params.eps
        _require_completed(traj, f"relaxation member eps={eps}")
        sup_drho, *integrands, dtphi = (traj.series.columns[name] for name in NORMS)
        return (float(np.max(sup_drho)), *(float(np.trapezoid(v, taus)) for v in integrands),
                eps * float(np.trapezoid(dtphi, taus)))

    members = range(len(eps_list))
    errors = (map(member_errors, run(members)) if grid.d == 1 else
              # one member at a time, and no name holds a trajectory while the next one runs
              (member_errors(run([i])[0]) for i in members))
    report = RelaxationReport(list(eps_list), *map(list, zip(*errors)))
    report.fit_slopes()
    return report
