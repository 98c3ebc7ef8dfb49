"""Measurements on solutions: damped modes, Lyapunov functionals and the
relaxation-limit error sweep.

Nothing here advances a solution; every function is a pure evaluation of
states or trajectories produced by the solvers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .driver import DiagnosticSeries, RunFailed, SolverConfig, Trajectory, write_csv
from .hpc_solver import (
    HpcState,
    equilibrium_psi,
    hybrid_aggregate,
    rough_mode_profile,
    run,
    threshold_mode,
)
from .ks_solver import KsState, ks_run, reconstruct_velocity, solve_phi
from .model import (
    ModelParams,
    coefficient_H,
    coefficients_GH,
    density_perturbation,
    density_rho,
    enthalpy_n,
)
from .spectral import (
    SpectralField,
    divergence,
    from_physical_all,
    gradient,
    laplacian,
    to_physical_all,
)

__all__ = [
    "DiagnosticSeries",
    "DampedModes",
    "LyapunovRecord",
    "LyapunovReport",
    "RelaxationReport",
    "effective_modes",
    "damped_mode_decay_check",
    "lyapunov_evaluate",
    "lyapunov_equivalence_check",
    "relaxation_sweep",
    "rescale_to_slow",
    "rescale_to_fast",
    "write_csv",
]

# damped_mode_decay_check's bound, in units of the initial hybrid energy
CONTRACT_FACTOR = 20.0
# lyapunov_equivalence_check skips blocks whose energy is at round-off level
LYAPUNOV_NOISE_FLOOR = 1e-20


# -- effective damped modes -----------------------------------------------------

@dataclass
class DampedModes:
    """The low-frequency damped combinations of one state."""

    v: SpectralField          # u + eps grad n - eps mu grad psi
    phi_eff: SpectralField    # psi - (b - Lap)^{-1}(c1 n + H(n))
    phi_tilde: SpectralField  # b psi - c1 n
    coupling_residual: SpectralField  # b phi - a rho, as a field


def effective_modes(state: HpcState) -> DampedModes:
    p = state.params
    v = state.u + p.eps * gradient(state.n) - (p.eps * p.mu) * gradient(state.psi)
    phi_eff = state.psi - equilibrium_psi(state.n, p)
    phi_tilde = p.b * state.psi - p.c1 * state.n
    rho = density_rho(state.n.to_physical()[0], p)
    resid_phys = p.b * state.phi_physical() - p.a * rho
    coupling = SpectralField.from_physical(state.grid, resid_phys[None])
    return DampedModes(v=v, phi_eff=phi_eff, phi_tilde=phi_tilde, coupling_residual=coupling)


def damped_mode_decay_check(traj: Trajectory) -> dict:
    """Time-integrated low-frequency norms of the damped modes.

    Returns (1/eps) int ||v||^l_{B^{d/2}_{2,1}} dt and
    int ||phi_eff||^l_{B^{d/2}_{2,1} cap B^{d/2+2}_{2,1}} dt, with a contract
    flag comparing both against CONTRACT_FACTOR times the initial energy.
    """
    initial = traj.initial
    p = initial.params
    dec = initial.grid.decomposition
    J = p.threshold()
    d_half = initial.grid.d / 2.0

    times, v_norms, pe_norms = [], [], []
    for s in traj.states:
        modes = effective_modes(s)
        v_lo, _ = dec.hybrid_norm(modes.v, d_half, d_half, J)
        pe_lo, _ = dec.hybrid_norm(modes.phi_eff, d_half, d_half, J)
        pe_lo2, _ = dec.hybrid_norm(modes.phi_eff, d_half + 2.0, d_half + 2.0, J)
        times.append(s.t)
        v_norms.append(v_lo)
        pe_norms.append(pe_lo + pe_lo2)
    times = np.array(times)
    int_v = float(np.trapezoid(v_norms, times)) / p.eps
    int_pe = float(np.trapezoid(pe_norms, times))
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
    j: int
    energy: float           # L_j
    dissipation: float      # H_j
    block_sq: float         # eps ||(n_j,u_j,psi_j,grad psi_j,2^-j H_j)||_L2^2
    w_min: float
    w_max: float


def _integral(grid, values) -> float:
    return float(np.sum(values) * grid.cell_volume)


def _coefficient_fields(state: HpcState):
    """G(n) and H(n) of a whole snapshot as fields; every block j shares them."""
    g_vals, h_vals = coefficients_GH(state.n.to_physical()[0], state.params)
    return from_physical_all(state.grid, g_vals[None], h_vals[None])


def lyapunov_evaluate(state: HpcState, j: int, eta0: float,
                      coefficients=None) -> LyapunovRecord:
    """Block energy L_j and dissipation H_j of one snapshot.

    The psi time derivative is taken from the equation itself,
    dt psi_j = Lap psi_j - b psi_j + c1 n_j + H(n)_j, never from time
    differencing; the weight w_j = c0 + S_{j-1} G(n) is a physical-space field.
    ``coefficients`` is the snapshot's (G(n), H(n)) field pair, computed here
    when not given.
    """
    if not (0.0 < eta0 < 1.0):
        raise ValueError(f"eta0 must lie in (0, 1), got {eta0}")
    p = state.params
    grid = state.grid
    dec = grid.decomposition
    g_full, h_full = coefficients or _coefficient_fields(state)

    n_j, u_j, psi_j = (dec.block(f, j) for f in (state.n, state.u, state.psi))
    ((n_phys,), u_phys, (psi_phys,), grad_psi, grad_n, (lap_psi,), (div_u,), (h_j,),
     (low_g,)) = to_physical_all(n_j, u_j, psi_j, gradient(psi_j), gradient(n_j),
                                 laplacian(psi_j), divergence(u_j), dec.block(h_full, j),
                                 dec.lowpass(g_full, j - 1))
    dt_psi = lap_psi - p.b * psi_phys + p.c1 * n_phys + h_j
    w = p.c0 + low_g

    two_mj = 2.0 ** (-j)
    u_grad_n = np.einsum("k...,k...->...", u_phys, grad_n)
    grad_n_grad_psi = np.einsum("k...,k...->...", grad_n, grad_psi)
    usq = np.einsum("k...,k...->...", u_phys, u_phys)
    gpsq = np.einsum("k...,k...->...", grad_psi, grad_psi)

    energy = p.eps * _integral(grid, (
        0.5 * n_phys ** 2
        + (two_mj ** 2 / (2.0 * eta0)) * h_j ** 2
        + 0.5 * w * usq
        + (p.mu * p.b / (2.0 * p.c1)) * psi_phys ** 2
        + (p.mu / (2.0 * p.c1)) * gpsq
        - p.mu * n_phys * psi_phys
        - h_j * psi_phys
    )) + eta0 * two_mj ** 2 * _integral(grid, (
        (p.mu / (2.0 * p.c1)) * gpsq + u_grad_n
    ))

    dissipation = p.eps * _integral(grid, (
        w * usq / p.eps + dt_psi ** 2
    )) + eta0 * two_mj ** 2 * _integral(grid, (
        np.einsum("k...,k...->...", grad_n, grad_n)
        + (p.mu * p.b / p.c1) * gpsq
        + (p.mu / p.c1) * lap_psi ** 2
        - 2.0 * p.mu * grad_n_grad_psi
        - w * div_u ** 2
        + u_grad_n / p.eps
    ))

    block_sq = p.eps * (
        n_j.l2_norm() ** 2 + u_j.l2_norm() ** 2 + psi_j.l2_norm() ** 2
        + gradient(psi_j).l2_norm() ** 2
        + two_mj ** 2 * _integral(grid, h_j ** 2)
    )
    return LyapunovRecord(j=j, energy=energy, dissipation=dissipation, block_sq=block_sq,
                          w_min=float(w.min()), w_max=float(w.max()))


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
    active block j >= J - 1 whose energy exceeds LYAPUNOV_NOISE_FLOOR."""
    p = traj.initial.params
    dec = traj.initial.grid.decomposition
    J = p.threshold()
    report = LyapunovReport()
    for s in traj.states:
        coefficients = _coefficient_fields(s)
        for j in dec.active_js():
            if j < J - 1:
                continue
            rec = lyapunov_evaluate(s, j, eta0, coefficients)
            if rec.energy <= LYAPUNOV_NOISE_FLOOR or rec.block_sq <= LYAPUNOV_NOISE_FLOOR:
                report.skipped_below_floor += 1
                continue
            ratio1 = rec.energy / rec.block_sq
            ratio2 = p.eps * rec.dissipation / rec.energy
            ok = (1.0 / c_tol <= ratio1 <= c_tol) and (ratio2 >= 1.0 / c_tol)
            report.rows.append((s.t, j, rec.energy, rec.dissipation, ratio1, ratio2, ok))
            if not ok:
                report.violations.append((s.t, j, ratio1, ratio2))
    return report


# -- relaxation sweep --------------------------------------------------------------

def rescale_to_slow(state: HpcState, eps: float, rho_phys: np.ndarray):
    """Diffusive rescaling tau = eps t, u -> u/eps of one fast-time snapshot.

    ``rho_phys`` is the snapshot's physical density.  Returns
    (tau, rho_field, u_field, phi_field) in slow variables.
    """
    rho = SpectralField.from_physical(state.grid, rho_phys[None])
    u_eps = (1.0 / eps) * state.u
    zero = (0,) + (0,) * state.grid.d
    phi = state.psi.copy()
    phi.coef[zero] += state.params.phi_bar
    return eps * state.t, rho, u_eps, phi


def rescale_to_fast(tau: float, rho: SpectralField, u_eps: SpectralField,
                    phi: SpectralField, params: ModelParams):
    """Inverse of :func:`rescale_to_slow` (same factors, applied inversely);
    kept as the tests' oracle for the rescaling round trip."""
    n = SpectralField.from_physical(rho.grid, enthalpy_n(rho.to_physical()[0], params)[None])
    u = params.eps * u_eps
    zero = (0,) + (0,) * rho.grid.d
    psi = phi.copy()
    psi.coef[zero] -= params.phi_bar
    return HpcState(tau / params.eps, n, u, psi, params)


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
            if len(vals) >= 3 and np.all(vals > 0):
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
    state = HpcState(0.0, n0, params.eps * u_star, SpectralField.zeros(grid, 1), params)
    state.psi = equilibrium_psi(state.n, params)
    return state


def _dt_psi_field(state: HpcState, n_phys: np.ndarray, pert: np.ndarray) -> SpectralField:
    """dt psi from the equation (used for the concentration residual norms);
    ``n_phys`` is the snapshot's n in physical space and ``pert`` its
    density perturbation."""
    p = state.params
    h_field = SpectralField.from_physical(state.grid, coefficient_H(n_phys, p, pert)[None],
                                          dealiased=True)
    return laplacian(state.psi) - p.b * state.psi + p.c1 * state.n + h_field


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

    Before any run, the eps must be distinct and each must give valid
    parameters and a threshold J_eps, ``dt_fast`` must be positive and finite,
    and with ``high_freq_budget`` every member's threshold mode must lie in the
    grid's dealiased band (ValueError otherwise).  A member or limit-model run that
    does not complete raises :class:`RunFailed` with its status ("blowup" or
    "mass_drift").  Members run one after another: ``threads`` must be 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (members run serially), got {threads!r}")
    if not (0 < dt_fast < math.inf):
        raise ValueError(f"dt_fast must be positive and finite, got {dt_fast!r}")
    if len(set(eps_list)) < len(eps_list):   # the slope fit needs distinct log(eps)
        raise ValueError(f"eps_list repeats a value: {list(eps_list)}")

    eps_list = sorted(eps_list, reverse=True)
    for eps in eps_list:   # every member's eps, threshold and threshold mode
        member = replace(base_params, eps=eps)
        if high_freq_budget is None:
            member.threshold()
        else:
            threshold_mode(grid, member)
    dec = grid.decomposition
    d_half = grid.d / 2.0

    # refine the shared grid so tau ~ eps_min^2 layers survive the trapezoids
    eps_min = min(eps_list)
    refine = max(1, math.ceil(snap_dtau / (0.5 * eps_min ** 2)))
    fine_dtau = snap_dtau / refine
    ks_cfg = SolverConfig(dt=fine_dtau / 2.0, t_end=tau_end, snap_dt=fine_dtau)
    taus = fine_dtau * np.arange(ks_cfg.schedule()[1] + 1)

    # shared limit-model trajectory (eps plays no role in it)
    ks_params = replace(base_params, eps=eps_min)
    rho_f0 = SpectralField.from_physical(grid, rho0_phys[None], dealiased=True)
    ks_traj = ks_run(KsState(0.0, rho_f0, ks_params), ks_cfg)
    _require_completed(ks_traj, "limit-model run")

    ks_rho, ks_u, ks_phi = [], [], []
    for s in ks_traj.states:
        phi = solve_phi(s.rho, s.params)
        ks_rho.append(s.rho)
        ks_phi.append(phi)
        ks_u.append(reconstruct_velocity(s.rho, phi, s.params))

    report = RelaxationReport(eps_list=list(eps_list), sup_drho=[], int_drho_high=[],
                              int_du=[], int_dphi=[], int_rho_v=[], int_dtphi=[])

    def run_member(eps: float):
        params = replace(base_params, eps=eps)
        member_rho0 = rho0_phys.copy()
        if rho_offset_phys is not None:
            member_rho0 = member_rho0 + eps * rho_offset_phys
        if high_freq_budget is not None:
            member_rho0 = member_rho0 + rough_mode_profile(grid, params, high_freq_budget)
        initial = _hpc_member_initial(grid, params, member_rho0)
        # land snapshots exactly on the shared slow grid
        t_snap = fine_dtau / eps
        substeps = max(1, math.ceil(t_snap / dt_fast))
        cfg = SolverConfig(dt=t_snap / substeps, t_end=tau_end / eps, snap_dt=t_snap)
        traj = run(initial, cfg)
        _require_completed(traj, f"relaxation member eps={eps}")

        sup_drho = 0.0
        drho_high, du_norm, dphi_norm, rhov_norm, dtphi_norm = [], [], [], [], []
        for k, s in enumerate(traj.states):
            n_phys = s.n.to_physical()[0]   # one inverse transform of n per snapshot
            pert = density_perturbation(n_phys, params)   # and one density perturbation
            rho_phys = params.rho_bar + pert
            _, rho_eps, u_eps, phi_eps = rescale_to_slow(s, eps, rho_phys)
            drho = rho_eps - ks_rho[k]
            du = u_eps - ks_u[k]
            dphi = phi_eps - ks_phi[k]
            sup_drho = max(sup_drho, dec.besov_norm(drho, d_half - 1.0))
            drho_high.append(dec.besov_norm(drho, d_half + 1.0))
            du_norm.append(dec.besov_norm(du, d_half))
            dphi_norm.append(dec.besov_norm(dphi, d_half + 1.0)
                             + dec.besov_norm(dphi, d_half + 2.0))
            # residuals, evaluated in slow variables
            modes_v = s.u + eps * gradient(s.n) - (eps * params.mu) * gradient(s.psi)
            rho_v = SpectralField.from_physical(
                grid, rho_phys[None] * modes_v.to_physical() / eps, dealiased=True)
            rhov_norm.append(dec.besov_norm(rho_v, d_half))
            dtphi_norm.append(dec.besov_norm(_dt_psi_field(s, n_phys, pert), d_half) / eps)
        return dict(
            sup_drho=sup_drho,
            int_drho_high=float(np.trapezoid(drho_high, taus)),
            int_du=float(np.trapezoid(du_norm, taus)),
            int_dphi=float(np.trapezoid(dphi_norm, taus)),
            int_rho_v=float(np.trapezoid(rhov_norm, taus)),
            int_dtphi=eps * float(np.trapezoid(dtphi_norm, taus)),
        )

    for eps in eps_list:
        for key, value in run_member(eps).items():
            getattr(report, key).append(value)
    report.fit_slopes()
    return report
