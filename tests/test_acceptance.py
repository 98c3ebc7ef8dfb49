"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Shared expensive artifacts (the bounded small-data trajectory, the relaxation
sweep) are session fixtures so the whole suite stays inside the stated
runtime budgets.  Tolerances are the declared ones; none are recalibrated
here.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from chemorelax.diagnostics import lyapunov_equivalence_check, relaxation_sweep
from chemorelax.hpc_solver import (
    PropagatorTables,
    SolverConfig,
    build_initial_data,
    gaussian_bump,
    nonlinear_rhs,
    run,
    step,
)
from chemorelax.ks_solver import KsState, KsTables, ks_run, ks_step
from chemorelax.linear_analysis import (
    eigenvalues,
    highfreq_asymptotic_check,
    lowfreq_asymptotic_check,
    semigroup_decay_study,
    stability_scan,
    symbol_matrix,
)
from chemorelax.model import ModelParams, PressureLaw, coefficient_H
from chemorelax.spectral import (
    SpectralField,
    dealias,
    gradient,
    make_decomposition,
    make_grid,
)
from norms import hybrid_norm, l2_norm, l2_norm_physical
from test_golden import GOLDEN, mismatches


def report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} ({elapsed:6.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget"


def gamma2_params(eps, j_offset=0, **kw):
    return ModelParams(eps=eps, mu=kw.pop("mu", 1.0), a=kw.pop("a", 1.0),
                       b=kw.pop("b", 1.0), rho_bar=1.0,
                       pressure=PressureLaw(kappa=kw.pop("kappa", 1.0), gamma=2.0),
                       j_offset=j_offset)


def normalized_params(eps, b=1.0, c1mu=0.5):
    """c0 = 1 via the isothermal law; c1 = a, so c1 mu = a for mu = 1."""
    return ModelParams(eps=eps, mu=1.0, a=c1mu, b=b, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=1.0))


# -- shared expensive artifacts --------------------------------------------------

@pytest.fixture(scope="session")
def bounded_trajectory():
    """Criterion-8 run: 1D torus, X0 = 0.01, margin 1, T = 50.

    eps = 0.25 and k = 0 keep the Lyapunov equivalence constants inside the
    declared tolerance window (the constants degrade like 4^{-k} for negative
    k, tracking the lemma's 2^{-j} <~ eps hypothesis).
    """
    params = gamma2_params(eps=0.25, j_offset=0)
    grid = make_grid(1, 128, 2 * np.pi)
    state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                  target_x0=0.01)
    t0 = time.perf_counter()
    traj = run(state, SolverConfig(dt=0.02, t_end=50.0, snap_dt=0.5))
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="session")
def relaxation_report():
    """Criterion-10 sweep: 1D, gamma = 2, well-prepared, eps in {0.2, 0.1, 0.05}.

    The members seed the admissible O(eps) data discrepancy and fill the
    high-frequency energy budget uniformly in eps; both are part of the
    theorem's data class and are required to saturate the claimed rates.
    """
    grid = make_grid(1, 128, 2 * np.pi)
    params = gamma2_params(eps=0.2, j_offset=0)
    rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
    offset = 0.02 * gaussian_bump(grid, width=0.6, center=[2 * np.pi / 3])
    t0 = time.perf_counter()
    rep = relaxation_sweep(grid, params, rho0, [0.2, 0.1, 0.05], tau_end=2.0,
                           snap_dtau=0.05, dt_fast=0.01,
                           rho_offset_phys=offset, high_freq_budget=0.01)
    return rep, time.perf_counter() - t0


# -- criteria ---------------------------------------------------------------------

def test_criterion_01_spectral_exactness_at_zero():
    t0 = time.perf_counter()
    worst = 0.0
    for eps in (1.0, 0.1, 0.01):
        for b in (0.5, 1.0, 2.0):
            p = normalized_params(eps=eps, b=b)
            lam, _ = eigenvalues(0.0, p)
            got = np.sort(lam.real)
            want = np.sort([0.0, -1.0 / eps, -b])
            worst = max(worst, float(np.max(np.abs(got - want))),
                        float(np.max(np.abs(lam.imag))))
    report(1, worst <= 1e-12, f"max |lambda - exact| = {worst:.2e} (tol 1e-12)",
           time.perf_counter() - t0, 1.0)


def test_criterion_02_lowfreq_asymptotics():
    t0 = time.perf_counter()
    p = gamma2_params(eps=0.1)
    worst = {}
    for target, tol in ((1e-2, 0.05), (1e-3, 0.005)):
        table = lowfreq_asymptotic_check(p, [target / p.eps])
        gaps = [abs(table[k][0] - 1.0) for k in ("ratio1", "ratio2", "ratio3")]
        worst[target] = (max(gaps), tol)
    ok = all(g <= tol for g, tol in worst.values())
    detail = ", ".join(f"eps|xi|={t:g}: gap {g:.2e} (tol {tol})"
                       for t, (g, tol) in worst.items())
    report(2, ok, detail, time.perf_counter() - t0, 1.0)


def test_criterion_03_highfreq_asymptotics():
    t0 = time.perf_counter()
    p = gamma2_params(eps=0.1)
    table = highfreq_asymptotic_check(p, [100.0 / p.eps])
    gap_re = abs(table["ratio_re1"][0] - 1.0)
    gap_l3 = abs(table["ratio3"][0] - 1.0)
    ok = gap_re <= 0.05 and gap_l3 <= 0.05
    report(3, ok, f"Re lam1 * 2eps gap {gap_re:.2e}, lam3 gap {gap_l3:.2e} (tol 5%)",
           time.perf_counter() - t0, 1.0)


def test_criterion_04_stability_dichotomy():
    t0 = time.perf_counter()
    worst_stable = -np.inf
    for p, margin in ((normalized_params(eps=0.1, c1mu=0.9), 0.1),
                      (gamma2_params(eps=0.1), 1.0)):
        assert np.isclose(p.stability_margin, margin)
        worst, _ = stability_scan(p, xi_max=50.0, samples=1000)
        worst_stable = max(worst_stable, worst)
    p_unstable = normalized_params(eps=0.5, c1mu=1.5)  # c1 mu - b = 0.5, c0 = 1
    grow, _ = stability_scan(p_unstable, xi_max=0.8, samples=1000)
    ok = worst_stable <= 1e-12 and grow >= 0.01
    report(4, ok, f"stable max Re = {worst_stable:.2e} (tol 1e-12); "
                  f"unstable max root = {grow:.3f} (need >= 0.01)",
           time.perf_counter() - t0, 5.0)


def test_criterion_05_linear_decay_law():
    t0 = time.perf_counter()
    gaps = {}
    for d in (1, 2):
        p = gamma2_params(eps=0.1)
        res = semigroup_decay_study(p, sigma0=-d / 2.0, sigma=d / 2.0, d=d)
        target = -d / 2.0
        gaps[d] = abs((res.slope_triple - target) / target)
    ok = all(g <= 0.10 for g in gaps.values())
    report(5, ok, f"slope gaps: d=1 {gaps[1]:.3f}, d=2 {gaps[2]:.3f} (tol 10%)",
           time.perf_counter() - t0, 120.0)


def test_criterion_06_damped_combination_decay():
    t0 = time.perf_counter()
    p = gamma2_params(eps=0.5)
    res = semigroup_decay_study(p, sigma0=-1.0, sigma=0.0, d=2)
    # the damped-pair norm of the decay theorem: ||u|| + ||b psi - c1 n||
    gap = abs((res.slope_damped - (-1.0)) / 1.0)
    steeper = res.slope_damped < res.slope_triple  # triple at sigma = sigma0 + 1 decays at -1/2
    base_ok = abs(res.slope_triple - (-0.5)) <= 0.15
    phitilde_ok = res.slope_phitilde <= res.slope_damped + 0.05
    ok = gap <= 0.15 and steeper and base_ok and phitilde_ok
    report(6, ok, f"damped slope {res.slope_damped:.3f} (target -1, tol 15%); "
                  f"base {res.slope_triple:.3f} (~-0.5); "
                  f"concentration combination alone {res.slope_phitilde:.3f}",
           time.perf_counter() - t0, 120.0)


def test_criterion_07_solver_correctness(bounded_trajectory):
    t0 = time.perf_counter()
    grid = make_grid(1, 128, 2 * np.pi)
    params = gamma2_params(eps=0.25)

    # (a) dt self-convergence, both solvers
    state, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                  target_x0=0.05)

    def advance_hpc(dt):
        tab = PropagatorTables(grid, params, dt)
        cur, target = state, state.mass_perturbation()
        for _ in range(round(1.0 / dt)):
            cur = step(cur, tab, target, nonlinear_rhs(cur))
        return cur

    sols = {dt: advance_hpc(dt) for dt in (0.1, 0.05, 0.0125)}

    def dist(x, y):
        return max(np.max(np.abs(x.n.coef - y.n.coef)), np.max(np.abs(x.u.coef - y.u.coef)),
                   np.max(np.abs(x.psi.coef - y.psi.coef)))

    order_hpc = np.log2(dist(sols[0.1], sols[0.0125]) / dist(sols[0.05], sols[0.0125]))

    rho0 = params.rho_bar + 0.08 * gaussian_bump(grid, width=0.6)
    ks0 = KsState(0.0, dealias(SpectralField.from_physical(grid, rho0[None])), params)

    def advance_ks(dt):
        tables = KsTables(grid, params, dt)
        cur = ks0
        for _ in range(round(1.0 / dt)):
            cur = ks_step(cur, tables)
        return cur

    ks_sols = {dt: advance_ks(dt) for dt in (0.1, 0.05, 0.0125)}
    e1 = np.max(np.abs(ks_sols[0.1].rho.coef - ks_sols[0.0125].rho.coef))
    e2 = np.max(np.abs(ks_sols[0.05].rho.coef - ks_sols[0.0125].rho.coef))
    order_ks = np.log2(e1 / e2)
    ok_a = 1.5 <= order_hpc <= 2.5 and 1.5 <= order_ks <= 2.5

    # (b) mass drift on the criterion-8 trajectory and a KS run
    traj, _ = bounded_trajectory
    mass = traj.series.columns["mass"]
    drift_hpc = np.max(np.abs(mass - mass[0])) / abs(mass[0]) / 50.0
    ks_traj = ks_run(ks0, SolverConfig(dt=0.02, t_end=2.0, snap_dt=0.5))
    ks_mass = ks_traj.series.columns["mass"]
    drift_ks = np.max(np.abs(ks_mass - ks_mass[0])) / abs(ks_mass[0]) / 2.0
    ok_b = drift_hpc <= 1e-10 and drift_ks <= 1e-10

    # (c) linear-regime per-mode fidelity vs the exact propagator
    tiny, _ = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                 target_x0=1e-10)
    T = 0.5
    out = run(tiny, SolverConfig(dt=0.01, t_end=T, snap_dt=T)).final
    scale = np.max(np.abs(tiny.n.coef))
    worst_c = 0.0
    for idx in range(grid.spec_shape[0]):
        xi = float(grid.xi_mag_diff[idx])
        xi_v = grid.xi_diff[0, idx]
        em = scipy.linalg.expm(T * symbol_matrix(xi, params))
        mhat = 1j * xi_v * tiny.u.coef[0, idx] / xi if xi > 0 else 0.0
        y = em @ np.array([tiny.n.coef[0, idx], mhat, tiny.psi.coef[0, idx]])
        u_ref = (-1j * (xi_v / xi) * y[1] if xi > 0
                 else np.exp(-T / params.eps) * tiny.u.coef[0, idx])
        worst_c = max(worst_c, abs(out.n.coef[0, idx] - y[0]),
                      abs(out.psi.coef[0, idx] - y[2]), abs(out.u.coef[0, idx] - u_ref))
    ok_c = worst_c <= 1e-10 * scale

    # (d) H == 0 at machine precision for the quadratic law
    n_samples = np.linspace(-0.9, 1.9, 1001)
    h_worst = float(np.max(np.abs(coefficient_H(n_samples, params))))
    ok_d = h_worst <= 1e-14

    ok = ok_a and ok_b and ok_c and ok_d
    report(7, ok, f"(a) orders {order_hpc:.2f}/{order_ks:.2f} (2.0 +/- 0.5); "
                  f"(b) mass drift {drift_hpc:.1e}/{drift_ks:.1e} (tol 1e-10); "
                  f"(c) fidelity {worst_c / scale:.1e} (tol 1e-10); "
                  f"(d) max|H| = {h_worst:.1e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_08_global_bound_proxy(bounded_trajectory):
    t0 = time.perf_counter()
    traj, run_time = bounded_trajectory
    agg = traj.series.columns["x_aggregate"]
    x0 = agg[0]
    ok = traj.status == "completed" and np.max(agg) <= 10.0 * x0
    report(8, ok, f"max aggregate / X0 = {np.max(agg) / x0:.3f} (tol 10); "
                  f"margin 1, X0 = {x0:.3g}, T = 50",
           time.perf_counter() - t0 + run_time, 120.0)


def test_criterion_09_lyapunov_equivalence(bounded_trajectory):
    t0 = time.perf_counter()
    traj, _ = bounded_trajectory
    rep = lyapunov_equivalence_check(traj, eta0=0.1, c_tol=10.0)
    r1 = [row[4] for row in rep.rows]
    r2 = [row[5] for row in rep.rows]
    ok = rep.ok and len(rep.rows) > 0
    report(9, ok, f"{len(rep.rows)} block checks, {len(rep.violations)} violations; "
                  f"ratio1 in [{min(r1):.3f}, {max(r1):.3f}] (tol [0.1, 10]); "
                  f"min eps H/L = {min(r2):.3f} (tol >= 0.1)",
           time.perf_counter() - t0, 120.0)


def test_criterion_10_relaxation_rate(relaxation_report):
    t0 = time.perf_counter()
    rep, sweep_time = relaxation_report
    s_rho = rep.slopes["sup_drho"]
    s_u = rep.slopes["int_du"]
    ok = 0.8 <= s_rho <= 1.2 and 0.8 <= s_u <= 1.2
    report(10, ok, f"slopes: sup drho {s_rho:.3f}, int du {s_u:.3f} (window [0.8, 1.2])",
           time.perf_counter() - t0 + sweep_time, 600.0)


def test_criterion_11_residual_smallness(relaxation_report):
    t0 = time.perf_counter()
    rep, _ = relaxation_report
    spread_rhov = rep.slopes["int_rho_v_over_eps_spread"]
    spread_dtphi = rep.slopes["int_dtphi_over_eps_spread"]
    ok = spread_rhov <= 2.0 and spread_dtphi <= 2.0
    report(11, ok, f"momentum residual /eps spread {spread_rhov:.2f}, "
                   f"concentration residual /eps spread {spread_dtphi:.2f} (tol 2)",
           time.perf_counter() - t0, 600.0)


# Fitted slopes of the criterion-10 sweep, recorded from the per-ring block-norm
# code; refactors of the norms or the solvers must not move them.
PINNED_SLOPES = {"sup_drho": 0.950430995992729, "int_du": 0.959036305596736}
PINNED_RTOL = 1e-9


def test_relaxation_slopes_pinned(relaxation_report):
    rep, _ = relaxation_report
    for name, value in PINNED_SLOPES.items():
        assert abs(rep.slopes[name] - value) <= PINNED_RTOL * abs(value), \
            f"slope {name} = {rep.slopes[name]!r}, pinned {value!r} (rtol {PINNED_RTOL:g})"


def test_relaxation_report_matches_golden(relaxation_report, tmp_path):
    """The fixture has the inputs of configs/relaxation_sweep.json, so its
    report stands for that config's relaxation.csv and relaxation.json."""
    rep, _ = relaxation_report
    rep.to_csv(tmp_path / "relaxation.csv")
    rep.to_json(tmp_path / "relaxation.json")
    files = {name: (tmp_path / name).read_text() for name in ("relaxation.csv", "relaxation.json")}
    found = mismatches(files, GOLDEN / "relaxation_sweep")
    assert not found, "relaxation sweep differs from tests/golden/relaxation_sweep:\n" \
                      + "\n".join(found)


# The criterion-10 data on a 2D N=64 grid (the smallest whose dealiased band
# holds the eps = 0.05 threshold mode) at tau_end = 0.2, the offset bump
# centred at (2 pi/3, 2 pi/3): the relaxation rate beyond d = 1, pinned like
# the 1D slopes so that it also guards the d >= 2 solver path.
PINNED_SLOPES_2D = {"sup_drho": 0.8922167965937114, "int_du": 0.9041341406805071}


def test_relaxation_slopes_pinned_2d():
    grid = make_grid(2, 64, 2 * np.pi)
    params = gamma2_params(eps=0.2, j_offset=0)
    rho0 = params.rho_bar + 0.02 * gaussian_bump(grid, width=0.8)
    offset = 0.02 * gaussian_bump(grid, width=0.6, center=[2 * np.pi / 3] * 2)
    rep = relaxation_sweep(grid, params, rho0, [0.2, 0.1, 0.05], tau_end=0.2,
                           snap_dtau=0.05, dt_fast=0.01,
                           rho_offset_phys=offset, high_freq_budget=0.01)
    for name, value in PINNED_SLOPES_2D.items():
        assert 0.8 <= rep.slopes[name] <= 1.2
        assert abs(rep.slopes[name] - value) <= PINNED_RTOL * abs(value), \
            f"2D slope {name} = {rep.slopes[name]!r}, pinned {value!r} (rtol {PINNED_RTOL:g})"


def test_criterion_12_spectral_core_properties(rng):
    t0 = time.perf_counter()
    grid = make_grid(1, 128, 2 * np.pi)
    dec = make_decomposition(grid)

    # partition of unity on a random field
    f = SpectralField.from_physical(grid, rng.standard_normal((1,) + grid.shape))
    total = SpectralField.zeros(grid, 1)
    for j in range(dec.j_min - 2, dec.j_max + 3):
        total = total + dec.block(f, j)
    target = f.coef.copy()
    target[0, 0] = 0.0
    part_err = float(np.max(np.abs(total.coef - target)) / np.max(np.abs(target)))

    # Parseval
    pars_err = abs(l2_norm(f) - l2_norm_physical(f)) / l2_norm(f)

    # Bernstein ratio on single blocks
    bern_ok = True
    for j in dec.active_js():
        fj = dec.block(f, j)
        base = l2_norm(fj)
        if base < 1e-12:
            continue
        ratio = l2_norm(gradient(fj)) / base
        if not (0.75 * 2.0 ** j * (1 - 1e-9) <= ratio <= 8 / 3 * 2.0 ** j * (1 + 1e-9)):
            bern_ok = False

    # hybrid low-frequency inequality on 100 random fields
    lh_ok = True
    for _ in range(100):
        g = dealias(SpectralField.from_physical(grid, rng.standard_normal((1,) + grid.shape)))
        J = int(rng.integers(dec.j_min, dec.j_max))
        s = float(rng.uniform(-1.5, 1.5))
        sp = float(rng.uniform(0.1, 2.0))
        low_s, _ = hybrid_norm(dec, g, s, s, J)
        low_less, _ = hybrid_norm(dec, g, s - sp, s - sp, J)
        if low_s > 2.0 ** (J * sp) * low_less * (1 + 1e-12):
            lh_ok = False

    ok = part_err <= 1e-10 and pars_err <= 1e-12 and bern_ok and lh_ok
    report(12, ok, f"partition {part_err:.1e} (tol 1e-10); Parseval {pars_err:.1e} "
                   f"(tol 1e-12); Bernstein {'ok' if bern_ok else 'FAIL'}; "
                   f"low-freq inequality on 100 fields {'ok' if lh_ok else 'FAIL'}",
           time.perf_counter() - t0, 30.0)
