#!/usr/bin/env python3
"""Nonlinear small-data run on the torus: boundedness and damped modes.

Starts a well-prepared bump with hybrid energy X0 = 0.01 and integrates to
T = 50.  Along the flow the script tracks

  * total mass of rho (conserved: the density equation is a divergence),
  * the hybrid aggregate ||.||^l_{B^{1/2}} + eps ||.||^h_{B^{3/2}} (stays
    below a fixed multiple of X0 under a positive stability margin),
  * the damped modes v = u + eps grad n - eps mu grad psi and
    phi_eff = psi - (b - Lap)^{-1}(c1 n + H(n)), whose time-integrated
    low-frequency norms stay comparable to X0 uniformly in eps.

Run:  python3 demos/03_nonlinear_torus_run.py
"""

import numpy as np

from chemorelax.diagnostics import damped_mode_decay_check
from chemorelax.hpc_solver import SolverConfig, build_initial_data, gaussian_bump, run
from chemorelax.model import ModelParams, PressureLaw
from chemorelax.spectral import make_grid

params = ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                     pressure=PressureLaw(kappa=1.0, gamma=2.0), j_offset=0)
grid = make_grid(1, 128, 2 * np.pi)

state, parts = build_initial_data(grid, params, n_profile=gaussian_bump(grid, width=0.5),
                                  target_x0=0.01)
print(f"initial hybrid energy: low {parts['low']:.3e} + eps*high {parts['eps_high']:.3e}")

traj = run(state, SolverConfig(dt=0.02, t_end=50.0, snap_dt=1.0))
print(f"run status: {traj.status}, {len(traj.states)} snapshots")

t = traj.series.columns["t"]
agg = traj.series.columns["x_aggregate"]
mass = traj.series.columns["mass"]
print(f"mass drift (relative, whole run): {abs(mass[-1] - mass[0]) / mass[0]:.2e}")
print(f"max aggregate / X0: {agg.max() / agg[0]:.4f}")
print("aggregate samples:")
for i in range(0, len(t), len(t) // 8):
    print(f"  t = {t[i]:5.1f}   X = {agg[i]:.4e}")

check = damped_mode_decay_check(traj)
print(f"\n(1/eps) int ||v||^l dt      = {check['int_v_over_eps']:.3e}")
print(f"int ||phi_eff||^l dt        = {check['int_phi_eff']:.3e}")
print(f"both below 20 X0 = {check['bound']:.3e}: {check['ok']}")
