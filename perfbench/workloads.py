"""The benchmark's workloads: seeded inputs and the public calls that run them.

Each workload starts from a config file of the repository, makes the inputs
for one seed, and drives the package through the same public calls its CLI
subcommand makes (``simulate-hpc`` or ``relaxation-sweep``), writing the same
files.  Seed 0 reproduces the config's inputs exactly; any other seed
translates the initial bump(s) on the torus by a seed-drawn offset, which
leaves every translation-invariant output unchanged up to sampling error.

Module attributes of the package are looked up at call time (``hpc_solver.run``,
not a name bound at import), so a tracer installed after import sees every call.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("hpc_1d", "hpc_2d", "relax_sweep")
DEFAULT_SEED = 0

# Where each code under test is imported from, relative to the checkout root.
# ``seed`` is a frozen copy of the package as the benchmark was defined; run.py
# times it next to the program as a yardstick of the host's current speed.
CODE_DIRS = {"program": "src", "seed": "perfbench/seedcode"}


def code_dir(root: Path, code: str) -> Path:
    return root / CODE_DIRS[code]


def _read_config(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as fh:
        return json.load(fh)


def workload_config(root: Path, workload: str) -> dict:
    """The config a workload runs, derived from the repository's config files."""
    if workload == "hpc_1d":
        return _read_config(root, "simulate_hpc.json")
    if workload == "hpc_2d":
        cfg = _read_config(root, "simulate_hpc.json")
        cfg["grid"].update(d=2, N=128)
        cfg["solver"].update(dt=0.01, t_end=1.0, snap_dt=0.5)
        return cfg
    if workload == "relax_sweep":
        cfg = _read_config(root, "relaxation_sweep.json")
        cfg["experiment"]["tau_end"] = 0.2
        return cfg
    raise ValueError(f"unknown workload: {workload}")


def seed_offset(seed: int, L: float, d: int) -> np.ndarray:
    """Translation of the initial bump(s): zero for the default seed."""
    if seed == DEFAULT_SEED:
        return np.zeros(d)
    return np.random.default_rng(seed).uniform(0.0, L, size=d)


def planned_steps(workload: str, cfg: dict) -> dict:
    """Steps the workload's solvers are planned to take, by solver.

    Mirrors the step arithmetic of ``hpc_solver.run`` and ``relaxation_sweep``;
    CFL halvings come on top and are counted by the trace.
    """
    if workload in ("hpc_1d", "hpc_2d"):
        s = cfg["solver"]
        per_snap = max(1, round(s["snap_dt"] / s["dt"]))
        return {"hpc": per_snap * max(1, round(s["t_end"] / (per_snap * s["dt"]))), "ks": 0}
    e = cfg["experiment"]
    eps_min = min(e["eps_list"])
    fine = e["snap_dtau"] / max(1, math.ceil(e["snap_dtau"] / (0.5 * eps_min ** 2)))
    n_snaps = len(np.arange(0.0, e["tau_end"] + 1e-12, fine)) - 1
    hpc = sum(n_snaps * max(1, math.ceil(fine / eps / e["dt_fast"])) for eps in e["eps_list"])
    return {"hpc": hpc, "ks": 2 * n_snaps}


def planned_snapshots(workload: str, cfg: dict) -> int:
    """Snapshots an HPC run keeps (initial state included); 0 for the sweep."""
    if workload == "relax_sweep":
        return 0
    s = cfg["solver"]
    per_snap = max(1, round(s["snap_dt"] / s["dt"]))
    return 1 + max(1, round(s["t_end"] / (per_snap * s["dt"])))


def run_workload(workload: str, cfg: dict, seed: int, out: Path, marks: dict) -> str:
    """Run one workload into ``out``; returns the run status.

    ``marks["integration_end"]`` and ``marks["cpu_integration_end"]`` are set
    when the solvers return, before any output is written (see ``mark``).
    """
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "config": cfg}, fh, indent=2)
    if workload == "relax_sweep":
        return _run_sweep(cfg, seed, out, marks)
    return _run_hpc(cfg, seed, out, marks)


def _run_hpc(cfg: dict, seed: int, out: Path, marks: dict) -> str:
    from chemorelax import hpc_solver, model, spectral

    params = model.params_from_config(cfg["model"])
    g = cfg["grid"]
    grid = spectral.make_grid(int(g["d"]), int(g["N"]), float(g["L"]))
    s = cfg["solver"]
    solver_cfg = hpc_solver.SolverConfig(dt=float(s["dt"]), t_end=float(s["t_end"]),
                                         snap_dt=s["snap_dt"], dealias=bool(s["dealias"]))
    init = cfg["initial"]
    center = (grid.L / 2.0 + seed_offset(seed, grid.L, grid.d)) % grid.L
    n_prof = hpc_solver.gaussian_bump(grid, width=float(init["width"]), center=list(center))
    state, _ = hpc_solver.build_initial_data(grid, params, n_profile=n_prof,
                                             target_x0=float(init["target_x0"]))
    traj = hpc_solver.run(state, solver_cfg)
    mark(marks, "integration_end")

    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    for i, st in enumerate(traj.states):
        spectral.save_field(snap_dir / f"n_{i:04d}.npz", st.n)
        spectral.save_field(snap_dir / f"u_{i:04d}.npz", st.u)
        spectral.save_field(snap_dir / f"psi_{i:04d}.npz", st.psi)
    traj.series.to_csv(out / "series.csv")
    _write_summary(out, {"status": traj.status, "message": traj.message,
                         "snapshots": len(traj.states)})
    return traj.status


def _run_sweep(cfg: dict, seed: int, out: Path, marks: dict) -> str:
    from chemorelax import diagnostics, hpc_solver, model, spectral

    params = model.params_from_config(cfg["model"])
    g = cfg["grid"]
    grid = spectral.make_grid(int(g["d"]), int(g["N"]), float(g["L"]))
    e = cfg["experiment"]
    shift = seed_offset(seed, grid.L, grid.d)
    rho0 = params.rho_bar + float(e["amplitude"]) * hpc_solver.gaussian_bump(
        grid, width=float(e["width"]), center=list((grid.L / 2.0 + shift) % grid.L))
    offset = float(e["offset_amplitude"]) * hpc_solver.gaussian_bump(
        grid, width=float(e["offset_width"]), center=list((grid.L / 3.0 + shift) % grid.L))
    report = diagnostics.relaxation_sweep(
        grid, params, rho0, [float(x) for x in e["eps_list"]],
        tau_end=float(e["tau_end"]), snap_dtau=float(e["snap_dtau"]),
        dt_fast=float(e["dt_fast"]), rho_offset_phys=offset,
        high_freq_budget=float(e["high_freq_budget"]), threads=1)
    mark(marks, "integration_end")

    report.to_csv(out / "relaxation.csv")
    report.to_json(out / "relaxation.json")
    lo, hi = e["slope_window"]
    inside = all(lo <= report.slopes.get(k, math.nan) <= hi for k in ("sup_drho", "int_du"))
    status = "completed" if inside else "slope_outside_window"
    _write_summary(out, {"status": status, "eps_list": list(report.eps_list),
                         "slopes": report.slopes})
    return status


def _write_summary(out: Path, payload: dict) -> None:
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def now() -> float:
    """System-wide monotonic clock, comparable between the benchmark's processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def mark(marks: dict, name: str) -> None:
    """Record the moment ``name`` on the monotonic clock and, as ``cpu_<name>``,
    the CPU time this process has used since it started."""
    marks[name] = now()
    marks[f"cpu_{name}"] = time.process_time()
