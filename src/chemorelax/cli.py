"""Batch front door: parse a config file, dispatch one experiment, emit reports.

Every subcommand reads a single JSON config, writes manifest.json into the
output directory before doing any work, then emits CSV tables plus a
machine-readable summary.json.  Exit codes double as a CI harness: 0 on
success, 1 when a declared contract fails (blow-up, mass drift, slope outside
window, Lyapunov violations), 2 on configuration errors, whose summary.json
has status "config_error" and the message.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    """The config: a JSON object whose every entry is a block, itself an object."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {json.dumps(cfg)}")
    for name, block in cfg.items():
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name} must be a JSON object, "
                              f"got {json.dumps(block)}")
    return cfg


def _get(cfg: dict, dotted: str, default=None, required: bool = False):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config key: {dotted}")
            return default
        node = node[part]
    return node


def _model_params(cfg: dict):
    from .model import params_from_config
    block = _get(cfg, "model", required=True)
    try:
        return params_from_config(block)
    except KeyError as exc:
        raise ConfigError(f"model block: {exc.args[0]}")
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}")


def _grid(cfg: dict):
    from .spectral import make_grid
    block = _get(cfg, "grid", required=True)
    for key in ("d", "N", "L"):
        if key not in block:
            raise ConfigError(f"missing config key: grid.{key}")
    try:
        return make_grid(int(block["d"]), int(block["N"]), float(block["L"]))
    except ValueError as exc:
        raise ConfigError(f"grid block: {exc}")


def _solver_config(cfg: dict):
    from .driver import SolverConfig
    block = _get(cfg, "solver", default={})
    unknown = sorted(set(block) - {"dt", "t_end", "snap_dt", "dealias"})
    if unknown:
        raise ConfigError(f"solver block: unknown keys {unknown}; "
                          f"the keys are dt, t_end, snap_dt and dealias")
    snap_dt = block.get("snap_dt")
    try:
        return SolverConfig(
            dt=float(block.get("dt", 0.01)),
            t_end=float(block.get("t_end", 10.0)),
            snap_dt=None if snap_dt is None else float(snap_dt),
            dealias=block.get("dealias", True),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver block: {exc}")


def _write_manifest(out: Path, cfg: dict, args) -> None:
    from . import __version__
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config_path": str(args.config),
        "config": cfg,
        "seed": args.seed,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_summary(out: Path, payload: dict) -> None:
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def _initial_state(cfg: dict, grid, params, rng):
    from .hpc_solver import build_initial_data, gaussian_bump, mode_bump
    block = _get(cfg, "initial", default={})
    kind = block.get("profile", "gaussian")
    if kind == "gaussian":
        n_prof = gaussian_bump(grid, width=float(block.get("width", 0.5)))
    elif kind == "modes":
        n_prof = mode_bump(grid, [(m["k"], m.get("amp", 1.0), m.get("phase", 0.0))
                                  for m in block.get("modes", [{"k": [1]}])])
    elif kind == "random":
        n_prof = rng.standard_normal(grid.shape)
        n_prof -= n_prof.mean()
    else:
        raise ConfigError(f"unknown initial.profile: {kind}")
    target = block.get("target_x0", 0.01)
    try:
        return build_initial_data(grid, params, n_profile=n_prof,
                                  target_x0=None if target is None else float(target))
    except ValueError as exc:  # OutsideValidityWindow included
        raise ConfigError(f"initial block: {exc}")


# -- subcommands ---------------------------------------------------------------

def cmd_analyze_symbol(cfg: dict, out: Path, args) -> int:
    from .linear_analysis import (highfreq_asymptotic_check,
                                  lowfreq_asymptotic_check, stability_scan)
    from .model import check_stability
    params = _model_params(cfg)
    xi_max = float(_get(cfg, "experiment.xi_max", 50.0))
    samples = int(_get(cfg, "experiment.samples", 1000))

    worst, rows = stability_scan(params, xi_max, samples)
    with open(out / "spectrum.csv", "w") as fh:
        fh.write("xi,re_lam1,im_lam1,re_lam2,im_lam2,re_lam3,im_lam3\n")
        for xi, l1, l2, l3 in rows:
            fh.write(f"{xi!r},{l1.real!r},{l1.imag!r},{l2.real!r},{l2.imag!r},{l3.real!r},{l3.imag!r}\n")

    stable, margin = check_stability(params)
    summary = {"stable": bool(stable), "margin": margin, "max_re_lambda": worst}
    if not stable:
        band = float(np.sqrt(max(params.c1 * params.mu - params.b, 0.0)))
        summary["unstable_band"] = [0.0, band]

    low_targets = _get(cfg, "experiment.lowfreq_eps_xi", [1e-2, 1e-3])
    high_targets = _get(cfg, "experiment.highfreq_eps_xi", [1e2])
    low = lowfreq_asymptotic_check(params, [t / params.eps for t in low_targets])
    high = highfreq_asymptotic_check(params, [t / params.eps for t in high_targets])
    with open(out / "asymptotics.csv", "w") as fh:
        fh.write("regime,xi,ratio_a,ratio_b,ratio_c\n")
        for i, xi in enumerate(low["xi"]):
            fh.write(f"low,{xi!r},{low['ratio1'][i]!r},{low['ratio2'][i]!r},{low['ratio3'][i]!r}\n")
        for i, xi in enumerate(high["xi"]):
            fh.write(f"high,{xi!r},{high['ratio_re1'][i]!r},{high['ratio_im1'][i]!r},{high['ratio3'][i]!r}\n")
    summary["lowfreq_ratios"] = {k: list(map(float, low[k])) for k in ("ratio1", "ratio2", "ratio3")}
    summary["highfreq_ratios"] = {k: list(map(float, high[k])) for k in ("ratio_re1", "ratio_im1", "ratio3")}
    _write_summary(out, summary)
    verdict = "stable" if stable else "unstable"
    band_note = ""
    if not stable:
        band_note = f" unstable band |xi| in [0, {summary['unstable_band'][1]:.4g})"
    print(f"analyze-symbol: verdict={verdict} margin={margin:.6g} "
          f"max Re lambda={worst:.3e}{band_note}")
    return 0


def cmd_simulate(cfg: dict, out: Path, args, system: str) -> int:
    from .hpc_solver import run
    from .ks_solver import KsState, ks_run
    from .spectral import SpectralField, save_field

    params = _model_params(cfg)
    grid = _grid(cfg)
    solver_cfg = _solver_config(cfg)
    rng = np.random.default_rng(args.seed)

    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    if system == "hpc":
        state, parts = _initial_state(cfg, grid, params, rng)
        traj = run(state, solver_cfg)
        for i, s in enumerate(traj.states):
            save_field(snap_dir / f"n_{i:04d}.npz", s.n)
            save_field(snap_dir / f"u_{i:04d}.npz", s.u)
            save_field(snap_dir / f"psi_{i:04d}.npz", s.psi)
    else:
        from .hpc_solver import gaussian_bump
        amp = float(_get(cfg, "initial.amplitude", 0.01))
        rho0 = params.rho_bar + amp * gaussian_bump(grid, width=float(_get(cfg, "initial.width", 0.5)))
        rho_f = SpectralField.from_physical(grid, rho0[None], dealiased=True)
        traj = ks_run(KsState(0.0, rho_f, params), solver_cfg)
        for i, s in enumerate(traj.states):
            save_field(snap_dir / f"rho_{i:04d}.npz", s.rho)

    traj.series.to_csv(out / "series.csv")
    _write_summary(out, {"status": traj.status, "message": traj.message,
                         "snapshots": len(traj.states)})
    print(f"simulate-{system}: status={traj.status} snapshots={len(traj.states)}")
    if traj.status != "completed":
        print(f"simulate-{system}: {traj.message}", file=sys.stderr)
        return 1
    return 0


def cmd_decay_study(cfg: dict, out: Path, args) -> int:
    from .linear_analysis import semigroup_decay_study
    params = _model_params(cfg)
    d = int(_get(cfg, "experiment.d", 1))
    sigma0 = float(_get(cfg, "experiment.sigma0", -d / 2.0))
    sigma = float(_get(cfg, "experiment.sigma", d / 2.0))
    window = tuple(_get(cfg, "experiment.window", [5.0, 50.0]))
    try:
        res = semigroup_decay_study(params, sigma0, sigma, d=d, window=window)
    except ValueError as exc:
        raise ConfigError(str(exc))

    with open(out / "decay.csv", "w") as fh:
        fh.write("t,norm_triple,norm_damped,norm_phitilde,norm_u,norm_sup0\n")
        for i, t in enumerate(res.times):
            fh.write(",".join(repr(x) for x in (
                t, res.norm_triple[i], res.norm_damped[i], res.norm_phitilde[i],
                res.norm_u[i], res.norm_sup0[i])) + "\n")

    rows = [
        ("triple", res.slope_triple, res.paper_slope),
        ("damped_combination", res.slope_damped, res.paper_slope_damped),
        ("phitilde_alone", res.slope_phitilde, res.paper_slope_damped),
        ("u_alone", res.slope_u, res.paper_slope_damped),
    ]
    with open(out / "slopes.csv", "w") as fh:
        fh.write("d,sigma0,sigma,quantity,fitted_slope,reference_slope,relative_gap\n")
        for name, got, ref in rows:
            gap = abs((got - ref) / ref) if ref != 0 else abs(got)
            fh.write(f"{d},{sigma0!r},{sigma!r},{name},{got!r},{ref!r},{gap!r}\n")
    _write_summary(out, {"d": d, "sigma0": sigma0, "sigma": sigma,
                         "slopes": {name: got for name, got, _ in rows},
                         "reference": {"triple": res.paper_slope,
                                        "damped": res.paper_slope_damped}})
    print(f"decay-study: d={d} sigma0={sigma0} sigma={sigma} "
          f"slope={res.slope_triple:.4f} (reference {res.paper_slope:.3f}) "
          f"damped={res.slope_damped:.4f} (reference {res.paper_slope_damped:.3f})")
    return 0


def cmd_relaxation_sweep(cfg: dict, out: Path, args) -> int:
    from .diagnostics import relaxation_sweep
    from .driver import RunFailed, whole_count
    from .hpc_solver import gaussian_bump

    params = _model_params(cfg)
    grid = _grid(cfg)
    eps_list = _get(cfg, "experiment.eps_list", required=True)
    if len(eps_list) < 3:
        raise ConfigError("experiment.eps_list needs at least 3 values")
    try:
        tau_end = float(_get(cfg, "experiment.tau_end", 2.0))
        snap_dtau = float(_get(cfg, "experiment.snap_dtau", 0.05))
        whole_count(tau_end, snap_dtau, "tau_end")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment block: {exc}")
    amp = float(_get(cfg, "experiment.amplitude", 0.02))
    rho0 = params.rho_bar + amp * gaussian_bump(grid, width=float(_get(cfg, "experiment.width", 0.8)))
    window = _get(cfg, "experiment.slope_window", [0.8, 1.2])

    offset = None
    if _get(cfg, "experiment.offset_amplitude") is not None:
        offset = float(_get(cfg, "experiment.offset_amplitude")) * gaussian_bump(
            grid, width=float(_get(cfg, "experiment.offset_width", 0.6)),
            center=[grid.L / 3.0] * grid.d)
    budget = _get(cfg, "experiment.high_freq_budget")
    try:
        report = relaxation_sweep(
            grid, params, rho0, [float(e) for e in eps_list],
            tau_end=tau_end, snap_dtau=snap_dtau,
            dt_fast=float(_get(cfg, "experiment.dt_fast", 0.01)),
            rho_offset_phys=offset,
            high_freq_budget=None if budget is None else float(budget))
    except ValueError as exc:  # data outside the window or the grid's band
        raise ConfigError(f"experiment block: {exc}")
    except RunFailed as exc:
        _write_summary(out, {"status": exc.status, "message": str(exc)})
        print(f"relaxation-sweep: {exc}", file=sys.stderr)
        return 1
    report.to_csv(out / "relaxation.csv")
    report.to_json(out / "relaxation.json")
    _write_summary(out, {"eps_list": list(report.eps_list), "slopes": report.slopes})

    slope = report.slopes.get("sup_drho", float("nan"))
    slope_u = report.slopes.get("int_du", float("nan"))
    print(f"relaxation-sweep: sup_drho slope={slope:.4f} int_du slope={slope_u:.4f} "
          f"window={window}")
    ok = window[0] <= slope <= window[1] and window[0] <= slope_u <= window[1]
    if not ok:
        print("relaxation-sweep: slope outside declared window", file=sys.stderr)
        return 1
    return 0


def cmd_lyapunov_check(cfg: dict, out: Path, args) -> int:
    from .diagnostics import lyapunov_equivalence_check
    from .hpc_solver import run

    params = _model_params(cfg)
    grid = _grid(cfg)
    solver_cfg = _solver_config(cfg)
    rng = np.random.default_rng(args.seed)
    eta0 = float(_get(cfg, "experiment.eta0", 0.1))
    c_tol = float(_get(cfg, "experiment.c_tol", 10.0))

    state, _ = _initial_state(cfg, grid, params, rng)
    traj = run(state, solver_cfg)
    if traj.status != "completed":
        print(f"lyapunov-check: run failed: {traj.message}", file=sys.stderr)
        return 1
    report = lyapunov_equivalence_check(traj, eta0=eta0, c_tol=c_tol)
    report.to_csv(out / "lyapunov.csv")
    _write_summary(out, {"violations": len(report.violations),
                         "rows": len(report.rows),
                         "skipped_below_floor": report.skipped_below_floor})
    print(f"lyapunov-check: rows={len(report.rows)} violations={len(report.violations)} "
          f"skipped={report.skipped_below_floor}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemorelax",
        description="Batch experiments for the chemotaxis system and its relaxation limit")
    parser.add_argument("command", choices=[
        "analyze-symbol", "simulate-hpc", "simulate-ks",
        "decay-study", "relaxation-sweep", "lyapunov-check"])
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = _load_config(args.config)
        _write_manifest(out, cfg, args)
        if args.command == "analyze-symbol":
            return cmd_analyze_symbol(cfg, out, args)
        if args.command == "simulate-hpc":
            return cmd_simulate(cfg, out, args, "hpc")
        if args.command == "simulate-ks":
            return cmd_simulate(cfg, out, args, "ks")
        if args.command == "decay-study":
            return cmd_decay_study(cfg, out, args)
        if args.command == "relaxation-sweep":
            return cmd_relaxation_sweep(cfg, out, args)
        if args.command == "lyapunov-check":
            return cmd_lyapunov_check(cfg, out, args)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        out.mkdir(parents=True, exist_ok=True)
        _write_summary(out, {"status": "config_error", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
