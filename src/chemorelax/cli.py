"""Batch front door: parse a config file, dispatch one experiment, emit reports.

Every subcommand reads a single JSON config, writes manifest.json into the
output directory before doing any work, writes its CSV tables with
``diagnostics.write_csv`` and returns a summary that starts with ``status`` and
``message`` (empty on success).  ``main`` writes it as summary.json, prints a
failure's message to stderr and maps the status to the exit code: 0
"completed", 2 "config_error", 1 any failed contract ("blowup", "mass_drift",
"slope_outside_window", "lyapunov_violations").
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import (__version__, diagnostics, driver, hpc_solver, ks_solver, linear_analysis, model,
               spectral)

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


def _integer(value) -> int:
    if not float(value).is_integer():   # 2.7 is not read as 2
        raise ValueError
    return int(value)


def _pair(value) -> list:
    lo, hi = map(float, value)
    if not lo < hi:
        raise ValueError
    return [lo, hi]


def _numbers(value) -> list:
    if not isinstance(value, list):
        raise TypeError
    return [float(v) for v in value]


def _optional_number(value):
    return None if value is None else float(value)


def _modes(value) -> list:
    return [([float(k) for k in np.atleast_1d(m["k"])], float(m.get("amp", 1.0)),
             float(m.get("phase", 0.0))) for m in value]


_KINDS = {float: "a number", _integer: "an integer", _pair: "a pair [lo, hi], lo < hi",
          _numbers: "a list of numbers", _optional_number: "a number or null",
          _modes: 'a list of modes {"k": ..., "amp": ..., "phase": ...}'}


def _read(cfg: dict, dotted: str, convert, default=None, required: bool = False):
    """The value at ``dotted`` (see :func:`_get`) passed through ``convert``,
    one of the converters in ``_KINDS``; ConfigError naming the key when it
    does not convert."""
    value = _get(cfg, dotted, default, required)
    try:
        return convert(value)
    except (TypeError, ValueError, KeyError):
        raise ConfigError(f"{dotted} must be {_KINDS[convert]}, got {json.dumps(value)}") from None


def _model_params(cfg: dict):
    block = _get(cfg, "model", required=True)
    try:
        return model.params_from_config(block)
    except KeyError as exc:
        raise ConfigError(f"model block: {exc.args[0]}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model block: {exc}")


def _grid(cfg: dict):
    d = _read(cfg, "grid.d", _integer, required=True)
    N = _read(cfg, "grid.N", _integer, required=True)
    L = _read(cfg, "grid.L", float, required=True)
    try:
        return spectral.make_grid(d, N, L)
    except ValueError as exc:
        raise ConfigError(f"grid block: {exc}")


def _solver_config(cfg: dict):
    block = _get(cfg, "solver", default={})
    unknown = sorted(set(block) - {"dt", "t_end", "snap_dt", "dealias"})
    if unknown:
        raise ConfigError(f"solver block: unknown keys {unknown}; "
                          f"the keys are dt, t_end, snap_dt and dealias")
    snap_dt = block.get("snap_dt")
    try:
        return driver.SolverConfig(
            dt=float(block.get("dt", 0.01)),
            t_end=float(block.get("t_end", 10.0)),
            snap_dt=None if snap_dt is None else float(snap_dt),
            dealias=block.get("dealias", True),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver block: {exc}")


def _write_manifest(out: Path, cfg: dict, args) -> None:
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
    kind = _get(cfg, "initial.profile", "gaussian")
    if kind == "gaussian":
        n_prof = hpc_solver.gaussian_bump(grid, width=_read(cfg, "initial.width", float, 0.5))
    elif kind == "modes":
        n_prof = hpc_solver.mode_bump(grid, _read(cfg, "initial.modes", _modes, [{"k": [1]}]))
    elif kind == "random":
        n_prof = rng.standard_normal(grid.shape)
        n_prof -= n_prof.mean()
    else:
        raise ConfigError(f"unknown initial.profile: {kind}")
    target = _read(cfg, "initial.target_x0", _optional_number, 0.01)
    try:
        return hpc_solver.build_initial_data(grid, params, n_profile=n_prof, target_x0=target)
    except ValueError as exc:  # OutsideValidityWindow included
        raise ConfigError(f"initial block: {exc}")


def _completed(**fields) -> dict:
    return {"status": "completed", "message": "", **fields}


# -- subcommands: each returns its summary -------------------------------------

def cmd_analyze_symbol(cfg: dict, out: Path, args) -> dict:
    params = _model_params(cfg)
    xi_max = _read(cfg, "experiment.xi_max", float, 50.0)
    samples = _read(cfg, "experiment.samples", _integer, 1000)
    low_targets = _read(cfg, "experiment.lowfreq_eps_xi", _numbers, [1e-2, 1e-3])
    high_targets = _read(cfg, "experiment.highfreq_eps_xi", _numbers, [1e2])
    try:   # targets outside their regime and scan bounds, found before any output
        low = linear_analysis.lowfreq_asymptotic_check(params, np.divide(low_targets, params.eps))
        high = linear_analysis.highfreq_asymptotic_check(params,
                                                          np.divide(high_targets, params.eps))
        worst, rows = linear_analysis.stability_scan(params, xi_max, samples)
    except (RuntimeError, ValueError) as exc:
        raise ConfigError(f"experiment block: {exc}")
    diagnostics.write_csv(out / "spectrum.csv", ("xi", "re_lam1", "im_lam1", "re_lam2",
                                                  "im_lam2", "re_lam3", "im_lam3"),
                          ((xi, l1.real, l1.imag, l2.real, l2.imag, l3.real, l3.imag)
                           for xi, l1, l2, l3 in rows))

    stable, margin = model.check_stability(params)
    summary = _completed(stable=bool(stable), margin=margin, max_re_lambda=worst)
    band_note = ""
    if margin < 0:   # |xi|^2 < c1 mu - b = -(b/c0) margin, an empty band at margin 0
        band = float(np.sqrt(-margin * params.b / params.c0))
        summary["unstable_band"] = [0.0, band]
        band_note = f" unstable band |xi| in [0, {band:.4g})"

    low_keys, high_keys = ("ratio1", "ratio2", "ratio3"), ("ratio_re1", "ratio_im1", "ratio3")
    diagnostics.write_csv(out / "asymptotics.csv",
                          ("regime", "xi", "ratio_a", "ratio_b", "ratio_c"),
                          [("low", *r) for r in zip(low["xi"], *(low[k] for k in low_keys))]
                          + [("high", *r) for r in zip(high["xi"], *(high[k] for k in high_keys))])
    summary["lowfreq_ratios"] = {k: list(map(float, low[k])) for k in low_keys}
    summary["highfreq_ratios"] = {k: list(map(float, high[k])) for k in high_keys}
    print(f"analyze-symbol: verdict={'stable' if stable else 'unstable'} margin={margin:.6g} "
          f"max Re lambda={worst:.3e}{band_note}")
    return summary


def cmd_simulate(cfg: dict, out: Path, args) -> dict:
    params = _model_params(cfg)
    grid = _grid(cfg)
    solver_cfg = _solver_config(cfg)
    rng = np.random.default_rng(args.seed)

    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    if args.command == "simulate-hpc":
        state, parts = _initial_state(cfg, grid, params, rng)
        traj = hpc_solver.run(state, solver_cfg)
        for i, s in enumerate(traj.states):
            spectral.save_field(snap_dir / f"n_{i:04d}.npz", s.n)
            spectral.save_field(snap_dir / f"u_{i:04d}.npz", s.u)
            spectral.save_field(snap_dir / f"psi_{i:04d}.npz", s.psi)
    else:
        amp = _read(cfg, "initial.amplitude", float, 0.01)
        width = _read(cfg, "initial.width", float, 0.5)
        rho0 = params.rho_bar + amp * hpc_solver.gaussian_bump(grid, width=width)
        rho_f = spectral.SpectralField.from_physical(grid, rho0[None], dealiased=True)
        traj = ks_solver.ks_run(ks_solver.KsState(0.0, rho_f, params), solver_cfg)
        for i, s in enumerate(traj.states):
            spectral.save_field(snap_dir / f"rho_{i:04d}.npz", s.rho)

    traj.series.to_csv(out / "series.csv")
    print(f"{args.command}: status={traj.status} snapshots={len(traj.states)}")
    return {"status": traj.status, "message": traj.message, "snapshots": len(traj.states)}


def cmd_decay_study(cfg: dict, out: Path, args) -> dict:
    params = _model_params(cfg)
    window = _read(cfg, "experiment.window", _pair, [5.0, 50.0])
    d = _read(cfg, "experiment.d", _integer, 1)
    sigma0 = _read(cfg, "experiment.sigma0", float, -d / 2.0)
    sigma = _read(cfg, "experiment.sigma", float, d / 2.0)
    try:
        res = linear_analysis.semigroup_decay_study(params, sigma0, sigma, d=d,
                                                    window=tuple(window))
    except ValueError as exc:
        raise ConfigError(f"experiment block: {exc}")

    norms = ("norm_triple", "norm_damped", "norm_phitilde", "norm_u", "norm_sup0")
    diagnostics.write_csv(out / "decay.csv", ("t",) + norms,
                          zip(res.times, *(getattr(res, name) for name in norms)))

    rows = [
        ("triple", res.slope_triple, res.paper_slope),
        ("damped_combination", res.slope_damped, res.paper_slope_damped),
        ("phitilde_alone", res.slope_phitilde, res.paper_slope_damped),
        ("u_alone", res.slope_u, res.paper_slope_damped),
    ]
    diagnostics.write_csv(out / "slopes.csv", ("d", "sigma0", "sigma", "quantity",
                                                "fitted_slope", "reference_slope", "relative_gap"),
                          ((d, sigma0, sigma, name, got, ref,
                            abs((got - ref) / ref) if ref != 0 else abs(got))
                           for name, got, ref in rows))
    print(f"decay-study: d={d} sigma0={sigma0} sigma={sigma} "
          f"slope={res.slope_triple:.4f} (reference {res.paper_slope:.3f}) "
          f"damped={res.slope_damped:.4f} (reference {res.paper_slope_damped:.3f})")
    return _completed(d=d, sigma0=sigma0, sigma=sigma,
                      slopes={name: got for name, got, _ in rows},
                      reference={"triple": res.paper_slope, "damped": res.paper_slope_damped})


def cmd_relaxation_sweep(cfg: dict, out: Path, args) -> dict:
    params = _model_params(cfg)
    grid = _grid(cfg)
    eps_list = _read(cfg, "experiment.eps_list", _numbers, required=True)
    if len(eps_list) < 3:
        raise ConfigError("experiment.eps_list needs at least 3 values")
    tau_end = _read(cfg, "experiment.tau_end", float, 2.0)
    snap_dtau = _read(cfg, "experiment.snap_dtau", float, 0.05)
    try:
        driver.whole_count(tau_end, snap_dtau, "tau_end")
    except ValueError as exc:
        raise ConfigError(f"experiment block: {exc}")
    amp = _read(cfg, "experiment.amplitude", float, 0.02)
    width = _read(cfg, "experiment.width", float, 0.8)
    rho0 = params.rho_bar + amp * hpc_solver.gaussian_bump(grid, width=width)
    window = _read(cfg, "experiment.slope_window", _pair, [0.8, 1.2])

    offset = None
    offset_amp = _read(cfg, "experiment.offset_amplitude", _optional_number)
    if offset_amp is not None:
        offset = offset_amp * hpc_solver.gaussian_bump(
            grid, width=_read(cfg, "experiment.offset_width", float, 0.6),
            center=[grid.L / 3.0] * grid.d)
    try:
        report = diagnostics.relaxation_sweep(
            grid, params, rho0, eps_list, tau_end=tau_end, snap_dtau=snap_dtau,
            dt_fast=_read(cfg, "experiment.dt_fast", float, 0.01), rho_offset_phys=offset,
            high_freq_budget=_read(cfg, "experiment.high_freq_budget", _optional_number))
    except ValueError as exc:  # an eps, dt_fast, data or threshold mode rejected before any run
        raise ConfigError(f"experiment block: {exc}")
    except driver.RunFailed as exc:
        return {"status": exc.status, "message": str(exc)}
    report.to_csv(out / "relaxation.csv")
    report.to_json(out / "relaxation.json")

    slope = report.slopes.get("sup_drho", float("nan"))
    slope_u = report.slopes.get("int_du", float("nan"))
    print(f"relaxation-sweep: sup_drho slope={slope:.4f} int_du slope={slope_u:.4f} "
          f"window={window}")
    summary = _completed(eps_list=list(report.eps_list), slopes=report.slopes)
    if not (window[0] <= slope <= window[1] and window[0] <= slope_u <= window[1]):
        summary.update(status="slope_outside_window", message=f"sup_drho slope {slope:.4f} "
                       f"or int_du slope {slope_u:.4f} outside declared window {window}")
    return summary


def cmd_lyapunov_check(cfg: dict, out: Path, args) -> dict:
    params = _model_params(cfg)
    grid = _grid(cfg)
    solver_cfg = _solver_config(cfg)
    rng = np.random.default_rng(args.seed)
    eta0 = _read(cfg, "experiment.eta0", float, 0.1)
    c_tol = _read(cfg, "experiment.c_tol", float, 10.0)
    if not (0.0 < eta0 < 1.0 and c_tol >= 1.0):   # checked before the run
        raise ConfigError(f"experiment block: eta0 must lie in (0, 1) and c_tol be >= 1, "
                          f"got eta0={eta0}, c_tol={c_tol}")

    state, _ = _initial_state(cfg, grid, params, rng)
    traj = hpc_solver.run(state, solver_cfg)
    if traj.status != "completed":
        return {"status": traj.status, "message": f"run failed: {traj.message}"}
    report = diagnostics.lyapunov_equivalence_check(traj, eta0=eta0, c_tol=c_tol)
    report.to_csv(out / "lyapunov.csv")
    print(f"lyapunov-check: rows={len(report.rows)} violations={len(report.violations)} "
          f"skipped={report.skipped_below_floor}")
    summary = _completed(violations=len(report.violations), rows=len(report.rows),
                         skipped_below_floor=report.skipped_below_floor)
    if not report.ok:
        summary.update(status="lyapunov_violations", message=f"{len(report.violations)} block "
                       f"rows violate the equivalences at c_tol={c_tol}")
    return summary


COMMANDS = {"analyze-symbol": cmd_analyze_symbol, "simulate-hpc": cmd_simulate,
            "simulate-ks": cmd_simulate, "decay-study": cmd_decay_study,
            "relaxation-sweep": cmd_relaxation_sweep, "lyapunov-check": cmd_lyapunov_check}
EXIT_CODES = {"completed": 0, "config_error": 2}   # any other status: 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemorelax",
        description="Batch experiments for the chemotaxis system and its relaxation limit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config)
        _write_manifest(out, cfg, args)
        summary = COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        summary = {"status": "config_error", "message": str(exc)}
    _write_summary(out, summary)
    status = summary["status"]
    if status != "completed":
        label = "config error" if status == "config_error" else args.command
        print(f"{label}: {summary['message']}", file=sys.stderr)
    return EXIT_CODES.get(status, 1)


if __name__ == "__main__":
    sys.exit(main())
