"""Batch front door: parse a config file, dispatch one experiment, emit reports.

``main`` writes manifest.json into the output directory, then reads the JSON
config once through the subcommand's table in ``SCHEMAS``: an unknown block or
key, a missing required key or a value that does not convert is a config
error naming them.  The subcommand takes the parsed blocks, writes its CSV
tables with ``diagnostics.write_csv`` and returns a summary that starts with
``status`` and ``message`` (empty on success).  ``main`` writes it as
summary.json, prints a failure's message to stderr and maps the status to the
exit code: 0 "completed", 2 "config_error", 1 any failed contract ("blowup",
"mass_drift", "slope_outside_window", "lyapunov_violations").
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import (__version__, diagnostics, driver, etd, hpc_solver, ks_solver, linear_analysis,
               model, spectral)
from .model import REQUIRED, as_integer, as_number, config_kind, read_keys

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {json.dumps(cfg)}")
    return cfg


@config_kind("a pair [lo, hi], lo < hi")
def _pair(value) -> list:
    lo, hi = map(as_number, value)
    if not lo < hi:
        raise ValueError
    return [lo, hi]


@config_kind("a list of numbers")
def _numbers(value) -> list:
    if not isinstance(value, list):
        raise TypeError
    return [as_number(v) for v in value]


@config_kind("a number or null")
def _optional_number(value):
    return None if value is None else as_number(value)


@config_kind("a finite number > 0")
def _width(value) -> float:
    value = as_number(value)
    if not 0 < value < float("inf"):
        raise ValueError
    return value


@config_kind("a number or a list of numbers")
def _wavevector(value) -> list:
    return [as_number(k) for k in (value if isinstance(value, list) else [value])]


_MODE = {"k": (_wavevector, REQUIRED), "amp": (as_number, 1.0), "phase": (as_number, 0.0)}


@config_kind('a list of modes {"k": ..., "amp": ..., "phase": ...}')
def _modes(value) -> list:
    if not all(isinstance(m, dict) for m in value):
        raise TypeError
    return [tuple(read_keys(m, _MODE).values()) for m in value]


@config_kind('"gaussian", "modes" or "random"')
def _profile(value) -> str:
    if value not in ("gaussian", "modes", "random"):
        raise ValueError
    return value


# Each subcommand's config: block -> key table, key -> (converter, default or
# REQUIRED), or the function that reads the block.  The grid and solver blocks
# come back built by _BUILDERS.
GRID = {"d": (as_integer, REQUIRED), "N": (as_integer, REQUIRED), "L": (as_number, REQUIRED)}
SOLVER = {"dt": (as_number, 0.01), "t_end": (as_number, 10.0),
          "snap_dt": (_optional_number, None),
          "dealias": (lambda value: value, True)}   # SolverConfig takes only true
HPC_INITIAL = {"profile": (_profile, "gaussian"), "width": (_width, 0.5),
               "modes": (_modes, [([1.0], 1.0, 0.0)]), "target_x0": (_optional_number, 0.01)}
SCHEMAS = {
    "analyze-symbol": {"model": model.params_from_config, "experiment": {
        "xi_max": (as_number, 50.0), "samples": (as_integer, 1000),
        "lowfreq_eps_xi": (_numbers, [1e-2, 1e-3]), "highfreq_eps_xi": (_numbers, [1e2])}},
    "simulate-hpc": {"model": model.params_from_config, "grid": GRID, "solver": SOLVER,
                     "initial": HPC_INITIAL},
    "simulate-ks": {"model": model.params_from_config, "grid": GRID, "solver": SOLVER,
                    "initial": {"amplitude": (as_number, 0.01), "width": (_width, 0.5)}},
    "decay-study": {"model": model.params_from_config, "experiment": {
        "window": (_pair, [5.0, 50.0]), "d": (as_integer, 1),
        "sigma0": (as_number, None), "sigma": (as_number, None)}},   # None: -d/2 and d/2
    "relaxation-sweep": {"model": model.params_from_config, "grid": GRID, "experiment": {
        "eps_list": (_numbers, REQUIRED), "tau_end": (as_number, 2.0),
        "snap_dtau": (as_number, 0.05), "dt_fast": (as_number, 0.01),
        "amplitude": (as_number, 0.02), "width": (_width, 0.8),
        "offset_amplitude": (_optional_number, None), "offset_width": (_width, 0.6),
        "high_freq_budget": (_optional_number, None), "slope_window": (_pair, [0.8, 1.2])}},
    "lyapunov-check": {"model": model.params_from_config, "grid": GRID, "solver": SOLVER,
                       "initial": HPC_INITIAL,
                       "experiment": {"eta0": (as_number, 0.1), "c_tol": (as_number, 10.0)}},
}
_BUILDERS = {"grid": spectral.make_grid, "solver": driver.SolverConfig}


def _parse(cfg: dict, schema: dict) -> dict:
    """Every block of ``cfg`` read through ``schema``, an absent block as {};
    ConfigError names the block of any fault."""
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ConfigError(f"{unknown[0]} block: unknown block; this subcommand reads "
                          f"{', '.join(schema)}")
    parsed = {}
    for name, keys in schema.items():
        block = cfg.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {name} must be a JSON object, "
                              f"got {json.dumps(block)}")
        try:
            values = keys(block) if callable(keys) else read_keys(block, keys, f"{name}.")
            parsed[name] = _BUILDERS[name](**values) if name in _BUILDERS else values
        except KeyError as exc:
            raise ConfigError(f"{name} block: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} block: {exc}") from None
    return parsed


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


def _hpc_run(c: dict, args) -> driver.Trajectory:
    """The HPC run from the initial block's data, after a build of its propagator
    tables: extreme constants that leave them non-finite are a model-block error."""
    init, grid = c["initial"], c["grid"]
    try:   # a mode's wavevector, target_x0 or OutsideValidityWindow (ValueError)
        if init["profile"] == "gaussian":
            n_prof = hpc_solver.gaussian_bump(grid, width=init["width"])
        elif init["profile"] == "modes":
            n_prof = hpc_solver.mode_bump(grid, init["modes"])
        else:
            n_prof = np.random.default_rng(args.seed).standard_normal(grid.shape)
            n_prof -= n_prof.mean()
        state, _ = hpc_solver.build_initial_data(grid, c["model"], n_profile=n_prof,
                                                 target_x0=init["target_x0"])
    except ValueError as exc:
        raise ConfigError(f"initial block: {exc}")
    try:
        hpc_solver.propagator_tables(grid, c["model"], c["solver"].dt)
    except ValueError as exc:
        raise ConfigError(f"model block: {exc}")
    return hpc_solver.run(state, c["solver"])


def _completed(**fields) -> dict:
    return {"status": "completed", "message": "", **fields}


# -- subcommands: each takes its parsed config and returns its summary ---------

def cmd_analyze_symbol(c: dict, out: Path, args) -> dict:
    params, e = c["model"], c["experiment"]
    try:   # targets outside their regime and scan bounds, found before any output
        low = linear_analysis.lowfreq_asymptotic_check(
            params, np.divide(e["lowfreq_eps_xi"], params.eps))
        high = linear_analysis.highfreq_asymptotic_check(
            params, np.divide(e["highfreq_eps_xi"], params.eps))
        worst, rows = linear_analysis.stability_scan(params, e["xi_max"], e["samples"])
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


def cmd_simulate(c: dict, out: Path, args) -> dict:
    params, grid, solver_cfg = c["model"], c["grid"], c["solver"]
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    if args.command == "simulate-hpc":
        traj = _hpc_run(c, args)
        for i, s in enumerate(traj.states):
            spectral.save_field(snap_dir / f"n_{i:04d}.npz", s.n)
            spectral.save_field(snap_dir / f"u_{i:04d}.npz", s.u)
            spectral.save_field(snap_dir / f"psi_{i:04d}.npz", s.psi)
    else:
        init = c["initial"]
        rho0 = params.rho_bar + init["amplitude"] * hpc_solver.gaussian_bump(
            grid, width=init["width"])
        rho_f = spectral.SpectralField.from_physical(grid, rho0[None], dealiased=True)
        try:   # the run's tables, built before it: extreme constants are a model-block error
            ks_solver.KsTables(grid, params, solver_cfg.dt)
        except etd.NonFiniteTables as exc:
            raise ConfigError(f"model block: {exc}")
        traj = ks_solver.ks_run(ks_solver.KsState(0.0, rho_f, params), solver_cfg)
        for i, s in enumerate(traj.states):
            spectral.save_field(snap_dir / f"rho_{i:04d}.npz", s.rho)

    traj.series.to_csv(out / "series.csv")
    print(f"{args.command}: status={traj.status} snapshots={len(traj.states)}")
    return {"status": traj.status, "message": traj.message, "snapshots": len(traj.states)}


def cmd_decay_study(c: dict, out: Path, args) -> dict:
    e, d = c["experiment"], c["experiment"]["d"]
    sigma0 = -d / 2.0 if e["sigma0"] is None else e["sigma0"]
    sigma = d / 2.0 if e["sigma"] is None else e["sigma"]
    try:
        res = linear_analysis.semigroup_decay_study(c["model"], sigma0, sigma, d=d,
                                                    window=tuple(e["window"]))
    except (RuntimeError, ValueError) as exc:   # RuntimeError: near-defective symbol, quadrature
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


def cmd_relaxation_sweep(c: dict, out: Path, args) -> dict:
    params, grid, e = c["model"], c["grid"], c["experiment"]
    rho0 = params.rho_bar + e["amplitude"] * hpc_solver.gaussian_bump(grid, width=e["width"])
    window = e["slope_window"]

    offset = None
    if e["offset_amplitude"] is not None:
        offset = e["offset_amplitude"] * hpc_solver.gaussian_bump(
            grid, width=e["offset_width"], center=[grid.L / 3.0] * grid.d)
    try:
        report = diagnostics.relaxation_sweep(
            grid, params, rho0, e["eps_list"], tau_end=e["tau_end"], snap_dtau=e["snap_dtau"],
            dt_fast=e["dt_fast"], rho_offset_phys=offset,
            high_freq_budget=e["high_freq_budget"])
    except etd.NonFiniteTables as exc:   # extreme constants, found before any run
        raise ConfigError(f"model block: {exc}")
    except ValueError as exc:  # eps_list, tau_end, dt_fast, data or threshold mode, before any run
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


def cmd_lyapunov_check(c: dict, out: Path, args) -> dict:
    eta0, c_tol = c["experiment"]["eta0"], c["experiment"]["c_tol"]
    if not (0.0 < eta0 < 1.0 and c_tol >= 1.0):   # checked before the run
        raise ConfigError(f"experiment block: eta0 must lie in (0, 1) and c_tol be >= 1, "
                          f"got eta0={eta0}, c_tol={c_tol}")
    try:
        diagnostics.lyapunov_blocks(c["model"], c["grid"])
    except ValueError as exc:   # the model's threshold lies above the grid's blocks
        raise ConfigError(f"grid block: {exc}")

    traj = _hpc_run(c, args)
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
        summary = COMMANDS[args.command](_parse(cfg, SCHEMAS[args.command]), out, args)
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
