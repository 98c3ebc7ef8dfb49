"""Output checks against references recorded from the seed code.

Default seed: every output is compared with the reference, within 1e-9 of
each column's largest magnitude.  Measured on the three workloads, swapping
the FFT implementation (numpy's for scipy's) moves the outputs by at most
1e-13 relative, while a 25% larger time step on hpc_1d moves the norms by
about 1e-7 relative and dropping the scheme's second-order correction by
about 1e-5.  The tolerance therefore admits any reordering of the
floating-point work with 10^4 to spare, and rejects even the smallest of
those discretisation changes with a margin of 100.

Translated seeds: only translation-invariant outputs are compared with the
default-seed reference.  Sampling a bump at shifted grid points moves them by
at most 1.5e-8 relative (measured worst case, a half-cell shift in 2D, from
the wrapped Gaussian's kink at the antipode), so the tolerance there is 1e-7.
``mean_n`` and ``mean_psi`` sit at round-off (about 1e-19) and get an
absolute tolerance; ``max_u`` is not invariant and is not compared.  The
sweep's high-frequency member mode is not translated, so a translated sweep
must only complete with both fitted slopes inside the config's window.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "reference"

RTOL_DEFAULT = 1e-9
RTOL_SHIFTED = 1e-7
ROUNDOFF_COLUMNS = ("mean_n", "mean_psi")
ATOL_ROUNDOFF = 1e-15
NOT_INVARIANT = ("max_u",)
SLOPES_IN_WINDOW = ("sup_drho", "int_du")


def read_series(path: Path) -> dict:
    """Columns of a CSV file with a header row, as float arrays."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def reference(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _compare(name: str, got, ref, rtol: float, atol: float = 0.0) -> list:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: {got.shape[0] if got.ndim else 1} values, reference has "
                f"{ref.shape[0] if ref.ndim else 1}"]
    tol = rtol * float(np.max(np.abs(ref), initial=0.0)) + atol
    err = float(np.max(np.abs(got - ref), initial=0.0))
    if not np.all(np.isfinite(got)) or err > tol:
        return [f"{name}: max deviation {err:.3e} from reference exceeds {tol:.3e}"]
    return []


def check_hpc(out: Path, ref: dict, default_seed: bool, snapshots: int) -> list:
    problems = []
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    if summary["status"] != "completed":
        return [f"status {summary['status']}: {summary.get('message', '')}"]
    files = len(list((out / "snapshots").glob("*.npz")))
    if files != 3 * snapshots:
        problems.append(f"{files} snapshot files, expected {3 * snapshots}")
    series = read_series(out / "series.csv")
    if sorted(series) != sorted(ref["series"]):
        return problems + [f"series columns {sorted(series)} differ from the reference"]
    for col, values in ref["series"].items():
        if col in ROUNDOFF_COLUMNS:
            problems += _compare(col, series[col], values, 0.0, ATOL_ROUNDOFF)
        elif default_seed:
            problems += _compare(col, series[col], values, RTOL_DEFAULT)
        elif col not in NOT_INVARIANT:
            problems += _compare(col, series[col], values, RTOL_SHIFTED)
    return problems


def check_sweep(out: Path, ref: dict, default_seed: bool, window) -> list:
    problems = []
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    if summary["status"] != "completed":
        problems.append(f"status {summary['status']}")
    slopes = summary["slopes"]
    for name in SLOPES_IN_WINDOW:
        if not window[0] <= slopes.get(name, float("nan")) <= window[1]:
            problems.append(f"slope {name} = {slopes.get(name)} outside {window}")
    if not default_seed:
        return problems
    table = read_series(out / "relaxation.csv")
    for col, values in ref["table"].items():
        problems += _compare(col, table.get(col, []), values, RTOL_DEFAULT)
    for name, value in ref["slopes"].items():
        problems += _compare(f"slope {name}", slopes.get(name, float("nan")), value, RTOL_DEFAULT)
    return problems


def check_outputs(workload: str, out: Path, cfg: dict, default_seed: bool,
                  snapshots: int) -> list:
    """Problems found in one run's outputs; an empty list means it passed."""
    ref = reference(workload)
    if workload == "relax_sweep":
        return check_sweep(out, ref, default_seed, cfg["experiment"]["slope_window"])
    return check_hpc(out, ref, default_seed, snapshots)
