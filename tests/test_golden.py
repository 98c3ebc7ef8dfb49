"""The committed configs' outputs match their recorded goldens exactly.

``tests/golden/<config>/`` holds every CSV table and the ``summary.json`` that
the config writes, plus ``snapshots.sha256`` with one sha256 per snapshot
archive (``np.savez`` writes a fixed zip date, so the digests are stable).
``manifest.json`` records paths and versions and is not compared.  The
relaxation sweep's ``relaxation.csv`` and ``relaxation.json`` are checked in
``test_acceptance`` from the criterion-10 fixture, which has the inputs of
``configs/relaxation_sweep.json``, so the sweep does not run twice.

Re-recording is a change of test data: say in CHANGES.md which files moved,
by how much and why.  Record from the repository root with

    PYTHONPATH=src python tests/test_golden.py

which prints, for every recorded file, its ``mismatches`` line against the
golden it overwrites, or that it is unchanged.
"""

import csv
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from chemorelax.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = {"analyze_symbol": "analyze-symbol", "decay_study_1d": "decay-study",
           "decay_study_damped_2d": "decay-study", "lyapunov_check": "lyapunov-check",
           "lyapunov_check_2d": "lyapunov-check", "simulate_hpc": "simulate-hpc",
           "simulate_hpc_3d": "simulate-hpc",
           "simulate_ks": "simulate-ks", "simulate_ks_2d": "simulate-ks"}


def snapshot_digests(out: Path) -> str:
    """``sha256sum``-style lines for every snapshot archive under ``out``."""
    return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                   for p in sorted((out / "snapshots").glob("*.npz")))


def outputs(out: Path) -> dict:
    """The compared files of one run: name -> text."""
    files = {p.name: p.read_text() for p in sorted(out.glob("*.csv"))}
    files["summary.json"] = (out / "summary.json").read_text()
    if (out / "snapshots").is_dir():
        files["snapshots.sha256"] = snapshot_digests(out)
    return files


def _column_deviations(got: str, want: str) -> str:
    """The largest deviation of each numeric CSV column, relative to each cell
    and relative to the column's largest recorded |value|.  The second keeps a
    column of round-off-sized values (a mean near 1e-21) from showing an O(1)
    relative move."""
    got_rows, want_rows = list(csv.reader(got.splitlines())), list(csv.reader(want.splitlines()))
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return f"header or row count differs: {got_rows[0]} x {len(got_rows) - 1} rows, " \
               f"recorded {want_rows[0]} x {len(want_rows) - 1}"
    parts = []
    for j, name in enumerate(want_rows[0]):
        diff = [(g[j], w[j]) for g, w in zip(got_rows[1:], want_rows[1:]) if g[j] != w[j]]
        if not diff:
            continue
        try:
            moves = [(abs(float(g) - float(w)), abs(float(w))) for g, w in diff]
            scale = max(abs(float(w[j])) for w in want_rows[1:])
            per_cell = max(move / max(size, 1e-300) for move, size in moves)
            per_column = max(move for move, _ in moves) / max(scale, 1e-300)
            parts.append(f"{name}: {per_cell:.3g} per cell, {per_column:.3g} of the column's max")
        except ValueError:   # a label column
            parts.append(f"{name}: {len(diff)} cells differ")
    return "max relative deviation " + ", ".join(parts)


def mismatches(files: dict, golden: Path) -> list:
    """One line per file of ``files`` that differs from, or is missing in,
    ``golden``, and per recorded file that the run did not write."""
    recorded = {p.name for p in golden.iterdir()}
    found = [f"{name}: not written" for name in sorted(recorded - set(files))]
    for name, text in files.items():
        if name not in recorded:
            found.append(f"{name}: no golden recorded")
        elif text != (golden / name).read_text():
            detail = (_column_deviations(text, (golden / name).read_text())
                      if name.endswith(".csv") else "text differs")
            found.append(f"{name}: {detail}")
    return found


def run_config(config: str, out: Path) -> dict:
    main([CONFIGS[config], "--config", str(ROOT / "configs" / f"{config}.json"),
          "--out", str(out)])
    return outputs(out)


def test_column_deviations_per_cell_and_per_column():
    """A move is reported relative to its cell and to its column's largest
    |value|, so a round-off-sized cell's O(1) move shows at its true weight."""
    want = "t,mean_n,label\n0.0,1e-21,a\n1.0,2.0,b\n"
    got = "t,mean_n,label\n0.0,2e-21,c\n1.0,2.0,b\n"
    assert _column_deviations(got, want) == ("max relative deviation mean_n: 1 per cell, "
                                             "5e-22 of the column's max, label: 1 cells differ")


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_config_outputs_match_golden(tmp_path, config):
    found = mismatches(run_config(config, tmp_path), GOLDEN / config)
    assert not found, f"{config} outputs differ from tests/golden/{config}:\n" + "\n".join(found)


def _record(scratch: Path) -> None:
    runs = {config: run_config(config, scratch / config) for config in CONFIGS}
    sweep = scratch / "relaxation_sweep"
    main(["relaxation-sweep", "--config", str(ROOT / "configs" / "relaxation_sweep.json"),
          "--out", str(sweep)])
    runs["relaxation_sweep"] = {name: (sweep / name).read_text()
                                for name in ("relaxation.csv", "relaxation.json")}
    for config, files in runs.items():
        target = GOLDEN / config
        found = mismatches(files, target) if target.is_dir() else ["no golden recorded yet"]
        print("\n".join(f"{config}/{line}" for line in found) or f"{config}: unchanged")
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, text in files.items():
            (target / name).write_text(text)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
