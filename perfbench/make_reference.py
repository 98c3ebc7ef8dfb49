"""Record the reference outputs that check.py compares against.

    python3 perfbench/make_reference.py [--workload W ...]

Run from the root of a checkout of the code whose outputs are the reference.
Each workload runs once at the default seed, in a child process as in the
benchmark, and its series columns (HPC runs) or relaxation table and slopes
(the sweep) are written to perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from check import REF_DIR, read_series
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def record(root: Path, workload: str) -> dict:
    out = root / ".perfbench_work" / f"reference-{workload}"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", workload,
                    "--seed", str(DEFAULT_SEED), "--out", str(out)],
                   cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
    if workload == "relax_sweep":
        with open(out / "relaxation.json") as fh:
            slopes = json.load(fh)["slopes"]
        ref = {"table": {k: v.tolist() for k, v in read_series(out / "relaxation.csv").items()},
               "slopes": slopes}
    else:
        ref = {"series": {k: v.tolist() for k, v in read_series(out / "series.csv").items()}}
    shutil.rmtree(out)
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    root = Path.cwd()
    REF_DIR.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        ref = record(root, workload)
        with open(REF_DIR / f"{workload}.json", "w") as fh:
            json.dump(ref, fh, indent=1)
        print(f"{workload}: reference written")
    try:
        (root / ".perfbench_work").rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
