"""Measure the benchmark's baseline and spread, and write perfbench/baseline.json.

    python3 perfbench/record_baseline.py [--runs 10] [--seconds 30] [--workload W ...]

Run from the root of a checkout.  For each workload it makes ``--runs``
untraced benchmark runs, seeds 1, 2, ..., and one traced run at the default
seed.  For each end-to-end metric it records the ten values, their median and
their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The traced
run gives the per-layer baseline.  The file also records the machine.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {m.__name__: m.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for m in (numpy, scipy)}
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['numpy'].get('name')} {blas['numpy'].get('version')}",
        "scipy_blas": f"{blas['scipy'].get('name')} {blas['scipy'].get('version')}",
    }


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed the check\n{proc.stderr}")
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(machine=machine(), recorded=datetime.date.today().isoformat(),
               run_seconds=float(args.seconds), seeds=list(range(1, args.runs + 1)))
    for workload in args.workload or WORKLOADS:
        values: dict = {}
        for seed in doc["seeds"]:
            for name, m in bench(workload, seed, args.seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: done", flush=True)
        traced = bench(workload, DEFAULT_SEED, args.seconds, 1)["metrics"]
        doc.setdefault("end_to_end", {})[workload] = {k: spread(v) for k, v in values.items()}
        doc.setdefault("per_layer", {})[workload] = {k: m["value"] for k, m in traced.items()}
        for name, s in doc["end_to_end"][workload].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
