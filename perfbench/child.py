"""One workload run in a fresh process; started by run.py, not by hand.

    python3 perfbench/child.py --workload W --seed S --out DIR [--mode MODE]
                               [--code CODE] [--spans FILE]

MODE is ``full`` (run and write outputs) or ``traced`` (a full run with
every layer wrapped; spans go to FILE).
CODE is ``program`` (the package in ``src/``) or ``seed`` (the frozen seed
copy in ``perfbench/seedcode/``); run.py puts the matching directory on
PYTHONPATH.
The last line of standard output is a JSON object of clock marks: each one on
the system-wide monotonic clock, so that run.py can subtract its launch time,
and as the CPU time the process had used by then (``cpu_<mark>``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from workloads import CODE_DIRS, code_dir, mark, run_workload, workload_config


class FirstStep:
    """One-shot hook on both solvers' step functions: marks the first step,
    then puts the previous functions back (so it costs nothing afterwards)."""

    def __init__(self, marks: dict):
        self.marks = marks
        self.saved = []

    def install(self) -> None:
        from chemorelax import hpc_solver, ks_solver
        self.saved = [(hpc_solver, "step", hpc_solver.step),
                      (ks_solver, "ks_step", ks_solver.ks_step)]
        for module, attr, fn in self.saved:
            setattr(module, attr, self._hook(fn))

    def restore(self) -> None:
        for module, attr, fn in self.saved:
            setattr(module, attr, fn)

    def _hook(self, fn):
        def first(*args, **kwargs):
            mark(self.marks, "first_step")
            self.restore()
            return fn(*args, **kwargs)
        return first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("full", "traced"), default="full")
    parser.add_argument("--code", choices=tuple(CODE_DIRS), default="program")
    parser.add_argument("--spans", help="span file written by a traced run")
    args = parser.parse_args()

    root = Path.cwd()
    import chemorelax
    src = code_dir(root, args.code).resolve()
    if src not in Path(chemorelax.__file__).resolve().parents:
        print(f"chemorelax imported from {chemorelax.__file__}, not from {src}", file=sys.stderr)
        return 3

    marks: dict = {}
    cfg = workload_config(root, args.workload)
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer().install()
    hook = FirstStep(marks)
    hook.install()
    try:
        status = run_workload(args.workload, cfg, args.seed, Path(args.out), marks)
    finally:
        hook.restore()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.save(args.spans)
    marks["status"] = status
    mark(marks, "end")
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(marks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
