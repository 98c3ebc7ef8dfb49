"""The chemorelax benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload hpc_1d --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout.  Every run of the workload happens
in a fresh single-threaded Python process (perfbench/child.py) that imports
the package from ``src/``.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced runs and
the tracing overhead.

The host this runs on changes speed by 10-30% from one second to the next,
and by up to 2x over minutes, which no number of samples can average away.
So with ``--trace 0`` the benchmark runs the program side by side with a
frozen copy of the seed code (``perfbench/seedcode/``) on the same inputs,
both pinned to one CPU, where the scheduler interleaves them finely enough
that both see the same host speed.  Each timing is reported as the program's
median CPU time over the seed's, times the seed's value in ``SEED_SCALE``:
seconds of a run alone on the baseline machine.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means a result
was printed; a checkout without the package or its configs exits with 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_outputs
from workloads import (CODE_DIRS, DEFAULT_SEED, WORKLOADS, code_dir, now,
                       planned_snapshots, planned_steps, workload_config)

HERE = Path(__file__).resolve().parent
MIN_FULL_RUNS = 2       # full runs of each code per run, however short --seconds is
MIN_TRACED_RUNS = 2     # untraced and traced runs each, per traced run
CHILD_LIMIT_S = 170.0   # no child may run past this point of the benchmark run
MIB = float(2 ** 20)

# Medians of the seed code on the machine in baseline.json.  They fix only
# the scale that the program/seed ratios are reported in.  hpc_1d: wall-clock
# medians of ten runs alone (batch 3 in README.md; a run alone uses CPU time
# within 1% of its wall time).  hpc_2d and relax_sweep: CPU-time medians of
# five side-by-side runs, taken after those workloads were shortened.
SEED_SCALE = {
    "hpc_1d": {"wall_s": 2.555, "setup_s": 0.5132, "steps_per_s": 528.9},
    "hpc_2d": {"wall_s": 4.856, "setup_s": 0.8246, "steps_per_s": 24.42},
    "relax_sweep": {"wall_s": 9.796, "setup_s": 0.5707, "steps_per_s": 138.9},
}
TIMINGS = ("wall_s", "setup_s", "steps_per_s")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MiB", "output_mb": "MiB", "ok_frac": "ratio"}


class Child:
    """One child run in flight.  Its standard output and error go to files, so
    that a child never blocks on a full pipe while another one is waited for."""

    def __init__(self, bench: "Bench", base: Path, mode: str, code: str, cpus: set | None):
        self.mode = mode
        self.out, self.spans = base, base.with_suffix(".spans.npz")
        self.logs = (base.with_suffix(".stdout"), base.with_suffix(".stderr"))
        base.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", bench.workload,
               "--seed", str(bench.seed), "--out", str(self.out), "--mode", mode,
               "--code", code, "--spans", str(self.spans)]
        with open(self.logs[0], "w") as stdout, open(self.logs[1], "w") as stderr:
            self.t0 = now()
            self.proc = subprocess.Popen(cmd, cwd=bench.root, env=bench.env[code],
                                         stdout=stdout, stderr=stderr)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)

    def read(self) -> tuple:
        return tuple(path.read_text() for path in self.logs)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.remove()

    def remove(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        for path in (self.spans, *self.logs):
            path.unlink(missing_ok=True)


class Bench:
    """Launches child runs of one workload and keeps what they report."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.cfg = workload_config(root, workload)
        steps = planned_steps(workload, self.cfg)
        self.hpc_steps = steps["hpc"]
        self.total_steps = steps["hpc"] + steps["ks"]
        self.snapshots = planned_snapshots(workload, self.cfg)
        self.work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.t_begin = now()
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.env = {code: dict(env, PYTHONPATH=str(code_dir(root, code)))
                    for code in CODE_DIRS}

    def elapsed(self) -> float:
        return now() - self.t_begin

    def start(self, mode: str, code: str, cpus: set | None = None) -> "Child":
        """Start one child run, on ``cpus`` if given."""
        self.attempted += 1
        return Child(self, self.work / f"run{self.attempted:03d}", mode, code, cpus)

    def finish(self, child: "Child") -> dict | None:
        """Wait for a child run; returns its measurements, or None if it measured nothing."""
        mode = child.mode
        try:
            child.proc.wait(timeout=max(0.0, CHILD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            child.kill()
            return self.fail(f"{mode} run passed {CHILD_LIMIT_S:.0f} s into the benchmark run")
        t1 = now()
        stdout, stderr = child.read()
        if child.proc.returncode != 0:
            return self.fail(f"{mode} run exited {child.proc.returncode}: {stderr.strip()[-2000:]}")
        try:
            marks = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self.fail(f"{mode} run printed no clock marks")
        if "first_step" not in marks:
            return self.fail(f"{mode} run took no time step")
        # wall_s on the wall clock, for runs alone; the timings in CPU time of
        # the child, for runs side by side
        rec = {"wall_s": t1 - child.t0,
               "cpu": {"wall_s": marks["cpu_end"], "setup_s": marks["cpu_first_step"],
                       "steps_per_s": self.total_steps / (marks["cpu_integration_end"]
                                                          - marks["cpu_first_step"])}}
        # a run that completes with wrong outputs still did the work: it is
        # timed, and counted as failed
        out = child.out
        rec["peak_rss_mb"] = marks["maxrss_kb"] * 1024 / MIB
        rec["output_mb"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / MIB
        if mode == "traced":
            from tracing import layer_metrics, load_spans
            rec["layers"] = layer_metrics(load_spans(child.spans), self.hpc_steps)
        if marks["status"] != "completed":
            self.fail(f"{mode} run ended with status {marks['status']}")
        else:
            try:
                problems = check_outputs(self.workload, out, self.cfg,
                                         self.seed == DEFAULT_SEED, self.snapshots)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.fail(f"{mode} run failed the output check: " + "; ".join(problems))
        child.remove()
        return rec

    def launch(self, mode: str, code: str = "program") -> dict | None:
        """One child run on its own, started and waited for."""
        return self.finish(self.start(mode, code))

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"{self.workload}: {message}", file=sys.stderr)
        return None

    def repeat(self, runs, seconds: float, minimum: int) -> dict:
        """Launch ``runs``, (mode, code) pairs, in the order ABBA ABBA ... until
        each was launched ``minimum`` times and the next one would end past
        ``seconds``.  The mirrored order makes a drift of the host's speed
        during the run weigh on every kind of run alike."""
        recs = {r: [] for r in runs}
        took = {r: [] for r in runs}
        for i in itertools.count():
            cycle, pos = divmod(i, len(runs))
            r = (runs if cycle % 2 == 0 else runs[::-1])[pos]
            if min(len(t) for t in took.values()) >= minimum:
                if self.elapsed() + statistics.median(took[r]) > min(seconds, CHILD_LIMIT_S):
                    return recs
            t0 = self.elapsed()
            rec = self.launch(*r)
            took[r].append(self.elapsed() - t0)
            if rec is not None:
                recs[r].append(rec)

    def side_by_side(self, codes, seconds: float, minimum: int) -> dict:
        """Run every code in a lane of its own, back-to-back full runs, with all
        lanes on one CPU, until each lane made ``minimum`` runs and its next
        would end past ``seconds``.  The scheduler switches between the lanes
        every few milliseconds, so the codes see the same host speed at every
        moment, and their CPU times compare the work each did.

        Sharing a CPU costs each run CPU time (up to 60% on hpc_1d), so no
        measured run may run alone: a lane that is done keeps
        the CPU shared with filler runs, which are killed unmeasured once
        every lane is done."""
        cpus = {max(os.sched_getaffinity(0))}
        recs = {code: [] for code in codes}
        took = {code: [] for code in codes}
        lanes = {code: self.start("full", code, cpus) for code in codes}
        fillers: dict = {}
        try:
            while lanes:
                time.sleep(0.01)
                for code, child in list(lanes.items()):
                    if child.proc.poll() is None and self.elapsed() < CHILD_LIMIT_S:
                        continue
                    took[code].append(now() - child.t0)
                    rec = self.finish(child)
                    if rec is not None:
                        recs[code].append(rec)
                    del lanes[code]
                    if len(took[code]) < minimum or (
                            self.elapsed() + statistics.median(took[code])
                            <= min(seconds, CHILD_LIMIT_S)):
                        lanes[code] = self.start("full", code, cpus)
                for code in codes:
                    filler = fillers.get(code)
                    if lanes and code not in lanes and (filler is None
                                                        or filler.proc.poll() is not None):
                        if filler is not None:
                            filler.kill()
                        fillers[code] = Child(self, self.work / f"filler-{code}", "full",
                                              code, cpus)
        finally:
            for child in [*lanes.values(), *fillers.values()]:
                child.kill()
        return recs

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _median(recs: list, key: str) -> float:
    return float(statistics.median(r[key] for r in recs))


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Program and seed code side by side on one CPU; timings are reported as
    program/seed ratios of median CPU times, in units of ``SEED_SCALE``."""
    runs = bench.side_by_side(tuple(CODE_DIRS), seconds, MIN_FULL_RUNS)
    if not all(runs.values()):
        return {}
    raw = {code: {k: float(statistics.median(r["cpu"][k] for r in recs)) for k in TIMINGS}
           for code, recs in runs.items()}
    for code, values in raw.items():
        print(f"{bench.workload} raw {code} medians, CPU time: " + ", ".join(
            f"{k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in values.items()))
    scale = SEED_SCALE[bench.workload]
    metrics = {k: scale[k] * raw["program"][k] / raw["seed"][k] for k in TIMINGS}
    metrics.update(
        peak_rss_mb=_median(runs["program"], "peak_rss_mb"),
        output_mb=_median(runs["program"], "output_mb"),
        ok_frac=(bench.attempted - bench.failed) / bench.attempted,
    )
    return metrics


def per_layer(bench: Bench, seconds: float) -> dict:
    """Traced runs, each paired with an untraced one for the tracing overhead."""
    recs = bench.repeat((("full", "program"), ("traced", "program")), seconds,
                        MIN_TRACED_RUNS)
    plain, traced = recs[("full", "program")], recs[("traced", "program")]
    if not traced or not plain:
        return {}
    from tracing import count_metric_names
    layers = [r["layers"] for r in traced]
    for name in count_metric_names():
        if len({lay[name] for lay in layers}) != 1:
            bench.fail(f"count {name} differs between traced runs: "
                        f"{[lay[name] for lay in layers]}")
    metrics = {name: float(statistics.median(lay[name] for lay in layers)) for name in layers[0]}
    plain_s = _median(plain, "wall_s")
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - plain_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_s
    return metrics


def layer_units(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith(".mb_computed"):
        return "MiB"
    if name == "trace.overhead_s":
        return "s"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


def checkout_problem(root: Path) -> str | None:
    for rel in ("src/chemorelax/__init__.py", "configs/simulate_hpc.json",
                "configs/relaxation_sweep.json"):
        if not (root / rel).is_file():
            return f"{rel} is missing: run the benchmark from the root of a chemorelax checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chemorelax benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = checkout_problem(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        metrics = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        bench.cleanup()
    if not metrics:
        print(f"{args.workload}: no measured run completed", file=sys.stderr)
        return 1

    units = END_TO_END_UNITS if not args.trace else {k: layer_units(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} runs failed)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
