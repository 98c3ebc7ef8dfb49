"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, and that
tracing leaves the program's outputs untouched.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import planned_snapshots, planned_steps, run_workload, workload_config  # noqa: E402


def _synthetic(rows):
    """Span table from (name, start, end, parent index) rows."""
    ids = {n: i for i, n in enumerate(tracing.SPAN_NAMES)}
    return {
        "names": list(tracing.SPAN_NAMES),
        "name": np.array([ids[r[0]] for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "thread": np.zeros(len(rows), dtype=np.int64),
        "work": np.zeros(len(rows)),
    }


def test_self_time_subtracts_direct_children_only():
    spans = _synthetic([
        ("hpc_solver.run", 0.0, 10.0, -1),
        ("hpc_solver.step", 1.0, 4.0, 0),
        ("hpc_solver.step", 5.0, 9.0, 0),
        ("hpc_solver.nonlinear_rhs", 6.0, 7.0, 2),
        ("model.density_perturbation", 7.5, 8.0, 2),
        ("model.density_perturbation", 9.5, 9.75, 0),
        ("diagnostics.DiagnosticSeries.add", 9.75, 9.875, 0),
        ("diagnostics.DiagnosticSeries.add", 7.25, 7.375, 2),
    ])
    np.testing.assert_allclose(tracing.self_times(spans),
                               [2.625, 3.0, 2.375, 1.0, 0.5, 0.25, 0.125, 0.125])

    m = tracing.layer_metrics(spans, planned_hpc_steps=1)
    assert m["hpc_solver.step.calls"] == 2
    assert m["hpc_solver.extra_steps"] == 1
    assert m["hpc_solver.step.ms"] == pytest.approx(7000.0)
    assert m["hpc_solver.step.self_ms"] == pytest.approx(5375.0)
    assert m["hpc_solver.run.self_ms"] == pytest.approx(2625.0)
    # only the density evaluation whose parent is a step is a mass-fix iteration
    assert m["hpc_solver.mass_fix.evals"] == 1
    assert m["hpc_solver.mass_fix.ms"] == pytest.approx(500.0)
    # only the series row recorded by run itself is a kept snapshot
    assert m["hpc_solver.snapshots_kept"] == 1
    assert m["diagnostics.series.rows"] == 2
    assert m["ks_solver.ks_step.calls"] == 0


def _namespaces():
    """Every module and class namespace the tracer may patch, copied."""
    import chemorelax
    mods = [chemorelax] + [sys.modules[f"chemorelax.{m}"] for m in tracing.MODULES]
    spaces = {}
    for mod in mods:
        spaces[mod.__name__] = dict(vars(mod))
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                spaces[f"{mod.__name__}.{name}"] = dict(vars(value))
    return spaces


def test_wrappers_restore_the_original_functions():
    from chemorelax import hpc_solver, model, spectral
    tracing._modules()  # import every package module first
    before = _namespaces()
    tracer = tracing.Tracer().install()
    try:
        assert hpc_solver.coefficient_G is not before["chemorelax.hpc_solver"]["coefficient_G"]
        assert model.coefficient_G is hpc_solver.coefficient_G
        assert spectral.SpectralField.__dict__["from_physical"] is not \
            before["chemorelax.spectral.SpectralField"]["from_physical"]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for space, attrs in before.items():
        assert attrs.keys() == after[space].keys(), space
        changed = [k for k, v in attrs.items() if after[space][k] is not v]
        assert not changed, (space, changed)


def _short_hpc_1d(tmp_path: Path, traced: bool) -> Path:
    cfg = workload_config(ROOT, "hpc_1d")
    cfg["solver"].update(t_end=0.5, snap_dt=0.25)
    out = tmp_path / ("traced" if traced else "plain")
    if not traced:
        run_workload("hpc_1d", cfg, 3, out, {})
        return out
    tracer = tracing.Tracer().install()
    try:
        run_workload("hpc_1d", cfg, 3, out, {})
    finally:
        tracer.uninstall()
    assert len(tracer.name) > 0
    return out


def test_traced_run_outputs_are_bit_identical(tmp_path):
    plain = _short_hpc_1d(tmp_path, traced=False)
    traced = _short_hpc_1d(tmp_path, traced=True)
    assert (plain / "series.csv").read_bytes() == (traced / "series.csv").read_bytes()
    snaps = sorted(p.name for p in (plain / "snapshots").iterdir())
    assert snaps == sorted(p.name for p in (traced / "snapshots").iterdir())
    assert len(snaps) == 9
    for name in snaps:
        with np.load(plain / "snapshots" / name) as a, np.load(traced / "snapshots" / name) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].dtype == b[key].dtype
                assert a[key].tobytes() == b[key].tobytes(), (name, key)


def test_planned_work_matches_the_workload_definitions():
    assert planned_steps("hpc_1d", workload_config(ROOT, "hpc_1d")) == {"hpc": 1000, "ks": 0}
    assert planned_steps("hpc_2d", workload_config(ROOT, "hpc_2d")) == {"hpc": 100, "ks": 0}
    sweep = workload_config(ROOT, "relax_sweep")
    assert planned_steps("relax_sweep", sweep) == {"hpc": 960, "ks": 320}
    assert planned_snapshots("hpc_1d", workload_config(ROOT, "hpc_1d")) == 41
    assert planned_snapshots("hpc_2d", workload_config(ROOT, "hpc_2d")) == 3


def test_output_check_rejects_a_perturbed_series(tmp_path):
    ref = check.reference("hpc_1d")
    out = tmp_path / "run"
    (out / "snapshots").mkdir(parents=True)
    (out / "summary.json").write_text('{"status": "completed"}')
    for i in range(41):
        for field in ("n", "u", "psi"):
            (out / "snapshots" / f"{field}_{i:04d}.npz").write_bytes(b"")
    names = list(ref["series"])

    def write(series):
        rows = zip(*(series[k] for k in names))
        (out / "series.csv").write_text(
            ",".join(names) + "\n" + "".join(",".join(repr(x) for x in r) + "\n" for r in rows))

    write(ref["series"])
    assert check.check_hpc(out, ref, default_seed=True, snapshots=41) == []
    bumped = dict(ref["series"], high_n=[x * (1 + 1e-6) for x in ref["series"]["high_n"]])
    write(bumped)
    assert check.check_hpc(out, ref, default_seed=True, snapshots=41)
    assert check.check_hpc(out, ref, default_seed=False, snapshots=41)
    moved = dict(ref["series"], max_u=[x * 1.5 for x in ref["series"]["max_u"]])
    write(moved)
    assert check.check_hpc(out, ref, default_seed=False, snapshots=41) == []
    assert check.check_hpc(out, ref, default_seed=True, snapshots=41)
    shutil.rmtree(out)


def test_repeat_mirrors_the_order_and_stops_before_the_budget(monkeypatch):
    import run
    bench = run.Bench(ROOT, "hpc_2d", 0)
    clock = [0.0]
    order = []

    def launch(mode, code="program"):
        order.append(code)
        clock[0] += 10.0
        return {"wall_s": 10.0}

    monkeypatch.setattr(bench, "launch", launch)
    monkeypatch.setattr(bench, "elapsed", lambda: clock[0])
    runs = (("full", "program"), ("full", "seed"))
    recs = bench.repeat(runs, seconds=45.0, minimum=1)
    assert order == ["program", "seed", "seed", "program"]
    assert [len(recs[r]) for r in runs] == [2, 2]

    # the minimum holds even when it overruns the budget
    clock[0], order[:] = 0.0, []
    bench.repeat(runs, seconds=5.0, minimum=1)
    assert order == ["program", "seed"]


def test_seed_copy_is_what_a_seed_child_imports(tmp_path):
    import subprocess
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench" / "seedcode"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "hpc_1d", "--seed", "0",
         "--out", str(tmp_path / "out"), "--code", "seed"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["status"] == "completed"
    # the program's child refuses a package imported from elsewhere
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "hpc_1d", "--seed", "0",
         "--out", str(tmp_path / "out"), "--code", "program"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 3


def test_side_by_side_lanes_share_one_cpu_and_stop_before_the_budget(monkeypatch):
    import run
    bench = run.Bench(ROOT, "hpc_1d", 0)
    clock = [0.0]
    started = []

    class Done:
        returncode = 0

        def poll(self):
            return 0

    def start(mode, code, cpus=None):
        started.append((code, frozenset(cpus)))
        clock[0] += 4.0
        return type("FakeChild", (), {"proc": Done(), "t0": clock[0] - 8.0, "kill": None})()

    fillers = []

    class Filler:
        def __init__(self, bench, base, mode, code, cpus):
            self.proc, self.killed = Done(), False
            fillers.append(self)

        def kill(self):
            self.killed = True

    monkeypatch.setattr(run, "Child", Filler)
    monkeypatch.setattr(bench, "start", start)
    monkeypatch.setattr(bench, "finish", lambda child: {"cpu": {}})
    monkeypatch.setattr(bench, "elapsed", lambda: clock[0])
    monkeypatch.setattr(run, "now", lambda: clock[0])
    monkeypatch.setattr(run.time, "sleep", lambda s: None)
    recs = bench.side_by_side(("program", "seed"), seconds=30.0, minimum=2)
    assert {cpus for _, cpus in started} == {frozenset({max(os.sched_getaffinity(0))})}
    runs = [code for code, _ in started]
    for code in ("program", "seed"):
        assert len(recs[code]) == runs.count(code) >= 2
    # no run started once the budget left was shorter than a run
    assert clock[0] <= 30.0
    # every filler that kept the CPU shared was killed, none was measured
    assert all(f.killed for f in fillers)
