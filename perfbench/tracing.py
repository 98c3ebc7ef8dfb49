"""Outside-in tracing of the package's layers.

:class:`Tracer` wraps public functions of the package where their callers look
them up (every module attribute and class attribute that holds the function),
and records one span per call: name, start, end, parent span and thread.
Spans stay in memory in flat arrays and are written out once, at the end.
:func:`uninstall` puts every original object back.

:func:`layer_metrics` turns a span table into per-layer numbers.  A layer's
self time is its duration minus the durations of its child spans; calls are
synchronous, so children nest inside their parent on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "chemorelax"
MODULES = ("spectral", "model", "linear_analysis", "etd", "hpc_solver",
           "ks_solver", "diagnostics")


def _apply_bytes(args) -> float:
    """Complex fields read and written plus the gathered real 3x3 table."""
    tables, n, u, psi = args[:4]
    return 2.0 * (n.nbytes + u.nbytes + psi.nbytes) + tables.index.size * 9 * 8.0


# (span name, module, qualified attribute, bytes-computed extractor or None)
LAYERS = (
    ("spectral.ifft", "spectral", "SpectralField.to_physical", lambda a: a[0].coef.nbytes),
    ("spectral.fft", "spectral", "SpectralField.from_physical", lambda a: np.size(a[2]) * 16.0),
    ("spectral.block_l2", "spectral", "DyadicDecomposition.block_l2", None),
    ("spectral.besov_norm", "spectral", "DyadicDecomposition.besov_norm", None),
    ("spectral.hybrid_norm", "spectral", "DyadicDecomposition.hybrid_norm", None),
    ("spectral.ring_profile", "spectral", "ring_profile", None),
    ("spectral.save_field", "spectral", "save_field", None),
    ("model.density_perturbation", "model", "density_perturbation", None),
    ("model.coefficient_G", "model", "coefficient_G", None),
    ("model.coefficient_H", "model", "coefficient_H", None),
    ("etd.batched_matrix_phis", "etd", "batched_matrix_phis", None),
    ("linear_analysis.symbol_matrix", "linear_analysis", "symbol_matrix", None),
    ("hpc_solver.step", "hpc_solver", "step", None),
    ("hpc_solver.nonlinear_rhs", "hpc_solver", "nonlinear_rhs", None),
    ("hpc_solver.tables", "hpc_solver", "PropagatorTables.__init__", None),
    ("hpc_solver.apply_exp", "hpc_solver", "PropagatorTables.apply_exp", _apply_bytes),
    ("hpc_solver.apply_phi1", "hpc_solver", "PropagatorTables.apply_phi1", _apply_bytes),
    ("hpc_solver.apply_phi2", "hpc_solver", "PropagatorTables.apply_phi2", _apply_bytes),
    ("hpc_solver.hybrid_aggregate", "hpc_solver", "hybrid_aggregate", None),
    ("hpc_solver.build_initial_data", "hpc_solver", "build_initial_data", None),
    ("hpc_solver.run", "hpc_solver", "run", None),
    ("ks_solver.ks_step", "ks_solver", "ks_step", None),
    ("ks_solver.ks_rhs", "ks_solver", "ks_rhs", None),
    ("ks_solver.reconstruct_velocity", "ks_solver", "reconstruct_velocity", None),
    ("diagnostics.relaxation_sweep", "diagnostics", "relaxation_sweep", None),
    ("diagnostics.rescale_to_slow", "diagnostics", "rescale_to_slow", None),
    ("diagnostics.DiagnosticSeries.add", "diagnostics", "DiagnosticSeries.add", None),
    ("diagnostics.DiagnosticSeries.to_csv", "diagnostics", "DiagnosticSeries.to_csv", None),
)
SPAN_NAMES = tuple(layer[0] for layer in LAYERS)


def _modules():
    """The package and its submodules: every namespace a caller may look in."""
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


class Tracer:
    """Span recorder; one per process, installed with :meth:`install`."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.work = array("d")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []     # (owner, attribute, original object)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name_id: int, fn, work):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.name)
                tracer.name.append(name_id)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.thread.append(threading.get_ident())
                tracer.work.append(work(args) if work is not None else 0.0)
                tracer.end.append(0.0)
                tracer.start.append(0.0)
            stack.append(idx)
            tracer.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every layer in :data:`LAYERS` wherever the package refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for name_id, (_, mod_name, qual, work) in enumerate(LAYERS):
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name_id, raw.__func__, work)))
                else:
                    self._patch(cls, attr, self._wrap(name_id, raw, work))
                continue
            original = getattr(module, qual)
            wrapped = self._wrap(name_id, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def spans(self) -> dict:
        """The span table as numpy arrays (times in seconds)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())


def load_spans(path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in data.files}
    spans["names"] = [str(n) for n in spans["names"]]
    return spans


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of its children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child_sum


def layer_metrics(spans: dict, planned_hpc_steps: int) -> dict:
    """Per-layer metrics of one traced run: counts, inclusive and self ms,
    step-time percentiles and the counters derived from the span tree."""
    names = spans["names"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    name = spans["name"]
    out = {}
    for i, n in enumerate(names):
        sel = name == i
        out[f"{n}.calls"] = int(np.count_nonzero(sel))
        out[f"{n}.ms"] = float(dur[sel].sum() * 1e3)
        out[f"{n}.self_ms"] = float(own[sel].sum() * 1e3)

    step_id = names.index("hpc_solver.step")
    steps = dur[name == step_id] * 1e3
    out["hpc_solver.step.p50_ms"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    out["hpc_solver.step.p99_ms"] = float(np.percentile(steps, 99)) if steps.size else 0.0
    out["hpc_solver.extra_steps"] = out["hpc_solver.step.calls"] - planned_hpc_steps

    par = spans["parent"]
    parent_name = np.where(par >= 0, name[np.maximum(par, 0)], -1)
    under_step = (name == names.index("model.density_perturbation")) & (parent_name == step_id)
    out["hpc_solver.mass_fix.evals"] = int(np.count_nonzero(under_step))
    out["hpc_solver.mass_fix.ms"] = float(dur[under_step].sum() * 1e3)
    out["hpc_solver.tables.builds"] = out["hpc_solver.tables.calls"]
    # run records one series row per snapshot it keeps, right after keeping it
    out["hpc_solver.snapshots_kept"] = int(np.count_nonzero(
        (name == names.index("diagnostics.DiagnosticSeries.add"))
        & (parent_name == names.index("hpc_solver.run"))))
    out["diagnostics.series.rows"] = out["diagnostics.DiagnosticSeries.add.calls"]

    work = spans["work"]
    mib = float(2 ** 20)
    out["spectral.fft.mb_computed"] = float(work[name == names.index("spectral.fft")].sum() / mib)
    out["spectral.ifft.mb_computed"] = float(work[name == names.index("spectral.ifft")].sum() / mib)
    apply_ids = [names.index(f"hpc_solver.apply_{k}") for k in ("exp", "phi1", "phi2")]
    out["hpc_solver.apply.mb_computed"] = float(work[np.isin(name, apply_ids)].sum() / mib)
    return out


def count_metric_names() -> list:
    """Metrics that count work; they must repeat exactly between traced runs."""
    names = [f"{n}.calls" for n in SPAN_NAMES]
    names += ["hpc_solver.extra_steps", "hpc_solver.mass_fix.evals",
              "hpc_solver.tables.builds", "diagnostics.series.rows",
              "hpc_solver.snapshots_kept"]
    return names
