"""Every name a chemorelax module lists in ``__all__`` resolves, and so does
every name the benchmark's tracer wraps; the solver-side modules' public
signatures carry no more defaulted parameters than pinned here, and no module
checks an invariant with ``assert``."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import chemorelax
from chemorelax import hpc_solver, spectral

MODULES = ["chemorelax"] + [f"chemorelax.{info.name}"
                            for info in pkgutil.iter_modules(chemorelax.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has an empty __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_benchmark_tracer_finds_every_traced_name():
    """The benchmark's tracer wraps functions of the package by name and raises
    on installation if one is missing; installing and uninstalling it here
    catches a rename or deletion before the benchmark runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    run, to_physical = hpc_solver.run, spectral.SpectralField.to_physical
    tracer = tracing.Tracer().install()
    try:
        assert hpc_solver.run is not run
    finally:
        tracer.uninstall()
    assert hpc_solver.run is run
    assert spectral.SpectralField.to_physical is to_physical


# Defaulted parameters over the public functions and public methods of public
# classes in these modules.  Lower the pin when a default goes; a new option
# has to raise it here, in view.
KNOB_MODULES = ("spectral", "hpc_solver", "ks_solver", "diagnostics", "linear_analysis")
MAX_DEFAULTED = 23


def _defaulted(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def test_defaulted_parameter_count_does_not_grow():
    src = Path(chemorelax.__file__).resolve().parent
    counts = {}
    for name in KNOB_MODULES:
        for node in ast.parse((src / f"{name}.py").read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                counts[f"{name}.{node.name}"] = _defaulted(node)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        counts[f"{name}.{node.name}.{fn.name}"] = _defaulted(fn)
    total = sum(counts.values())
    assert total <= MAX_DEFAULTED, {k: v for k, v in counts.items() if v}


def test_no_assert_in_the_package():
    """Invariants are checked as statuses or raised errors: ``assert`` vanishes
    under ``python -O``, and an AssertionError is a traceback, not a status."""
    src = Path(chemorelax.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
