"""Every name a chemorelax module lists in ``__all__`` resolves, and so does
every name the benchmark's tracer wraps; the solver-side modules' public
signatures carry no more defaulted parameters than pinned here, no module
checks an invariant with ``assert``, no function imports inside its body, and
only the driver holds the run policy."""

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
MAX_DEFAULTED = 18


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


def _imports_in_functions(node, qualname, in_function=False):
    """(qualified name, line) of every import inside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
            yield qualname, child.lineno
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports_in_functions(child, f"{qualname}.{child.name}",
                                             in_function or not isinstance(child, ast.ClassDef))
        else:
            yield from _imports_in_functions(child, qualname, in_function)


def test_imports_at_module_top():
    """Each module imports what it uses at its top, so the package has one
    import order and no cycle is hidden inside a function."""
    src = Path(chemorelax.__file__).resolve().parent
    found = [f"{name}:{line}" for path in sorted(src.glob("*.py"))
             for name, line in _imports_in_functions(ast.parse(path.read_text()), path.stem)]
    assert not found, found


def test_run_policy_only_in_the_driver():
    """The blow-up factor, the small-data hint and warnings belong to
    ``driver.integrate`` alone: no other module names BLOWUP_FACTOR or
    SMALL_DATA_HINT, or calls ``warnings.warn``."""
    src = Path(chemorelax.__file__).resolve().parent
    policy = {"BLOWUP_FACTOR", "SMALL_DATA_HINT", "warn"}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "driver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in policy:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, found


def test_driver_reads_no_dimension():
    """The run policy is one rule in every d: ``driver.py`` reads no ``.d``
    attribute, so any dimension policy stays in the solvers."""
    path = Path(chemorelax.__file__).resolve().parent / "driver.py"
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "d"]
    assert not found, found
