"""The snapshot driver both solvers run on: the solver config and its snapshot
schedule, the time-integration loop with its blow-up status, and the
trajectory type, whose diagnostic series is built from the kept snapshots
only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable

from .model import OutsideValidityWindow

__all__ = ["BLOWUP_FACTOR", "SMALL_DATA_HINT", "BlowupError", "RunFailed", "SolverConfig",
           "Trajectory", "integrate", "whole_count"]

# a snapshot norm above this multiple of the initial one counts as blow-up
BLOWUP_FACTOR = 1e3
# operational smallness for near-equilibrium runs; larger data is allowed but
# the global bound is then only an experiment, not an expectation
SMALL_DATA_HINT = 0.05


class BlowupError(RuntimeError):
    """Solution left the admissible neighborhood of equilibrium."""


class RunFailed(RuntimeError):
    """A run whose trajectory did not complete; ``status`` is its status."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


def whole_count(span: float, unit: float, name: str) -> int:
    """round(span / unit); ValueError if span / unit is not finite, or unless
    that many (at least one) ``unit`` intervals land on ``span`` within 1e-9
    relative."""
    count = round(span / unit) if unit > 0 and math.isfinite(span / unit) else 0
    if count < 1 or abs(count * unit - span) > 1e-9 * span:
        raise ValueError(f"{name}={span!r} is not a whole number of snapshot "
                         f"intervals of {unit!r}")
    return count


@dataclass
class SolverConfig:
    """Time step, end time and snapshots of one run, for either solver.

    ``snap_dt`` (default: about 100 snapshots) is rounded to a whole number
    of steps, and ``t_end`` must be a whole number of snapshot intervals.
    Products are always 2/3-dealiased: ``dealias`` is not stored, and any
    value but True is a ValueError.
    """

    dt: float
    t_end: float
    snap_dt: float | None = None
    dealias: InitVar[bool] = True

    def __post_init__(self, dealias):
        if dealias is not True:
            raise ValueError(f"dealias must be true (products are always dealiased), "
                             f"got {dealias!r}")
        for name, value in (("dt", self.dt), ("t_end", self.t_end), ("snap_dt", self.snap_dt)):
            if value is not None and not (0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.schedule()

    def schedule(self) -> tuple[int, int]:
        """(steps_per_snap, n_snaps); ValueError if they do not end at t_end."""
        snap_dt = self.snap_dt if self.snap_dt is not None else max(self.dt, self.t_end / 100.0)
        steps_per_snap = max(1, round(snap_dt / self.dt))
        return steps_per_snap, whole_count(self.t_end, steps_per_snap * self.dt, "t_end")


@dataclass
class Trajectory:
    """The snapshots of one run, its status ("completed", "blowup" or
    "mass_drift") and the reason.  ``series``, a
    :class:`chemorelax.diagnostics.DiagnosticSeries` with one ``row(state)``
    per snapshot, is built on first read."""

    states: list
    row: Callable
    status: str = "completed"
    message: str = ""

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    @cached_property
    def series(self):
        from .diagnostics import DiagnosticSeries
        series = DiagnosticSeries()
        for state in self.states:
            series.add(**self.row(state))
        return series


def integrate(initial, advance: Callable, check: Callable, row: Callable,
              config: SolverConfig) -> Trajectory:
    """Step ``initial`` with ``advance(state)`` (one step of ``config.dt``)
    through the schedule of ``config``, calling ``check(state)`` on each
    snapshot before it is kept.  A BlowupError or OutsideValidityWindow from
    either ends the run with status "blowup" and the snapshots kept so far."""
    steps_per_snap, n_snaps = config.schedule()
    states = [initial.copy()]
    state = initial.copy()
    try:
        for _ in range(n_snaps):
            for _ in range(steps_per_snap):
                state = advance(state)
            check(state)
            states.append(state.copy())
    except (OutsideValidityWindow, BlowupError) as exc:
        return Trajectory(states, row, "blowup", str(exc))
    return Trajectory(states, row)
