"""The snapshot driver both solvers run on: the solver config and its snapshot
schedule, the time-integration loop with the one run policy (a solver gives
:func:`integrate` only its advance of a list of member states over one
snapshot interval, its norms of one member's snapshot stack and its
columns), and the trajectory type.  The loop checks sizes a chunk of
snapshots at a time: in d = 1 it advances up to SNAPSHOT_CHUNK intervals
and takes their sizes in one call per member, and it retakes a chunk that
fails one interval at a time, so a run keeps the states, status and message
of a check after every interval; d >= 2 checks every interval alone.  States
are values: frozen, and never written into.  A step returns a new state, and
the driver keeps the states the steps return, the initial one included,
without copying them.  Sizes and diagnostics run on snapshot stacks
(:func:`stack`, :func:`stacks`): one state per chunk of one member's kept
snapshots, with one row per snapshot in each field, so a chunk takes one
transform per field.  The diagnostic series is a :class:`DiagnosticSeries`
of columns, built from the stacks only when it is read, and written with
the package's one CSV writer, :func:`write_csv`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .model import OutsideValidityWindow
from .spectral import SpectralField

__all__ = ["BLOWUP_FACTOR", "SMALL_DATA_HINT", "SNAPSHOT_CHUNK", "BlowupError",
           "DiagnosticSeries", "RunFailed", "SolverConfig", "Trajectory", "integrate", "stack",
           "stacks",
           "whole_count", "write_csv"]

# a snapshot norm above this multiple of the initial one counts as blow-up
BLOWUP_FACTOR = 1e3
# operational smallness for near-equilibrium runs; larger data is allowed but
# the global bound is then only an experiment, not an expectation
SMALL_DATA_HINT = 0.05
# snapshots per stack at most, which bounds the memory of a long run's diagnostics,
# and intervals per size check of a 1D run
SNAPSHOT_CHUNK = 64


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

    ``snap_dt`` is rounded to a whole number of steps, and ``t_end`` must be a
    whole number of snapshot intervals.  Without ``snap_dt``, ``t_end`` must
    be a whole number of steps, and a snapshot is kept every k steps for the
    smallest divisor k of the step count that gives at most 100 intervals.
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
        if self.snap_dt is None:
            steps = whole_count(self.t_end, self.dt, "t_end")
            n_snaps = next(n for n in range(min(steps, 100), 0, -1) if steps % n == 0)
            return steps // n_snaps, n_snaps
        steps_per_snap = max(1, round(self.snap_dt / self.dt))
        return steps_per_snap, whole_count(self.t_end, steps_per_snap * self.dt, "t_end")


def write_csv(path, header, rows) -> None:
    """A CSV table: the header's names, then one line per row with each cell
    as ``str(cell)``, the shortest round-trip form for Python and numpy floats."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def stack(parts: list):
    """The states ``parts`` as one state with the first one's params: the times
    in an array, and in each field every part's rows, in order."""
    def joined(values):
        if isinstance(values[0], SpectralField):
            return SpectralField(values[0].grid, np.concatenate([v.coef for v in values]))
        return np.hstack(values)

    return replace(parts[0], **{f.name: joined([getattr(p, f.name) for p in parts])
                                for f in fields(parts[0]) if f.name != "params"})


def stacks(states: list):
    """The states in chunks of at most SNAPSHOT_CHUNK, each joined into one
    state whose time is an array and whose fields hold every snapshot's rows."""
    for start in range(0, len(states), SNAPSHOT_CHUNK):
        yield stack(states[start:start + SNAPSHOT_CHUNK])


class DiagnosticSeries:
    """Time-indexed diagnostics as named columns, one value per snapshot."""

    def __init__(self):
        self.columns: dict = {}

    def add(self, **columns):   # the equal-length columns of one snapshot stack
        for name, values in columns.items():
            self.columns[name] = np.concatenate((self.columns.get(name, ()), values))

    def to_csv(self, path):
        write_csv(path, self.columns, zip(*(v.tolist() for v in self.columns.values())))


@dataclass
class Trajectory:
    """The snapshots of one run, its status ("completed", "blowup" or
    "mass_drift") and the reason.  ``series``, the :class:`DiagnosticSeries`
    of ``columns(stack)`` over the :func:`stacks` of the snapshots, is built
    on first read."""

    states: list
    columns: Callable
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
        series = DiagnosticSeries()
        for stack in stacks(self.states):
            series.add(**self.columns(stack))
        return series


def integrate(initials: list, advance: Callable, size: Callable, columns: Callable,
              configs: list) -> list:
    """Step the member states ``initials`` (one per config, all with one
    snapshot count) an interval at a time with ``advance(states)``, which
    returns the members still running one interval on, keeping each member's
    initial state and snapshots uncopied.

    ``size(stack)`` gives the norms of one member's :func:`stack` of
    snapshots, one per snapshot.  The initial sizes are taken alone, and one
    above SMALL_DATA_HINT warns.  Then, in d = 1, up to SNAPSHOT_CHUNK
    intervals are advanced before their sizes are taken, one call per member;
    in d >= 2 one interval (stacked sizes are a loss there).  A size above
    BLOWUP_FACTOR times the member's initial one, or a BlowupError or
    OutsideValidityWindow, sends a chunk of several intervals back to be
    retaken from its start one interval at a time.  In a chunk of one it ends
    the member (the exception's ``member``, else 0) as "blowup"; as if the
    members ran in turn, the later ones drop out and the earlier ones retake
    the interval.  Returns the members' trajectories up to the first that
    blows up."""
    n_snaps, = {config.schedule()[1] for config in configs}   # one count (ValueError otherwise)
    states, kept, ends, size0 = initials, [], {}, None
    retake = 1   # snapshots before this one are taken one at a time: the initial, a retaken chunk
    while states and (k := len(kept)) <= n_snaps:
        span = 1 if k < retake or initials[0].grid.d > 1 else min(SNAPSHOT_CHUNK, n_snaps + 1 - k)
        try:
            pending, new = [], states
            for j in range(k, k + span):
                new = advance(new) if j else new
                pending.append(new)
            # (snapshots, members), from each member's snapshots in turn
            norms = np.reshape([size(stack(snaps) if span > 1 else snaps[0])
                                for snaps in zip(*pending)], (len(states), span)).T
            if size0 is None:
                size0 = norms[0]
                for norm in size0[size0 > SMALL_DATA_HINT]:
                    warnings.warn(f"initial norm {norm:.3g} exceeds the operational smallness "
                                  f"{SMALL_DATA_HINT}; global boundedness is not guaranteed",
                                  stacklevel=3)
            base = size0[:len(states)]
            over = np.argwhere((base > 0) & (norms > BLOWUP_FACTOR * base))
            if over.size:   # the first snapshot over, and its first member
                row, m = over[0]
                exc = BlowupError(f"norm explosion: {norms[row, m]:.3g} exceeds {BLOWUP_FACTOR:g} "
                                  f"x the initial {size0[m]:.3g} at "
                                  f"t={(k + row) * configs[m].schedule()[0] * configs[m].dt:g}")
                exc.member = m
                raise exc
        except (OutsideValidityWindow, BlowupError) as exc:
            if span > 1:
                retake = k + span
                continue
            states = states[:getattr(exc, "member", 0)]
            ends[len(states)] = "blowup", str(exc), max(k, 1)   # with the snapshots it keeps
            continue
        kept.extend(pending if k else [initials])
        states = new
    history = kept or [initials]
    return [Trajectory([h[m] for h in history[:count]], columns, status, message)
            for m in range(min(ends, default=len(configs) - 1) + 1)
            for status, message, count in [ends.get(m, ("completed", "", len(history)))]]
