"""Physical parameters, pressure laws and the density/enthalpy change of variables.

The solvers evolve the enthalpy perturbation ``n = int_{rho_bar}^{rho} P'(s)/s ds``
instead of the density; this module owns that diffeomorphism, the nonlinear
coefficients ``G`` and ``H`` it induces, and the linear stability margin.
Everything is vectorized over numpy arrays so fields can be mapped pointwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import compute_threshold

__all__ = [
    "PressureLaw",
    "ModelParams",
    "OutsideValidityWindow",
    "enthalpy_n",
    "density_rho",
    "density_perturbation",
    "coefficient_G",
    "coefficient_H",
    "coefficients_GH",
    "check_stability",
    "params_from_config",
    "REQUIRED", "config_kind", "as_number", "as_integer", "read_keys", "MODEL_KEYS",
]

# relative validity window around rho_bar; leaving it is treated as blow-up
WINDOW_LO = 0.5
WINDOW_HI = 2.0


class OutsideValidityWindow(ValueError):
    """Raised when a density (or its enthalpy image) leaves [rho_bar/2, 2 rho_bar]."""


@dataclass(frozen=True)
class PressureLaw:
    """Gamma-law pressure P(rho) = kappa rho^gamma; gamma = 1 is isothermal."""

    kappa: float = 1.0
    gamma: float = 2.0

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not (self.gamma >= 1):
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")

    @property
    def isothermal(self) -> bool:
        return self.gamma == 1.0

    def dP(self, rho):
        rho = np.asarray(rho, dtype=np.float64)
        return self.kappa * self.gamma * rho ** (self.gamma - 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Constants of the chemotaxis model and the derived linearization constants.

    eps is the relaxation (friction) parameter, mu the chemotactic intensity,
    a and b the production/death rates of the chemoattractant, rho_bar the
    background density.  j_offset is the integer offset k in the low/high
    frequency threshold J = floor(-log2 eps) + k.
    """

    eps: float
    mu: float = 1.0
    a: float = 1.0
    b: float = 1.0
    rho_bar: float = 1.0
    pressure: PressureLaw = field(default_factory=PressureLaw)
    j_offset: int = -2

    def __post_init__(self):
        # eps = 1 is admitted so the spectral tooling can probe the undamped-scale
        # edge case; the solvers and threshold require eps < 1.
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        for name in ("mu", "a", "b", "rho_bar"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for rho in (WINDOW_LO * self.rho_bar, self.rho_bar, WINDOW_HI * self.rho_bar):
            if not (self.pressure.dP(rho) > 0):
                raise ValueError(f"pressure must be increasing on the validity window, P'({rho}) <= 0")

    @cached_property
    def c0(self) -> float:
        """P'(rho_bar): acoustic stiffness of the enthalpy variable (every
        G/H evaluation reads it)."""
        return float(self.pressure.dP(self.rho_bar))

    @property
    def c1(self) -> float:
        """a rho_bar / P'(rho_bar): linear production rate seen by psi."""
        return float(self.a * self.rho_bar / self.c0)

    @property
    def phi_bar(self) -> float:
        """Equilibrium concentration a rho_bar / b."""
        return float(self.a * self.rho_bar / self.b)

    @property
    def stability_margin(self) -> float:
        """P'(rho_bar) - a mu rho_bar / b; positivity is the stability condition."""
        return float(self.c0 - self.a * self.mu * self.rho_bar / self.b)

    def threshold(self) -> int:
        return compute_threshold(self.eps, self.j_offset)

    def window(self) -> tuple:
        return (WINDOW_LO * self.rho_bar, WINDOW_HI * self.rho_bar)

    @cached_property
    def enthalpy_window(self) -> tuple:
        """(n_lo, n_hi): the enthalpy images of the density window's ends."""
        return tuple(enthalpy_n(rho, self) for rho in self.window())


def _require_within(x: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    """x, or OutsideValidityWindow if a value is outside [lo, hi] or not finite."""
    if not (lo <= x.min() and x.max() <= hi):   # a NaN fails both comparisons
        bad = x[~(np.isfinite(x) & (x >= lo) & (x <= hi))]
        raise OutsideValidityWindow(f"{what} [{lo}, {hi}]: extreme value {bad.flat[0]}")
    return x


def _check_window(rho, params: ModelParams, what: str) -> np.ndarray:
    lo, hi = params.window()
    return _require_within(np.asarray(rho, dtype=np.float64), lo, hi,
                           f"{what} left the validity window")


def enthalpy_n(rho, params: ModelParams):
    """n(rho) = int_{rho_bar}^{rho} P'(s)/s ds, in closed form for gamma laws."""
    rho = _check_window(rho, params, "density")
    law, rb = params.pressure, params.rho_bar
    if law.isothermal:
        return law.kappa * np.log(rho / rb)
    g = law.gamma
    return law.kappa * g / (g - 1.0) * (rho ** (g - 1.0) - rb ** (g - 1.0))


def density_perturbation(n, params: ModelParams):
    """rho(n) - rho_bar, accurate at the perturbation scale.

    Uses expm1/log1p so that tiny perturbations are not destroyed by the
    cancellation against the order-one background; this is what keeps the
    mean-mode mass projection and H(n) meaningful for near-linear runs.
    """
    n = _require_within(np.asarray(n, dtype=np.float64), *params.enthalpy_window,
                        "enthalpy left the admissible range")
    law, rb = params.pressure, params.rho_bar
    if law.isothermal:
        return rb * np.expm1(n / law.kappa)
    g = law.gamma
    x = (g - 1.0) / (law.kappa * g) * n / rb ** (g - 1.0)
    if g == 2.0:
        return rb * x
    return rb * np.expm1(np.log1p(x) / (g - 1.0))


def density_rho(n, params: ModelParams):
    """Exact inverse of :func:`enthalpy_n` on the validity window."""
    return params.rho_bar + density_perturbation(n, params)


def coefficients_GH(n, params: ModelParams):
    """(G(n), H(n)) from one evaluation of the density perturbation:
    G = P'(rho(n)) - P'(rho_bar) vanishes at n = 0, and
    H = a (rho(n) - rho_bar - rho_bar n / P'(rho_bar)) is quadratic at 0."""
    n = np.asarray(n, dtype=np.float64)
    pert = density_perturbation(n, params)
    law = params.pressure
    if law.isothermal:
        g = np.zeros_like(pert)
    else:
        g = params.c0 * np.expm1((law.gamma - 1.0) * np.log1p(pert / params.rho_bar))
    return g, _h_of(n, pert, params)


def _h_of(n, pert, params: ModelParams):
    """H = a (pert - rho_bar n / P'(rho_bar)) from pert = rho(n) - rho_bar."""
    return params.a * (pert - params.rho_bar / params.c0 * n)


def coefficient_G(n, params: ModelParams):
    """G(n) of :func:`coefficients_GH`."""
    return coefficients_GH(n, params)[0]


def coefficient_H(n, params: ModelParams, pert=None):
    """H(n) of :func:`coefficients_GH`; ``pert`` is
    :func:`density_perturbation` of n when the caller has it."""
    n = np.asarray(n, dtype=np.float64)
    return _h_of(n, density_perturbation(n, params) if pert is None else pert, params)


def check_stability(params: ModelParams):
    """Return (stable, margin) with margin = P'(rho_bar) - a mu rho_bar / b."""
    margin = params.stability_margin
    return margin > 0, margin


REQUIRED = object()   # the default of a key that a config block must give


def config_kind(kind: str):
    """Decorator of a config-value converter: ``kind`` is what it accepts, as
    a config error names it ("a number")."""
    def mark(convert):
        convert.kind = kind
        return convert
    return mark


@config_kind("a number")
def as_number(value) -> float:
    """A JSON number as a float; not a boolean or a string, which float() takes."""
    if isinstance(value, (bool, str)):
        raise TypeError
    return float(value)


@config_kind("an integer")
def as_integer(value) -> int:
    """A JSON number with an integral value: 2.7 is not read as 2."""
    if not as_number(value).is_integer():
        raise ValueError
    return int(value)


def read_keys(block: dict, keys: dict, where: str = "") -> dict:
    """A config block's values through its table, key -> (converter, default);
    an absent key takes its default as it stands.  ValueError on an unknown key
    or a value that does not convert, KeyError on a missing REQUIRED key."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; the keys are {', '.join(keys)}")
    values = {}
    for key, (convert, default) in keys.items():
        if key not in block and default is REQUIRED:
            raise KeyError(f"missing key {where}{key}")
        try:
            values[key] = convert(block[key]) if key in block else default
        except (TypeError, ValueError, KeyError, OverflowError):
            raise ValueError(f"{where}{key} must be {convert.kind}, "
                             f"got {json.dumps(block[key])}") from None
    return values


MODEL_KEYS = {"epsilon": (as_number, REQUIRED), "mu": (as_number, REQUIRED),
              "a": (as_number, REQUIRED), "b": (as_number, REQUIRED),
              "rho_bar": (as_number, REQUIRED), "gamma": (as_number, 2.0),
              "kappa": (as_number, 1.0), "k_offset": (as_integer, -2)}


def params_from_config(cfg: dict) -> ModelParams:
    """ModelParams from a flat block with the keys of MODEL_KEYS, read by
    :func:`read_keys`; k_offset is the threshold offset j_offset."""
    v = read_keys(cfg, MODEL_KEYS)
    return ModelParams(eps=v["epsilon"], mu=v["mu"], a=v["a"], b=v["b"], rho_bar=v["rho_bar"],
                       pressure=PressureLaw(kappa=v["kappa"], gamma=v["gamma"]),
                       j_offset=v["k_offset"])
