"""Physical parameters, pressure laws and the density/enthalpy change of variables.

The solvers evolve the enthalpy perturbation ``n = int_{rho_bar}^{rho} P'(s)/s ds``
instead of the density; this module owns that diffeomorphism, the nonlinear
coefficients ``G`` and ``H`` it induces, and the linear stability margin.
Everything is vectorized over numpy arrays so fields can be mapped pointwise.
"""

from __future__ import annotations

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


def params_from_config(cfg: dict) -> ModelParams:
    """Build ModelParams from a flat key/value block.

    Recognized keys: epsilon, mu, a, b, rho_bar, gamma, kappa, k_offset (an
    integer; ValueError otherwise).
    """
    required = ("epsilon", "mu", "a", "b", "rho_bar")
    for key in required:
        if key not in cfg:
            raise KeyError(f"missing model key: {key}")
    k_offset = cfg.get("k_offset", -2)
    if not float(k_offset).is_integer():   # 2.7 is not read as 2
        raise ValueError(f"k_offset must be an integer, got {k_offset!r}")
    law = PressureLaw(kappa=float(cfg.get("kappa", 1.0)), gamma=float(cfg.get("gamma", 2.0)))
    return ModelParams(eps=float(cfg["epsilon"]), mu=float(cfg["mu"]), a=float(cfg["a"]),
                       b=float(cfg["b"]), rho_bar=float(cfg["rho_bar"]), pressure=law,
                       j_offset=int(k_offset))
