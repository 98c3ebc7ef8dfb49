"""chemorelax: a pseudo-spectral laboratory for a hyperbolic-parabolic
chemotaxis system and its Keller-Segel relaxation limit.

Submodules
----------
spectral         periodic fields, Fourier multipliers, dyadic blocks, Besov norms
model            pressure laws, enthalpy variable, nonlinear coefficients, stability
linear_analysis  linearized symbol, spectrum, continuum decay studies and fits
driver           snapshot schedule, time-integration loop and trajectory type
                 shared by both solvers
hpc_solver       exponential-integrator solver for the relaxation system
ks_solver        solver for the parabolic-elliptic limit model
diagnostics      damped modes, Lyapunov functionals, relaxation sweep
cli              batch front door (``chemorelax <subcommand> --config ... --out ...``)
"""

from .model import ModelParams, PressureLaw, OutsideValidityWindow, check_stability
from .spectral import (
    Grid,
    SpectralField,
    DyadicDecomposition,
    make_grid,
    make_decomposition,
    compute_threshold,
    bessel_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "PressureLaw",
    "OutsideValidityWindow",
    "check_stability",
    "Grid",
    "SpectralField",
    "DyadicDecomposition",
    "make_grid",
    "make_decomposition",
    "compute_threshold",
    "bessel_inverse",
    "__version__",
]
