"""Exponential-integrator building blocks: phi functions and propagator tables.

The stiff linear part of both solvers is integrated exactly per Fourier mode.
For the chemotaxis system that linear part is the real 3x3 symbol on the
compressible triple (n, m, psi) plus a scalar relaxation factor on the
incompressible velocity; for the limit model it is a scalar symbol.  The
second-order scheme used everywhere is the one-step exponential Runge-Kutta

    y* = E y + P1 N(y),      y+ = y* + P2 (N(y*) - N(y)),

with E = exp(dt A), P1 = dt phi1(dt A), P2 = dt phi2(dt A).  Matrix symbols
take one path, ``batched_matrix_phis``: scaling and modified squaring
(Skaflestad & Wright, Appl. Numer. Math. 59, 2009).  Each X = dt A / 2^s
with ||X||_1 <= 2 takes the Taylor sum of phi2 (Horner's rule), then
phi1 = I + X phi2 and E = I + X phi1, and s doublings

    E(2X) = E(X)^2,  phi1(2X) = (E(X) phi1(X) + phi1(X)) / 2,
    phi2(2X) = (phi1(X)^2 + 2 phi2(X)) / 4

carry them back to dt A.  It needs no eigenvectors, so a defective or
near-defective symbol (where damped-Euler and chemoattractant branches
coalesce) takes the same path as any other, and it calls neither scipy nor
numpy's LAPACK routines.
The scalar phis use their Taylor series on the unit disc, where the direct
forms lose digits to cancellation (Kassam & Trefethen, SIAM J. Sci. Comput.
26, 2005).  The chemotaxis solver applies its tables as one complex 3x3
matrix per mode on (n, u, psi) in d=1 and split into the compressible and
transverse velocity in d >= 2 (see :mod:`chemorelax.hpc_solver` for why).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["phi1", "phi2", "batched_matrix_phis", "scalar_phis", "NonFiniteTables",
           "require_finite"]

# phi1 = sum z^k/(k+1)!, phi2 = sum z^k/(k+2)! for |z| < 1, where the direct forms
# lose eps/|z| and eps/|z|^2 to cancellation; 20 terms leave a remainder under
# 1/21! ~ 2e-20, and Horner's rule stays within a few ulps on the unit disc
_SERIES_CUTOFF = 1.0
_PHI1_COEFFS = [1.0 / math.factorial(k + 1) for k in range(20)]
_PHI2_COEFFS = [1.0 / math.factorial(k + 2) for k in range(20)]

# matrix phis: Taylor sums at ||X||_1 <= _SCALED_NORM, where the first dropped
# term of phi2, X^23/25!, is under 2^23/25! ~ 5e-19.  Each doubling can double
# the tables' relative error, and stopping at 2 rather than at 1/2 saves two:
# against scipy's expm, 1.0e-14 rather than 5.3e-14 on the 1D N=256 grid at
# dt = 0.01, and at most 5.7e-13 rather than 2.6e-12 over four configs'
# symbols on 1D, 2D and 3D grids at dt up to 1
_SCALED_NORM = 2.0
_PHI2_TAYLOR = [1.0 / math.factorial(k + 2) for k in range(23)]
# a matrix dt A that needs more doublings than this (||dt A||_1 >= 2^33) holds
# model constants too extreme for the propagator: NonFiniteTables
_MAX_SQUARINGS = 32


def _poly(z, coeffs):
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def phi1(z):
    """(e^z - 1)/z, stable near z = 0 (complex-safe)."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(zs) - 1.0) / np.where(small, 1.0, zs)
    return np.where(small, _poly(z, _PHI1_COEFFS), direct)


def phi2(z):
    """(e^z - 1 - z)/z^2, stable near z = 0 (complex-safe)."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(zs) - 1.0 - zs) / zs ** 2
    return np.where(small, _poly(z, _PHI2_COEFFS), direct)


class NonFiniteTables(ValueError):
    """Propagator factors with a non-finite entry: model constants too extreme."""


def require_finite(dt: float, factors) -> None:
    """NonFiniteTables if a factor array built for step dt has a non-finite entry."""
    bad = sum(np.count_nonzero(~np.isfinite(f)) for f in factors)
    if bad:
        raise NonFiniteTables(f"the propagator tables at dt={dt!r} hold {bad} non-finite entries; "
                              f"the model constants are too extreme for the linear propagator")


def scalar_phis(symbol, dt: float):
    """(E, P1, P2) for a scalar (diagonal) linear symbol array."""
    z = dt * np.asarray(symbol, dtype=np.complex128)
    return np.exp(z), dt * phi1(z), dt * phi2(z)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix products a_n b_n of two (m, m, n) stacks."""
    return np.einsum("ijn,jkn->ikn", a, b)


def batched_matrix_phis(mats: np.ndarray, dt: float):
    """(E, P1, P2) for a stack of real matrices A, shape (n, m, m), by the
    scaling and modified squaring of the module docstring: each matrix takes
    its own number s of doublings, the least with
    ||dt A / 2^s||_1 <= _SCALED_NORM, so that a low mode is not doubled more
    than it needs.  A matrix that would need more than _MAX_SQUARINGS (or has
    a non-finite entry) is NonFiniteTables."""
    x = dt * np.ascontiguousarray(np.moveaxis(mats, 0, -1))   # (m, m, n)
    norm = np.abs(x).sum(axis=0).max(axis=0)   # the 1-norm: the largest column sum
    worst = float(norm.max(initial=0.0))
    if not worst < _SCALED_NORM * 2.0 ** _MAX_SQUARINGS:   # a NaN norm fails too
        raise NonFiniteTables(f"the propagator tables at dt={dt!r} hold a matrix dt A of "
                              f"1-norm {worst:.3g}, beyond {_MAX_SQUARINGS} squarings; the "
                              f"model constants are too extreme for the linear propagator")
    s = np.maximum(np.frexp(norm / _SCALED_NORM)[1], 0)
    x /= 2.0 ** s
    eye = np.broadcast_to(np.eye(len(x))[:, :, None], x.shape)
    p2 = _PHI2_TAYLOR[-1] * eye
    for c in reversed(_PHI2_TAYLOR[:-1]):
        p2 = _products(x, p2) + c * eye
    p1 = eye + _products(x, p2)
    e = eye + _products(x, p1)
    for j in range(s.max(initial=0)):
        left = s > j   # the matrices with doublings left
        p2 = np.where(left, (_products(p1, p1) + 2.0 * p2) / 4.0, p2)
        p1 = np.where(left, (_products(e, p1) + p1) / 2.0, p1)
        e = np.where(left, _products(e, e), e)
    return tuple(np.moveaxis(f, -1, 0) for f in (e, dt * p1, dt * p2))
