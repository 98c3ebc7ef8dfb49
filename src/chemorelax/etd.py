"""Exponential-integrator building blocks: phi functions and propagator tables.

The stiff linear part of both solvers is integrated exactly per Fourier mode.
For the chemotaxis system that linear part is the real 3x3 symbol on the
compressible triple (n, m, psi) plus a scalar relaxation factor on the
incompressible velocity; for the limit model it is a scalar symbol.  The
second-order scheme used everywhere is the one-step exponential Runge-Kutta

    y* = E y + P1 N(y),      y+ = y* + P2 (N(y*) - N(y)),

with E = exp(dt A), P1 = dt phi1(dt A), P2 = dt phi2(dt A).  Matrix symbols
take one path, ``batched_matrix_phis``, and need numpy only (no scipy).
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

_COND_LIMIT = 1e8
_TAYLOR_DEGREE = 18


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Moler & Van Loan, SIAM Rev. 2003): with the
    1-norm of a / 2^s at most 1/2, the degree-18 Taylor polynomial (Horner form) is
    exact to 0.5^19 / 19! ~ 2e-23, far under round-off; it is then squared s times."""
    s = max(0, math.frexp(2.0 * np.linalg.norm(a, 1))[1])
    x = a / 2.0 ** s
    out = eye = np.eye(len(a))
    for k in range(_TAYLOR_DEGREE, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def _augmented_phis(a: np.ndarray, dt: float):
    """E, dt phi1, dt phi2 of one matrix from exp(dt [[A, I, 0], [0, 0, I], [0, 0, 0]])."""
    m = a.shape[0]
    aug = np.zeros((3 * m, 3 * m))
    aug[:m, :m] = a
    aug[:m, m:2 * m] = np.eye(m)
    aug[m:2 * m, 2 * m:] = np.eye(m)
    e_aug = _expm(dt * aug)
    return e_aug[:m, :m], e_aug[:m, m:2 * m], e_aug[:m, 2 * m:] / dt


def batched_matrix_phis(mats: np.ndarray, dt: float):
    """(E, P1, P2) for a stack of real matrices, shape (n, m, m).

    Vectorized eigendecomposition; a near-defective matrix (ill-conditioned
    eigenvector basis) takes the augmented-exponential route instead.
    """
    lam, v = np.linalg.eig(mats)
    bad = np.linalg.cond(v, "fro") > _COND_LIMIT   # cond is inf for a singular basis
    vi = np.linalg.inv(np.where(bad[:, None, None], np.eye(mats.shape[-1]), v))
    z = dt * lam
    e, p1, p2 = (np.einsum("nij,nj,njk->nik", v, diag, vi).real
                 for diag in (np.exp(z), dt * phi1(z), dt * phi2(z)))
    for idx in np.where(bad)[0]:
        e[idx], p1[idx], p2[idx] = _augmented_phis(mats[idx], dt)
    return e, p1, p2
