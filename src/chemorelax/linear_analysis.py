"""Exact linearized symbol, its spectrum, and the continuum semigroup decay study.

The linearization around equilibrium couples the enthalpy n, the compressible
velocity amplitude m = Lambda^{-1} div u and the concentration perturbation
psi through a real 3x3 matrix per wavenumber magnitude; the incompressible
velocity part relaxes independently at rate 1/eps.  This module provides the
matrix, the characteristic cubic (with the pressure stiffness c0 carried
explicitly) and its roots with residual certificates, each evaluated over a
scalar or an array of magnitudes in one call; asymptotic-ratio tables for the
low/high frequency regimes and a stability scan, each one such call; and a
radially-resolved continuum evolution used to measure time-decay exponents of
Besov norms on R^d, which a torus run cannot exhibit, with the log-log fit
(``decay_fit``) that reads the exponents off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams
from .spectral import ring_profile

__all__ = [
    "symbol_matrix",
    "characteristic_cubic",
    "eigenvalues",
    "lowfreq_asymptotic_check",
    "highfreq_asymptotic_check",
    "stability_scan",
    "RadialQuadrature",
    "DecayStudyResult",
    "decay_fit",
    "semigroup_decay_study",
    "SPHERE_MEASURE",
]

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def symbol_matrix(xi, params: ModelParams) -> np.ndarray:
    """Linearized 3x3 generator on (n, m, psi) at every |xi|, shaped
    (*xi.shape, 3, 3); lower triangular at xi = 0.  The incompressible
    velocity relaxes at the scalar rate -1/eps."""
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi < 0):
        raise ValueError("wavenumber magnitude must be nonnegative")
    p = params
    a = np.zeros(xi.shape + (3, 3))
    a[..., 0, 1] = -p.c0 * xi
    a[..., 1, 0] = xi
    a[..., 1, 1] = -1.0 / p.eps
    a[..., 1, 2] = -p.mu * xi
    a[..., 2, 0] = p.c1
    a[..., 2, 2] = -(p.b + xi * xi)
    return a


def characteristic_cubic(xi, params: ModelParams):
    """Monic cubic coefficients (a2, a1, a0) of the compressible block.

    a2 = 1/eps + b + xi^2,
    a1 = b/eps + xi^2/eps + c0 xi^2,
    a0 = c0 xi^2 (xi^2 + b - c1 mu);
    setting c0 = 1 recovers the normalized display.
    """
    p = params
    x2 = xi * xi
    a2 = 1.0 / p.eps + p.b + x2
    a1 = p.b / p.eps + x2 / p.eps + p.c0 * x2
    a0 = p.c0 * x2 * (x2 + p.b - p.c1 * p.mu)
    return a2, a1, a0


def eigenvalues(xi, params: ModelParams):
    """Roots of the characteristic cubic at every |xi|: companion-matrix
    eigenvalues with one Newton polish and a residual bound.

    Returns (lam, has_pair), shaped (*xi.shape, 3) and xi.shape.  With a
    complex pair, lam holds the pair (positive imaginary part first) and then
    the real root; with three real roots, the one of smallest modulus, the one
    nearest -1/eps, then the other.
    """
    xi = np.asarray(xi, dtype=np.float64)
    a2, a1, a0 = (np.asarray(c)[..., None] for c in characteristic_cubic(xi, params))
    companion = np.zeros(xi.shape + (3, 3))
    companion[..., 0, :] = -np.concatenate([a2, a1, a0], axis=-1)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    lam = np.linalg.eigvals(companion).astype(np.complex128)
    dp = (3.0 * lam + 2.0 * a2) * lam + a1
    p = ((lam + a2) * lam + a1) * lam + a0
    safe = np.abs(dp) > 0
    lam[safe] = lam[safe] - p[safe] / dp[safe]

    # real cubic: force conjugate closure and collapse tiny imaginary parts
    imag_scale = np.abs(lam.imag) / (1.0 + np.abs(lam))
    real_mask = imag_scale < 1e-9
    lam[real_mask] = lam[real_mask].real

    # the docstring's order: sort by key, conjugate the pair, then swap the
    # larger two real roots where the third is nearer -1/eps
    has_pair = np.sum(~real_mask, axis=-1) == 2
    pair = has_pair[..., None]
    key = np.where(pair, np.where(real_mask, np.inf, -lam.imag), np.abs(lam.real))
    lam = np.take_along_axis(np.where(pair, lam, lam.real), np.argsort(key, axis=-1), axis=-1)
    lam[has_pair, 1] = np.conj(lam[has_pair, 0])
    gap = np.abs(lam.real[..., 1:] + 1.0 / params.eps)
    swap = ~has_pair & (gap[..., 1] < gap[..., 0])
    lam[swap, 1:] = lam[swap, :0:-1]

    res = np.abs(((lam + a2) * lam + a1) * lam + a0)
    bad = np.any(res > 1e-9 * (1.0 + np.abs(lam) ** 3), axis=-1)
    if bad.any():
        k = np.argmax(bad.ravel())
        raise RuntimeError(f"cubic root residual {res.reshape(-1, 3)[k].max():.3e} exceeds "
                           f"bound at xi={xi.ravel()[k]}")
    return lam, has_pair


def lowfreq_asymptotic_check(params: ModelParams, xi_values) -> dict:
    """Ratios of the exact roots to their low-frequency leading terms.

    ratio1 compares lam1 with -(P'(rho_bar) - a mu rho_bar / b) eps xi^2 (or,
    at zero margin, with -(c0/b) eps xi^4 where the next order takes over);
    ratio2 and ratio3 compare lam2, lam3 with -1/eps and -b.  All sampled
    roots must be real; complex roots in the sampled regime are an error.
    """
    xi = np.asarray(xi_values, dtype=np.float64)
    p = params
    margin = p.stability_margin
    lam, has_pair = eigenvalues(xi, p)
    if has_pair.any():
        raise RuntimeError(f"complex eigenvalues at xi={xi[has_pair][0]}: "
                           "not in the low-frequency regime")
    ref1 = (-margin * p.eps * xi ** 2) if margin != 0 else (-(p.c0 / p.b) * p.eps * xi ** 4)
    return {"xi": xi, "ratio1": lam[..., 0].real / ref1,
            "ratio2": lam[..., 1].real / (-1.0 / p.eps), "ratio3": lam[..., 2].real / (-p.b)}


def highfreq_asymptotic_check(params: ModelParams, xi_values) -> dict:
    """Ratios against the high-frequency forms: Re lam1 ~ -1/(2 eps),
    Im lam1 ~ sqrt(c0) |xi| (the normalized display has c0 = 1), and
    lam3 ~ -b - |xi|^2.  An all-real spectrum in the sampled regime is an error.
    """
    xi = np.asarray(xi_values, dtype=np.float64)
    p = params
    lam, has_pair = eigenvalues(xi, p)
    if not has_pair.all():
        raise RuntimeError(f"all-real spectrum at xi={xi[~has_pair][0]}: "
                           "not in the high-frequency regime")
    return {"xi": xi, "ratio_re1": lam[..., 0].real * 2.0 * p.eps / (-1.0),
            "ratio_im1": lam[..., 0].imag / (math.sqrt(p.c0) * xi),
            "ratio3": lam[..., 2].real / (-(p.b + xi ** 2))}


def stability_scan(params: ModelParams, xi_max: float, samples: int = 1000):
    """Max over the scan of max Re lambda, plus the per-sample table of
    (xi, lam1, lam2, lam3) rows.

    Under a positive margin the result is <= 0; a negative margin produces a
    positive real root inside the band |xi|^2 < c1 mu - b.
    """
    if not (xi_max > 0):
        raise ValueError("xi_max must be positive")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    xi = np.linspace(xi_max / samples, xi_max, samples)
    lam, _ = eigenvalues(xi, params)
    return float(lam.real.max()), list(zip(xi, *lam.T))


# -- continuum radial evolution ----------------------------------------------

# panel breakpoints of the ring profile, in units of 2^j
_RING_BREAKS = (0.75, 4.0 / 3.0, 1.5, 8.0 / 3.0)

# the decay study's rings j_lo .. j_hi, fit times and t = 0 quadrature tolerance
DECAY_RINGS = (-20, 6)
DECAY_TIMES = 25
DECAY_QUAD_TOL = 1e-6


@dataclass(eq=False)
class RadialQuadrature:
    """Gauss-Legendre nodes on each dyadic ring j_lo .. j_hi of (0, r_max].

    Panels are aligned with the ring profile's smoothness breakpoints so every
    panel integrand is smooth; nodes_per_panel = 32 gives three panels (96
    nodes) per ring, comfortably past the 64-shells-per-ring budget.  ``r``
    and ``meas`` are (rings, nodes) arrays: the nodes of ring ``js[i]`` and its
    measure phi(2^{-j} r)^2 r^{d-1} dr over the sphere.
    """

    d: int
    j_lo: int
    j_hi: int
    nodes_per_panel: int = 32
    js: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    meas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gl_x, gl_w = np.polynomial.legendre.leggauss(self.nodes_per_panel)
        lo, hi = np.array(_RING_BREAKS[:-1])[:, None], np.array(_RING_BREAKS[1:])[:, None]
        x = (0.5 * (hi + lo) + 0.5 * (hi - lo) * gl_x).ravel()   # ring 0's nodes
        w = SPHERE_MEASURE[self.d] * (0.5 * (hi - lo) * gl_w).ravel() * ring_profile(x) ** 2
        self.js = np.arange(self.j_lo, self.j_hi + 1)
        scale = 2.0 ** self.js[:, None]
        self.r = scale * x
        self.meas = scale * w * self.r ** (self.d - 1)

    def ring_l2(self, values: np.ndarray) -> np.ndarray:
        """L2 mass of every ring given |f|(r) sampled at the nodes: values
        shaped (..., rings, nodes) give masses shaped (..., rings)."""
        return np.sqrt(np.sum(self.meas * np.abs(values) ** 2, axis=-1))

    def refine(self) -> "RadialQuadrature":
        return RadialQuadrature(d=self.d, j_lo=self.j_lo, j_hi=self.j_hi,
                                nodes_per_panel=2 * self.nodes_per_panel)


@dataclass
class DecayStudyResult:
    """Decay-study output: fitted slopes and the underlying norm series."""

    d: int
    sigma0: float
    sigma: float
    times: np.ndarray
    norm_triple: np.ndarray      # ||(n, u, psi)||_{B^sigma_{2,1}}
    norm_damped: np.ndarray      # ||u|| + ||b psi - c1 n||, same norm
    norm_phitilde: np.ndarray    # ||b psi - c1 n|| alone
    norm_u: np.ndarray
    norm_sup0: np.ndarray        # ||(n, u, psi)||_{B^sigma0_{2,inf}}
    slope_triple: float
    slope_damped: float
    slope_phitilde: float
    slope_u: float
    slope_sup0: float
    paper_slope: float           # -(sigma - sigma0)/2
    paper_slope_damped: float    # -(1 + sigma - sigma0)/2


def decay_fit(times, values, eps: float, window=(5.0, 50.0)):
    """Least-squares slope of log(value) against log(1 + eps t) on the window.

    Returns (slope, fit_rms, n_samples); requires at least 8 positive samples
    with eps t inside the window.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = (eps * times >= window[0]) & (eps * times <= window[1])
    if int(mask.sum()) < 8:
        raise ValueError(f"need >= 8 samples in the fit window, got {int(mask.sum())}")
    v = values[mask]
    if np.any(v <= 0):
        raise ValueError("decay fit requires positive values in the window")
    x = np.log1p(eps * times[mask])
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), rms, int(mask.sum())


def semigroup_decay_study(params: ModelParams, sigma0: float, sigma: float, *, d: int,
                          window=(5.0, 50.0)) -> DecayStudyResult:
    """Evolve radial data by the exact per-shell matrix exponential and fit decay.

    Every component (n, m, psi) starts from the Gaussian coefficient profile
    exp(-r^2/2).  The symbol is diagonalized once at every quadrature node;
    the solution at all fit times, its ring masses and the Besov norms are
    arrays over (times, rings), and the log-norm is fit against log(1 + eps t)
    on the declared window.
    """
    if not (-d / 2 <= sigma0 < d / 2):
        raise ValueError(f"sigma0 must lie in [-d/2, d/2), got {sigma0}")
    if not (sigma0 < sigma <= d / 2):
        raise ValueError(f"sigma must lie in (sigma0, d/2], got {sigma}")
    if d not in SPHERE_MEASURE:
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    if not (0.0 < window[0] < window[1]):
        raise ValueError(f"window must satisfy 0 < lo < hi, got {window}")
    def profile(r):
        return np.exp(-r * r / 2.0)

    p = params
    quad = RadialQuadrature(d=d, j_lo=DECAY_RINGS[0], j_hi=DECAY_RINGS[1])
    fine = quad.refine()

    # quadrature resolution certificate at t = 0 (rings with negligible mass
    # relative to the largest ring carry no norm information and are skipped)
    coarse, refined = quad.ring_l2(profile(quad.r)), fine.ring_l2(profile(fine.r))
    bad = (refined > 1e-12 * refined.max()) & (np.abs(coarse - refined) > DECAY_QUAD_TOL * refined)
    if bad.any():
        raise RuntimeError(f"ring {quad.js[bad.argmax()]} quadrature error above "
                           f"{DECAY_QUAD_TOL:g} at t=0")

    lam, V = np.linalg.eig(symbol_matrix(quad.r.ravel(), p))
    if np.any(np.linalg.cond(V, "fro") > 1e8):
        raise RuntimeError("near-defective symbol matrix in decay study")
    y0 = np.repeat(profile(quad.r.reshape(-1, 1)), 3, axis=1)
    coeffs = np.einsum("nij,nj->ni", np.linalg.inv(V), y0)

    times = np.geomspace(window[0] / p.eps, window[1] / p.eps, DECAY_TIMES)
    y = np.einsum("nij,tnj->itn", V, coeffs * np.exp(lam * times[:, None, None]))
    y = y.reshape(3, DECAY_TIMES, *quad.r.shape)   # (n, m, psi) by time, ring and node
    ln, lu, lpsi = quad.ring_l2(y)                  # each (times, rings); |u^| = |m^|
    lpt = quad.ring_l2(p.b * y[2] - p.c1 * y[0])
    w_sig = 2.0 ** (quad.js * sigma)

    series = dict(norm_triple=(ln + lu + lpsi) @ w_sig, norm_damped=(lu + lpt) @ w_sig,
                  norm_phitilde=lpt @ w_sig, norm_u=lu @ w_sig,
                  norm_sup0=np.max(2.0 ** (quad.js * sigma0) * (ln + lu + lpsi), axis=1))
    slopes = {name.replace("norm_", "slope_"): decay_fit(times, values, p.eps, window)[0]
              for name, values in series.items()}
    return DecayStudyResult(
        d=d, sigma0=sigma0, sigma=sigma, times=times, **series, **slopes,
        paper_slope=-(sigma - sigma0) / 2.0,
        paper_slope_damped=-(1.0 + sigma - sigma0) / 2.0,
    )
