"""Phi functions of the 3x3 symbol against scipy.linalg.expm references.

The relaxation-sweep symbol at eps = 0.2, |xi| = 2 has a double eigenvalue
-3 (damped-Euler and chemoattractant branches coalesce), so its eigenvector
basis is near-singular, where an eigendecomposition loses its digits.
``batched_matrix_phis`` takes one path for every matrix, scaling and
modified squaring, with numpy alone and no LAPACK call; here it is checked
against scipy's exponential of the augmented matrix, which the package does
not import.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from chemorelax import etd
from chemorelax.hpc_solver import PropagatorTables
from chemorelax.linear_analysis import symbol_matrix
from chemorelax.model import params_from_config
from chemorelax.spectral import make_grid

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "relaxation_sweep.json"
DTS = [0.00625, 0.01, 0.1, 1.0]
RTOL = 1e-13


@pytest.fixture(scope="module")
def params():
    cfg = json.loads(CONFIG.read_text())["model"]
    assert cfg["epsilon"] == 0.2
    return params_from_config(cfg)


def expm_reference(a, dt):
    """E, dt phi1(dt A), dt phi2(dt A) from scipy's exponential of the
    block-augmented matrix."""
    m = a.shape[0]
    aug = np.zeros((3 * m, 3 * m))
    aug[:m, :m] = a
    aug[:m, m:2 * m] = np.eye(m)
    aug[m:2 * m, 2 * m:] = np.eye(m)
    e_aug = scipy.linalg.expm(dt * aug)
    return e_aug[:m, :m], e_aug[:m, m:2 * m], e_aug[:m, 2 * m:] / dt


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


def test_symbol_is_near_defective(params):
    a = symbol_matrix(2.0, params)
    lam, v = np.linalg.eig(a)
    assert np.sort(lam.real)[1:] == pytest.approx([-3.0, -3.0], abs=1e-6)
    assert np.linalg.cond(v, "fro") > 1e8


@pytest.mark.parametrize("dt", DTS)
def test_batched_fallback_matches_expm(params, dt):
    """A batch that mixes well-conditioned symbols with the near-defective one
    at |xi| = 2: every matrix's three tables match the reference."""
    xis = [0.0, 1.0, 2.0, 3.0]
    mats = np.stack([symbol_matrix(xi, params) for xi in xis])
    tables = etd.batched_matrix_phis(mats, dt)
    for i, a in enumerate(mats):
        for got, ref in zip(tables, expm_reference(a, dt), strict=True):
            assert got.shape == mats.shape
            assert_close(got[i], ref)


@pytest.mark.parametrize("d,N", [(1, 256), (2, 128), (3, 32)])
def test_grid_symbols_match_expm(params, d, N):
    """Every wavenumber magnitude of a benchmark-sized grid, at the sweep's
    step for eps = 0.2, where the largest matrices take several doublings."""
    mats = symbol_matrix(np.unique(make_grid(d, N, 2 * np.pi).xi_mag_diff), params)
    tables = etd.batched_matrix_phis(mats, 0.00625)
    for i in range(0, len(mats), max(1, len(mats) // 40)):
        for got, ref in zip(tables, expm_reference(mats[i], 0.00625), strict=True):
            assert_close(got[i], ref)


def test_squaring_ceiling_is_non_finite_tables(params):
    """A matrix dt A whose 1-norm needs more than the fixed ceiling of
    squarings, or that is not finite, is NonFiniteTables."""
    mats = np.stack([symbol_matrix(1.0, params)] * 3)
    mats[1, 0, 0] = -1e300
    mats[2, 1, 1] = np.nan
    for bad in (mats[:2], mats[::2]):
        with pytest.raises(etd.NonFiniteTables, match=r"the propagator tables at dt=0.01 hold"):
            etd.batched_matrix_phis(bad, 0.01)


def test_tables_call_no_numpy_linalg(params, monkeypatch):
    """Building propagator tables, near-defective symbol included, calls no
    numpy.linalg function (a process's first eig and inv cost it about 1.6 MiB
    of resident memory)."""
    calls = []
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, original=original, **k:
                                calls.append(name) or original(*a, **k))
    for d, N in ((1, 64), (2, 16)):
        PropagatorTables(make_grid(d, N, 2 * np.pi), params, 0.00625)
    etd.batched_matrix_phis(symbol_matrix(np.array([2.0]), params), 0.1)
    assert calls == []


@pytest.mark.parametrize("dt", DTS)
def test_single_matrix_entry_matches_expm(params, dt):
    a = symbol_matrix(2.0, params)
    for got, ref in zip(etd.batched_matrix_phis(a[None], dt), expm_reference(a, dt)):
        assert got.shape == (1, 3, 3)
        assert_close(got[0], ref)


def test_exactly_singular_eigenbasis(params):
    """The nilpotent shift's computed eigenvector basis is exactly singular;
    alone and in a batch, its phis are the truncated series."""
    shift = np.diag([1.0, 1.0], k=1)
    dt = 0.5
    series = [np.eye(3) + dt * shift + dt ** 2 / 2 * shift @ shift,
              dt * (np.eye(3) + dt / 2 * shift + dt ** 2 / 6 * shift @ shift),
              dt * (np.eye(3) / 2 + dt / 6 * shift + dt ** 2 / 24 * shift @ shift)]
    mats = np.stack([symbol_matrix(1.0, params), shift])
    batched = etd.batched_matrix_phis(mats, dt)
    for got, single, ref in zip(batched, etd.batched_matrix_phis(shift[None], dt), series):
        assert_close(got[1], ref)
        assert_close(single[0], ref)


def taylor_exact(z: complex, shift: int, degree: int = 30) -> complex:
    """sum_k z^k / (k + shift)! in exact rational arithmetic, rounded once.
    For |z| <= 1 the dropped tail is under 1/31! ~ 1e-34."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    pr, pi = Fraction(1), Fraction(0)   # z^k
    for k in range(degree + 1):
        f = math.factorial(k + shift)
        re += pr / f
        im += pi / f
        pr, pi = pr * x - pi * y, pr * y + pi * x
    return complex(float(re), float(im))


PHI_POINTS = [complex(z) for r in np.logspace(-3, 0, 13)
              for z in (r, -r, *(r * np.exp(1j * np.array([np.pi / 2, 0.3, 1.7, 2.9, -2.2]))))]


@pytest.mark.parametrize("shift,phi", [(1, etd.phi1), (2, etd.phi2)])
def test_phi_few_ulps_on_unit_disc(shift, phi):
    """phi1 and phi2 for real and complex 1e-3 <= |z| <= 1, where the direct
    forms (e^z - 1)/z and (e^z - 1 - z)/z^2 lose digits to cancellation,
    to 4 ulps of the exact series."""
    for z in PHI_POINTS:
        ref = taylor_exact(z, shift)
        got = complex(phi(z))
        assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref), (z, got, ref)
