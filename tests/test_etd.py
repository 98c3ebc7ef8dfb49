"""Phi functions of the 3x3 symbol against scipy.linalg.expm references.

The relaxation-sweep symbol at eps = 0.2, |xi| = 2 has a double eigenvalue
-3 (damped-Euler and chemoattractant branches coalesce), so its eigenvector
basis is near-singular and ``batched_matrix_phis`` must take the augmented
route.  The package computes that exponential with numpy alone; here it is
checked against scipy's, which the package does not import.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from chemorelax import etd
from chemorelax.linear_analysis import symbol_matrix
from chemorelax.model import params_from_config

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
    a = symbol_matrix(2.0, params).matrix
    lam, v = np.linalg.eig(a)
    assert np.sort(lam.real)[1:] == pytest.approx([-3.0, -3.0], abs=1e-6)
    assert np.linalg.cond(v, "fro") > etd._COND_LIMIT


@pytest.mark.parametrize("dt", DTS)
def test_batched_fallback_matches_expm(params, dt, monkeypatch):
    xis = [0.0, 1.0, 2.0, 3.0]
    mats = np.stack([symbol_matrix(xi, params).matrix for xi in xis])
    calls = []
    augmented = etd._augmented_phis

    def spy(a, dt_):
        calls.append(a.copy())
        return augmented(a, dt_)

    monkeypatch.setattr(etd, "_augmented_phis", spy)
    tables = etd.batched_matrix_phis(mats, dt)
    assert len(calls) == 1 and np.array_equal(calls[0], mats[2])
    for got, ref in zip(tables, expm_reference(mats[2], dt)):
        assert_close(got[2], ref)


@pytest.mark.parametrize("dt", DTS)
def test_single_matrix_entry_matches_expm(params, dt):
    a = symbol_matrix(2.0, params).matrix
    for got, ref in zip(etd.batched_matrix_phis(a[None], dt), expm_reference(a, dt)):
        assert got.shape == (1, 3, 3)
        assert_close(got[0], ref)


def test_exactly_singular_eigenbasis(params):
    """The nilpotent shift's computed eigenvector basis is exactly singular;
    it takes the augmented route in a batch too, and its phis are the
    truncated series."""
    shift = np.diag([1.0, 1.0], k=1)
    dt = 0.5
    series = [np.eye(3) + dt * shift + dt ** 2 / 2 * shift @ shift,
              dt * (np.eye(3) + dt / 2 * shift + dt ** 2 / 6 * shift @ shift),
              dt * (np.eye(3) / 2 + dt / 6 * shift + dt ** 2 / 24 * shift @ shift)]
    mats = np.stack([symbol_matrix(1.0, params).matrix, shift])
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
