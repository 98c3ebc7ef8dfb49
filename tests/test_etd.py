"""Phi functions of the 3x3 symbol against scipy.linalg.expm references.

The relaxation-sweep symbol at eps = 0.2, |xi| = 2 has a double eigenvalue
-3 (damped-Euler and chemoattractant branches coalesce), so its eigenvector
basis is near-singular and ``batched_matrix_phis`` must take the augmented
route.  The package computes that exponential with numpy alone; here it is
checked against scipy's, which the package does not import.
"""

import json
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
