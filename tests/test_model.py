"""Pressure laws, the enthalpy change of variables, G/H, and stability."""

import numpy as np
import pytest

from chemorelax.model import (
    ModelParams,
    OutsideValidityWindow,
    PressureLaw,
    check_stability,
    coefficient_G,
    coefficient_H,
    density_rho,
    enthalpy_n,
    params_from_config,
)


def make_params(gamma=2.0, kappa=1.0, eps=0.1, mu=1.0, a=1.0, b=1.0, rho_bar=1.0):
    return ModelParams(eps=eps, mu=mu, a=a, b=b, rho_bar=rho_bar,
                       pressure=PressureLaw(kappa=kappa, gamma=gamma))


class TestEnthalpy:
    def test_gamma2_closed_form(self):
        p = make_params(gamma=2.0)
        assert np.isclose(enthalpy_n(1.2, p), 0.4, atol=1e-14)

    def test_isothermal_at_equilibrium(self):
        p = make_params(gamma=1.0)
        assert enthalpy_n(1.0, p) == 0.0

    def test_gamma3_closed_form(self):
        p = make_params(gamma=3.0)
        assert np.isclose(enthalpy_n(1.1, p), 1.5 * (1.21 - 1.0), atol=1e-14)

    def test_rejects_outside_window(self):
        p = make_params()
        with pytest.raises(OutsideValidityWindow):
            enthalpy_n(0.4, p)
        with pytest.raises(OutsideValidityWindow):
            enthalpy_n(2.5, p)


class TestDensity:
    def test_gamma2_inverse(self):
        p = make_params(gamma=2.0)
        assert np.isclose(density_rho(0.4, p), 1.2, atol=1e-14)

    def test_zero_maps_to_background(self):
        for gamma in (1.0, 2.0, 3.0, 1.4):
            p = make_params(gamma=gamma)
            assert np.isclose(density_rho(0.0, p), 1.0, atol=1e-15)

    def test_gamma3_inverse(self):
        p = make_params(gamma=3.0)
        assert np.isclose(density_rho(0.315, p), 1.1, atol=1e-14)

    def test_roundtrip_precision(self, rng):
        for gamma in (1.0, 1.5, 2.0, 3.0):
            p = make_params(gamma=gamma)
            rho = rng.uniform(0.55, 1.9, size=200)
            back = density_rho(enthalpy_n(rho, p), p)
            assert np.max(np.abs(back - rho) / rho) <= 1e-13

    def test_monotone(self):
        p = make_params(gamma=3.0)
        rho = np.linspace(0.5, 2.0, 100)
        n = enthalpy_n(rho, p)
        assert np.all(np.diff(n) > 0)

    def test_rejects_out_of_range_n(self):
        p = make_params(gamma=2.0)
        with pytest.raises(OutsideValidityWindow):
            density_rho(5.0, p)


class TestCoefficientG:
    def test_zero_at_origin(self):
        for gamma in (1.0, 2.0, 3.0):
            assert coefficient_G(0.0, make_params(gamma=gamma)) == 0.0

    def test_gamma2_value(self):
        p = make_params(gamma=2.0)
        assert np.isclose(coefficient_G(0.4, p), 0.4, atol=1e-14)

    def test_isothermal_identically_zero(self, rng):
        p = make_params(gamma=1.0)
        n = rng.uniform(-0.3, 0.3, size=50)
        assert np.all(coefficient_G(n, p) == 0.0)


class TestCoefficientH:
    def test_gamma2_identically_zero(self, rng):
        """rho(n) = 1 + n/2 exactly for the quadratic law, so H vanishes."""
        p = make_params(gamma=2.0)
        n = rng.uniform(-0.9, 1.9, size=500)
        h = coefficient_H(n, p)
        assert np.max(np.abs(h)) <= 5e-16

    def test_zero_at_origin(self):
        for gamma in (1.0, 2.0, 3.0):
            assert abs(coefficient_H(0.0, make_params(gamma=gamma))) <= 1e-16

    def test_gamma3_quadratic_coefficient(self):
        """H(n) ~ -n^2/18 for the cubic law near the origin."""
        p = make_params(gamma=3.0)
        h = coefficient_H(0.01, p)
        assert abs(h / 1e-4 + 1.0 / 18.0) <= 1e-3

    def test_quadratic_smallness_bound(self):
        """|H(n)| <= C n^2 for |n| <= 0.1, C from the curvature of rho(n)."""
        p = make_params(gamma=3.0)
        n = np.linspace(-0.1, 0.1, 201)
        h = coefficient_H(n, p)
        # |H''(0)|/2 = a |rho''(0)|/2 = a/(2 c0^2) * |P'' rho/P' - 1|... bound by 1
        assert np.all(np.abs(h) <= 1.0 * n ** 2 + 1e-15)


    def test_coupling_identity(self, rng):
        """b (psi + phi_bar) - a rho(n) == b psi - c1 n - H(n) pointwise, to 1e-12."""
        p = ModelParams(eps=0.25, pressure=PressureLaw(1.0, 3.0))
        n = 0.08 * np.exp(-np.linspace(-3.0, 3.0, 128) ** 2)
        psi = 0.03 * rng.standard_normal(128)
        lhs = p.b * (psi + p.phi_bar) - p.a * density_rho(n, p)
        rhs = p.b * psi - p.c1 * n - coefficient_H(n, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestStability:
    def test_stable_example(self):
        p = make_params(gamma=2.0)  # c0 = 2, a mu rho/b = 1
        stable, margin = check_stability(p)
        assert stable and np.isclose(margin, 1.0)

    def test_marginal_is_unstable(self):
        # P'(rho_bar) = 1 (isothermal kappa=1), a mu rho / b = 1: margin 0
        p = make_params(gamma=1.0)
        stable, margin = check_stability(p)
        assert not stable and margin == 0.0

    def test_negative_margin(self):
        p = make_params(gamma=1.0, kappa=0.5)
        stable, margin = check_stability(p)
        assert not stable and np.isclose(margin, -0.5)

    def test_zero_margin_under_rounding(self):
        """P'(rho_bar) = a mu rho_bar / b = 1.4, where mu c1 rounds below b:
        the parameters construct and the margin reads exactly 0, unstable."""
        p = make_params(gamma=2.0, mu=20.0, a=0.1, b=1.0, rho_bar=0.7)
        stable, margin = check_stability(p)
        assert not stable and margin == 0.0

    def test_margin_equivalent_form(self):
        for kwargs in (dict(gamma=2.0), dict(gamma=3.0, mu=2.0), dict(gamma=1.4, b=0.7)):
            p = make_params(**kwargs)
            assert (p.stability_margin > 0) == (p.mu * p.c1 < p.b)


class TestParams:
    def test_derived_constants(self):
        p = make_params(gamma=2.0)
        assert p.c0 == 2.0
        assert p.c1 == 0.5
        assert p.phi_bar == 1.0
        assert np.isclose(p.c0 * p.c1, p.a * p.rho_bar)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(eps=0.0)
        with pytest.raises(ValueError):
            make_params(eps=1.5)
        with pytest.raises(ValueError):
            make_params(mu=-1.0)
        with pytest.raises(ValueError):
            PressureLaw(kappa=1.0, gamma=0.5)

    def test_threshold_uses_offset(self):
        p = ModelParams(eps=0.1, j_offset=-2)
        assert p.threshold() == 1

    def test_config_parsing(self):
        cfg = {"epsilon": 0.2, "mu": 1.0, "a": 1.0, "b": 2.0, "rho_bar": 1.5,
               "gamma": 3.0, "kappa": 0.5, "k_offset": 1}
        p = params_from_config(cfg)
        assert p.eps == 0.2 and p.b == 2.0 and p.pressure.gamma == 3.0
        assert p.j_offset == 1

    @pytest.mark.parametrize("k_offset", [2.7, -0.5, float("inf")])
    def test_config_rejects_fractional_k_offset(self, k_offset):
        cfg = {"epsilon": 0.2, "mu": 1.0, "a": 1.0, "b": 2.0, "rho_bar": 1.5,
               "k_offset": k_offset}
        with pytest.raises(ValueError, match="k_offset must be an integer"):
            params_from_config(cfg)
        assert params_from_config({**cfg, "k_offset": 2.0}).j_offset == 2

    def test_config_missing_key(self):
        with pytest.raises(KeyError):
            params_from_config({"epsilon": 0.1})

    @pytest.mark.parametrize("key,value,fragment", [
        ("mu", True, "mu must be a number, got true"),
        ("epsilon", "0.1", 'epsilon must be a number, got "0.1"'),
        ("gamma", "2", 'gamma must be a number, got "2"'),
        ("k_offset", True, "k_offset must be an integer, got true"),
        ("k_offset", False, "k_offset must be an integer, got false"),
        ("kappa", None, "kappa must be a number, got null"),
    ])
    def test_config_rejects_booleans_and_strings(self, key, value, fragment):
        cfg = {"epsilon": 0.2, "mu": 1.0, "a": 1.0, "b": 2.0, "rho_bar": 1.5, key: value}
        with pytest.raises(ValueError, match=fragment):
            params_from_config(cfg)

    def test_config_rejects_unknown_key(self):
        cfg = {"epsilon": 0.2, "mu": 1.0, "a": 1.0, "b": 2.0, "rho_bar": 1.5, "gama": 3.0}
        with pytest.raises(ValueError, match=r"unknown keys \['gama'\]; the keys are epsilon"):
            params_from_config(cfg)
