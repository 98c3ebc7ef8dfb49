"""Linearized symbol, characteristic roots, asymptotics, and continuum decay."""

import numpy as np
import pytest
import scipy.linalg

from chemorelax.linear_analysis import (
    SPHERE_MEASURE,
    RadialQuadrature,
    characteristic_cubic,
    eigenvalues,
    highfreq_asymptotic_check,
    lowfreq_asymptotic_check,
    semigroup_decay_study,
    stability_scan,
    symbol_matrix,
)
from chemorelax.model import ModelParams, PressureLaw
from chemorelax.spectral import ring_profile


def normalized_params(eps=1.0, b=1.0, c1mu=0.5, mu=1.0):
    """c0 = 1 (isothermal kappa=1, rho_bar=1) with c1 mu = a mu pinned."""
    return ModelParams(eps=eps, mu=mu, a=c1mu / mu, b=b, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=1.0))


def cubic_residuals(lam, xi, params):
    """|p(lam)| for the characteristic cubic at xi."""
    a2, a1, a0 = characteristic_cubic(xi, params)
    return np.abs(((lam + a2) * lam + a1) * lam + a0)


class TestSymbolMatrix:
    def test_zero_mode_triangular(self, default_params):
        m = symbol_matrix(0.0, default_params)
        assert np.allclose(np.triu(m, 1), 0.0)
        assert np.allclose(np.diag(m), [0.0, -1.0 / default_params.eps, -default_params.b])

    def test_rejects_negative_xi(self, default_params):
        with pytest.raises(ValueError):
            symbol_matrix(-1.0, default_params)

    @pytest.mark.parametrize("xi", [[0.0, 1.0, -1e-12], [[2.0], [-3.0]]])
    def test_rejects_any_negative_entry(self, default_params, xi):
        with pytest.raises(ValueError):
            symbol_matrix(xi, default_params)

    def test_shape_follows_xi(self, default_params):
        assert symbol_matrix(2.0, default_params).shape == (3, 3)
        xi = np.linspace(0.0, 4.0, 10).reshape(2, 5)
        stack = symbol_matrix(xi, default_params)
        assert stack.shape == (2, 5, 3, 3)
        assert np.array_equal(stack[1, 3], symbol_matrix(float(xi[1, 3]), default_params))


class TestCharacteristicCubic:
    def test_zero_mode(self):
        p = normalized_params(eps=0.5, b=1.0)
        a2, a1, a0 = characteristic_cubic(0.0, p)
        assert np.isclose(a2, 1 / 0.5 + 1.0)
        assert np.isclose(a1, 1.0 / 0.5)
        assert a0 == 0.0

    def test_plugin_example(self):
        p = normalized_params(eps=1.0, b=1.0, c1mu=0.5)
        a2, a1, a0 = characteristic_cubic(1.0, p)
        assert np.isclose(a2, 3.0)
        assert np.isclose(a1, 3.0)
        assert np.isclose(a0, 1.5)

    def test_normalized_recovers_displayed_coefficients(self, rng):
        """With c0 = 1 the coefficients match the displayed cubic verbatim."""
        for _ in range(20):
            eps = float(rng.uniform(0.05, 1.0))
            b = float(rng.uniform(0.3, 3.0))
            c1mu = float(rng.uniform(0.0, b * 0.99)) + 1e-6
            xi = float(rng.uniform(0.0, 20.0))
            p = normalized_params(eps=eps, b=b, c1mu=c1mu)
            a2, a1, a0 = characteristic_cubic(xi, p)
            assert np.isclose(a2, 1 / eps + b + xi ** 2, rtol=1e-13)
            assert np.isclose(a1, b / eps + xi ** 2 / eps + xi ** 2, rtol=1e-13)
            assert np.isclose(a0, xi ** 2 * (xi ** 2 + b - c1mu), rtol=1e-12, atol=1e-14)

    def test_matches_symbol_determinant(self, default_params, rng):
        """The cubic is the characteristic polynomial of the 3x3 symbol."""
        for _ in range(10):
            xi = float(rng.uniform(0.0, 10.0))
            m = symbol_matrix(xi, default_params)
            a2, a1, a0 = characteristic_cubic(xi, default_params)
            coeffs = np.poly(m)  # monic characteristic polynomial
            assert np.allclose(coeffs, [1.0, a2, a1, a0], rtol=1e-10, atol=1e-10)


class TestEigenvalues:
    def test_zero_mode_exact(self):
        for eps in (1.0, 0.1, 0.01):
            for b in (0.5, 1.0, 2.0):
                p = normalized_params(eps=eps, b=b)
                lam, _ = eigenvalues(0.0, p)
                got = sorted(lam.real)
                want = sorted([0.0, -1.0 / eps, -b])
                assert np.allclose(got, want, atol=1e-12)
                assert np.all(np.abs(lam.imag) <= 1e-12)

    def test_companion_oracle(self):
        """Roots of lambda^3 + 3 lambda^2 + 3 lambda + 1.5, cross-checked."""
        p = normalized_params(eps=1.0, b=1.0, c1mu=0.5)
        lam, _ = eigenvalues(1.0, p)
        residuals = cubic_residuals(lam, 1.0, p)
        oracle = np.sort_complex(np.roots([1.0, 3.0, 3.0, 1.5]))
        assert np.allclose(np.sort_complex(lam), oracle, atol=1e-9)
        assert np.all(residuals <= 1e-9 * (1 + np.abs(lam) ** 3))

    def test_unstable_regime_has_positive_real_root(self):
        # c1 mu - b = 1, |xi|^2 = 0.5: constant term negative => a positive root
        p = normalized_params(eps=0.5, b=1.0, c1mu=2.0)
        lam, _ = eigenvalues(np.sqrt(0.5), p)
        _, _, a0 = characteristic_cubic(np.sqrt(0.5), p)
        assert a0 < 0
        assert lam.real.max() > 0

    def test_conjugation_closure_high_frequency(self, default_params):
        lam, has_pair = eigenvalues(500.0, default_params)
        assert has_pair
        assert np.isclose(lam[0], np.conj(lam[1]))
        assert abs(lam[2].imag) == 0.0

    def test_routh_hurwitz_under_stability(self, rng):
        """Positive margin: a2, a1, a0 > 0 and a2 a1 > a0 at every xi > 0,
        so no root can cross into the right half plane."""
        for _ in range(20):
            p = normalized_params(eps=float(rng.uniform(0.05, 1.0)),
                                  b=float(rng.uniform(0.3, 2.0)),
                                  c1mu=float(rng.uniform(0.01, 0.29)))
            assert p.stability_margin > 0
            for xi in 10 ** rng.uniform(-2, 2, size=8):
                a2, a1, a0 = characteristic_cubic(float(xi), p)
                assert a2 > 0 and a1 > 0 and a0 > 0
                assert a2 * a1 > a0

    def test_root_identities_random(self, rng):
        """Vieta: sum = -a2 and product = -a0, across regimes."""
        for _ in range(50):
            p = normalized_params(eps=float(rng.uniform(0.02, 1.0)),
                                  b=float(rng.uniform(0.3, 2.0)),
                                  c1mu=float(rng.uniform(0.01, 0.29)))
            xi = float(10 ** rng.uniform(-2, 3))
            a2, a1, a0 = characteristic_cubic(xi, p)
            lam, _ = eigenvalues(xi, p)
            assert abs(np.sum(lam) + a2) <= 1e-9 * (1 + abs(a2))
            assert abs(np.prod(lam) + a0) <= 1e-9 * (1 + abs(a0))


def per_xi_roots(xi, p):
    """The spectrum one |xi| at a time: np.roots, one Newton polish, the 1e-9
    real-part collapse and the documented ordering (the array API's reference)."""
    a2, a1, a0 = characteristic_cubic(xi, p)
    lam = np.roots([1.0, a2, a1, a0]).astype(np.complex128)
    dp = (3.0 * lam + 2.0 * a2) * lam + a1
    val = ((lam + a2) * lam + a1) * lam + a0
    safe = np.abs(dp) > 0
    lam[safe] = lam[safe] - val[safe] / dp[safe]
    real = np.abs(lam.imag) / (1.0 + np.abs(lam)) < 1e-9
    lam[real] = lam[real].real
    if np.sum(~real) == 2:
        pair = lam[~real]
        first = pair[np.argmax(pair.imag)]
        return np.array([first, np.conj(first), lam[real][0]]), True
    lam = lam.real.astype(np.complex128)
    order = np.argsort(np.abs(lam))
    rest = lam[order[1:]]
    i2 = int(np.argmin(np.abs(rest + 1.0 / p.eps)))
    return np.array([lam[order[0]], rest[i2], rest[1 - i2]]), False


class TestArrayEvaluation:
    """eigenvalues over arrays of |xi|, in one call."""

    @pytest.mark.parametrize("c1mu", [0.5, 1.0, 2.0], ids=["margin+", "margin0", "margin-"])
    def test_matches_per_xi_roots(self, c1mu):
        """Bit for bit, on a grid with xi = 0, the band edge xi = 1 of the
        negative margin (a0 = 0 there), the real-to-complex transitions in
        [1, 3.5] and 1e4."""
        p = normalized_params(eps=0.2, b=1.0, c1mu=c1mu)
        xi = np.concatenate([[0.0, 1.0], np.geomspace(1e-3, 1e4, 301), np.linspace(1.0, 3.5, 251)])
        lam, has_pair = eigenvalues(xi, p)
        ref = [per_xi_roots(float(x), p) for x in xi]
        assert has_pair.any() and not has_pair.all()
        assert np.array_equal(lam, np.array([r[0] for r in ref]))
        assert np.array_equal(has_pair, [r[1] for r in ref])

    def test_shapes_follow_xi(self, default_params):
        xi = np.geomspace(1e-2, 1e3, 10)
        lam, has_pair = eigenvalues(xi, default_params)
        lam2, has_pair2 = eigenvalues(xi.reshape(2, 5), default_params)
        assert lam.shape == (10, 3) and lam2.shape == (2, 5, 3) and has_pair2.shape == (2, 5)
        assert np.array_equal(lam2.reshape(10, 3), lam)
        assert np.array_equal(has_pair2.ravel(), has_pair)
        lam0, has_pair0 = eigenvalues(2.0, default_params)
        assert lam0.shape == (3,) and np.shape(has_pair0) == ()

    def test_stability_scan_makes_one_eigvals_call(self, default_params, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        worst, rows = stability_scan(default_params, xi_max=50.0, samples=1000)
        assert calls == [(1000, 3, 3)]
        assert len(rows) == 1000

    def test_residual_certificate_names_first_failing_xi(self, default_params, monkeypatch):
        eigvals = np.linalg.eigvals

        def spoiled(a):   # roots off by 1 at the samples 3 and 5
            lam = eigvals(a).astype(np.complex128)
            lam[[3, 5], 0] += 1.0
            return lam

        monkeypatch.setattr(np.linalg, "eigvals", spoiled)
        xi = np.linspace(0.5, 4.0, 8)
        with pytest.raises(RuntimeError, match=f"bound at xi={xi[3]}$"):
            eigenvalues(xi, default_params)


class TestLowFrequency:
    def test_ratios_approach_one(self, default_params):
        p = default_params  # eps = 0.1
        for target, tol in ((1e-2, 0.05), (1e-3, 0.005)):
            xi = target / p.eps
            table = lowfreq_asymptotic_check(p, [xi])
            for key in ("ratio1", "ratio2", "ratio3"):
                assert abs(table[key][0] - 1.0) <= tol, (target, key, table[key][0])

    def test_zero_margin_quartic_order(self):
        """At c1 mu = b the constant term degenerates: lambda1 ~ -(c0/b) eps xi^4."""
        p = normalized_params(eps=0.2, b=1.0, c1mu=1.0)
        assert p.stability_margin == 0.0
        table = lowfreq_asymptotic_check(p, [0.01, 0.005])
        assert np.all(np.abs(table["ratio1"] - 1.0) <= 0.01)

    def test_rejects_complex_regime(self, default_params):
        with pytest.raises(RuntimeError):
            lowfreq_asymptotic_check(default_params, [1000.0])

    def test_all_real_and_negative_under_stability(self, default_params):
        table = lowfreq_asymptotic_check(default_params, np.linspace(0.01, 0.5, 20))
        assert np.all(table["ratio1"] > 0)  # lam1 and reference share the sign


class TestHighFrequency:
    def test_ratios_approach_one(self, default_params):
        p = default_params
        xi = 100.0 / p.eps
        table = highfreq_asymptotic_check(p, [xi])
        assert abs(table["ratio_re1"][0] - 1.0) <= 0.05
        assert abs(table["ratio_im1"][0] - 1.0) <= 0.05
        assert abs(table["ratio3"][0] - 1.0) <= 0.05

    def test_normalized_imaginary_part_is_xi(self):
        """c0 = 1: Im lambda1 ~ |xi| exactly in the limit."""
        p = normalized_params(eps=0.5, b=1.0, c1mu=0.5)
        xi = 2000.0
        lam, _ = eigenvalues(xi, p)
        assert abs(lam[0].imag / xi - 1.0) <= 1e-3

    def test_rejects_real_regime(self, default_params):
        with pytest.raises(RuntimeError):
            highfreq_asymptotic_check(default_params, [0.01])


class TestStabilityScan:
    def test_stable_margins(self):
        # margin 0.1 with c0 = 1; margin 1.0 with the gamma = 2 law (c0 = 2)
        cases = [normalized_params(eps=0.1, b=1.0, c1mu=0.9),
                 ModelParams(eps=0.1, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                             pressure=PressureLaw(kappa=1.0, gamma=2.0))]
        for p, margin in zip(cases, (0.1, 1.0)):
            assert np.isclose(p.stability_margin, margin)
            worst, _ = stability_scan(p, xi_max=50.0, samples=400)
            assert worst <= 1e-12

    def test_unstable_band_has_positive_root(self):
        p = normalized_params(eps=0.5, b=1.0, c1mu=1.5)
        worst, _ = stability_scan(p, xi_max=0.8, samples=400)
        assert worst >= 0.01

    def test_zero_margin_supremum_at_origin(self):
        p = normalized_params(eps=0.3, b=1.0, c1mu=1.0)
        worst, _ = stability_scan(p, xi_max=10.0, samples=300)
        assert -1e-4 < worst <= 1e-12

    def test_rejects_bad_ximax(self, default_params):
        with pytest.raises(ValueError):
            stability_scan(default_params, xi_max=0.0)


class TestPropagatorSemigroup:
    def test_composition(self, default_params):
        """exp((t+s) A) = exp(t A) exp(s A) to 1e-10."""
        for xi in (0.0, 0.7, 3.0, 40.0):
            m = symbol_matrix(xi, default_params)
            e1 = scipy.linalg.expm(0.3 * m)
            e2 = scipy.linalg.expm(0.5 * m)
            e3 = scipy.linalg.expm(0.8 * m)
            assert np.max(np.abs(e1 @ e2 - e3)) <= 1e-10


class TestContinuumQuadrature:
    def test_single_ring_closed_form(self):
        """Profile r^2 restricted to the plateau [4/3, 3/2] of ring j = 0.

        There ring == 1 and the d = 1 ring mass is 2 int_{4/3}^{3/2} r^4 dr.
        """
        quad = RadialQuadrature(d=1, j_lo=-2, j_hi=2)

        def profile(r):
            return np.where((r >= 4 / 3) & (r <= 1.5), r ** 2, 0.0)

        got = quad.ring_l2(profile(quad.r))[list(quad.js).index(0)]
        exact = np.sqrt(2.0 * ((1.5 ** 5 - (4 / 3) ** 5) / 5.0))
        assert abs(got - exact) <= 1e-8 * exact

    def test_besov_norm_of_plateau_profile(self):
        def profile(r):
            return np.where((r >= 4 / 3) & (r <= 1.5), 1.0, 0.0)

        exact_l2 = np.sqrt(2.0 * (1.5 - 4 / 3))
        quad = RadialQuadrature(d=1, j_lo=-3, j_hi=3)
        got = quad.ring_l2(profile(quad.r)).sum()   # the B^0_{2,1} norm: ring weights 2^{0 j} = 1
        assert abs(got - exact_l2) <= 1e-8 * exact_l2


def per_ring_decay_norms(p, sigma0, sigma, d, times):
    """The five norm series of the decay study, ring by ring and time by time,
    with one eigendecomposition per ring: the study's reference."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    breaks = (0.75, 4.0 / 3.0, 1.5, 8.0 / 3.0)
    rings = []
    for j in range(-20, 7):
        s = 2.0 ** j
        r = np.concatenate([0.5 * (hi + lo) * s + 0.5 * (hi - lo) * s * gl_x
                            for lo, hi in zip(breaks[:-1], breaks[1:])])
        w = np.concatenate([0.5 * (hi - lo) * s * gl_w for lo, hi in zip(breaks[:-1], breaks[1:])])
        meas = SPHERE_MEASURE[d] * w * ring_profile(r / s) ** 2 * r ** (d - 1)
        lam, V = np.linalg.eig(np.stack([symbol_matrix(float(x), p) for x in r]))
        f0 = np.exp(-r * r / 2.0)
        coeffs = np.einsum("nij,nj->ni", np.linalg.inv(V), np.stack([f0, f0, f0], axis=1))
        rings.append((j, meas, lam, V, coeffs))

    def l2(meas, values):
        return float(np.sqrt(np.sum(meas * np.abs(values) ** 2)))

    norms = []
    for t in times:
        triple = damped = pt = u_only = sup0 = 0.0
        for j, meas, lam, V, coeffs in rings:
            y = np.einsum("nij,nj->ni", V, coeffs * np.exp(lam * t))
            ln, lu, lpsi = (l2(meas, y[:, k]) for k in range(3))
            lpt = l2(meas, p.b * y[:, 2] - p.c1 * y[:, 0])
            w_sig = 2.0 ** (j * sigma)
            triple += w_sig * (ln + lu + lpsi)
            damped += w_sig * (lu + lpt)
            pt += w_sig * lpt
            u_only += w_sig * lu
            sup0 = max(sup0, 2.0 ** (j * sigma0) * (ln + lu + lpsi))
        norms.append((triple, damped, pt, u_only, sup0))
    return np.array(norms).T


@pytest.fixture(scope="module")
def decay_params():
    return ModelParams(eps=0.1, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=2.0))


class TestDecayStudy:
    def test_validates_exponent_ranges(self, decay_params):
        with pytest.raises(ValueError):
            semigroup_decay_study(decay_params, sigma0=-0.5, sigma=-0.5, d=1)
        with pytest.raises(ValueError):
            semigroup_decay_study(decay_params, sigma0=0.6, sigma=0.7, d=1)

    def test_d1_gaussian_slope(self, decay_params):
        res = semigroup_decay_study(decay_params, sigma0=-0.5, sigma=0.5, d=1)
        assert abs(res.slope_triple - (-0.5)) <= 0.1 * 0.5
        assert res.paper_slope == -0.5

    def test_sigma0_norm_bounded(self, decay_params):
        """At sigma = sigma0 the sup-type norm stays bounded: slope ~ 0."""
        res = semigroup_decay_study(decay_params, sigma0=-0.5, sigma=0.5, d=1)
        assert abs(res.slope_sup0) <= 0.02

    @pytest.mark.parametrize("d,sigma0,sigma", [(1, -0.5, 0.5), (2, -1.0, 0.0), (3, -1.5, 0.5)])
    def test_matches_per_ring_evaluation(self, decay_params, monkeypatch, d, sigma0, sigma):
        """One diagonalization over all nodes gives the per-ring norms."""
        calls, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        res = semigroup_decay_study(decay_params, sigma0=sigma0, sigma=sigma, d=d)
        monkeypatch.undo()
        assert len(calls) == 1
        ref = per_ring_decay_norms(decay_params, sigma0, sigma, d, res.times)
        got = np.array([res.norm_triple, res.norm_damped, res.norm_phitilde, res.norm_u,
                        res.norm_sup0])
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    def test_d3_gaussian_slopes(self, decay_params):
        """In d = 3 the base rate is -(sigma - sigma0)/2 = -1, the sup-type
        norm at sigma0 stays bounded and the damped pair is faster."""
        res = semigroup_decay_study(decay_params, sigma0=-1.5, sigma=0.5, d=3)
        assert abs(res.slope_triple + 1.0) <= 0.1
        assert abs(res.slope_sup0) <= 0.02
        assert res.slope_damped < res.slope_triple - 0.25

    def test_d2_damped_combination(self):
        """The damped pair decays one half-power faster than the base rate."""
        p = ModelParams(eps=0.5, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                        pressure=PressureLaw(kappa=1.0, gamma=2.0))
        res = semigroup_decay_study(p, sigma0=-1.0, sigma=0.0, d=2)
        assert abs(res.slope_damped - (-1.0)) <= 0.15
        assert res.slope_damped < res.slope_triple - 0.25
        # the concentration combination alone is at least as fast
        assert res.slope_phitilde <= res.slope_damped + 0.05
