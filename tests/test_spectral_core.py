"""Grid construction, Fourier multipliers, dyadic blocks and hybrid norms."""

import numpy as np
import pytest

from chemorelax.spectral import (
    SpectralField,
    bessel_inverse,
    chi_profile,
    compute_threshold,
    divergence,
    gradient,
    laplacian,
    load_field,
    make_decomposition,
    make_grid,
    ring_profile,
    save_field,
)
from norms import besov_norm, dealias, hybrid_norm, l2_norm, l2_norm_physical


def random_field(grid, rng, ncomp=1, band_limited=True):
    f = SpectralField.from_physical(grid, rng.standard_normal((ncomp,) + grid.shape))
    return dealias(f) if band_limited else f


def single_mode(grid, k_int, amplitude=1.0):
    """cos(k x) along the first axis; |xi| = 2 pi k / L."""
    x = grid.x_axes[0]
    vals = amplitude * np.cos(2 * np.pi * k_int * x / grid.L)
    shape = [1] * grid.d
    shape[0] = grid.N
    return SpectralField.from_physical(grid, np.broadcast_to(
        vals.reshape(shape), grid.shape).copy()[None])


class TestGrid:
    def test_smallest_wavenumber_2pi_domain(self):
        g = make_grid(1, 8, 2 * np.pi)
        nonzero = g.xi_mag[g.xi_mag > 0]
        assert np.isclose(nonzero.min(), 1.0)

    def test_smallest_wavenumber_unit_domain(self):
        g = make_grid(2, 16, 1.0)
        nonzero = g.xi_mag[g.xi_mag > 0]
        assert np.isclose(nonzero.min(), 2 * np.pi)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1, 7, 1.0)

    def test_rejects_small_and_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid(1, 4, 1.0)
        with pytest.raises(ValueError):
            make_grid(1, 8, 0.0)
        with pytest.raises(ValueError):
            make_grid(4, 8, 1.0)

    def test_wavenumber_span(self):
        g = make_grid(2, 16, 3.0)
        assert np.isclose(g.xi_min, 2 * np.pi / 3.0)
        assert np.isclose(g.xi_max, np.pi * 16 * np.sqrt(2) / 3.0)
        assert np.isclose(g.xi_mag.max(), g.xi_max)


class TestMultipliers:
    def test_gradient_of_plane_wave(self):
        g = make_grid(1, 32, 2 * np.pi)
        x = g.x_axes[0]
        f = SpectralField.from_physical(g, np.sin(3 * x)[None])
        df = gradient(f).to_physical()[0]
        assert np.allclose(df, 3 * np.cos(3 * x), atol=1e-12)

    def test_laplacian_of_single_mode(self):
        g = make_grid(1, 32, 2 * np.pi)
        x = g.x_axes[0]
        f = SpectralField.from_physical(g, np.cos(x)[None])
        lap = laplacian(f).to_physical()[0]
        assert np.allclose(lap, -np.cos(x), atol=1e-12)

    def test_divergence_inverts_gradient(self, rng):
        g = make_grid(2, 16, 2 * np.pi)
        f = random_field(g, rng)
        assert np.allclose(divergence(gradient(f)).coef, laplacian(f).coef, atol=1e-12)


class TestBessel:
    def test_constant_field(self):
        g = make_grid(1, 16, 2 * np.pi)
        f = SpectralField.from_physical(g, np.full(g.shape, 3.0)[None])
        out = bessel_inverse(f, 1.0)
        assert np.allclose(out.to_physical()[0], 3.0)

    def test_unit_mode_halved(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = single_mode(g, 1)
        out = bessel_inverse(f, 1.0)
        assert np.allclose(out.to_physical()[0], 0.5 * f.to_physical()[0], atol=1e-13)

    def test_rejects_nonpositive_b(self, rng):
        g = make_grid(1, 16, 1.0)
        f = random_field(g, rng)
        with pytest.raises(ValueError):
            bessel_inverse(f, 0.0)

    def test_besov_smoothing_constant(self, rng):
        """||(b - Lap)^{-1} f||_{B^{s+2}} <= C ||f||_{B^s} with C <= 2 per ring.

        Oracle: the symbol bound sup_ring |xi|^2/(b + |xi|^2) < 1, and the ring
        radii spread 2^{j} factors bounded by the ring width.
        """
        g = make_grid(1, 64, 2 * np.pi)
        dec = make_decomposition(g)
        b = 1.0
        for j in range(dec.j_min, dec.j_max + 1):
            f = dec.block(random_field(g, rng), j)
            if l2_norm(f) == 0:
                continue
            lhs = besov_norm(dec, bessel_inverse(f, b), 1.5 + 2.0)
            rhs = besov_norm(dec, f, 1.5)
            # per-mode: 2^{2j}/(b+|xi|^2) <= (4/3)^2 < 2 on the ring
            assert lhs <= 2.0 * rhs


class TestDyadicDecomposition:
    def test_profile_plateaus(self):
        assert chi_profile(0.5) == 1.0
        assert chi_profile(0.75) == 1.0
        assert chi_profile(4 / 3) == 0.0
        assert chi_profile(2.0) == 0.0
        # ring == 1 on [4/3, 3/2]
        assert np.isclose(ring_profile(1.4), 1.0)
        assert ring_profile(0.7) == 0.0
        assert ring_profile(2.8) == 0.0

    def test_ring_support(self):
        t = np.linspace(0.01, 4.0, 2000)
        vals = ring_profile(t)
        inside = (t > 0.75) & (t < 8 / 3)
        assert np.all(vals[~inside] == 0.0)
        assert np.all(vals[inside] >= 0.0)

    def test_single_mode_lands_in_one_block(self):
        # |xi| = 1.4 lies in [4/3, 3/2] where ring_j=0 == 1
        g = make_grid(1, 64, 2 * np.pi / 1.4)
        dec = make_decomposition(g)
        f = single_mode(g, 1)
        for j in dec.active_js():
            norm = dec.block_l2(f, j)
            if j == 0:
                assert np.isclose(norm, l2_norm(f))
            else:
                assert norm < 1e-15

    def test_zero_field_all_blocks_zero(self):
        g = make_grid(1, 32, 2 * np.pi)
        dec = make_decomposition(g)
        f = SpectralField.zeros(g, 1)
        assert all(dec.block_l2(f, j) == 0.0 for j in range(dec.j_min - 2, dec.j_max + 3))

    def test_out_of_range_block_is_zero_field(self, rng):
        g = make_grid(1, 32, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng)
        out = dec.block(f, dec.j_max + 5)
        assert l2_norm(out) == 0.0

    def test_partition_of_unity_white_noise(self, rng):
        """Sum of blocks over [j_min-2, j_max+2] rebuilds f minus its mean."""
        g = make_grid(1, 128, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng, band_limited=False)
        total = SpectralField.zeros(g, 1)
        for j in range(dec.j_min - 2, dec.j_max + 3):
            total = total + dec.block(f, j)
        target = f.coef.copy()
        target[0, 0] = 0.0
        err = np.max(np.abs(total.coef - target)) / np.max(np.abs(target))
        assert err <= 1e-10

    def test_besov_single_mode_examples(self):
        # |xi| = 1.4: lone block j = 0, any s with weight 1
        g = make_grid(1, 64, 2 * np.pi / 1.4)
        dec = make_decomposition(g)
        f = single_mode(g, 1, amplitude=2.0)
        m = l2_norm(f)
        assert np.isclose(besov_norm(dec, f, 0.7), m)
        # |xi| = 2.8: block j = 1, s = 1 doubles it
        g2 = make_grid(1, 64, 2 * np.pi / 1.4)
        f2 = single_mode(g2, 2)
        m2 = l2_norm(f2)
        assert np.isclose(besov_norm(dec, f2, 1.0), 2.0 * m2)


def reference_block_norms(dec, f):
    """Per-ring loop: one ring_profile evaluation and one sum over the stored
    modes per block, each mode's energy counted with its multiplicity."""
    g = dec.grid
    return np.array([
        np.sqrt(np.sum(g.multiplicity * np.abs(f.coef) ** 2
                       * ring_profile(g.xi_mag * 2.0 ** (-j)) ** 2))
        * g.L ** (g.d / 2) for j in dec.active_js()])


def nyquist_field(grid, ncomp):
    """cos(pi N x / L) along the last axis: all energy at the Nyquist mode."""
    vals = np.cos(np.pi * grid.N * grid.x_axes[0] / grid.L)
    shape = [1] * grid.d
    shape[-1] = grid.N
    return SpectralField.from_physical(grid, np.broadcast_to(
        vals.reshape(shape), (ncomp,) + grid.shape).copy())


class TestBlockNormsAgainstRingLoop:
    """The cached weight matrix reproduces the per-ring reference to 1e-13."""

    CASES = [(1, 64, 2 * np.pi), (2, 16, 3.0), (3, 8, 2 * np.pi)]

    def fields(self, grid, rng):
        for ncomp in (1, grid.d):
            yield random_field(grid, rng, ncomp=ncomp, band_limited=False)
            yield random_field(grid, rng, ncomp=ncomp) + nyquist_field(grid, ncomp)

    @pytest.mark.parametrize("d,N,L", CASES)
    def test_norms_match_reference(self, rng, d, N, L):
        g = make_grid(d, N, L)
        dec = make_decomposition(g)
        js = np.arange(dec.j_min, dec.j_max + 1)
        for f in self.fields(g, rng):
            ref = reference_block_norms(dec, f)
            np.testing.assert_allclose(dec.block_norms(f.energy(f.ncomp)), [ref],
                                       rtol=1e-13, atol=0.0)
            for j, m in zip(dec.active_js(), ref):
                assert np.isclose(dec.block_l2(f, j), m, rtol=1e-13, atol=0.0)
            for s in (-0.7, 0.0, d / 2.0 + 1.0):
                terms = 2.0 ** (js * s) * ref
                assert np.isclose(besov_norm(dec, f, s), terms.sum(), rtol=1e-13, atol=0.0)
            for J in (dec.j_min, 1, dec.j_max):
                lo, hi = hybrid_norm(dec, f, d / 2.0, d / 2.0 + 1.0, J)
                ref_lo = np.sum((2.0 ** (js * d / 2.0) * ref)[js <= J])
                ref_hi = np.sum((2.0 ** (js * (d / 2.0 + 1.0)) * ref)[js >= J - 1])
                assert np.isclose(lo, ref_lo, rtol=1e-13, atol=0.0)
                assert np.isclose(hi, ref_hi, rtol=1e-13, atol=0.0)

    def test_nyquist_energy_is_counted(self):
        g = make_grid(1, 16, 2 * np.pi)
        dec = make_decomposition(g)
        f = nyquist_field(g, 1)
        norms = dec.block_norms(f.energy(1))
        assert norms.max() > 0.0
        np.testing.assert_allclose(norms, [reference_block_norms(dec, f)], rtol=1e-13, atol=0.0)

    def test_weights_built_once(self, rng, monkeypatch):
        import chemorelax.spectral as spectral
        calls = []

        def counting(t):
            calls.append(1)
            return ring_profile(t)

        monkeypatch.setattr(spectral, "ring_profile", counting)
        g = make_grid(2, 16, 2 * np.pi)
        dec = make_decomposition(g)
        for _ in range(3):
            f = random_field(g, rng, ncomp=2)
            norms = dec.block_norms(f.energy(1))
            dec.block_l2(f, dec.j_min)
            dec.besov_norm(norms, 1.0)
            dec.hybrid_norm(norms, 1.0, 2.0, 1)
        assert len(calls) == 1   # one ring-profile evaluation over every block
        assert dec.weights.shape == (len(dec.active_js()), g.N ** (g.d - 1) * (g.N // 2 + 1))

    def test_grid_caches_its_decomposition(self):
        g = make_grid(2, 16, 2 * np.pi)
        dec = g.decomposition
        assert dec is g.decomposition and dec.grid is g
        ref = make_decomposition(g)
        assert (dec.j_min, dec.j_max) == (ref.j_min, ref.j_max)


class TestThreshold:
    def test_examples(self):
        assert compute_threshold(0.1, -2) == 1
        assert compute_threshold(0.25, 1) == 3
        assert compute_threshold(0.5, 0) == 1

    def test_rejects_out_of_range(self):
        for eps in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                compute_threshold(eps, 0)


class TestHybridNorm:
    def test_single_mode_low_only(self):
        g = make_grid(1, 64, 2 * np.pi / 1.4)
        dec = make_decomposition(g)
        f = single_mode(g, 1)
        m = l2_norm(f)
        low, high = hybrid_norm(dec, f, 0.3, 2.0, J=5)
        assert np.isclose(low, m) and high <= 1e-12 * m

    def test_overlap_at_threshold(self):
        # J = 0: block j=0 contributes to both sides (j <= J and j >= J-1)
        g = make_grid(1, 64, 2 * np.pi / 1.4)
        dec = make_decomposition(g)
        f = single_mode(g, 1)
        m = l2_norm(f)
        low, high = hybrid_norm(dec, f, 0.0, 0.0, J=0)
        assert np.isclose(low, m) and np.isclose(high, m)

    def test_lh_inequality_random_fields(self, rng):
        """||f||^l_{B^s} <= 2^{J s'} ||f||^l_{B^{s-s'}} on random fields."""
        g = make_grid(1, 64, 2 * np.pi)
        dec = make_decomposition(g)
        for _ in range(25):
            f = random_field(g, rng)
            J = int(rng.integers(dec.j_min, dec.j_max))
            s = float(rng.uniform(-1.5, 1.5))
            sp = float(rng.uniform(0.1, 2.0))
            low_s, _ = hybrid_norm(dec, f, s, s, J)
            low_s_minus, _ = hybrid_norm(dec, f, s - sp, s - sp, J)
            assert low_s <= 2.0 ** (J * sp) * low_s_minus * (1 + 1e-12)

    def test_parts_bounded_by_restricted_norms(self, rng):
        """The split f - mean = S_J f + (rest), with S_J the lowpass minus the
        mean, has Besov norms bounded by the hybrid norm's two sides."""
        g = make_grid(1, 64, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng)
        J = 2
        low_coef = dec.lowpass(f, J).coef
        low_coef[0, 0] = 0.0
        low_part = SpectralField(g, low_coef)
        high_coef = f.coef - low_coef
        high_coef[0, 0] = 0.0
        high_part = SpectralField(g, high_coef)
        s = 0.8
        lo, hi = hybrid_norm(dec, f, s, s, J)
        assert besov_norm(dec, low_part, s) <= lo * (1 + 1e-12)
        assert besov_norm(dec, high_part, s) <= hi * (1 + 1e-12)
        # parts plus mean rebuild the field
        rebuilt = low_part.coef + high_part.coef
        rebuilt[0, 0] += f.coef[0, 0]
        assert np.allclose(rebuilt, f.coef, atol=1e-14)


class TestInvariantsAndProperties:
    def test_parseval(self, rng):
        for d, N in ((1, 64), (2, 16)):
            g = make_grid(d, N, 2 * np.pi)
            f = random_field(g, rng, band_limited=False)
            a, b = l2_norm(f), l2_norm_physical(f)
            assert abs(a - b) <= 1e-12 * max(a, b)

    def test_block_orthogonality_beyond_neighbors(self, rng):
        g = make_grid(1, 128, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng, band_limited=False)
        blocks = {j: dec.block(f, j) for j in dec.active_js()}
        for j in dec.active_js():
            for jp in dec.active_js():
                if abs(j - jp) >= 2:
                    inner = np.sum(blocks[j].coef * np.conj(blocks[jp].coef)).real
                    assert abs(inner) < 1e-20

    def test_bernstein_ratio_on_single_blocks(self, rng):
        g = make_grid(1, 128, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng, band_limited=False)
        for j in dec.active_js():
            fj = dec.block(f, j)
            base = l2_norm(fj)
            if base < 1e-12:
                continue
            ratio = l2_norm(gradient(fj)) / base
            lo, hi = 3 * 2.0 ** j / 4, 8 * 2.0 ** j / 3
            assert lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)

    def test_hybrid_sum_vs_total(self, rng):
        """Low + high at equal s over-counts only the overlap blocks j = J-1, J."""
        g = make_grid(1, 64, 2 * np.pi)
        dec = make_decomposition(g)
        f = random_field(g, rng)
        s, J = 0.5, 2
        lo, hi = hybrid_norm(dec, f, s, s, J)
        total = besov_norm(dec, f, s)
        overlap = sum(2.0 ** (j * s) * dec.block_l2(f, j) for j in (J - 1, J))
        assert np.isclose(lo + hi, total + overlap, rtol=1e-12)

    @pytest.mark.parametrize("d,N", [(1, 16), (2, 8), (3, 8)])
    def test_shifted_adds_a_constant_to_every_row(self, rng, d, N):
        """The shift is a new field that differs from its input in each row's
        zero mode only, by the constant, and leaves the input as it was."""
        g = make_grid(d, N, 2 * np.pi)
        f = random_field(g, rng, ncomp=3)
        before = f.coef.copy()
        out = f.shifted(0.75)
        assert np.array_equal(f.coef, before)
        assert np.array_equal(out.mean(), f.mean() + 0.75)
        rest = np.ones(g.spec_shape, dtype=bool)
        rest[(0,) * d] = False
        assert np.array_equal(out.coef[:, rest], f.coef[:, rest])
        np.testing.assert_allclose(out.to_physical(), f.to_physical() + 0.75, atol=1e-13)

    def test_reality_roundtrip(self, rng):
        g = make_grid(2, 16, 2 * np.pi)
        vals = rng.standard_normal((1,) + g.shape)
        f = SpectralField.from_physical(g, vals)
        back = f.to_physical()
        assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


class TestPrunedTransforms:
    """The pruned d >= 2 transforms give the same bits as numpy's n-d ones."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [8, 32])
    def test_inverse_matches_irfftn(self, rng, d, N):
        grid = make_grid(d, N, 2 * np.pi)
        box = random_field(grid, rng, ncomp=d)
        beyond = box.coef.copy()   # energy on a last-axis column past N/3 only
        beyond[(0,) + (1,) * (d - 1) + (grid.kept_columns,)] = 0.5 - 0.25j
        for coef in (box.coef, beyond):
            assert np.any(coef[..., grid.kept_columns:]) == (coef is beyond)
            ref = np.fft.irfftn(coef, s=grid.shape, axes=tuple(range(1, d + 1)),
                                norm="forward")
            assert np.array_equal(SpectralField(grid, coef).to_physical(), ref)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 32])
    def test_forward_matches_rfftn_and_its_mask(self, rng, d, N):
        grid = make_grid(d, N, 2 * np.pi)
        vals = rng.standard_normal((d,) + grid.shape)
        full = SpectralField.from_physical(grid, vals)
        ref = np.fft.rfftn(vals, axes=tuple(range(1, d + 1)), norm="forward")
        assert np.array_equal(full.coef, ref)
        masked = SpectralField.from_physical(grid, vals, dealiased=True)
        assert np.array_equal(masked.coef, dealias(full).coef)


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path, rng):
        g = make_grid(2, 16, 3.5)
        f = random_field(g, rng, ncomp=2)
        path = tmp_path / "snap.npz"
        save_field(path, f)
        g2 = load_field(path)
        assert g2.grid.d == 2 and g2.grid.N == 16 and np.isclose(g2.grid.L, 3.5)
        assert np.array_equal(g2.coef, f.coef)
