"""Half-spectrum storage against full-spectrum references.

Each reference is built here from ``np.fft.fftn`` full spectra and full-grid
wavenumber tables, independently of the half-spectrum grid tables: norms sum
over every mode, operators act on every mode, and the propagator applies the
3x3 matrix of each mode's |xi| to (n, m, psi).  Results must agree to 1e-13
relative, with energy at the Nyquist modes of every axis.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemorelax
from chemorelax import etd
from chemorelax.hpc_solver import PropagatorTables
from chemorelax.linear_analysis import symbol_matrix
from chemorelax.model import ModelParams, PressureLaw
from chemorelax.spectral import (
    SpectralField,
    bessel_inverse,
    divergence,
    gradient,
    laplacian,
    load_field,
    make_decomposition,
    make_grid,
    ring_profile,
    save_field,
)
from norms import dealias, l2_norm

CASES = [(1, 32, 2 * np.pi), (2, 16, 3.0), (3, 8, 2 * np.pi)]
RTOL = 1e-13


class FullGrid:
    """Wavenumber tables of the full fftn layout, shape (d, N, ..., N)."""

    def __init__(self, grid):
        N, L, d = grid.N, grid.L, grid.d
        modes = np.fft.fftfreq(N, d=1.0 / N)
        k = 2.0 * np.pi * modes / L
        k_diff = np.where(np.abs(modes) == N // 2, 0.0, k)
        self.xi_mag = np.sqrt(np.sum(np.stack(np.meshgrid(*[k] * d, indexing="ij")) ** 2, 0))
        self.xi_diff = np.stack(np.meshgrid(*[k_diff] * d, indexing="ij"))
        self.xi_mag_diff = np.sqrt(np.sum(self.xi_diff ** 2, axis=0))
        keep = np.abs(modes) <= N // 3
        self.mask = np.all(np.stack(np.meshgrid(*[keep] * d, indexing="ij")), axis=0)
        self.axes = tuple(range(1, d + 1))
        self.L, self.d = L, d


def physical_values(grid, rng, ncomp):
    """White noise plus a cosine at the Nyquist mode of every axis."""
    vals = rng.standard_normal((ncomp,) + grid.shape)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.N
        vals = vals + np.cos(np.pi * grid.N * grid.x_axes[ax] / grid.L).reshape(shape)
    return vals


def assert_half_matches(half, full):
    """Half-spectrum coefficients equal the stored half of a full spectrum."""
    N = full.shape[-1]
    np.testing.assert_allclose(half, full[..., :N // 2 + 1], rtol=0.0,
                               atol=RTOL * np.max(np.abs(full)))


def full_block_norms(fg, dec, full):
    energy = np.sum(np.abs(full) ** 2, axis=0)
    return np.array([np.sqrt(np.sum(energy * ring_profile(fg.xi_mag * 2.0 ** (-j)) ** 2))
                     * fg.L ** (fg.d / 2) for j in dec.active_js()])


@pytest.fixture(params=CASES, ids=lambda c: f"d{c[0]}-N{c[1]}")
def setup(request, rng):
    d, N, L = request.param
    grid = make_grid(d, N, L)
    fields = {}
    for ncomp in (1, d):
        vals = physical_values(grid, rng, ncomp)
        fields[ncomp] = (SpectralField.from_physical(grid, vals),
                         np.fft.fftn(vals, axes=tuple(range(1, d + 1)), norm="forward"))
    return grid, FullGrid(grid), fields


class TestNormsAgainstFull:
    def test_transform(self, setup):
        _, _, fields = setup
        for half, full in fields.values():
            assert_half_matches(half.coef, full)

    def test_l2_norm(self, setup):
        _, fg, fields = setup
        for half, full in fields.values():
            ref = np.sqrt(np.sum(np.abs(full) ** 2)) * fg.L ** (fg.d / 2)
            assert np.isclose(l2_norm(half), ref, rtol=RTOL, atol=0.0)

    def test_block_besov_hybrid_norms(self, setup):
        grid, fg, fields = setup
        dec = make_decomposition(grid)
        js = np.arange(dec.j_min, dec.j_max + 1)
        d = grid.d
        for half, full in fields.values():
            ref = full_block_norms(fg, dec, full)
            norms = dec.block_norms(half.energy(half.ncomp))
            np.testing.assert_allclose(norms, [ref], rtol=RTOL, atol=0.0)
            # with one row per field, each component on its own
            np.testing.assert_allclose(dec.block_norms(half.energy(1)),
                                       [full_block_norms(fg, dec, row[None]) for row in full],
                                       rtol=RTOL, atol=0.0)
            for s in (-0.5, d / 2.0 + 1.0):
                terms = 2.0 ** (js * s) * ref
                assert np.isclose(dec.besov_norm(norms, s)[0], terms.sum(), rtol=RTOL, atol=0.0)
            for J in (dec.j_min + 1, dec.j_max - 1):
                (lo,), (hi,) = dec.hybrid_norm(norms, d / 2.0, d / 2.0 + 1.0, J)
                assert np.isclose(lo, np.sum((2.0 ** (js * d / 2.0) * ref)[js <= J]),
                                  rtol=RTOL, atol=0.0)
                assert np.isclose(hi, np.sum((2.0 ** (js * (d / 2.0 + 1.0)) * ref)[js >= J - 1]),
                                  rtol=RTOL, atol=0.0)


class TestOperatorsAgainstFull:
    def test_gradient_divergence_laplacian(self, setup):
        grid, fg, fields = setup
        scalar, scalar_full = fields[1]
        vector, vector_full = fields[grid.d]
        assert_half_matches(gradient(scalar).coef, 1j * fg.xi_diff * scalar_full[0])
        assert_half_matches(divergence(vector).coef,
                            np.sum(1j * fg.xi_diff * vector_full, axis=0)[None])
        assert_half_matches(laplacian(vector).coef,
                            -np.sum(fg.xi_diff ** 2, axis=0) * vector_full)

    def test_bessel_inverse_and_dealias(self, setup):
        grid, fg, fields = setup
        for half, full in fields.values():
            assert_half_matches(bessel_inverse(half, 0.7).coef,
                                full / (0.7 + fg.xi_mag_diff ** 2))
            assert_half_matches(dealias(half).coef, full * fg.mask)


class TestPropagatorAgainstFull:
    """apply_exp / apply_phi1 / apply_phi2 against E @ (n, m, psi) per full mode."""

    PARAMS = ModelParams(eps=0.25, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                         pressure=PressureLaw(kappa=1.0, gamma=2.0))
    DT = 0.05

    def reference(self, fg, which, n_full, u_full, psi_full):
        p, dt = self.PARAMS, self.DT
        scal = etd.scalar_phis(-1.0 / p.eps, dt)[which].real
        phis = {}
        n_out = np.empty_like(n_full)
        psi_out = np.empty_like(psi_full)
        u_out = np.empty_like(u_full)
        for idx in np.ndindex(*n_full.shape[1:]):
            xi = float(fg.xi_mag_diff[idx])
            if xi not in phis:
                phis[xi] = etd.batched_matrix_phis(symbol_matrix(xi, p)[None], dt)[which][0]
            xi_v = fg.xi_diff[(slice(None),) + idx]
            u = u_full[(slice(None),) + idx]
            unit = xi_v / xi if xi > 0 else np.zeros_like(xi_v)
            m = 1j * np.dot(unit, u)
            y = phis[xi] @ np.array([n_full[(0,) + idx], m, psi_full[(0,) + idx]])
            n_out[(0,) + idx], psi_out[(0,) + idx] = y[0], y[2]
            u_out[(slice(None),) + idx] = scal * (u + 1j * unit * m) - 1j * unit * y[1]
        return n_out, u_out, psi_out

    def test_apply_matches_per_mode_matrix(self, setup, rng):
        grid, fg, _ = setup
        tables = PropagatorTables(grid, self.PARAMS, self.DT)
        inputs = [physical_values(grid, rng, ncomp) for ncomp in (1, grid.d, 1)]
        half = [SpectralField.from_physical(grid, v).coef for v in inputs]
        full = [np.fft.fftn(v, axes=fg.axes, norm="forward") for v in inputs]
        for which, apply in enumerate((tables.apply_exp, tables.apply_phi1, tables.apply_phi2)):
            rows = apply(*half).reshape((2 + grid.d,) + grid.spec_shape)   # [n, u, psi]
            for got, ref in zip((rows[:1], rows[1:-1], rows[-1:]),
                                self.reference(fg, which, *full)):
                assert_half_matches(got, ref)


class TestSnapshotLayout:
    def test_saved_coefficients_are_the_box(self, setup, tmp_path):
        """An archive holds exactly two members: ``grid``, float64 [d, N, L],
        and ``coef``, the field's 2/3 box coef[grid.box], complex128 and
        shaped (ncomp, 2K-1, ..., K); scattered back into zeros it gives the
        field's half-spectrum and, through irfftn, its grid values bit for bit."""
        grid, _, fields = setup
        K, axes = grid.kept_columns, tuple(range(1, grid.d + 1))
        for ncomp, (half, _) in fields.items():
            field = dealias(half)
            path = tmp_path / f"f{ncomp}.npz"
            save_field(path, field)
            with np.load(path) as data:
                assert sorted(data.files) == ["coef", "grid"]
                record, saved = data["grid"], data["coef"]
            assert record.dtype == np.float64 and record.tolist() == [grid.d, grid.N, grid.L]
            assert saved.dtype == np.complex128
            assert saved.shape == (ncomp,) + (2 * K - 1,) * (grid.d - 1) + (K,)
            assert np.array_equal(saved, field.coef[grid.box])
            coef = np.zeros_like(field.coef)
            coef[grid.box] = saved
            values = np.fft.irfftn(coef, s=grid.shape, axes=axes, norm="forward")
            assert np.array_equal(values, field.to_physical())
            assert np.array_equal(load_field(path).coef, field.coef)

    def test_save_refuses_data_outside_the_box(self, setup, tmp_path):
        """One tiny nonzero coefficient just past the box, on the last axis or
        on either side of a non-last axis, or at the Nyquist column, is a
        ValueError, and no file is written."""
        grid, _, fields = setup
        K, N, d = grid.kept_columns, grid.N, grid.d
        field = dealias(fields[1][0])
        outside = [(0,) * d + (K,), (0,) * d + (N // 2,)]
        if d > 1:
            outside += [(0, K) + (0,) * (d - 1), (0, N - K) + (0,) * (d - 1)]
        for where in outside:
            coef = field.coef.copy()
            coef[where] = 1e-300
            path = tmp_path / "outside.npz"
            with pytest.raises(ValueError, match="outside the 2/3 box"):
                save_field(path, SpectralField(grid, coef))
            assert not list(tmp_path.iterdir())

    def test_load_rejects_other_layouts(self, tmp_path):
        """The half-spectrum and full layouts, the four-member box layout
        (``d``, ``N``, ``L``, ``coef``), a stray member, a coefficient array
        that is not the box, and a grid record with a non-integral d or N are
        all ValueErrors, never KeyErrors."""
        grid = make_grid(2, 16, 1.0)
        record = np.array([2.0, 16.0, 1.0])
        box = np.zeros((1,) + grid.spec_shape, complex)[grid.box]
        layouts = {
            "half": dict(d=2, N=16, L=1.0, coef=np.zeros((1,) + grid.spec_shape, complex)),
            "full": dict(d=2, N=16, L=1.0, coef=np.zeros((1,) + grid.shape, complex)),
            "four-member box": dict(d=2, N=16, L=1.0, coef=box),
            "stray member": dict(grid=record, coef=box, t=0.5),
            "no coef": dict(grid=record),
            "half with grid": dict(grid=record, coef=np.zeros((1,) + grid.spec_shape, complex)),
            "box without rows": dict(grid=record, coef=box[0]),
            "non-integral d": dict(grid=np.array([2.5, 16.0, 1.0]), coef=box),
            "non-integral N": dict(grid=np.array([2.0, 16.5, 1.0]), coef=box),
            "integer record": dict(grid=np.array([2, 16, 1]), coef=box),
        }
        for name, members in layouts.items():
            path = tmp_path / f"{name}.npz"
            np.savez(path, **members)
            with pytest.raises(ValueError, match=r"not (\[grid, coef\]|the 2/3 box|\[d, N, L\])"):
                load_field(path)


IMPORT_PROBE = """
import json, pathlib, sys
import chemorelax, chemorelax.cli, chemorelax.diagnostics, chemorelax.etd
import chemorelax.hpc_solver, chemorelax.ks_solver, chemorelax.linear_analysis
import chemorelax.model, chemorelax.spectral
from chemorelax import etd
from chemorelax.hpc_solver import (PropagatorTables, build_initial_data, gaussian_bump,
                                   nonlinear_rhs, step)
from chemorelax.model import params_from_config
from chemorelax.spectral import make_grid

cfg = json.loads(pathlib.Path(sys.argv[1]).read_text())
params = params_from_config(cfg["model"])       # eps = 0.2
grid = make_grid(cfg["grid"]["d"], cfg["grid"]["N"], cfg["grid"]["L"])
fallbacks = []
augmented = etd._augmented_phis
etd._augmented_phis = lambda a, dt: fallbacks.append(dt) or augmented(a, dt)
dt = 0.00625                                     # the sweep's step at eps = 0.2
tables = PropagatorTables(grid, params, dt)
state, _ = build_initial_data(grid, params, n_profile=0.01 * gaussian_bump(grid, 0.8))
step(state, tables, state.mass_perturbation(), nonlinear_rhs(state))
print(len(fallbacks), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_imports_no_scipy():
    """No module of the package imports scipy, not even when a near-defective
    symbol sends the propagator-table build down the augmented-exponential
    route.  Importing scipy.linalg would add about 0.3 s of CPU time and
    27 MiB of resident memory to every run."""
    config = Path(__file__).resolve().parents[1] / "configs" / "relaxation_sweep.json"
    src = str(Path(chemorelax.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config)],
                         capture_output=True, text=True, env={"PYTHONPATH": src},
                         timeout=120, check=True)
    assert out.stdout.strip() == "1 []"
