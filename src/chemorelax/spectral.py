"""Fourier representation of periodic fields and dyadic frequency analysis.

Fields live on a uniform grid over the torus [0, L)^d and are stored as
Fourier coefficients, so that differential operators, Fourier multipliers
and frequency-localized (Littlewood-Paley style) norms are all exact
coefficient-space operations.  Physical-space values are recovered with an
inverse FFT when pointwise products are needed.

Conventions
-----------
* coefficients ``c[m]`` are Fourier-series coefficients:
  ``f(x) = sum_m c[m] exp(i xi_m . x)`` with ``xi_m = 2 pi m / L``,
* fields are real, so ``c[-m] = conj(c[m])`` and only the half-spectrum of
  ``numpy.fft.rfftn`` is stored: shape ``(ncomp, N, ..., N, N//2 + 1)``, the
  last axis holding modes ``0 .. N/2``.  Reality holds by construction,
* ``Grid.multiplicity`` counts the modes each stored coefficient stands for:
  1 on the last-axis planes ``0`` and ``N/2`` (their conjugates are stored
  too), 2 elsewhere.  Sums over modes (L2 norms, block norms) weight each
  stored mode's energy by it,
* transforms are ``numpy.fft`` with ``norm="forward"``, written as the
  sequence of 1-D calls that ``rfftn`` / ``irfftn`` make: ``rfft`` over the
  last axis, then ``fft`` over axes d-1 .. 1; ``ifft`` over axes 1 .. d-1,
  then ``irfft`` over the last axis.  :func:`pruned_inverse` and
  :func:`pruned_forward` make these calls, on arrays their caller holds, and
  no other code does.  In d >= 2 the complex passes run in place and are
  pruned to the last-axis columns 0 .. N/3 that the 2/3 rule keeps (FFT
  pruning): in a forward transform whose result is masked, and in an inverse
  transform of rows whose other columns are all zero, which holds for every
  field the solvers transform.  Both are bit-identical to the unpruned
  transforms (up to the sign of zeros), and about a third of the complex
  passes is skipped.  ``scipy.fft`` is not used: importing it costs more
  resident memory than the transforms save,
* a :class:`SpectralField` may stack any number of components, so several
  fields share one transform call: each right-hand side stacks its inputs
  into one inverse and its outputs into one forward transform,
* the Nyquist mode is zeroed by all differentiation operators,
* dyadic blocks exclude the zero mode (the ring profile vanishes at 0);
  the mean is tracked separately by the solvers,
* block norms come from one cached ``(n_blocks, n_modes)`` matrix of squared
  ring weights per decomposition, itself cached on its grid as
  ``Grid.decomposition``, multiplicity included, times the stored modes'
  energies.  They are computed row by row: each field of a stack, such as one
  field over a chunk of snapshots, has an energy row (:meth:`SpectralField.energy`),
  and one product gives all their block norms.  Besov and hybrid norms are
  weighted sums over those rows.  Block norms are torus integrals, computed
  from coefficients by Parseval,
* snapshots (:func:`save_field`) hold the float64 record ``grid = [d, N, L]``
  and the 2/3 box ``coef[grid.box]``, shaped ``(ncomp, 2K-1, ..., 2K-1, K)``
  with ``K = grid.kept_columns``, outside which every field the solvers hold
  is zero (inputs and right-hand sides are masked and the propagators act mode
  by mode); :func:`load_field` scatters it back, onto one grid per (d, N, L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "DyadicDecomposition",
    "make_grid",
    "make_decomposition",
    "pruned_inverse",
    "pruned_forward",
    "bessel_inverse",
    "gradient",
    "divergence",
    "laplacian",
    "compute_threshold",
    "chi_profile",
    "ring_profile",
    "save_field",
    "load_field",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(eq=False)
class Grid:
    """Uniform periodic grid on [0, L)^d with precomputed wavenumber tables.

    Treated as immutable after construction; build through :func:`make_grid`.
    """

    d: int
    N: int
    L: float
    shape: tuple = field(repr=False, default=None)        # physical grid, (N,) * d
    spec_shape: tuple = field(repr=False, default=None)   # half-spectrum, (N, ..., N//2+1)
    x_axes: list = field(repr=False, default=None)        # physical coordinates per axis
    xi_diff: np.ndarray = field(repr=False, default=None) # (d, *spec_shape), Nyquist zeroed
    xi_mag: np.ndarray = field(repr=False, default=None)  # |xi| from true wavenumbers
    xi_mag_diff: np.ndarray = field(repr=False, default=None)  # |xi| from xi_diff
    dealias_mask: np.ndarray = field(repr=False, default=None)
    kept_columns: int = field(repr=False, default=None)   # K = N//3 + 1 last-axis columns kept
    box: tuple = field(repr=False, default=None)   # 2/3 box: coef[box] is (ncomp, 2K-1, ..., K)
    multiplicity: np.ndarray = field(repr=False, default=None)  # modes per stored coefficient
    xi_sq: np.ndarray = field(repr=False, default=None)       # xi_mag_diff^2
    lap_symbol: np.ndarray = field(repr=False, default=None)  # -sum(xi_diff^2): Laplacian

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def volume(self) -> float:
        return self.L ** self.d

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    @property
    def xi_min(self) -> float:
        """Smallest nonzero wavenumber magnitude, 2 pi / L."""
        return 2.0 * np.pi / self.L

    @property
    def xi_max(self) -> float:
        """Largest wavenumber magnitude, pi N sqrt(d) / L."""
        return np.pi * self.N * math.sqrt(self.d) / self.L

    @cached_property
    def decomposition(self) -> "DyadicDecomposition":
        """The dyadic decomposition of this grid, built on first use."""
        return make_decomposition(self)


def make_grid(d: int, N: int, L: float) -> Grid:
    """Build a Grid, validating d in {1,2,3}, N a power of two >= 8, L > 0 finite."""
    if d not in (1, 2, 3):
        raise ValueError(f"grid dimension must be 1, 2 or 3, got {d}")
    if not isinstance(N, (int, np.integer)) or N < 8 or not _is_power_of_two(int(N)):
        raise ValueError(f"N must be a power of two >= 8, got {N}")
    if not (0 < L < math.inf):
        raise ValueError(f"period length must be positive and finite, got {L}")
    N = int(N)
    half = N // 2 + 1
    spec_shape = (N,) * (d - 1) + (half,)
    full = np.fft.fftfreq(N, d=1.0 / N)  # 0, 1, ..., N/2-1, -N/2, ..., -1
    # the last axis keeps modes 0 .. N/2; both layouts hold the Nyquist mode at index N/2
    axis_modes = [full] * (d - 1) + [np.abs(full[:half])]
    k_axes, k_diff_axes = [], []
    for modes in axis_modes:
        k = 2.0 * np.pi * modes / L
        k_diff = k.copy()
        k_diff[N // 2] = 0.0  # Nyquist mode carries no sign information
        k_axes.append(k)
        k_diff_axes.append(k_diff)
    xi = np.stack(np.meshgrid(*k_axes, indexing="ij"))
    xi_diff = np.stack(np.meshgrid(*k_diff_axes, indexing="ij"))
    xi_mag = np.sqrt(np.sum(xi ** 2, axis=0))
    xi_mag_diff = np.sqrt(np.sum(xi_diff ** 2, axis=0))
    keep = np.stack(np.meshgrid(*[np.abs(m) <= N // 3 for m in axis_modes], indexing="ij"))
    K = N // 3 + 1
    rows = np.r_[0:K, N - K + 1:N]   # box rows |m| <= N/3 of a non-last axis, in FFT order
    multiplicity = np.full(spec_shape, 2.0)
    multiplicity[..., 0] = 1.0
    multiplicity[..., N // 2] = 1.0
    x1 = np.arange(N) * (L / N)
    return Grid(d=d, N=N, L=float(L), shape=(N,) * d, spec_shape=spec_shape, x_axes=[x1] * d,
                xi_diff=xi_diff, xi_mag=xi_mag, xi_mag_diff=xi_mag_diff,
                dealias_mask=np.all(keep, axis=0), multiplicity=multiplicity,
                kept_columns=K, box=(slice(None),) + np.ix_(*[rows] * (d - 1)) + (slice(K),),
                xi_sq=xi_mag_diff ** 2, lap_symbol=-np.sum(xi_diff ** 2, axis=0))


# -- transforms ---------------------------------------------------------------

def pruned_inverse(grid: Grid, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Real grid values of half-spectrum rows given on their first last-axis
    columns, the others zero: ``cols`` is shaped (..., *grid.shape[:-1],
    columns) and spent, as the ``ifft`` passes over the non-last axes run in
    place in it; one ``irfft(n=N)`` then writes ``out``, shaped (...,
    *grid.shape), which is returned."""
    for ax in range(-grid.d, -1):
        np.fft.ifft(cols, axis=ax, norm="forward", out=cols)
    return np.fft.irfft(cols, n=grid.N, axis=-1, norm="forward", out=out)


def pruned_forward(grid: Grid, values: np.ndarray, out: np.ndarray,
                   dealiased: bool) -> np.ndarray:
    """Half-spectrum of real rows shaped (..., *grid.shape), written into
    ``out``, shaped (..., *grid.spec_shape), which is returned: one ``rfft``,
    then the ``fft`` passes over the non-last axes in place, on the kept
    last-axis columns alone and 2/3-masked if ``dealiased``."""
    np.fft.rfft(values, axis=-1, norm="forward", out=out)
    cols = out[..., :grid.kept_columns] if dealiased else out
    for ax in range(-2, -grid.d - 1, -1):
        np.fft.fft(cols, axis=ax, norm="forward", out=cols)
    return np.multiply(out, grid.dealias_mask, out=out) if dealiased else out


class SpectralField:
    """Real periodic field stored as Fourier coefficients.

    ``coef`` is the half-spectrum, shape ``(ncomp, *grid.spec_shape)``: ncomp
    is 1 for a scalar, grid.d for a vector, and any count for a stack of
    fields transformed together.  A field is a value: all arithmetic is
    coefficient-wise and returns new fields, and nothing here mutates its
    inputs, so solver states share fields freely.
    """

    __slots__ = ("grid", "coef")

    def __init__(self, grid: Grid, coef: np.ndarray):
        coef = np.asarray(coef, dtype=np.complex128)
        if coef.shape[1:] != grid.spec_shape:
            raise ValueError(f"coefficient shape {coef.shape} does not match the half-spectrum "
                             f"{grid.spec_shape} of grid {grid.shape}")
        self.grid = grid
        self.coef = coef

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray,
                      dealiased: bool = False) -> "SpectralField":
        """Field of real values shaped (ncomp, *shape) or ``grid.shape``,
        2/3-masked if ``dealiased`` (:func:`pruned_forward`)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape == grid.shape:
            values = values[None]
        coef = np.empty(values.shape[:-1] + grid.spec_shape[-1:], dtype=np.complex128)
        return cls(grid, pruned_forward(grid, values, coef, dealiased))

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp,) + grid.spec_shape, dtype=np.complex128))

    # -- basic queries -----------------------------------------------------
    @property
    def ncomp(self) -> int:
        return self.coef.shape[0]

    def to_physical(self) -> np.ndarray:
        """Inverse transform to real values, shape (ncomp, *shape), by
        :func:`pruned_inverse`; in d >= 2, whose passes run in place, on a
        copy of the coefficients, of the kept last-axis columns alone when
        the others are all zero."""
        grid, coef = self.grid, self.coef
        if grid.d > 1:
            keep = grid.kept_columns
            coef = (coef if coef[..., keep:].any() else coef[..., :keep]).copy()
        return pruned_inverse(grid, coef, np.empty((len(coef),) + grid.shape))

    @property
    def _zero(self) -> tuple:   # every row's zero-mode coefficient
        return (slice(None),) + (0,) * self.grid.d

    def mean(self) -> np.ndarray:
        """Spatial mean per row (the zero-mode coefficient)."""
        return self.coef[self._zero].real.copy()

    def shifted(self, value) -> "SpectralField":
        """A new field: this one plus the constant ``value`` in every row."""
        coef = self.coef.copy()
        coef[self._zero] += value
        return self._like(coef)

    def energy(self, ncomp: int) -> np.ndarray:
        """|coef|^2 of each field stacked here, a field being ``ncomp``
        consecutive rows whose energies are summed: shape (fields, n_modes)."""
        energy = np.abs(self.coef.reshape(-1, ncomp, self.coef[0].size))
        return np.square(energy, out=energy).sum(axis=1)

    # -- arithmetic --------------------------------------------------------
    def _like(self, coef: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coef)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._like(self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._like(self.coef - other.coef)

    def __mul__(self, scalar) -> "SpectralField":
        return self._like(self.coef * scalar)

    __rmul__ = __mul__


# -- Fourier multipliers ----------------------------------------------------

def bessel_inverse(f: SpectralField, b: float) -> SpectralField:
    """(b - Laplacian)^{-1}: multiply by 1/(b + |xi|^2); requires b > 0.

    Uses the differentiation-consistent wavenumbers so that the screened
    elliptic identity -Lap phi + b phi = f holds exactly, Nyquist included.
    """
    if not (b > 0):
        raise ValueError(f"bessel_inverse requires b > 0, got {b}")
    return SpectralField(f.grid, f.coef / (b + f.grid.xi_sq))


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of each row of f: d rows per row, in row order."""
    coef = 1j * f.grid.xi_diff * f.coef[:, None]
    return SpectralField(f.grid, coef.reshape((-1,) + f.grid.spec_shape))


def divergence(v: SpectralField) -> SpectralField:
    """Divergence of each consecutive d rows of v: one row per d-component field."""
    coef = np.sum(1j * v.grid.xi_diff * v.coef.reshape((-1, v.grid.d) + v.grid.spec_shape), axis=1)
    return SpectralField(v.grid, coef)


def laplacian(f: SpectralField) -> SpectralField:
    """Laplacian (per component); symbol -|xi|^2 built from xi_diff."""
    return SpectralField(f.grid, f.coef * f.grid.lap_symbol)


# -- dyadic decomposition ----------------------------------------------------

_T0 = 0.75      # chi == 1 below this
_T1 = 4.0 / 3.0 # chi == 0 above this


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 + x * (6.0 * x - 15.0))


def chi_profile(t) -> np.ndarray:
    """Radial cutoff: 1 for t <= 3/4, 0 for t >= 4/3, monotone quintic between."""
    t = np.asarray(t, dtype=np.float64)
    return 1.0 - _smoothstep((t - _T0) / (_T1 - _T0))


def ring_profile(t) -> np.ndarray:
    """Ring profile chi(t/2) - chi(t); supported on 3/4 <= t <= 8/3."""
    t = np.asarray(t, dtype=np.float64)
    return chi_profile(t / 2.0) - chi_profile(t)


def compute_threshold(eps: float, k: int) -> int:
    """Low/high frequency threshold floor(-log2 eps) + k, for eps in (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"threshold requires eps in (0, 1), got {eps}")
    return int(math.floor(-math.log2(eps))) + int(k)


@dataclass(eq=False)
class DyadicDecomposition:
    """Discrete Littlewood-Paley blocks valid on one grid.

    ``j_min``/``j_max`` bracket the blocks whose rings intersect the grid's
    nonzero wavenumbers; blocks outside that range are identically zero.
    """

    grid: Grid
    j_min: int
    j_max: int

    def active_js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def _multipliers(self, profile, j) -> np.ndarray:
        """profile(2^{-j} |xi|) for a scalar or an array of j, shape (n_j, *spec_shape)."""
        return profile(self.grid.xi_mag * 2.0 ** -np.reshape(j, (-1,) + (1,) * self.grid.d))

    @cached_property
    def weights(self) -> np.ndarray:
        """Squared ring weights times mode multiplicity, shape (n_active_blocks,
        n_stored_modes); built on first use."""
        w2 = self._multipliers(ring_profile, self.active_js()) ** 2 * self.grid.multiplicity
        return w2.reshape(len(self.active_js()), -1)

    def block(self, f: SpectralField, j) -> SpectralField:
        """Block at scale 2^j (zero outside the active range); an array of j stacks f per j."""
        coef = f.coef * self._multipliers(ring_profile, j)[:, None]
        return SpectralField(f.grid, coef.reshape((-1,) + self.grid.spec_shape))

    def block_norms(self, energy: np.ndarray) -> np.ndarray:
        """L2 norms of every active block of each field whose energy row
        (:meth:`SpectralField.energy`) is given, shape (fields,
        n_active_blocks), in j order: one product with ``weights``."""
        return np.sqrt(self.weights @ energy[..., None])[..., 0] * self.grid.L ** (self.grid.d / 2)

    def block_l2(self, f: SpectralField, j: int) -> float:
        """L2 norm of block j of f (components summed); 0.0 outside the active range."""
        return (float(self.block_norms(f.energy(f.ncomp))[0, j - self.j_min])
                if j in self.active_js() else 0.0)

    def besov_norm(self, norms: np.ndarray, s: float) -> np.ndarray:
        """Homogeneous Besov norm B^s_{2,1} (zero mode excluded) of each row of
        :meth:`block_norms`."""
        js = np.arange(self.j_min, self.j_max + 1)
        return np.sum(2.0 ** (js * s) * norms, axis=-1)

    def hybrid_norm(self, norms: np.ndarray, s_low: float, s_high: float, J: int):
        """(low, high) of each row of :meth:`block_norms`: the low part sums
        blocks j <= J, the high part j >= J - 1 (one-block overlap)."""
        js = np.arange(self.j_min, self.j_max + 1)
        # compress gives contiguous rows, each summed in the order of a 1-D sum
        return (np.compress(js <= J, 2.0 ** (js * s_low) * norms, axis=-1).sum(axis=-1),
                np.compress(js >= J - 1, 2.0 ** (js * s_high) * norms, axis=-1).sum(axis=-1))

    def lowpass(self, f: SpectralField, j) -> SpectralField:
        """Low-frequency cutoff S_j (multiplier chi(2^{-j} xi)), mean kept; stacks as block."""
        coef = f.coef * self._multipliers(chi_profile, j)[:, None]
        return SpectralField(f.grid, coef.reshape((-1,) + self.grid.spec_shape))


def make_decomposition(grid: Grid) -> DyadicDecomposition:
    lo = math.log2(grid.xi_min)
    hi = math.log2(grid.xi_max)
    tiny = 1e-12
    # ring(2^{-j} xi) != 0  iff  log2(xi) - log2(8/3) < j < log2(xi) - log2(3/4)
    j_min = math.ceil(lo - math.log2(8.0 / 3.0) + tiny)
    j_max = math.floor(hi - math.log2(3.0 / 4.0) - tiny)
    return DyadicDecomposition(grid=grid, j_min=j_min, j_max=j_max)


# -- snapshot IO -------------------------------------------------------------

def save_field(path, f: SpectralField) -> None:
    """Write a field snapshot: .npz with two members, ``grid`` (float64
    ``[d, N, L]``) and the 2/3 box ``coef = f.coef[grid.box]``; a field with a
    nonzero coefficient outside the box raises ``ValueError`` and writes nothing."""
    g, box = f.grid, f.coef[f.grid.box]
    if np.count_nonzero(box) != np.count_nonzero(f.coef):
        raise ValueError(f"field has coefficients outside the 2/3 box; not written to {path}")
    np.savez(path, grid=np.array([g.d, g.N, g.L], dtype=np.float64), coef=box)


_snapshot_grid = lru_cache(maxsize=8)(make_grid)   # loads share one grid per (d, N, L)


def load_field(path) -> SpectralField:
    """Read a snapshot written by :func:`save_field`, its box scattered into zeros;
    any other layout, the older ones included, is a ``ValueError``."""
    with np.load(path) as data:
        if sorted(data.files) != ["coef", "grid"]:
            raise ValueError(f"{path}: members {data.files} are not [grid, coef]")
        record, box = data["grid"], data["coef"]
    if (record.dtype != np.float64 or record.shape != (3,)
            or not (record[0].is_integer() and record[1].is_integer())):
        raise ValueError(f"{path}: grid record {record!r} is not [d, N, L] with d, N integral")
    grid = _snapshot_grid(int(record[0]), int(record[1]), float(record[2]))
    coef = np.zeros(box.shape[:1] + grid.spec_shape, dtype=np.complex128)
    if box.ndim != grid.d + 1 or box.shape != coef[grid.box].shape:
        raise ValueError(f"{path}: coefficients shaped {box.shape} are not the 2/3 box")
    coef[grid.box] = box
    return SpectralField(grid, coef)
