"""Whole-field L2 norms for the tests: the torus integral of |f|^2 summed over
every row of a field, from its coefficients by Parseval and, as the reference
for that, by physical-space quadrature."""

import numpy as np


def l2_norm(f) -> float:
    """Parseval form: each stored mode's energy weighted by its multiplicity."""
    energy = np.sum(f.grid.multiplicity * np.abs(f.coef) ** 2)
    return float(np.sqrt(energy) * f.grid.L ** (f.grid.d / 2))


def l2_norm_physical(f) -> float:
    """The same norm by the rectangle rule on the grid, exact for trigonometric
    polynomials of the grid's band."""
    return float(np.sqrt(np.sum(f.to_physical() ** 2) * f.grid.cell_volume))


def besov_norm(dec, f, s: float) -> float:
    """B^s_{2,1} norm of the whole field f (its rows summed as components)."""
    return float(dec.besov_norm(dec.block_norms(f.energy(f.ncomp)), s)[0])


def hybrid_norm(dec, f, s_low: float, s_high: float, J: int):
    """(low, high) hybrid parts of the whole field f."""
    (low,), (high,) = dec.hybrid_norm(dec.block_norms(f.energy(f.ncomp)), s_low, s_high, J)
    return float(low), float(high)


# Per-snapshot references for the stacked diagnostics: the block norms of one
# whole field from one matrix-vector product of the weights with its energy
# (components summed), and the Besov and hybrid sums over them.

def snapshot_block_norms(f) -> np.ndarray:
    dec = f.grid.decomposition
    energy = np.sum(np.abs(f.coef) ** 2, axis=0).ravel()
    return np.sqrt(dec.weights @ energy) * f.grid.L ** (f.grid.d / 2)


def snapshot_besov(f, s: float) -> float:
    dec = f.grid.decomposition
    js = np.arange(dec.j_min, dec.j_max + 1)
    return float(np.sum(2.0 ** (js * s) * snapshot_block_norms(f)))


def snapshot_hybrid(f, s_low: float, s_high: float, J: int):
    dec = f.grid.decomposition
    js = np.arange(dec.j_min, dec.j_max + 1)
    norms = snapshot_block_norms(f)
    return (float(np.sum((2.0 ** (js * s_low) * norms)[js <= J])),
            float(np.sum((2.0 ** (js * s_high) * norms)[js >= J - 1])))
