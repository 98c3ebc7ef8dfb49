#!/usr/bin/env python3
"""Walk through the linearized spectrum of the chemotaxis system.

The linearization around (rho_bar, 0, phi_bar) couples the enthalpy n, the
compressible velocity amplitude m and the concentration psi through a real
3x3 matrix per wavenumber.  This script prints the three regimes the spectrum
exhibits:

  * at |xi| = 0 the roots are exactly {0, -1/eps, -b},
  * for eps |xi| << 1 all roots are real; the slow one behaves like the heat
    rate -(P'(rho_bar) - a mu rho_bar / b) eps |xi|^2, so the sign of that
    margin decides stability,
  * for eps |xi| >> 1 a damped acoustic pair appears with Re ~ -1/(2 eps),
    plus a strongly damped real root ~ -b - |xi|^2.

Run:  python3 demos/01_spectrum_and_stability.py
"""

import numpy as np

from chemorelax.linear_analysis import (
    eigenvalues,
    highfreq_asymptotic_check,
    lowfreq_asymptotic_check,
    stability_scan,
)
from chemorelax.model import ModelParams, PressureLaw, check_stability

params = ModelParams(eps=0.1, mu=1.0, a=1.0, b=1.0, rho_bar=1.0,
                     pressure=PressureLaw(kappa=1.0, gamma=2.0))
stable, margin = check_stability(params)
print(f"margin P'(rho_bar) - a mu rho_bar / b = {margin:+.3f}  ->  "
      f"{'stable' if stable else 'unstable'}")

lam, _ = eigenvalues(0.0, params)
print(f"\nroots at xi = 0: {np.sort(lam.real)}  (exactly 0, -1/eps, -b)")

print("\nlow-frequency ratios against the leading asymptotics "
      "(lambda1 / heat rate, lambda2 / (-1/eps), lambda3 / (-b)):")
for exi in (0.1, 0.01, 0.001):
    t = lowfreq_asymptotic_check(params, [exi / params.eps])
    print(f"  eps|xi| = {exi:<6g} ->  {t['ratio1'][0]:.5f}  {t['ratio2'][0]:.5f}  "
          f"{t['ratio3'][0]:.5f}")

print("\nhigh-frequency ratios (Re lambda1 * 2eps, Im lambda1 / sqrt(c0)|xi|, "
      "lambda3 / (-b - |xi|^2)):")
for exi in (10.0, 100.0):
    t = highfreq_asymptotic_check(params, [exi / params.eps])
    print(f"  eps|xi| = {exi:<6g} ->  {t['ratio_re1'][0]:.5f}  {t['ratio_im1'][0]:.5f}  "
          f"{t['ratio3'][0]:.5f}")

xi = np.geomspace(1e-2 / params.eps, 1e2 / params.eps, 2001)
lam, has_pair = eigenvalues(xi, params)   # one call over the whole grid
print(f"\nthe acoustic pair first appears at eps|xi| = {params.eps * xi[has_pair][0]:.3f}")

worst, _ = stability_scan(params, xi_max=50.0, samples=500)
print(f"\nmax Re lambda over a 500-point scan: {worst:.3e}")

unstable = ModelParams(eps=0.5, mu=1.5, a=1.0, b=1.0, rho_bar=1.0,
                       pressure=PressureLaw(kappa=1.0, gamma=1.0))
worst_u, _ = stability_scan(unstable, xi_max=0.8, samples=500)
band = np.sqrt(unstable.c1 * unstable.mu - unstable.b)
print(f"negative margin {unstable.stability_margin:+.2f}: growth rate {worst_u:.4f} "
      f"inside the band |xi| < {band:.3f}")
