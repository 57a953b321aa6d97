"""
Squeezing more accuracy out of the same sketch
==============================================

Three ways to estimate the inner product when the vectors are highly
correlated: the plain estimate, the normalized estimate rescaled by the
(known) norms, and the likelihood root that uses both exact squared
norms. The (1-rho^2)^2 factor in the normalized variance is what makes
the difference.
"""

import numpy as np

from oporp import (
    Binning,
    SketchConfig,
    generate_pair_with_cosine,
    inner_product_hat,
    mle_inner_product,
    cosine_hat,
    oporp_sketch,
    pair_statistics,
    rademacher,
    var_cosine,
    var_inner,
    variance_ratio,
)
from oporp.projection import derive_seed

D, k, rho = 1024, 128, 0.95
u, v = generate_pair_with_cosine(D, rho, tol=1e-3, seed=2)
a = float(u @ v)
norm_u, norm_v = float(np.linalg.norm(u)), float(np.linalg.norm(v))

stats = pair_statistics(u, v)
print("oracle Var(inner) :", var_inner(stats, k, 1.0, Binning.FIXED))
print("oracle Var(cosine):", var_cosine(stats, k, 1.0, Binning.FIXED))
print("predicted MSE gain from normalizing:",
      round(var_inner(stats, k, 1.0, Binning.FIXED) / var_cosine(stats, k, 1.0, Binning.FIXED), 1))
print()

trials = 2000
errs = {"plain": [], "normalized": [], "mle": []}
for t in range(trials):
    config = SketchConfig(dim=D, k=k, binning=Binning.FIXED, dist=rademacher(),
                          seed=derive_seed(5, t))
    x, y = oporp_sketch(u, config), oporp_sketch(v, config)
    errs["plain"].append(inner_product_hat(x, y) - a)
    errs["normalized"].append(cosine_hat(x, y) * norm_u * norm_v - a)
    errs["mle"].append(mle_inner_product(x, y, norm_u**2, norm_v**2) - a)

print(f"measured MSE over {trials} sketches (rho={rho}, k={k}):")
for name, e in errs.items():
    print(f"  {name:10s} {float(np.mean(np.square(e))):.6f}")

print()
print("how much the choice of multiplier costs, relative to signs (s=1):")
print("    s   inner ratio   cosine ratio")
for s in (1.0, 1.8, 3.0, 10.0, 100.0):
    print(f"{s:7.1f} {variance_ratio(stats, s, 'inner'):10.3f}"
          f" {variance_ratio(stats, s, 'cosine'):13.3f}")
