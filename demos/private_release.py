"""
Releasing sketches under differential privacy
=============================================

Three mechanisms over the same bounded-entry vector: calibrated Gaussian
noise on the bin values, randomized response on the signs, and the
smoothed variant that flips loud bins less often. Sensitivity comes from
beta-adjacency (one coordinate moves by at most beta), so the noise
scale is independent of D.
"""

import math

import numpy as np

from oporp import (
    Binning,
    PrivacySpec,
    SketchConfig,
    dp_oporp,
    dp_sign_oporp_rr,
    dp_sign_oporp_rr_smooth,
    oporp_sketch,
    rademacher,
    sign_similarity,
    solve_gaussian_sigma,
)
from oporp.privacy import flip_probability

print("noise scale for the optimal Gaussian mechanism, sensitivity 1:")
print("  eps     delta=1e-6   classical")
for eps in (0.25, 0.5, 1.0, 2.0):
    sigma = solve_gaussian_sigma(1.0, eps, 1e-6)
    classical = math.sqrt(2.0 * math.log(1.25 / 1e-6)) / eps
    print(f"  {eps:4.2f}   {sigma:10.4f}   {classical:9.4f}")
print()

rng = np.random.default_rng(12)
D, k = 4096, 256
u = rng.uniform(-1.0, 1.0, D)
config = SketchConfig(dim=D, k=k, binning=Binning.FIXED, dist=rademacher(), seed=8)
clean = oporp_sketch(u, config)

spec = PrivacySpec(epsilon=1.0, delta=1e-6, beta=1.0)
noisy = dp_oporp(u, config, spec, noise_seed=1)
err = noisy.values - clean.values
print(f"Gaussian release at eps=1: sigma={noisy.sigma:.4f},"
      f" empirical noise std {float(err.std()):.4f}")
print()

# sign release: how much of the geometry survives the flipping. Only
# flip_probability(eps) may be published; the smooth release's per-bin
# probabilities follow the data, so only its observed flip rate is shown.
true_signs = np.sign(clean.values)
for eps in (0.5, 1.0, 2.0, 4.0):
    rr = dp_sign_oporp_rr(u, config, eps, noise_seed=2)
    smooth = dp_sign_oporp_rr_smooth(u, config, eps, beta=0.1, noise_seed=2)
    print(f"eps={eps:3.1f}  flip_probability {float(flip_probability(eps)):.3f}"
          f"  observed flip rate rr {1.0 - sign_similarity(rr, true_signs):.3f}"
          f"  smooth {1.0 - sign_similarity(smooth, true_signs):.3f}")

print()
print("smoothing keys the flip probability to ceil(|x|/beta), so bins that")
print("are far from the decision boundary keep their sign almost surely")
