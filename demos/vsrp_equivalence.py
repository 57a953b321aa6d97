"""
VSRP is OPORP run k times with a single bin
===========================================

The classical very sparse projection, a D x k matrix with sparse(s)
entries, and the binned sketch with k=1 and m=k repetitions have the same
estimator distribution; the package's VSRP sketch is that binned sketch.
The demo draws the classical matrix with numpy alone and measures both
MSEs, then checks the sample-based variance formula on a pair with very
unequal norms, where the sparse speedup actually matters.
"""

import math

import numpy as np

from oporp import (
    Binning,
    generate_pair_with_cosine,
    inner_product_hat,
    mse_sweep,
    oporp_sketch,
    pair_statistics,
    var_inner,
    vsrp_config,
)
from oporp.projection import derive_seed

D, k, s = 64, 16, 10.0
u, v = generate_pair_with_cosine(D, 0.7, tol=1e-3, seed=19)
a = float(u @ v)

# Li, Hastie and Church: sqrt(s) * {+1, 0, -1} w.p. 1/(2s), 1 - 1/s, 1/(2s)
rng = np.random.default_rng(23)
p = 1.0 / (2.0 * s)
trials = 4000
sq_v = np.empty(trials)
sq_o = np.empty(trials)
for t in range(trials):
    R = math.sqrt(s) * rng.choice([1.0, 0.0, -1.0], size=(D, k), p=[p, 1.0 - 2.0 * p, p])
    sq_v[t] = (float((u @ R) @ (v @ R)) / k - a) ** 2
    # vsrp_sketch(u, D, k, s, seed) is oporp_sketch(u, vsrp_config(D, k, s, seed))
    config = vsrp_config(D, k, s, derive_seed(23, t))
    sq_o[t] = (inner_product_hat(oporp_sketch(u, config), oporp_sketch(v, config)) - a) ** 2

print(f"D={D}, {k} samples, sparse(s={s}) entries, {trials} trials")
print("classical VSRP MSE :", float(sq_v.mean()))
print("OPORP(k=1,m=k) MSE :", float(sq_o.mean()))
print("ratio              :", float(sq_v.mean() / sq_o.mean()))
print()

# unequal norms: scale a high-cosine pair to word-frequency-like margins
u2, v2 = generate_pair_with_cosine(256, 0.96, tol=1e-3, seed=29)
u2, v2 = u2 * math.sqrt(13556.0), v2 * math.sqrt(13395.0)
stats = pair_statistics(u2, v2)
print("unequal-norm pair: a =", round(stats.a, 1), " norms",
      round(math.sqrt(stats.sumsq_u), 1), round(math.sqrt(stats.sumsq_v), 1))
for samples in (256, 1024):
    row = mse_sweep(u2, v2, [samples], 30.0, Binning.VARIABLE,
                    ["vsrp_inner"], trials=5000, seed=31)[0]
    # k samples are k one-bin repetitions: the one-bin variance over k
    formula = var_inner(stats, 1, 30.0, Binning.VARIABLE) / samples
    print(f"  {samples:5d} samples  empirical {row.empirical_mse:12.1f}"
          f"  formula {formula:12.1f}")
