"""
Is the closed-form KL distance right?
=====================================

The design rests on one closed-form expression for the KL distance between
the received-signal densities of two transmit blocks.  Here it is checked
the blunt way: draw the log-likelihood ratio a few hundred thousand times
under the true block and average.  The sample mean should land within a
couple of standard errors of the formula.
"""

import numpy as np

from klconst import ChannelParams, kl_full, kl_mc_estimate

params = ChannelParams(M=4, K=2, sigma2=0.25)
rng = np.random.default_rng(7)

print(f"M={params.M}, K={params.K}, sigma2={params.sigma2}\n")
print("  pair   closed form   sample mean   std err    z")
for pair in range(5):
    points = []
    for _ in range(2):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        points.append(rng.uniform(0.3, 1.3) * v)   # transmit block alpha v
    closed = kl_full(points[0], points[1], params.sigma2)
    est = kl_mc_estimate(points[0], points[1], params, 300_000, seed=pair)
    z = (est.estimate - closed) / est.std_error
    print(f"  {pair:4d}   {closed:11.6f}   {est.estimate:11.6f}   "
          f"{est.std_error:.2e}   {z:+.2f}")
