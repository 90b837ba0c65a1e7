"""
How tight are the direction packings?
=====================================

The direction sets come from a soft-min ascent on the Grassmannian packing
problem.  The Welch bound caps what any packing can reach, so printing both
shows how much of the theoretical room each set size actually uses.  Up to
N = K the bound is met exactly by an orthonormal set; past that the gap
grows with the cardinality.

In C^2 (K = 2) a line is a point on the Bloch sphere and the squared
chordal distance is a quarter of the squared distance between the points,
so Fejes Toth's bound on spherical codes caps the sets more tightly than
Welch from N = 5 up.  The packer starts K = 2 sets from sphere layouts:
the tetrahedron meets both bounds at N = 4, and the square antiprism at
N = 8 is the best possible set even though it stays below Fejes Toth.
"""

from klconst import PackingConfig, fejes_toth_limit, optimize_unitary, welch_limit

K = 2
print(f"K = {K} (complex dimension of one block)\n")
print("   N   achieved t     Welch cap   Fejes Toth cap   fraction of Fejes Toth")
for l_v in range(1, 7):
    n = 2**l_v
    uset = optimize_unitary(PackingConfig(K=K, cardinality=n, seed=0))
    cap = fejes_toth_limit(n)
    print(f"  {n:3d}   {uset.min_sq_dist:.6f}     {welch_limit(K, n):.6f}    "
          f"{cap:.6f}         {uset.min_sq_dist / cap:.3f}")

# the N = 4 case has a known optimum: four equiangular lines in C^2 with
# squared chordal distance 2/3 between every pair
best4 = optimize_unitary(PackingConfig(K=2, cardinality=4, seed=0)).min_sq_dist
print(f"\nN=4 equiangular optimum is 2/3 = {2 / 3:.6f}; the packer gives {best4:.6f}")
