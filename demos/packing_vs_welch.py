"""
How tight are the direction packings?
=====================================

The direction sets come from a soft-min ascent on the Grassmannian packing
problem.  packing_limit caps what any packing can reach, so printing both
shows how much of the theoretical room each set size actually uses.  Up to
N = K the bound is met exactly by an orthonormal set; past that it is the
Welch bound.

In C^2 (K = 2) a line is a point on the Bloch sphere and the squared
chordal distance is a quarter of the squared distance between the points,
so Fejes Toth's bound on spherical codes caps the sets more tightly than
Welch from N = 5 up, and packing_limit returns it there.  The packer
starts K = 2 sets from sphere layouts: the tetrahedron meets the bound at
N = 4, and the square antiprism at N = 8 is the best possible set even
though it stays below the bound.
"""

from klconst import PackingConfig, optimize_unitary, packing_limit

K = 2
print(f"K = {K} (complex dimension of one block)\n")
print("   N   achieved t   packing limit   fraction of the limit")
for l_v in range(1, 7):
    n = 2**l_v
    uset = optimize_unitary(PackingConfig(K=K, cardinality=n, seed=0))
    cap = packing_limit(K, n)
    print(f"  {n:3d}   {uset.min_sq_dist:.6f}     {cap:.6f}        {uset.min_sq_dist / cap:.3f}")

# the N = 4 case has a known optimum: four equiangular lines in C^2 with
# squared chordal distance 2/3 between every pair
best4 = optimize_unitary(PackingConfig(K=2, cardinality=4, seed=0)).min_sq_dist
print(f"\nN=4 equiangular optimum is 2/3 = {2 / 3:.6f}; the packer gives {best4:.6f}")
