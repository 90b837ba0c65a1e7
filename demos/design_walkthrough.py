"""
Designing a multi-level constellation, step by step
===================================================

Builds a 6-bit design for a 2-symbol block and walks through what the
allocator actually compares: for every split of the bits between energy
levels and directions it equalizes the worst-case KL distance, then keeps
the split with the largest one.  Run it; it prints the full table for a
few SNR points so the shift toward direction-only signaling at high SNR
is visible.
"""

import numpy as np

from klconst import ChannelParams, allocate_bits, library_codebooks, min_kl_bruteforce

K = 2
L_S = 6

# one packing per direction-set size, shared by every SNR point below
library = library_codebooks(K, range(L_S + 1), seed=0)
print(f"direction sets (K={K}):")
for l_v in sorted(library):
    t = library[l_v].min_sq_dist
    print(f"  l_v={l_v}  size={2**l_v:3d}  min sq chordal distance = {t:.6f}")

for snr_db in (0.0, 5.0, 15.0):
    params = ChannelParams.from_snr_db(4, K, snr_db)
    outcome = allocate_bits(L_S, params.sigma2, library)

    print(f"\nSNR = {snr_db:.0f} dB  (sigma2 = {params.sigma2:.4g})")
    print("  l_alpha  min KL      ratio r0    alpha0")
    for row in outcome.per_allocation_table:
        mark = " <- chosen" if row.l_alpha == outcome.l_alpha else ""
        r = f"{row.r0:.6f}" if row.r0 is not None else "     -"
        print(f"  {row.l_alpha:7d}  {row.min_kl:.6f}  {r:>10s}  {row.alpha0:8.6f}{mark}")

    c = outcome.constellation
    amps = c.amplitudes
    brute, pair = min_kl_bruteforce(c, params.sigma2)
    print(f"  amplitudes: {np.array2string(amps, precision=4)}")
    print(f"  exhaustive check: min KL over all {c.size}^2 pairs = {brute:.6f} "
          f"at pair {pair} (table value {outcome.min_kl:.6f})")
