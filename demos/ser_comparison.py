"""
Desk-scale error-rate comparison
================================

A small version of the headline experiment: 6 bits per 2-symbol block into
a 64-antenna receiver, no channel knowledge anywhere.  Three ways to spend
the block: the KL-designed multi-level constellation, a direction-only set
of the same rate, and a pilot slot followed by 64-QAM.  Trials are kept low
enough to finish in seconds, so expect visibly loose confidence intervals;
the ordering is still unambiguous at low SNR.
"""

from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    allocate_bits,
    estimate_ser,
    library_codebooks,
    pilot_qam_run,
)

K, M, L_S = 2, 64, 6
TRIALS = 20_000
SEED = 99

library = library_codebooks(K, range(L_S + 1), seed=0)

print(f"K={K}, M={M}, {L_S} bits per block, {TRIALS} trials per point")
print("\n  SNR dB   multilevel (l_a)     unitary only         pilot + QAM")
for snr_db in (-2.0, 2.0, 6.0, 10.0):
    params = ChannelParams.from_snr_db(M, K, snr_db)
    outcome = allocate_bits(L_S, params.sigma2, library)
    multi = estimate_ser(outcome.constellation, params, TRIALS, seed=SEED)
    one = MultiLevelConstellation([1.0], params.sigma2, library[L_S])
    uni = estimate_ser(one, params, TRIALS, seed=SEED)
    pilot = pilot_qam_run(L_S, params, TRIALS, seed=SEED)
    print(
        f"  {snr_db:6.1f}   {multi.ser:.4f} ({outcome.l_alpha})   "
        f"[{multi.ci95_low:.4f},{multi.ci95_high:.4f}]   {uni.ser:.4f} "
        f"[{uni.ci95_low:.4f},{uni.ci95_high:.4f}]   {pilot.ser:.4f} "
        f"[{pilot.ci95_low:.4f},{pilot.ci95_high:.4f}]"
    )

print("\nSame seed for every scheme, so each column shares the message indices and"
      "\nbase Bartlett draws of each substream (common random numbers).")
