"""
Two detectors, one answer
=========================

The exact ML detector scores every (level, direction) pair.  The two-stage
variant first picks the direction from the level-free correlation score and
only then scans the levels, touching N_levels + N_directions candidates
instead of their product.  This script checks, on a noisy batch, that the
shortcut never changes the decision, and times both on the same data.
"""

import time

import numpy as np

from klconst import (
    ChannelParams,
    allocate_bits,
    detect_joint,
    detect_two_stage,
    library_codebooks,
    simulate_block,
)

params = ChannelParams.from_snr_db(M=32, K=2, snr_db=5.0)
library = library_codebooks(2, range(7), seed=0)
c = allocate_bits(6, params.sigma2, library).constellation
print(f"constellation: {c.amplitudes.size} levels x {c.directions.size} directions, "
      f"{c.size} points")

# one Y per trial, drawn with the true channel statistics
rng = np.random.default_rng(1234)
trials = 5000
sent = rng.integers(0, c.size, size=trials)
S = c.point_vectors()   # row i is the transmit block of point i
Y = np.stack([simulate_block(S[i], params, rng) for i in sent])

t0 = time.perf_counter()
joint = detect_joint(Y, c, params.sigma2)
t_joint = time.perf_counter() - t0

t0 = time.perf_counter()
staged = detect_two_stage(Y, c, params.sigma2)
t_staged = time.perf_counter() - t0

agree = int(np.sum(joint == staged))
errors = int(np.sum(joint != sent))
print(f"agreement: {agree}/{trials} decisions identical")
print(f"block errors at {params.snr_db:.0f} dB: {errors} ({errors / trials:.3%})")
print(f"joint scan {t_joint * 1e3:.1f} ms, two-stage {t_staged * 1e3:.1f} ms")

assert agree == trials
