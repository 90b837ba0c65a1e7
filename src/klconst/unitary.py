"""Direction codebooks: Grassmannian-style line packings and codebook files.

The direction part of a multi-level constellation is a set of N unit-norm
vectors in C^K whose quality is the minimum squared chordal distance

    t = min over distinct pairs of (1 - |v_k^T v_i^*|^2),

a max-min line-packing objective on the complex projective space.  The
problem is non-smooth, so the optimizer here climbs a temperature-sharpened
soft-min surrogate with per-step renormalization and random restarts; the
reported distance of the returned set is always the exact minimum, never
the surrogate.  The restarts of one packing climb together as (R, N, K)
stacks, one numpy call per step for all of them, and each stack bounds its
per-step (R, N, N) array to _CHUNK_ENTRIES entries.  Every stack of a run,
across all the codebook sizes it packs, is climbed on a pool of forked
worker processes, one per available CPU; with one CPU, one stack, nothing
to climb, or no fork on the platform, the stacks are climbed in-process
and multiprocessing is never imported.  Each restart only ever touches its
own slice, so it ends on the same bits as a lone climb, and neither the
stacking nor the worker count can change a codebook; ties between restarts
still go to the earliest.  External codebooks (built by any other tool)
can be loaded from the shared plain-text format instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import (
    UnitarySet,
    _min_sq_chordal,
    _pow2_bits,
    canonical_direction,
    read_layout,
    write_layout,
)
from .linksim import _check_seed, _stream

__all__ = [
    "PackingConfig",
    "welch_limit",
    "optimize_unitary",
    "save_unitary",
    "load_unitary",
    "library_codebooks",
    "default_library",
]

# Soft-min sharpness rises geometrically from SHARPEN_START to
# SHARPEN_START * SHARPEN_SPAN over the run while the step size decays from
# STEP_START to STEP_START * STEP_DECAY; settled empirically (a 4-point
# packing in C^2 reaches >= 99% of the equiangular optimum with the
# constants below).
SHARPEN_START = 8.0
SHARPEN_SPAN = 512.0
STEP_START = 0.6
STEP_DECAY = 1.0 / 30.0

# Restarts are climbed together in stacks whose per-step (R, N, N) arrays
# hold at most this many entries, one restart when N^2 alone exceeds it.
# 2^14 splits the default 8 restarts at N = 64 into two stacks of 4, so
# the largest size of a library spreads over two workers.
_CHUNK_ENTRIES = 2**14

DEFAULT_RESTARTS = 8
DEFAULT_ITERATIONS = 1500


@dataclass(frozen=True)
class PackingConfig:
    """Knobs of one packing run.

    cardinality must be a power of two; restarts and iterations must be
    >= 1; seed, a 64-bit unsigned integer, keys the counter-based restart
    streams, so a config is fully reproducible.
    """

    K: int
    cardinality: int
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        _pow2_bits(self.cardinality, "cardinality")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        _check_seed(self.seed)


def welch_limit(K, N):
    """Upper bound on the achievable min squared chordal distance.

    For N unit vectors in C^K the maximal squared correlation is at least
    (N - K)/(K (N - 1)) (Welch), so t <= 1 - (N - K)/(K (N - 1)); when
    N <= K an orthonormal set attains t = 1.
    """
    if K < 1 or N < 1:
        raise ValueError("K and N must be >= 1")
    if N <= K:
        return 1.0
    return 1.0 - (N - K) / (K * (N - 1))


def _climb(V, iterations):
    """Sharpened soft-min ascent on the pairwise squared chordal distances.

    V is a stack of R starts, shape (R, N, K); every step updates all R
    sets at once and each set sees only its own (N, N) slice, so a start
    climbs to the same bits whatever else is in the stack.  The Wirtinger
    gradient of the soft-min weighted correlation energy is (W o C) V for
    C = V V^H and pair weights W, so each step pushes every vector away
    from its currently closest neighbors, then renormalizes.  The input
    stack is left unchanged.
    """
    R, n, _ = V.shape
    dist = np.empty((R, n, n))
    diagonal = dist.reshape(R, n * n)[:, :: n + 1]
    denom = max(iterations - 1, 1)
    for it in range(iterations):
        u = it / denom
        beta = SHARPEN_START * SHARPEN_SPAN**u
        step = STEP_START * STEP_DECAY**u
        C = V @ V.conj().transpose(0, 2, 1)
        # |C|^2 through abs: re^2 + im^2 is faster but changes the bits
        np.abs(C, out=dist)
        np.square(dist, out=dist)
        np.subtract(1.0, dist, out=dist)
        diagonal[...] = np.inf
        dist -= dist.min(axis=(1, 2), keepdims=True)
        dist *= -beta
        np.exp(dist, out=dist)
        diagonal[...] = 0.0
        dist /= dist.sum(axis=(1, 2), keepdims=True)  # now the weights W
        # scale C before the product: scaling C @ V instead changes the bits
        C *= dist
        C *= step
        V = V - C @ V
        V /= np.linalg.norm(V, axis=2, keepdims=True)
    return V


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pack(cfgs):
    """Best packing of each config, climbing every restart stack of the run.

    Restart r of a config draws its start from a counter-based stream keyed
    (cfg.seed, r).  Each config's starts are cut into stacks of at most
    max(1, _CHUNK_ENTRIES // N^2) restarts.  The stacks of all configs are
    climbed largest first on a fork-context process pool with one worker
    per available CPU, at most one per stack; they are climbed in-process
    instead when there is one CPU or one stack, when no config needs a
    climb (N = 1 is the canonical single vector), or when the platform
    cannot fork.  Fork rather than spawn: a spawned worker would import
    numpy and this package again, which costs much of what the pool saves;
    the executor forks all its workers before it starts its own thread.
    Workers keep the BLAS threading they inherit, so a multi-threaded BLAS
    oversubscribes the CPUs on stacks large enough for BLAS to thread.
    Each config's results are then scored in restart order, and equal exact
    scores keep the earliest restart's set, so the returned UnitarySets do
    not depend on the stacking, the worker count or the finishing order.
    """
    stacks = []  # (config index, stack of starts)
    for i, cfg in enumerate(cfgs):
        n, K = cfg.cardinality, cfg.K
        if n == 1:
            continue
        starts = np.empty((cfg.restarts, n, K), dtype=complex)
        for restart in range(cfg.restarts):
            rng = _stream(cfg.seed, restart)
            starts[restart] = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        chunk = max(1, _CHUNK_ENTRIES // n**2)
        stacks += [(i, starts[lo:lo + chunk]) for lo in range(0, cfg.restarts, chunk)]

    jobs = [(V, cfgs[i].iterations) for i, V in stacks]
    # largest first; one step of an (R, N, K) stack costs about R N^2 K
    order = sorted(
        range(len(jobs)),
        key=lambda j: jobs[j][0].size * jobs[j][0].shape[1] * jobs[j][1],
        reverse=True,
    )
    workers = min(_cpu_count(), len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = {j: pool.submit(_climb, *jobs[j]) for j in order}
            climbed = {j: future.result() for j, future in futures.items()}
    else:
        climbed = {j: _climb(*jobs[j]) for j in order}

    best_v = [canonical_direction(cfg.K)[None, :] for cfg in cfgs]
    best_t = [-1.0] * len(cfgs)
    for j, (i, _) in enumerate(stacks):
        for V in climbed[j]:
            t = _min_sq_chordal(V)
            if t > best_t[i]:
                best_v[i], best_t[i] = V, t
    return [UnitarySet(V) for V in best_v]


def optimize_unitary(cfg):
    """Best packing over cfg.restarts independent soft-min climbs.

    The restarts are climbed as stacks on the packing pool described at
    :func:`_pack`, in parallel when more than one CPU is available and
    in-process otherwise; the result is bitwise the same at any worker
    count.  Equal exact scores keep the earliest restart's set.  The
    returned UnitarySet carries the exact recomputed distance.
    """
    if not isinstance(cfg, PackingConfig):
        raise TypeError("cfg must be a PackingConfig")
    return _pack([cfg])[0]


def save_unitary(uset, path):
    """Write a codebook: header line ``K N``, then one vector per line."""
    write_layout(path, f"{uset.K} {uset.size}", [], uset.vectors)


def load_unitary(path):
    """Read a codebook written by :func:`save_unitary` (or any tool using
    the same format).

    Norms may be off by up to 1e-6 and are renormalized; anything worse, or
    any structural problem, raises FileFormatError with the line number.
    """
    return read_layout(path, "K N", lambda fields, amps, V: UnitarySet(V))


def library_codebooks(K, l_vs, seed=0, restarts=DEFAULT_RESTARTS,
                      iterations=DEFAULT_ITERATIONS):
    """The library's codebooks of 2^l_v directions in C^K, one per l_v.

    Returns {l_v: UnitarySet}.  Each size is packed as
    :func:`optimize_unitary` would pack it (l_v = 0 is its canonical single
    vector) with a per-size seed derived from the given one (splitmix
    increment), so each size is reproducible on its own and equals the
    matching entry of :func:`default_library`, whichever other sizes are
    asked for.  All sizes are climbed together on one packing pool (see
    :func:`_pack`): forked workers, one per available CPU, or in-process
    with one CPU or where fork is missing; the codebooks are the same
    either way.
    """
    l_vs = list(l_vs)
    cfgs = [
        PackingConfig(
            K=K,
            cardinality=2**l_v,
            restarts=restarts,
            iterations=iterations,
            seed=(seed + l_v * 0x9E3779B97F4A7C15) % 2**64,
        )
        for l_v in l_vs
    ]
    return dict(zip(l_vs, _pack(cfgs)))


def default_library(K, l_s, seed=0, restarts=DEFAULT_RESTARTS,
                    iterations=DEFAULT_ITERATIONS):
    """Packed direction sets for every direction-bit count 0..l_s, from
    :func:`library_codebooks`, so the whole library is reproducible."""
    if l_s < 0:
        raise ValueError(f"l_s must be >= 0, got {l_s}")
    return library_codebooks(K, range(l_s + 1), seed, restarts, iterations)
