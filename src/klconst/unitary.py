"""Direction codebooks: Grassmannian-style line packings and codebook files.

The direction part of a multi-level constellation is a set of N unit-norm
vectors in C^K whose quality is the minimum squared chordal distance

    t = min over distinct pairs of (1 - |v_k^T v_i^*|^2),

a max-min line-packing objective on the complex projective space.  The
problem is non-smooth, so the optimizer here climbs a temperature-sharpened
soft-min surrogate with per-step renormalization and random restarts; the
reported distance of the returned set is always the exact minimum, never
the surrogate.  The restarts of one packing climb together as an (R, N, K)
stack, one numpy call per step for all of them, in chunks that bound each
per-step (R, N, N) array to _CHUNK_ENTRIES entries.  Each restart only
ever touches its own slice, so it ends on the same bits as a lone climb,
and the chunking cannot change a codebook; ties between restarts still go
to the earliest.  External codebooks (built by any other tool) can be
loaded from the shared plain-text format instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    UnitarySet,
    _min_sq_chordal,
    canonical_direction,
    read_layout,
    write_layout,
)
from .linksim import _stream

__all__ = [
    "PackingConfig",
    "min_sq_chordal",
    "welch_limit",
    "optimize_unitary",
    "save_unitary",
    "load_unitary",
    "library_codebook",
    "default_library",
]

# Soft-min sharpness rises geometrically from cfg.smoothing to
# cfg.smoothing * SHARPEN_SPAN over the run while the step size decays from
# STEP_START to STEP_START * STEP_DECAY; settled empirically (a 4-point
# packing in C^2 reaches >= 99% of the equiangular optimum with the
# defaults below).
SHARPEN_SPAN = 512.0
STEP_START = 0.6
STEP_DECAY = 1.0 / 30.0

# Restarts are climbed together in stacks whose per-step (R, N, N) arrays
# hold at most this many entries, one restart when N^2 alone exceeds it.
_CHUNK_ENTRIES = 2**16

DEFAULT_RESTARTS = 8
DEFAULT_ITERATIONS = 1500
DEFAULT_SMOOTHING = 8.0


@dataclass(frozen=True)
class PackingConfig:
    """Knobs of one packing run.

    cardinality must be a power of two; restarts and iterations must be
    >= 1; smoothing is the starting soft-min sharpness (> 0); seed keys the
    counter-based restart streams, so a config is fully reproducible.
    """

    K: int
    cardinality: int
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    smoothing: float = DEFAULT_SMOOTHING
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        n = self.cardinality
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"cardinality must be a power of two, got {n}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not self.smoothing > 0.0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")


def min_sq_chordal(vectors):
    """Exact minimum squared chordal distance of a set of unit vectors.

    Parameters
    ----------
    vectors : UnitarySet or (N, K) complex array
        Unit-norm rows (validated within 1e-9 for raw arrays).

    Returns
    -------
    float
        min over distinct pairs of 1 - |v_k^T v_i^*|^2, or +inf for a
        single vector.  Invariant under per-vector unit-modulus phases.
    """
    if isinstance(vectors, UnitarySet):
        V = vectors.vectors
    else:
        V = np.asarray(vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("vectors must form a non-empty (N, K) array")
        norms = np.linalg.norm(V, axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > 1e-9:
            raise ValueError(
                f"vector {worst} has norm {norms[worst]!r}; inputs must be unit norm"
            )
    return _min_sq_chordal(V)


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


def _climb(V, iterations, smoothing):
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
        beta = smoothing * SHARPEN_SPAN**u
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


def optimize_unitary(cfg):
    """Best packing over cfg.restarts independent soft-min climbs.

    Restart r draws its start from a counter-based stream keyed
    (cfg.seed, r).  The starts are climbed as stacks of at most
    max(1, _CHUNK_ENTRIES // N^2) restarts, which bounds each per-step
    (R, N, N) array; since a start climbs to the same bits in any stack,
    the chunking cannot change the result.  Results are scored in restart
    order and equal exact scores keep the earliest restart's set, so the
    result does not depend on execution order.  The returned UnitarySet
    carries the exact recomputed distance.
    """
    if not isinstance(cfg, PackingConfig):
        raise TypeError("cfg must be a PackingConfig")
    n, K = cfg.cardinality, cfg.K
    if n == 1:
        return UnitarySet(canonical_direction(K)[None, :])
    starts = np.empty((cfg.restarts, n, K), dtype=complex)
    for restart in range(cfg.restarts):
        rng = _stream(cfg.seed, restart)
        starts[restart] = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    starts /= np.linalg.norm(starts, axis=2, keepdims=True)
    chunk = max(1, _CHUNK_ENTRIES // n**2)
    best_v = None
    best_t = -1.0
    for lo in range(0, cfg.restarts, chunk):
        for V in _climb(starts[lo:lo + chunk], cfg.iterations, cfg.smoothing):
            t = min_sq_chordal(V)
            if t > best_t:
                best_v, best_t = V, t
    return UnitarySet(best_v)


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


def library_codebook(K, l_v, seed=0, restarts=DEFAULT_RESTARTS,
                     iterations=DEFAULT_ITERATIONS):
    """The library's codebook of 2^l_v directions in C^K.

    l_v = 0 gives the canonical single vector; larger sizes come from
    :func:`optimize_unitary` with a per-size seed derived from the given
    one (splitmix increment), so each size is reproducible on its own and
    equals the matching entry of :func:`default_library`.
    """
    if l_v == 0:
        return UnitarySet(canonical_direction(K)[None, :])
    cfg = PackingConfig(
        K=K,
        cardinality=2**l_v,
        restarts=restarts,
        iterations=iterations,
        seed=(seed + l_v * 0x9E3779B97F4A7C15) % 2**64,
    )
    return optimize_unitary(cfg)


def default_library(K, l_s, seed=0, restarts=DEFAULT_RESTARTS,
                    iterations=DEFAULT_ITERATIONS):
    """Packed direction sets for every direction-bit count 0..l_s, each
    from :func:`library_codebook`, so the whole library is reproducible."""
    if l_s < 0:
        raise ValueError(f"l_s must be >= 0, got {l_s}")
    return {
        l_v: library_codebook(K, l_v, seed, restarts, iterations)
        for l_v in range(l_s + 1)
    }
