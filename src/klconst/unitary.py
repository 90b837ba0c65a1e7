"""Direction codebooks: Grassmannian-style line packings and codebook files.

The direction part of a multi-level constellation is a set of N unit-norm
vectors in C^K whose quality is the minimum squared chordal distance

    t = min over distinct pairs of (1 - |v_k^T v_i^*|^2),

a max-min line-packing objective on the complex projective space.  The
problem is non-smooth, so the optimizer here climbs a temperature-sharpened
soft-min surrogate with per-step renormalization; the reported distance of
the returned set is always the exact minimum, never the surrogate.

At K >= 3 each restart climbs from random complex normals, 8 restarts by
default.  At K = 2 the Bloch map sends a line to a point b on the unit
sphere S^2 with 1 - |<u, v>|^2 = |b_u - b_v|^2 / 4, so packing lines in
C^2 is the Tammes problem on S^2 (Conway, Hardin & Sloane, "Packing lines,
planes, etc.", 1996).  Its codebooks are laid out on the sphere instead,
and up to N = 64 the layout is final: an antipodal pair at N = 2, the regular
tetrahedron at N = 4 (t = 2/3, the Welch limit) and the square antiprism
at N = 8 (the Tammes optimum, t = 2/(4 + sqrt 2)), since a climb only
moves them off the optimum, and at N = 16, 32 and 64 the spherical
Fibonacci lattice (Gonzalez, Math. Geosci. 2010) already climbed at the
default iterations, tabulated in _bloch_climbed.  From N = 128 up the bare
lattice is climbed.  A K = 2 codebook turns the layout by one Haar-random
SU(2) rotation drawn from the seed's stream 0.  A rotation keeps every
distance, so further turns could only tie up to rounding: K = 2 packs one
start whatever restarts says, and the seed only picks the orientation of
the codebook.  The climb commutes with that turn (C = V V^H, the weights
and the step all do), so a turned table matches a climb of the turned
lattice to about 1e-14.  Up to N = 64, restarts and iterations leave a
K = 2 codebook as the defaults write it.

The restarts of one packing climb together as (R, N, K) stacks, one numpy
call per step for all of them, and each stack bounds its per-step (R, N, N)
array to _CHUNK_ENTRIES entries.  Each restart only ever touches its own
slice, so it ends on the same bits as a lone climb, and the stacking cannot
change a codebook; ties between restarts still go to the earliest.
External codebooks (built by any other tool) can be loaded from the shared
plain-text format instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _CHUNK_ENTRIES,
    UnitarySet,
    _check_seed,
    _count,
    _min_sq_chordal,
    _pow2_bits,
    _streams,
    canonical_direction,
    read_layout,
    write_layout,
)

__all__ = [
    "PackingConfig",
    "packing_limit",
    "optimize_unitary",
    "save_unitary",
    "load_unitary",
    "library_codebooks",
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

DEFAULT_RESTARTS = 8
DEFAULT_ITERATIONS = 1500

# Largest direction-bit count a library packs (and the CLI's largest l_s):
# packing's per-step (N, N) arrays then hold at most 2^20 entries a restart
# (16 MiB as complex).
_L_S_MAX = 10

# K = 2 sizes whose lattice, climbed at DEFAULT_ITERATIONS, is tabulated
# in _bloch_climbed
_BLOCH_CLIMBED = (16, 32, 64)


@dataclass(frozen=True)
class PackingConfig:
    """Knobs of one packing run.

    K, cardinality (a power of two), restarts and iterations are positive
    integers.  restarts counts random starts, so once validated it is
    recorded as 1 at K = 2, whose one start is a turn of a fixed layout.
    seed, a 64-bit unsigned integer, keys the counter-based restart
    streams, so a config is fully reproducible.
    """

    K: int
    cardinality: int
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "cardinality", "restarts", "iterations"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        _pow2_bits(self.cardinality, "cardinality")
        _check_seed(self.seed)
        if self.K == 2:
            object.__setattr__(self, "restarts", 1)


def packing_limit(K, N):
    """Upper bound on the min squared chordal distance of N lines in C^K.

    N <= K lines attain t = 1 (an orthonormal set).  Otherwise the maximal
    squared correlation is at least (N - K)/(K (N - 1)) (Welch), so
    t <= 1 - (N - K)/(K (N - 1)).  At K = 2, t = d^2 / 4 through the Bloch
    map for the least chord d between N points on the unit sphere, and
    Fejes Toth (1943) bounds d^2 <= 4 - csc^2(w), w = pi N / (6 (N - 2));
    the lesser bound is returned, Fejes Toth's from N = 5 up (exact at
    N = 3, 4, 6 and 12).
    """
    K, N = _count(K, "K"), _count(N, "N")
    if N <= K:
        return 1.0
    welch = 1.0 - (N - K) / (K * (N - 1))
    if K != 2:
        return welch
    return min(welch, 1.0 - 0.25 / math.sin(math.pi * N / (6 * (N - 2))) ** 2)


def _sphere_layout(n):
    """The K = 2 layout of n lines before any climb, on the Bloch sphere.

    Returns (n, 2) unit vectors (cos(theta/2), e^{i phi} sin(theta/2)) for
    sphere points at height z = cos(theta) and azimuth phi: the antipodal
    pair, the tetrahedron and the square antiprism (edges all equal, at
    heights +-h with h^2 = sqrt2 / (4 + sqrt2)) for n = 2, 4 and 8, and the
    bare spherical Fibonacci lattice, n heights evenly spaced in z and
    azimuths a golden angle apart, for any other n.
    """
    if n == 2:
        z, phi = np.array([1.0, -1.0]), np.zeros(2)
    elif n == 4:
        z = np.array([1.0, -1 / 3, -1 / 3, -1 / 3])
        phi = 2 * np.pi / 3 * np.array([0, 0, 1, 2])
    elif n == 8:
        h = math.sqrt(math.sqrt(2) / (4 + math.sqrt(2)))
        z = np.repeat([h, -h], 4)
        phi = np.pi / 2 * np.tile(np.arange(4), 2) + np.repeat([0.0, np.pi / 4], 4)
    else:
        z = 1 - (2 * np.arange(n) + 1) / n
        phi = np.pi * (3 - math.sqrt(5)) * np.arange(n)
    return np.stack(
        [np.sqrt((1 + z) / 2) + 0j, np.exp(1j * phi) * np.sqrt((1 - z) / 2)], axis=1
    )


def _bloch_layout(n):
    """The K = 2 layout of n lines that a codebook turns: final up to
    n = 64, the start of a climb above.

    The n of _BLOCH_CLIMBED give their lattice climbed at
    DEFAULT_ITERATIONS, read from the table (imported on first use); every
    other n gives _sphere_layout(n).
    """
    if n in _BLOCH_CLIMBED:
        from ._bloch_climbed import LAYOUTS

        return np.array(LAYOUTS[n]).view(complex).reshape(n, 2)
    return _sphere_layout(n)


def _haar_su2(rng):
    """A Haar-random SU(2) matrix: a uniform unit quaternion (a, b)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def _starts(cfg):
    """The (restarts, N, K) starts of a config, restart r from stream (seed, r).

    At K = 2 the one restart is _bloch_layout turned by a Haar SU(2)
    rotation; otherwise each draws complex normals.  Rows are unit norm.
    """
    n, K = cfg.cardinality, cfg.K
    streams = _streams(cfg.seed, range(cfg.restarts))
    if K == 2:
        layout = _bloch_layout(n)
        starts = np.stack([layout @ _haar_su2(rng).T for rng in streams])
    else:
        starts = np.stack(
            [rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K)) for rng in streams]
        )
    return starts / np.linalg.norm(starts, axis=2, keepdims=True)


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


def optimize_unitary(cfg):
    """Best packing over the cfg.restarts starts of :func:`_starts`.

    N = 1 is the canonical single vector.  At K = 2 up to N = 64 the one
    start is a turn of a final layout (see the module docstring), returned
    as it is; every other config climbs its starts in stacks of at most
    max(1, _CHUNK_ENTRIES // N^2) restarts.  Equal exact scores keep the
    earliest restart's set, so the result does not depend on the stacking.
    The returned UnitarySet carries the exact recomputed distance.
    """
    if not isinstance(cfg, PackingConfig):
        raise TypeError("cfg must be a PackingConfig")
    n = cfg.cardinality
    if n == 1:
        return UnitarySet(canonical_direction(cfg.K)[None, :])
    sets = _starts(cfg)
    if cfg.K != 2 or n > _BLOCH_CLIMBED[-1]:
        # a step's float and complex arrays stay near 1.5 MB, and the
        # default 8 restarts climb as one stack up to N = 64
        chunk = max(1, _CHUNK_ENTRIES // n**2)
        sets = np.concatenate([
            _climb(sets[lo:lo + chunk], cfg.iterations)
            for lo in range(0, cfg.restarts, chunk)
        ])
    scores = [_min_sq_chordal(V) for V in sets]
    return UnitarySet(sets[scores.index(max(scores))])


def save_unitary(uset, path):
    """Write a codebook: header line ``K N``, then one vector per line."""
    write_layout(path, f"{uset.K} {uset.size}", [], uset)


def load_unitary(path):
    """Read a codebook written by :func:`save_unitary` (or any tool using
    the same format).

    Norms may be off by up to 1e-6 and are renormalized; anything worse, or
    any structural problem, raises FileFormatError with the line number.
    """
    return read_layout(path, "K N", lambda fields, amps, V: UnitarySet(V))


def library_codebooks(K, l_vs, seed=0):
    """The library's codebooks of 2^l_v directions in C^K, one per l_v.

    Returns {l_v: UnitarySet}; range(l_s + 1) gives every split of l_s
    bits.  Each size is packed as :func:`optimize_unitary` packs it with
    the PackingConfig defaults (l_v = 0 is its canonical single vector) and
    a per-size seed derived from the given one (splitmix increment), so
    each size is reproducible on its own, whichever other sizes are asked
    for.  Every l_v is an integer from 0 to _L_S_MAX.
    """
    seed = _check_seed(seed)
    l_vs = [_count(l_v, "l_vs entry", low=0) for l_v in l_vs]
    if l_vs and max(l_vs) > _L_S_MAX:
        raise ValueError(f"l_vs entry must be <= {_L_S_MAX}, got {max(l_vs)}")
    return {
        l_v: optimize_unitary(
            PackingConfig(K=K, cardinality=2**l_v, seed=(seed + l_v * 0x9E3779B97F4A7C15) % 2**64)
        )
        for l_v in l_vs
    }
