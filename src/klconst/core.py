"""Core types and closed-form KL distances for non-coherent multi-level
constellations.

A constellation point is a block of K transmit symbols s = alpha * v with
amplitude alpha >= 0 and unit-norm direction v.  Over one fading block the
M-antenna receiver sees

    Y = h s^T + N,    h ~ CN(0, I_M),   N entries i.i.d. CN(0, sigma2),

with h unknown at both ends.  Conditioned on s, the rows of Y are i.i.d.
zero-mean Gaussians with covariance s* s^T + sigma2 I_K, so the density
depends on s only through its energy and direction, and the KL divergence
between the densities of two points has a closed form.  Per receive antenna,

    D(s_i -> s_k) = (E_k E_i - |s_k^T s_i^*|^2) / (sigma2 (sigma2 + E_k))
                    + x - ln x - 1,
    x = (sigma2 + E_i) / (sigma2 + E_k),   E = ||s||^2.

The first term vanishes for aligned directions, the second for equal
energies; the multi-level design machinery elsewhere in this package
maximizes the minimum of these distances over a constellation.

This module holds the domain containers (channel parameters, direction
sets, amplitude level sets and their Cartesian product), the KL distance in
full and decomposed form, a brute-force minimum-KL scan, and the plain-text
serialization format shared with the codebook loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "SignalPoint",
    "UnitarySet",
    "LevelSet",
    "MultiLevelConstellation",
    "FileFormatError",
    "canonical_direction",
    "kl_full",
    "kl_decomposed",
    "intra_level_kl",
    "inter_level_kl",
    "min_kl_bruteforce",
    "save_constellation",
    "load_constellation",
]

# Norm slack accepted when constructing validated unit vectors.  Loaders are
# more forgiving (LOAD_NORM_TOL) and renormalize before construction.
UNIT_NORM_TOL = 1e-12
LOAD_NORM_TOL = 1e-6

# Power / chain tolerances for level sets and constellations.
POWER_TOL = 1e-9
CHAIN_RTOL = 1e-9


class FileFormatError(ValueError):
    """Raised when a constellation or codebook file cannot be parsed.

    Carries the offending path and 1-based line number in the message so a
    bad external codebook can be located without a debugger.
    """


def _check_sigma2(sigma2):
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
    return sigma2


def _sigma2_at(K, snr_db):
    # noise variance at a per-antenna SNR in dB under unit block energy
    return 1.0 / (K * 10.0 ** (snr_db / 10.0))


def _pow2_bits(n, what):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def canonical_direction(K):
    """First standard basis vector of C^K, the fixed direction used by
    single-direction (energy-only) constellations."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    e0 = np.zeros(K, dtype=complex)
    e0[0] = 1.0
    e0.flags.writeable = False
    return e0


# ---------------------------------------------------------------------------
# channel and point types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelParams:
    """Receiver geometry and noise level of one simulation setup.

    Parameters
    ----------
    M : int
        Number of receive antennas.
    K : int
        Symbols per fading block (the block length of one constellation
        point).
    sigma2 : float
        Per-sample complex noise variance.

    The average per-antenna SNR follows from the unit average transmit
    energy per block: snr = 1 / (K * sigma2).
    """

    M: int
    K: int
    sigma2: float

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if int(self.K) != self.K or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "sigma2", _check_sigma2(self.sigma2))

    @property
    def snr(self):
        return 1.0 / (self.K * self.sigma2)

    @property
    def snr_db(self):
        return 10.0 * math.log10(self.snr)

    @classmethod
    def from_snr_db(cls, M, K, snr_db):
        """Build parameters from an SNR in dB: sigma2 = 1/(K * 10^(dB/10))."""
        return cls(M=M, K=K, sigma2=_sigma2_at(K, snr_db))


class SignalPoint:
    """One constellation point s = amplitude * direction.

    The direction must be unit norm (within 1e-12) even for the zero point,
    where the constellation supplies its canonical direction; vector()
    reconstructs the transmitted K-symbol block.
    """

    def __init__(self, amplitude, direction):
        amplitude = float(amplitude)
        if not math.isfinite(amplitude) or amplitude < 0.0:
            raise ValueError(f"amplitude must be a nonnegative real, got {amplitude!r}")
        v = np.array(direction, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("direction must be a non-empty 1-D complex vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction norm {nrm!r} deviates from 1 by more than {UNIT_NORM_TOL}")
        v.flags.writeable = False
        self.amplitude = amplitude
        self.direction = v

    @property
    def K(self):
        return self.direction.size

    def vector(self):
        """Transmitted block alpha * v as a fresh complex array."""
        return self.amplitude * self.direction

    def __repr__(self):
        return f"SignalPoint(amplitude={self.amplitude:.6g}, K={self.K})"


# ---------------------------------------------------------------------------
# direction and level containers
# ---------------------------------------------------------------------------

def _min_sq_chordal(vectors):
    # min over distinct pairs of 1 - |v_k^T v_i^*|^2; +inf for a singleton.
    n = vectors.shape[0]
    if n < 2:
        return math.inf
    C = vectors @ vectors.conj().T
    P = np.abs(C) ** 2
    np.fill_diagonal(P, -np.inf)
    return float(max(1.0 - P.max(), 0.0))


class UnitarySet:
    """Ordered set of unit-norm direction vectors in C^K.

    The cardinality must be a power of two (it carries whole direction
    bits).  The minimum squared chordal distance over distinct pairs,
    min(1 - |v_k^T v_i^*|^2), is computed once at construction and exposed
    as ``min_sq_dist`` (+inf for a singleton, which has no pairs).
    """

    def __init__(self, vectors):
        V = np.array(vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise ValueError("vectors must form a non-empty (N, K) complex array")
        self._bits = _pow2_bits(V.shape[0], "unitary set cardinality")
        norms = np.linalg.norm(V, axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"vector {worst} has norm {norms[worst]!r}, deviating from 1 "
                f"by more than {UNIT_NORM_TOL}"
            )
        V.flags.writeable = False
        self.vectors = V
        self.min_sq_dist = _min_sq_chordal(V)

    @property
    def K(self):
        return self.vectors.shape[1]

    @property
    def size(self):
        return self.vectors.shape[0]

    @property
    def bits(self):
        """Direction bits l_v = log2(cardinality)."""
        return self._bits

    def __len__(self):
        return self.vectors.shape[0]

    def __repr__(self):
        d = "inf" if math.isinf(self.min_sq_dist) else f"{self.min_sq_dist:.6g}"
        return f"UnitarySet(K={self.K}, size={self.size}, min_sq_dist={d})"


class LevelSet:
    """Ordered amplitude levels alpha_0 < ... < alpha_{N-1} of a design.

    Levels always satisfy the average power constraint mean(alpha^2) = 1
    (within 1e-9).  For two or more levels the noise-shifted energies form
    a geometric chain, sigma2 + alpha_i^2 = (sigma2 + alpha_0^2) * ratio^i,
    validated at construction; ``sigma2_design`` records the noise variance
    the chain was built for.
    """

    def __init__(self, amplitudes, sigma2_design, ratio=None):
        sigma2 = _check_sigma2(sigma2_design)
        a = np.array(amplitudes, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D real array")
        self._bits = _pow2_bits(a.size, "level set cardinality")
        if a[0] < 0.0:
            raise ValueError(f"amplitudes must be nonnegative, got {a[0]!r}")
        if a.size > 1 and not np.all(np.diff(a) > 0.0):
            raise ValueError("amplitudes must be strictly increasing")
        power = float(np.mean(a * a))
        if abs(power - 1.0) > POWER_TOL:
            raise ValueError(
                f"mean squared amplitude {power!r} violates the unit power "
                f"constraint beyond {POWER_TOL}"
            )
        if a.size == 1:
            if ratio is not None:
                raise ValueError("a single-level set has no ratio")
        else:
            if ratio is None:
                raise ValueError("multi-level sets require the common ratio")
            ratio = float(ratio)
            if not ratio > 1.0:
                raise ValueError(f"ratio must exceed 1, got {ratio!r}")
            shifted = sigma2 + a * a
            chain = shifted[0] * ratio ** np.arange(a.size)
            err = np.max(np.abs(shifted - chain) / chain)
            if err > CHAIN_RTOL:
                raise ValueError(
                    f"energies deviate from the geometric chain by relative "
                    f"{err:.3e} (tolerance {CHAIN_RTOL})"
                )
        a.flags.writeable = False
        self.amplitudes = a
        self.ratio = ratio
        self.sigma2_design = sigma2

    @property
    def size(self):
        return self.amplitudes.size

    @property
    def bits(self):
        """Level bits l_alpha = log2(cardinality)."""
        return self._bits

    def __len__(self):
        return self.amplitudes.size

    def __repr__(self):
        return (
            f"LevelSet(size={self.size}, ratio={self.ratio}, "
            f"sigma2_design={self.sigma2_design:.6g})"
        )


class MultiLevelConstellation:
    """Cartesian product of a level set and a direction set.

    Point index = n * 2^l_v + j maps level n and direction j with the level
    bits in the high-order positions; the map is a bijection onto the
    product.  Mean energy over all points equals 1 by the level-set power
    constraint and is revalidated here.
    """

    def __init__(self, levels, directions):
        if not isinstance(levels, LevelSet):
            raise TypeError("levels must be a LevelSet")
        if not isinstance(directions, UnitarySet):
            raise TypeError("directions must be a UnitarySet")
        if levels.amplitudes[0] == 0.0 and directions.size > 1:
            raise ValueError(
                "a zero level is only representable with a single canonical "
                "direction (distinct directions would duplicate the origin)"
            )
        mean_energy = float(
            np.mean(
                np.repeat(levels.amplitudes**2, directions.size)
                * np.tile(np.sum(np.abs(directions.vectors) ** 2, axis=1), levels.size)
            )
        )
        if abs(mean_energy - 1.0) > POWER_TOL:
            raise ValueError(
                f"mean point energy {mean_energy!r} violates the unit power "
                f"constraint beyond {POWER_TOL}"
            )
        self.levels = levels
        self.directions = directions
        self._vectors = None

    @property
    def sigma2_design(self):
        return self.levels.sigma2_design

    @property
    def K(self):
        return self.directions.K

    @property
    def size(self):
        return self.levels.size * self.directions.size

    @property
    def bits(self):
        """Total bits l_s = l_alpha + l_v."""
        return self.levels.bits + self.directions.bits

    def point(self, index):
        """SignalPoint at the given index (level bits high-order)."""
        index = int(index)
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for {self.size} points")
        n, j = divmod(index, self.directions.size)
        return SignalPoint(self.levels.amplitudes[n], self.directions.vectors[j])

    def index_of(self, level, direction):
        """Combined index of level n and direction j."""
        if not 0 <= level < self.levels.size:
            raise IndexError(f"level {level} out of range")
        if not 0 <= direction < self.directions.size:
            raise IndexError(f"direction {direction} out of range")
        return level * self.directions.size + direction

    def point_vectors(self):
        """All transmit blocks stacked as a (size, K) array, index order.

        The array is computed once and cached; it is read-only.
        """
        if self._vectors is None:
            amps = np.repeat(self.levels.amplitudes, self.directions.size)
            dirs = np.tile(self.directions.vectors, (self.levels.size, 1))
            S = amps[:, None] * dirs
            S.flags.writeable = False
            self._vectors = S
        return self._vectors

    def __repr__(self):
        return (
            f"MultiLevelConstellation(l_alpha={self.levels.bits}, "
            f"l_v={self.directions.bits}, K={self.K})"
        )


# ---------------------------------------------------------------------------
# KL distances
# ---------------------------------------------------------------------------

def _kl_direction(e_k, gap, sigma2):
    # D1 = gap / (sigma2 (sigma2 + E_k)) for gap = E_k E_i - |s_k^T s_i^*|^2
    return max(gap, 0.0) / (sigma2 * (sigma2 + e_k))


def _kl_energy(e_i, e_k, sigma2):
    # D2 = x - ln x - 1 for x = (sigma2 + E_i)/(sigma2 + E_k), written
    # around x = 1 for stability.
    den = sigma2 + e_k
    xm1 = (sigma2 + e_i - den) / den
    return max(xm1 - math.log1p(xm1), 0.0)


def kl_full(s_i, s_k, sigma2):
    """Closed-form KL distance per receive antenna, D(f(.|s_i) || f(.|s_k)).

    Parameters
    ----------
    s_i, s_k : SignalPoint
        True and alternative constellation points, equal block length.
    sigma2 : float
        Noise variance, > 0.

    Returns
    -------
    float
        Nonnegative distance; zero exactly when the two transmit blocks
        coincide.
    """
    sigma2 = _check_sigma2(sigma2)
    x = s_i.vector()
    y = s_k.vector()
    if x.shape != y.shape:
        raise ValueError(f"points have different block lengths {x.size} and {y.size}")
    e_i = float(np.real(np.vdot(x, x)))
    e_k = float(np.real(np.vdot(y, y)))
    cross = abs(np.vdot(x, y)) ** 2
    return _kl_direction(e_k, e_k * e_i - cross, sigma2) + _kl_energy(e_i, e_k, sigma2)


def kl_decomposed(alpha_k, v_k, alpha_i, v_i, sigma2):
    """Direction and energy terms of the KL distance, returned separately.

    D1 = alpha_k^2 alpha_i^2 (1 - |v_k^T v_i^*|^2) / (sigma2 (sigma2 + alpha_k^2))
    D2 = x - ln x - 1 with x = (sigma2 + alpha_i^2) / (sigma2 + alpha_k^2)

    and D1 + D2 equals :func:`kl_full` of the reconstructed points.
    """
    sigma2 = _check_sigma2(sigma2)
    pk = SignalPoint(alpha_k, v_k)
    pi = SignalPoint(alpha_i, v_i)
    if pk.K != pi.K:
        raise ValueError(f"directions have different lengths {pk.K} and {pi.K}")
    chordal = max(1.0 - abs(np.vdot(pi.direction, pk.direction)) ** 2, 0.0)
    ak2 = pk.amplitude**2
    ai2 = pi.amplitude**2
    return (
        _kl_direction(ak2, ak2 * ai2 * chordal, sigma2),
        _kl_energy(ai2, ak2, sigma2),
    )


def intra_level_kl(alpha, min_sq_dist, sigma2):
    """Minimum KL distance inside one level of amplitude alpha.

    Equals alpha^4 * min_sq_dist / (sigma2 (sigma2 + alpha^2)); +inf when
    the level holds a single direction (min_sq_dist = +inf, no pairs).
    """
    sigma2 = _check_sigma2(sigma2)
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    if min_sq_dist < 0.0:
        raise ValueError(f"min_sq_dist must be nonnegative, got {min_sq_dist!r}")
    if math.isinf(min_sq_dist):
        return math.inf
    a2 = alpha * alpha
    return _kl_direction(a2, a2 * a2 * min_sq_dist, sigma2)


def inter_level_kl(alpha_n1, alpha_n2, sigma2):
    """KL distance between the aligned-direction points of two levels.

    Returns x - ln x - 1 with x = (sigma2 + alpha_n1^2)/(sigma2 + alpha_n2^2);
    zero iff the amplitudes agree, and smaller low-to-high than high-to-low.
    """
    sigma2 = _check_sigma2(sigma2)
    a1 = float(alpha_n1)
    a2 = float(alpha_n2)
    if a1 < 0.0 or a2 < 0.0:
        raise ValueError("amplitudes must be nonnegative")
    return _kl_energy(a1 * a1, a2 * a2, sigma2)


def pairwise_kl_matrix(points, sigma2):
    """KL distances between all ordered pairs of stacked transmit blocks.

    Parameters
    ----------
    points : (n, K) complex array
        One transmit block per row.
    sigma2 : float

    Returns
    -------
    (n, n) float array
        Entry [i, k] = D(f(.|s_i) || f(.|s_k)); the diagonal is 0.
    """
    sigma2 = _check_sigma2(sigma2)
    S = np.asarray(points, dtype=complex)
    if S.ndim != 2 or S.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, K) array")
    E = np.real(np.einsum("nk,nk->n", S.conj(), S))
    cross = np.abs(S @ S.conj().T) ** 2
    num = np.maximum(np.outer(E, E) - cross, 0.0)
    shifted = sigma2 + E
    d1 = num / (sigma2 * shifted)[None, :]
    xm1 = (shifted[:, None] - shifted[None, :]) / shifted[None, :]
    d2 = np.maximum(xm1 - np.log1p(xm1), 0.0)
    out = d1 + d2
    np.fill_diagonal(out, 0.0)
    return out


def min_kl_bruteforce(c, sigma2):
    """Exhaustive minimum KL distance over all ordered point pairs.

    Returns
    -------
    (value, (i, k))
        Minimum distance and its argmin pair; ties resolve to the
        lexicographically smallest (i, k).
    """
    if not isinstance(c, MultiLevelConstellation):
        raise TypeError("c must be a MultiLevelConstellation")
    if c.size < 2:
        raise ValueError("minimum KL needs at least two points")
    kl = pairwise_kl_matrix(c.point_vectors(), sigma2)
    np.fill_diagonal(kl, np.inf)
    flat = int(np.argmin(kl))
    i, k = divmod(flat, c.size)
    return float(kl[i, k]), (i, k)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_layout(path, header, amplitudes, vectors):
    """Write the plain-text layout read by :func:`read_layout`: the header
    line, one amplitude per line, then one vector per line as interleaved
    re/im decimals."""
    lines = [header] + [f"{a:.17g}" for a in amplitudes]
    for v in vectors:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in v))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_vector_line(line, K, lineno, path):
    """Parse one interleaved re/im vector line; errors carry the line number."""
    fields = line.split()
    if len(fields) != 2 * K:
        raise FileFormatError(
            f"{path}:{lineno}: expected {2 * K} decimals for a K={K} vector, "
            f"got {len(fields)}"
        )
    try:
        vals = [float(f) for f in fields]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: bad decimal: {exc}") from None
    re = np.array(vals[0::2])
    im = np.array(vals[1::2])
    return re + 1j * im


def read_layout(path, header, build):
    """Read the layout shared by codebook and constellation files.

    ``header`` names the header's fields: integers >= 1, except the real
    ``sigma2_design``.  ``N_levels`` amplitude lines (if named) follow, then
    as many vector lines as the last count; blank and '#' lines are skipped.
    Returns ``build(fields, amplitudes, V)`` with norms renormalized; any
    problem, also a ValueError from ``build``, raises FileFormatError.
    """
    content = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                content.append((lineno, text))
    if not content:
        raise FileFormatError(f"{path}:1: empty file")
    lineno, text = content[0]
    names = header.split()
    values = text.split()
    if len(values) != len(names):
        raise FileFormatError(
            f"{path}:{lineno}: header must be '{header}', got {len(values)} fields"
        )
    try:
        fields = {
            name: float(value) if name == "sigma2_design" else int(value)
            for name, value in zip(names, values)
        }
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: bad header: {exc}") from None
    counts = [v for name, v in fields.items() if name != "sigma2_design"]
    if min(counts) < 1:
        raise FileFormatError(f"{path}:{lineno}: header counts must be >= 1")
    n_amps = fields.get("N_levels", 0)
    body = content[1:]
    if len(body) != n_amps + counts[-1]:
        raise FileFormatError(
            f"{path}:{lineno}: expected {n_amps} amplitude and {counts[-1]} "
            f"vector lines, found {len(body)}"
        )
    amps = []
    for ln, text in body[:n_amps]:
        try:
            amps.append(float(text))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: bad amplitude: {exc}") from None
    vector_lines = body[n_amps:]
    V = np.array([parse_vector_line(t, fields["K"], ln, path) for ln, t in vector_lines])
    norms = np.linalg.norm(V, axis=1)
    bad = np.abs(norms - 1.0) > LOAD_NORM_TOL
    if np.any(bad):
        row = int(np.argmax(bad))
        raise FileFormatError(
            f"{path}:{vector_lines[row][0]}: vector norm {norms[row]:.9g} "
            f"deviates from 1 beyond {LOAD_NORM_TOL}"
        )
    try:
        return build(fields, np.array(amps), V / norms[:, None])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_constellation(c, path):
    """Write a constellation in the plain-text interchange format.

    Header line ``K N_levels N_directions sigma2_design``, then one
    amplitude per line, then one direction vector per line (2K decimals,
    re/im interleaved).
    """
    header = f"{c.K} {c.levels.size} {c.directions.size} {c.sigma2_design:.17g}"
    write_layout(path, header, c.levels.amplitudes, c.directions.vectors)


def load_constellation(path):
    """Read a constellation written by :func:`save_constellation`.

    Stored direction norms may be off by up to 1e-6 (they are renormalized);
    anything worse, or any structural problem, raises FileFormatError with
    the offending line number.
    """

    def build(fields, amps, V):
        sigma2 = fields["sigma2_design"]
        ratio = None
        if amps.size > 1:
            ratio = (sigma2 + amps[1] ** 2) / (sigma2 + amps[0] ** 2)
        levels = LevelSet(amps, sigma2, ratio=ratio)
        return MultiLevelConstellation(levels, UnitarySet(V))

    return read_layout(path, "K N_levels N_directions sigma2_design", build)
