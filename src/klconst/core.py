"""Core types and closed-form KL distances for non-coherent multi-level
constellations.

A constellation point is a block of K transmit symbols s = alpha * v with
amplitude alpha >= 0 and unit-norm direction v, and every function here
takes a point as that block: a 1-D complex array, such as a row of
MultiLevelConstellation.point_vectors().  Over one fading block the
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
sets, and constellations: amplitude levels times a direction set), the KL
distance with its direction and energy terms, a brute-force minimum-KL
scan, and the plain-text serialization format shared with the codebook
loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "UnitarySet",
    "MultiLevelConstellation",
    "FileFormatError",
    "canonical_direction",
    "kl_full",
    "min_kl_bruteforce",
    "pairwise_kl_matrix",
    "save_constellation",
    "load_constellation",
]

# Norm slack accepted when constructing validated unit vectors.  Loaders are
# more forgiving (LOAD_NORM_TOL) and renormalize before construction.
UNIT_NORM_TOL = 1e-12
LOAD_NORM_TOL = 1e-6

# Power / chain tolerances for the amplitude levels of a constellation.
POWER_TOL = 1e-9
CHAIN_RTOL = 1e-9
# Every check against these tolerances reads "fail unless deviation <= tol",
# so that a NaN deviation fails it.

# Entries of the largest array a batched kernel builds at once: the packer
# climbs restarts in stacks whose per-step (R, N, N) arrays hold at most
# this many, and estimate_ser scores trials in blocks whose (rows, N_dirs)
# direction scores do; one restart or row when a single one exceeds it.
_CHUNK_ENTRIES = 2**16


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


def _count(value, name, low=1):
    """value as an int, for an integer value >= low; an integral float such
    as np.float64(4096) passes.  Otherwise a ValueError gives its name."""
    if not math.isfinite(value) or int(value) != value or value < low:
        what = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _pow2_bits(n, what):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def canonical_direction(K):
    """First standard basis vector of C^K, the fixed direction used by
    single-direction (energy-only) constellations."""
    e0 = np.zeros(_count(K, "K"), dtype=complex)
    e0[0] = 1.0
    e0.flags.writeable = False
    return e0


# ---------------------------------------------------------------------------
# channel parameters and transmit blocks
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
        object.__setattr__(self, "M", _count(self.M, "M"))
        object.__setattr__(self, "K", _count(self.K, "K"))
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


def _block(x, name, K=None):
    """x as a transmit block s = alpha v: a 1-D complex array of K finite
    entries (any K >= 1 for None).  Otherwise a ValueError gives its name."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size < 1 or (K is not None and x.size != K):
        want = "a non-empty 1-D block" if K is None else f"a 1-D block of K = {K} symbols"
        raise ValueError(f"{name} must be {want}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must have finite entries")
    return x


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
        bad = ~np.isfinite(V).all(axis=1)
        if bad.any():
            raise ValueError(
                f"vectors must have finite entries, got one in vector {int(np.argmax(bad))}"
            )
        norms = np.linalg.norm(V, axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if not abs(norms[worst] - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(
                f"vector {worst} has norm {float(norms[worst])!r}, deviating "
                f"from 1 by more than {UNIT_NORM_TOL}"
            )
        V.flags.writeable = False
        self.vectors = V
        self.min_sq_dist = _min_sq_chordal(V)
        self._text = None

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

    def _vector_text(self):
        # the vector lines of a layout file, formatted once and cached: the
        # vectors are read-only, and every constellation built on this set
        # writes the same lines
        if self._text is None:
            self._text = _format_vectors(self.vectors)
        return self._text

    def __repr__(self):
        d = "inf" if math.isinf(self.min_sq_dist) else f"{self.min_sq_dist:.6g}"
        return f"UnitarySet(K={self.K}, size={self.size}, min_sq_dist={d})"


def _chain_ratio(a, sigma2):
    # (sigma2 + alpha_1^2) / (sigma2 + alpha_0^2) along the last axis
    return (sigma2 + a[..., 1] * a[..., 1]) / (sigma2 + a[..., 0] * a[..., 0])


def _check_level_rows(a, sigma2):
    """Check each row of an (m, n) amplitude array as a level set designed
    for the matching entry of sigma2 (a float or m floats).

    A row must start nonnegative, increase strictly, have mean square 1
    within POWER_TOL and, for n >= 2, noise-shifted energies on a geometric
    chain within CHAIN_RTOL; the first failing check raises ValueError.
    """
    if np.any(a[:, 0] < 0.0):
        raise ValueError(f"amplitudes must be nonnegative, got {a[:, 0].min()!r}")
    if a.shape[1] > 1 and not np.all(np.diff(a) > 0.0):
        raise ValueError("amplitudes must be strictly increasing")
    power = np.mean(a * a, axis=1)
    off = ~(np.abs(power - 1.0) <= POWER_TOL)
    if np.any(off):
        raise ValueError(
            f"mean squared amplitude {float(power[off][0])!r} violates the unit "
            f"power constraint beyond {POWER_TOL}"
        )
    if a.shape[1] > 1:
        s2 = np.reshape(sigma2, (-1, 1))
        shifted = s2 + a * a
        ratio = _chain_ratio(a, s2[:, 0])
        chain = shifted[:, :1] * ratio[:, None] ** np.arange(a.shape[1])
        err = np.max(np.abs(shifted - chain) / chain)
        if not err <= CHAIN_RTOL:
            raise ValueError(
                f"energies deviate from the geometric chain by relative "
                f"{err:.3e} (tolerance {CHAIN_RTOL})"
            )


def _levels(amplitudes, sigma2):
    # amplitudes as a read-only array of one level set designed for sigma2:
    # 1-D, a power-of-two count, and passing _check_level_rows
    a = np.array(amplitudes, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("amplitudes must be a non-empty 1-D real array")
    _pow2_bits(a.size, "level set cardinality")
    _check_level_rows(a[None, :], sigma2)
    a.flags.writeable = False
    return a


class MultiLevelConstellation:
    """Cartesian product of amplitude levels and a direction set.

    ``amplitudes`` are the ordered levels alpha_0 < ... < alpha_{N-1}, a
    power-of-two count with mean(alpha^2) = 1; for two or more levels the
    noise-shifted energies sigma2 + alpha_i^2 form a geometric chain at
    ``sigma2_design``, the noise variance the levels were designed for.

    Point index = n * 2^l_v + j maps level n and direction j with the level
    bits in the high-order positions; the map is a bijection onto the
    product.  The mean energy over all points is mean(alpha^2) times the
    mean squared direction norm, so the power check of the levels and the
    unit-norm check of the directions already hold it at 1.
    """

    def __init__(self, amplitudes, sigma2_design, directions):
        self.sigma2_design = _check_sigma2(sigma2_design)
        self.amplitudes = _levels(amplitudes, self.sigma2_design)
        if not isinstance(directions, UnitarySet):
            raise TypeError("directions must be a UnitarySet")
        if self.amplitudes[0] == 0.0 and directions.size > 1:
            raise ValueError(
                "a zero level is only representable with a single canonical "
                "direction (distinct directions would duplicate the origin)"
            )
        self.directions = directions
        self._vectors = None

    @property
    def K(self):
        return self.directions.K

    @property
    def size(self):
        return self.amplitudes.size * self.directions.size

    @property
    def bits(self):
        """Total bits l_s = l_alpha + l_v."""
        return self.amplitudes.size.bit_length() - 1 + self.directions.bits

    def point_vectors(self):
        """All transmit blocks stacked as a (size, K) array, index order.

        The array is computed once and cached; it is read-only.
        """
        if self._vectors is None:
            amps = np.repeat(self.amplitudes, self.directions.size)
            dirs = np.tile(self.directions.vectors, (self.amplitudes.size, 1))
            S = amps[:, None] * dirs
            S.flags.writeable = False
            self._vectors = S
        return self._vectors

    def __repr__(self):
        return (
            f"MultiLevelConstellation(l_alpha={self.bits - self.directions.bits}, "
            f"l_v={self.directions.bits}, K={self.K})"
        )


# ---------------------------------------------------------------------------
# KL distances
# ---------------------------------------------------------------------------

def _kl_direction(e_k, gap, sigma2):
    # D1 = gap / (sigma2 (sigma2 + E_k)) for gap = E_k E_i - |s_k^T s_i^*|^2,
    # elementwise over broadcast arrays
    return np.maximum(gap, 0.0) / (sigma2 * (sigma2 + e_k))


# Below this |x - 1| the energy term takes its series, whose remainder is
# under 2e-18 relative there; above it t - log1p(t) loses at most a few ulps
# to cancellation (within 5e-15 relative from here up)
SERIES_BELOW = 0.05


def _energy_series(t):
    # t - log1p(t) = sum over n >= 2 of (-t)^n / n through t^14, in Horner
    # form, for floats and arrays alike
    return t * t * (1 / 2 - t * (1 / 3 - t * (1 / 4 - t * (1 / 5 - t * (1 / 6 - t * (
        1 / 7 - t * (1 / 8 - t * (1 / 9 - t * (1 / 10 - t * (1 / 11 - t * (
            1 / 12 - t * (1 / 13 - t / 14))))))))))))


def _kl_energy(e_i, e_k, sigma2):
    # D2 = x - ln x - 1 for x = (sigma2 + E_i)/(sigma2 + E_k), elementwise
    # over broadcast arrays (a float for floats).  It is written in t = x - 1
    # = (E_i - E_k)/(sigma2 + E_k), which keeps the energies where sigma2 + E
    # would round them away, and by the series near t = 0.  Below x = 1/2 it
    # is formed from x itself: there t rounds to -1 once sigma2 + E_i falls
    # under an ulp of sigma2 + E_k, and log1p(-1) is a domain error.  Each
    # branch is evaluated on its own elements only.
    den = sigma2 + e_k
    t = np.asarray((e_i - e_k) / den, dtype=float)
    far = t < -0.5
    near = np.abs(t) < SERIES_BELOW
    mid = ~(far | near)
    d2 = np.empty_like(t)
    if far.any():
        x = np.broadcast_to((sigma2 + e_i) / den, t.shape)[far]
        d2[far] = x - 1.0 - np.log(x)
    if near.any():
        d2[near] = _energy_series(t[near])
    if mid.any():
        d2[mid] = np.maximum(t[mid] - np.log1p(t[mid]), 0.0)
    return d2 if d2.ndim else float(d2)


def kl_full(x_i, x_k, sigma2):
    """Closed-form KL distance per receive antenna, D(f(.|x_i) || f(.|x_k)).

    Parameters
    ----------
    x_i, x_k : 1-D complex arrays
        Transmit blocks of the true and the alternative point, equal block
        length, e.g. rows of point_vectors().
    sigma2 : float
        Noise variance, > 0.

    Returns
    -------
    float
        Nonnegative distance; zero exactly when the two transmit blocks
        coincide.
    """
    sigma2 = _check_sigma2(sigma2)
    x = _block(x_i, "x_i")
    y = _block(x_k, "x_k", x.size)
    e_i = float(np.real(np.vdot(x, x)))
    e_k = float(np.real(np.vdot(y, y)))
    cross = abs(np.vdot(x, y)) ** 2
    return float(_kl_direction(e_k, e_k * e_i - cross, sigma2) + _kl_energy(e_i, e_k, sigma2))


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
    if not np.isfinite(S).all():
        raise ValueError("points must have finite entries")
    E = np.real(np.einsum("nk,nk->n", S.conj(), S))
    cross = np.abs(S @ S.conj().T) ** 2
    out = _kl_direction(E[None, :], np.outer(E, E) - cross, sigma2)
    out += _kl_energy(E[:, None], E[None, :], sigma2)
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

_DECIMAL = "{:.17g}".format


def _format_vectors(V):
    """Vector lines of the layout as one string, a row per line: the 2K
    re/im parts of each entry as '.17g' decimals, which read back to the
    same doubles."""
    rows = np.ascontiguousarray(V).view(np.float64).tolist()
    return "\n".join(" ".join(map(_DECIMAL, row)) for row in rows)


def write_layout(path, header, amplitudes, directions):
    """Write the plain-text layout read by :func:`read_layout`: the header
    line, one amplitude per line (a sequence of floats), then the vectors
    of the UnitarySet ``directions``, one per line as interleaved re/im
    decimals."""
    lines = [header, *map(_DECIMAL, amplitudes), directions._vector_text()]
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
    # the interleaved pairs viewed as complex keep every signed zero, which
    # re + 1j * im would turn into +0
    return np.array(vals).view(complex)


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
    bad = ~(np.abs(norms - 1.0) <= LOAD_NORM_TOL)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise FileFormatError(
            f"{path}:{vector_lines[row][0]}: vector norm {norms[row]:.9g} "
            f"deviates from 1 beyond {LOAD_NORM_TOL}"
        )
    # scaled as reals by 1 / norm, the factor a complex division by norm + 0j
    # applies, which would also add +0 to a -0 part
    V = (V.view(np.float64) * (1.0 / norms)[:, None]).view(complex)
    try:
        return build(fields, np.array(amps), V)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_constellation(c, path):
    """Write a constellation in the plain-text interchange format.

    Header line ``K N_levels N_directions sigma2_design``, then one
    amplitude per line, then one direction vector per line (2K decimals,
    re/im interleaved).
    """
    header = f"{c.K} {c.amplitudes.size} {c.directions.size} {c.sigma2_design:.17g}"
    write_layout(path, header, c.amplitudes.tolist(), c.directions)


def load_constellation(path):
    """Read a constellation written by :func:`save_constellation`.

    Stored direction norms may be off by up to 1e-6 (they are renormalized);
    anything worse, or any structural problem, raises FileFormatError with
    the offending line number.
    """

    def build(fields, amps, V):
        return MultiLevelConstellation(amps, fields["sigma2_design"], UnitarySet(V))

    return read_layout(path, "K N_levels N_directions sigma2_design", build)
