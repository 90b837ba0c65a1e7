"""Monte-Carlo link simulation: SER estimation and KL validation.

Every estimator here sees a received block only through its K x K Gram
matrix G = Y^H Y.  Given the sent point s, the M rows of Y are i.i.d.
CN(0, s s^H + sigma2 I), so G is complex Wishart with M degrees of freedom
and E[G] = M (s^* s^T + sigma2 I) (Goodman 1963).  The estimators draw G
straight from that law by the Bartlett decomposition, at O(K^2) cost per
trial whatever M is, and never form Y:

    R    r x K upper-trapezoidal, r = min(M, K), |R_ii|^2 ~ Gamma(M - i, 1),
         CN(0, 1) entries above the diagonal, zeros below,
    B^T  = sigma I + c s^* s^T,  c = 1 / (sqrt(sigma2 + E) + sigma),
    A    = R B^T,   G = A^H A.

B^T is the Hermitian square root of s^* s^T + sigma2 I (E = ||s||^2; c
equals (sqrt(sigma2 + E) - sigma) / E, written so that E = 0 needs no
special case and gives B^T = sigma I), and
R^H R has the law of Z^H Z for an M x K matrix Z of i.i.d. CN(0, 1)
entries, so A^H A has the law of G.  The SER estimators form G from A.
The KL estimator needs only the quadratic forms q(x) = x^T G x^* =
||R B^T x^*||^2 of two fixed points, so it applies B^T to x^* in closed
form, sigma x^* + c (s^T x^*) s^*, and runs the Bartlett draws over the two
resulting K-vectors row by row; it never forms R, A or G.  simulate_block
still draws a whole block Y for demos and tests.

All estimators draw from counter-based Philox substreams keyed by
(seed, substream index), with trials partitioned into fixed substreams of
2048 regardless of how the work is scheduled, so a given seed produces the
same counts no matter how many workers run the batches or in what order.
Within a substream the draw order is: the message indices of every trial
(none for the KL estimator); then the gamma diagonal entries, trial by
trial and i = 0..r-1 within a trial; then the real parts of the entries
above the diagonal, trial by trial and row by row within a trial, and
their imaginary parts in the same order.  Schemes run on one seed share the
message indices and base Bartlett draws of each substream (common random
numbers), as far as their message sets have the same size and they send the
same number of indices per trial; every message set here has a power-of-two
size, for which the index draw uses a fixed share of the stream.

Error counts get Wilson 95% intervals rather than the normal
approximation, which stays honest when only a handful of block errors
are observed.

The pilot baseline sends a known pilot in slot 0 and independent QAM
symbols in the remaining K - 1 slots, with the block energy split equally
across slots.  The receiver estimates the channel from the pilot alone,
combines each data slot with the estimate (maximum-ratio), and slices
per symbol; a block counts as one error if any data symbol errs, which
puts it on the same per-block footing as the constellation detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelParams, MultiLevelConstellation, SignalPoint, _check_sigma2
from .detection import detect_two_stage_gram, gram

__all__ = [
    "SerEstimate",
    "KlMcEstimate",
    "PilotQamScheme",
    "wilson_interval",
    "simulate_block",
    "estimate_ser",
    "kl_mc_estimate",
    "square_qam_alphabet",
    "pilot_qam_scheme",
    "pilot_qam_run",
]

# Fixed substream granularity; part of the result contract, not a tuning
# knob, because changing it changes which random numbers each trial sees.
SUBSTREAM_TRIALS = 2048

# two-sided 95% normal quantile
Z95 = 1.959963984540054

RESULT_CSV_HEADER = "scheme,K,M,l_s,l_alpha,snr_db,ser,ci_low,ci_high,trials,seed"


@dataclass(frozen=True)
class SerEstimate:
    """Block error rate estimate with its Wilson 95% interval."""

    ser: float
    trials: int
    errors: int
    ci95_low: float
    ci95_high: float
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= self.errors <= self.trials:
            raise ValueError(
                f"errors must lie in [0, trials], got {self.errors!r}"
            )
        if abs(self.ser - self.errors / self.trials) > 1e-12:
            raise ValueError("ser must equal errors/trials")
        if not (0.0 <= self.ci95_low <= self.ser <= self.ci95_high <= 1.0):
            raise ValueError("confidence interval must bracket ser within [0, 1]")


@dataclass(frozen=True)
class KlMcEstimate:
    """Sample mean of the per-antenna log-likelihood ratio and its SE."""

    estimate: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class PilotQamScheme:
    """Pilot-plus-QAM block format with an equal per-slot energy split."""

    K: int
    bits_per_data_symbol: int
    qam_alphabet: np.ndarray
    pilot_amplitude: float

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 2:
            raise ValueError(f"K must be an integer >= 2, got {self.K!r}")
        if int(self.bits_per_data_symbol) != self.bits_per_data_symbol or (
            self.bits_per_data_symbol < 1
        ):
            raise ValueError(
                f"bits_per_data_symbol must be a positive integer, "
                f"got {self.bits_per_data_symbol!r}"
            )
        a = np.asarray(self.qam_alphabet, dtype=np.complex128).ravel()
        if a.size != 2**self.bits_per_data_symbol:
            raise ValueError(
                f"alphabet size {a.size} does not match "
                f"2^{self.bits_per_data_symbol} points"
            )
        if abs(float(np.mean(np.abs(a) ** 2)) - 1.0) > 1e-9:
            raise ValueError("qam_alphabet must have unit average energy")
        p = float(self.pilot_amplitude)
        if not (0.0 < p < 1.0):
            raise ValueError(
                f"pilot_amplitude must lie in (0, 1) to leave energy for "
                f"the data slots, got {p!r}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(
            self, "bits_per_data_symbol", int(self.bits_per_data_symbol)
        )
        object.__setattr__(self, "qam_alphabet", a)
        object.__setattr__(self, "pilot_amplitude", p)

    @property
    def total_bits(self):
        return (self.K - 1) * self.bits_per_data_symbol

    @property
    def data_scale(self):
        """Per-symbol amplitude scale putting the block energy at 1."""
        return math.sqrt((1.0 - self.pilot_amplitude**2) / (self.K - 1))


# ---------------------------------------------------------------------------
# randomness plumbing
# ---------------------------------------------------------------------------


def _stream(seed, substream):
    key = np.array([seed, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _substreams(trials):
    full, rem = divmod(trials, SUBSTREAM_TRIALS)
    for b in range(full):
        yield b, SUBSTREAM_TRIALS
    if rem:
        yield full, rem


def _complex_normal(rng, shape, scale=1.0):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * (scale * math.sqrt(0.5))


def _check_seed(seed):
    if int(seed) != seed or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def wilson_interval(errors, trials, z=Z95):
    """Wilson score interval for a binomial proportion.

    Returns (low, high), both in [0, 1].
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in [0, trials], got {errors!r}")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2))
    # the ends are exact at the extreme counts; don't let rounding leak past
    low = 0.0 if errors == 0 else max(center - half, 0.0)
    high = 1.0 if errors == trials else min(center + half, 1.0)
    return low, high


def _ser_from_counts(errors, trials, seed):
    lo, hi = wilson_interval(errors, trials)
    return SerEstimate(
        ser=errors / trials,
        trials=trials,
        errors=errors,
        ci95_low=lo,
        ci95_high=hi,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# channel and estimators
# ---------------------------------------------------------------------------


def _bartlett(rng, n, M, K):
    """n Bartlett factors R, shape (n, min(M, K), K), with R^H R ~ W_K(M, I).

    Draws in the order the module docstring gives: every gamma diagonal
    entry first, then the normals above the diagonal.
    """
    r = min(M, K)
    R = np.zeros((n, r, K), dtype=np.complex128)
    diag = np.arange(r)
    R[:, diag, diag] = np.sqrt(rng.standard_gamma(M - diag, size=(n, r)))
    rows, cols = np.triu_indices(r, 1, K)
    R[:, rows, cols] = _complex_normal(rng, (n, rows.size))
    return R


def _bartlett_sq_norms(rng, ws, n, M):
    """||R w||^2 for each fixed K-vector w in ws, as length-n arrays over
    n Bartlett factors R drawn exactly as _bartlett draws them, without
    forming R.

    Row rho of R w is sqrt(gamma_rho) w_rho plus z w_col over the entries z
    above the diagonal in that row.
    """
    K = ws[0].size
    r = min(M, K)
    roots = np.sqrt(rng.standard_gamma(M - np.arange(r), size=(n, r))).T
    rows, cols = np.triu_indices(r, 1, K)
    upper = _complex_normal(rng, (n, rows.size)).T
    norms = []
    for w in ws:
        q = 0.0
        for rho in range(r):
            t = roots[rho] * w[rho]
            for j in np.flatnonzero(rows == rho):
                t = t + upper[j] * w[cols[j]]
            q = q + (t.real**2 + t.imag**2)
        norms.append(q)
    return norms


def _gram_root(rng, S, n, M, sigma2):
    """n factors A with A^H A distributed as the Gram matrix of a received
    block, for sent blocks S of shape (n, K), or (K,) for one point in all.

    A = R B^T with B^T = sigma I + c s^* s^T (see the module docstring).
    """
    R = _bartlett(rng, n, M, S.shape[-1])
    sigma = math.sqrt(sigma2)
    c = 1.0 / (np.sqrt(sigma2 + np.sum(np.abs(S) ** 2, axis=-1)) + sigma)
    u = np.einsum("...rk,...k->...r", R, S.conj())
    return sigma * R + (c[..., None] * u)[..., None] * S[..., None, :]


def simulate_block(s, params, rng):
    """One received block Y = h s^T + N for a single transmitted point.

    Parameters
    ----------
    s : SignalPoint
    params : ChannelParams
        Block length must match the point.
    rng : numpy.random.Generator
        Consumed in a fixed order (fading first, then noise).

    Returns
    -------
    numpy.ndarray, shape (M, K)
    """
    if not isinstance(s, SignalPoint):
        raise TypeError("s must be a SignalPoint")
    if not isinstance(params, ChannelParams):
        raise TypeError("params must be ChannelParams")
    if s.K != params.K:
        raise ValueError(
            f"point block length {s.K} does not match params.K = {params.K}"
        )
    h = _complex_normal(rng, params.M)
    noise = _complex_normal(rng, (params.M, params.K), scale=math.sqrt(params.sigma2))
    return h[:, None] * s.vector()[None, :] + noise


def estimate_ser(c, params, trials, seed):
    """Monte-Carlo block error rate of a constellation under two-stage ML.

    Per trial: a uniform message index, then the Gram matrix G of one
    received block drawn from its complex Wishart law (see the module
    docstring for the sampler and the draw order), detection with
    detect_two_stage_gram at the operating noise level, error counted on
    index mismatch.  Identical seeds give identical results regardless of
    how the substreams are scheduled.
    """
    if not isinstance(c, MultiLevelConstellation):
        raise TypeError("c must be a MultiLevelConstellation")
    if c.K != params.K:
        raise ValueError(
            f"constellation block length {c.K} does not match params.K = {params.K}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    seed = _check_seed(seed)
    vectors = c.point_vectors()
    errors = 0
    for b, n in _substreams(trials):
        rng = _stream(seed, b)
        sent = rng.integers(0, c.size, size=n)
        G = gram(_gram_root(rng, vectors[sent], n, params.M, params.sigma2))
        detected = detect_two_stage_gram(G, c, params.sigma2, params.M)
        errors += int(np.count_nonzero(detected != sent))
    return _ser_from_counts(errors, trials, seed)


def kl_mc_estimate(s_i, s_k, params, samples, seed):
    """Monte-Carlo estimate of the per-antenna KL distance D(s_i || s_k).

    Averages (1/M) ln[f(Y|s_i)/f(Y|s_k)] over blocks Y sent as s_i, with
    the log-ratio computed analytically from the quadratic forms

        q(s) = s^T G s^* = ||A s^*||^2,    ln f = q/(sigma2 (sigma2+E)) - M ln(sigma2+E)

    (plus point-independent terms that cancel), so no density is ever
    exponentiated.  Each q is ||R w||^2 with w = B^T x^* computed in closed
    form, and R's Bartlett draws (the gamma diagonal first, then the
    off-diagonal normals; see the module docstring) are applied to w_i and
    w_k row by row, so neither Y nor A = R B^T is ever formed.  The
    expectation of the average is kl_full(s_i, s_k).

    Returns
    -------
    KlMcEstimate
        Sample mean, standard error of the mean, sample count, seed.
    """
    if not isinstance(s_i, SignalPoint) or not isinstance(s_k, SignalPoint):
        raise TypeError("s_i and s_k must be SignalPoints")
    if s_i.K != params.K or s_k.K != params.K:
        raise ValueError("point block lengths must match params.K")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    seed = _check_seed(seed)
    sigma2 = params.sigma2
    x_i = s_i.vector()
    x_k = s_k.vector()
    e_i = float(np.real(np.vdot(x_i, x_i)))
    e_k = float(np.real(np.vdot(x_k, x_k)))
    c_i = 1.0 / (sigma2 * (sigma2 + e_i))
    c_k = 1.0 / (sigma2 * (sigma2 + e_k))
    log_det_ratio = math.log(sigma2 + e_i) - math.log(sigma2 + e_k)
    # B^T x^* with B^T = sigma I + c x_i^* x_i^T, one expression for both
    # points, so that identical points give bitwise-identical vectors
    sigma = math.sqrt(sigma2)
    c = 1.0 / (math.sqrt(sigma2 + e_i) + sigma)
    w_i, w_k = (
        sigma * x.conj() + c * (x_i @ x.conj()) * x_i.conj() for x in (x_i, x_k)
    )
    total = 0.0
    total_sq = 0.0
    for b, n in _substreams(samples):
        q_i, q_k = _bartlett_sq_norms(_stream(seed, b), (w_i, w_k), n, params.M)
        ratio = (q_i * c_i - q_k * c_k) / params.M - log_det_ratio
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        se = math.sqrt(var / samples)
    else:
        se = math.inf
    return KlMcEstimate(estimate=mean, std_error=se, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# pilot-based QAM baseline
# ---------------------------------------------------------------------------


def square_qam_alphabet(bits):
    """Unit-average-energy QAM alphabet with 2^bits points.

    Square QAM for even bits, the two-point real alphabet for bits = 1.
    Other sizes have no square grid and are rejected.
    """
    if int(bits) != bits or bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    bits = int(bits)
    if bits == 1:
        return np.array([-1.0 + 0.0j, 1.0 + 0.0j])
    if bits % 2:
        raise ValueError(
            f"invalid alphabet size 2^{bits}: not a square QAM constellation"
        )
    side = 2 ** (bits // 2)
    pam = np.arange(-(side - 1), side, 2, dtype=np.float64)
    grid = pam[:, None] + 1j * pam[None, :]
    a = grid.ravel()
    return a / math.sqrt(float(np.mean(np.abs(a) ** 2)))


def pilot_qam_scheme(K, total_bits):
    """Equal-power pilot scheme carrying total_bits over K - 1 data slots."""
    if int(K) != K or K < 2:
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    K = int(K)
    if int(total_bits) != total_bits or total_bits < 1:
        raise ValueError(f"total_bits must be a positive integer, got {total_bits!r}")
    bits, rem = divmod(int(total_bits), K - 1)
    if rem:
        raise ValueError(
            f"invalid alphabet size: {total_bits} bits do not split evenly "
            f"over {K - 1} data slots"
        )
    return PilotQamScheme(
        K=K,
        bits_per_data_symbol=bits,
        qam_alphabet=square_qam_alphabet(bits),
        pilot_amplitude=math.sqrt(1.0 / K),
    )


def pilot_qam_run(scheme, params, trials, seed):
    """Block error rate of the pilot-based QAM baseline.

    Per trial: slot 0 carries the pilot, the receiver forms h_hat =
    y_0 / pilot_amplitude, combines each data slot as
    z_j = h_hat^H y_j / ||h_hat||^2, and slices z_j to the nearest scaled
    alphabet point; any wrong symbol makes the block an error.  The
    combiner equals z_j = pilot_amplitude G[0, j] / G[0, 0], so each trial
    draws its data symbol indices and then the Gram matrix G of its block
    from the complex Wishart law, in the order the module docstring gives.
    """
    if not isinstance(scheme, PilotQamScheme):
        raise TypeError("scheme must be a PilotQamScheme")
    if scheme.K != params.K:
        raise ValueError(
            f"scheme block length {scheme.K} does not match params.K = {params.K}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    seed = _check_seed(seed)
    points = scheme.data_scale * scheme.qam_alphabet
    n_data = scheme.K - 1
    errors = 0
    for b, n in _substreams(trials):
        rng = _stream(seed, b)
        sent = rng.integers(0, points.size, size=(n, n_data))
        blocks = np.empty((n, scheme.K), dtype=np.complex128)
        blocks[:, 0] = scheme.pilot_amplitude
        blocks[:, 1:] = points[sent]
        G = gram(_gram_root(rng, blocks, n, params.M, params.sigma2))
        z = scheme.pilot_amplitude * G[:, 0, 1:] / G[:, 0, :1].real
        decided = np.argmin(
            np.abs(z[:, :, None] - points[None, None, :]) ** 2, axis=-1
        )
        errors += int(np.count_nonzero(np.any(decided != sent, axis=-1)))
    return _ser_from_counts(errors, trials, seed)
