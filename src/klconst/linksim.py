"""Monte-Carlo link simulation: SER estimation and KL validation.

Every estimator here sees a received block only through its K x K Gram
matrix G = Y^H Y.  Given the sent point s, the M rows of Y are i.i.d.
CN(0, s s^H + sigma2 I), so G is complex Wishart with M degrees of freedom
and E[G] = M (s^* s^T + sigma2 I) (Goodman 1963).  The SER estimators
draw G straight from that law by the Bartlett decomposition, at O(K^2)
cost per trial whatever M is, and never form Y:

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
w^H R^H R w, w = B^T x^*, of two fixed points, and its log-ratio is
linear in R^H R through a Hermitian matrix of rank at most 2; by the
unitary invariance of R^H R a sample is its two nonzero eigenvalues
weighting two i.i.d. Gamma(M, 1) draws (see kl_mc_estimate), so it draws
no Bartlett factor and forms no R, A or G.  simulate_block still draws a
whole block Y for demos and tests.

All estimators draw from counter-based Philox substreams keyed by
(seed, substream index), with trials partitioned into fixed substreams of
2048, so a given seed produces the same counts.  Within a substream the
SER path's draw order is: the message indices of every trial; then the
gamma diagonal entries, trial by trial and i = 0..r-1 within a trial; then
the real parts of the entries above the diagonal, trial by trial and row
by row within a trial, and their imaginary parts in the same order.  The
Bartlett part of that order is drawn in _bartlett, which only the SER
path calls.  The KL estimator draws n x 2 gammas of shape M per substream
of n samples, trial by trial.  Schemes run on one seed share the message
indices and base Bartlett draws of each substream (common random
numbers), as far as their message sets have the same size and they send
the same number of indices per trial; every message set here has a
power-of-two size, for which the index draw uses a fixed share of the
stream.

Error counts get Wilson 95% intervals rather than the normal
approximation, which stays honest when only a handful of block errors
are observed.

The pilot baseline sends a known pilot in slot 0 and independent QAM
symbols in the remaining K - 1 slots, with the block energy split equally
across slots.  The receiver estimates the channel from the pilot alone,
combines each data slot with the estimate (maximum-ratio), and slices
per symbol; a block counts as one error if any data symbol errs, which
puts it on the same per-block footing as the constellation detectors.
Square QAM is a product of two PAM axes, so the slicer decides the real
and the imaginary level of each symbol apart, with np.searchsorted on the
thresholds between adjacent levels, in place of a distance to every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _CHUNK_ENTRIES,
    MultiLevelConstellation,
    _block,
    _check_params,
    _check_seed,
    _count,
    _streams,
)
from .detection import _score_weights, _two_stage_gram, gram

__all__ = [
    "SerEstimate",
    "KlMcEstimate",
    "wilson_interval",
    "simulate_block",
    "estimate_ser",
    "kl_mc_estimate",
    "square_qam_alphabet",
    "pilot_qam_run",
]

# Fixed substream granularity; part of the result contract, not a tuning
# knob, because changing it changes which random numbers each trial sees.
SUBSTREAM_TRIALS = 2048

# two-sided 95% normal quantile
Z95 = 1.959963984540054

@dataclass(frozen=True)
class SerEstimate:
    """Block error count over a number of trials; the rate ser =
    errors/trials and its Wilson 95% interval (ci95_low, ci95_high) are
    derived from the counts."""

    trials: int
    errors: int
    seed: int

    def __post_init__(self):
        for name, low in (("trials", 1), ("errors", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, low))
        wilson_interval(self.errors, self.trials)  # checks errors <= trials

    @property
    def ser(self):
        return self.errors / self.trials

    @property
    def ci95_low(self):
        return wilson_interval(self.errors, self.trials)[0]

    @property
    def ci95_high(self):
        return wilson_interval(self.errors, self.trials)[1]


@dataclass(frozen=True)
class KlMcEstimate:
    """Sample mean of the per-antenna log-likelihood ratio and its SE."""

    estimate: float
    std_error: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# randomness plumbing
# ---------------------------------------------------------------------------


def _substreams(trials):
    """Trial counts of the substreams of trials; substream b, keyed
    (seed, b), holds the b-th."""
    full, rem = divmod(trials, SUBSTREAM_TRIALS)
    return [SUBSTREAM_TRIALS] * full + ([rem] if rem else [])


def _complex_normal(rng, shape, scale=1.0):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * (scale * math.sqrt(0.5))


def wilson_interval(errors, trials):
    """Wilson 95% score interval for a binomial proportion.

    Returns (low, high), both in [0, 1].
    """
    trials = _count(trials, "trials")
    errors = _count(errors, "errors", low=0)
    if errors > trials:
        raise ValueError(f"errors must lie in [0, trials], got {errors!r}")
    p = errors / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2))
    # the ends are exact at the extreme counts; don't let rounding leak past
    low = 0.0 if errors == 0 else max(center - half, 0.0)
    high = 1.0 if errors == trials else min(center + half, 1.0)
    return low, high


# ---------------------------------------------------------------------------
# channel and estimators
# ---------------------------------------------------------------------------


def _bartlett(rng, n, M, K):
    """n Bartlett factors R, shape (n, r, K) with r = min(M, K), with R^H R
    ~ W_K(M, I), drawn in the order the module docstring gives: the
    diagonal sqrt(gamma_i), then the entries above it."""
    r = min(M, K)
    R = np.zeros((n, r, K), dtype=np.complex128)
    diag = np.arange(r)
    R[:, diag, diag] = np.sqrt(rng.standard_gamma(M - diag, size=(n, r)))
    rows, cols = np.triu_indices(r, 1, K)
    R[:, rows, cols] = _complex_normal(rng, (n, rows.size))
    return R


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


def simulate_block(x, params, rng):
    """One received block Y = h x^T + N for a single transmitted point.

    Parameters
    ----------
    x : 1-D complex array
        The point's transmit block, of length params.K.
    params : ChannelParams
    rng : numpy.random.Generator
        Consumed in a fixed order (fading first, then noise).

    Returns
    -------
    numpy.ndarray, shape (M, K)
    """
    _check_params(params)
    x = _block(x, "x", params.K)
    h = _complex_normal(rng, params.M)
    noise = _complex_normal(rng, (params.M, params.K), scale=math.sqrt(params.sigma2))
    return h[:, None] * x[None, :] + noise


def _block_errors(params, trials, seed, choices, per_trial, blocks, decide):
    """Block errors over trials that each send per_trial uniform indices
    below choices as one block: blocks maps n trials' (n, per_trial) indices
    to (n, K) blocks, decide maps their Gram matrices to decided indices,
    and a trial errs if any index does.  Draw order: the module docstring.
    """
    trials = _count(trials, "trials")
    seed = _check_seed(seed)
    errors = 0
    sizes = _substreams(trials)
    for rng, n in zip(_streams(seed, range(len(sizes))), sizes):
        sent = rng.integers(0, choices, size=(n, per_trial))
        G = gram(_gram_root(rng, blocks(sent), n, params.M, params.sigma2))
        errors += int(np.count_nonzero(np.any(decide(G) != sent, axis=-1)))
    return SerEstimate(trials, errors, seed)


def estimate_ser(c, params, trials, seed):
    """Monte-Carlo block error rate of a constellation under two-stage ML.

    Per trial: a uniform message index, then the Gram matrix G of one
    received block drawn from its complex Wishart law (see the module
    docstring for the sampler and the draw order), the two-stage decision
    of detect_two_stage taken from G at the operating noise level, and an
    error on index mismatch.  Identical seeds give identical results
    regardless of how the substreams are scheduled.  Each row is decided
    on its own, so a substream is scored in blocks of rows whose (rows,
    N_dirs) score array holds at most _CHUNK_ENTRIES entries.
    """
    if not isinstance(c, MultiLevelConstellation):
        raise TypeError("c must be a MultiLevelConstellation")
    _check_params(params)
    if c.K != params.K:
        raise ValueError(
            f"constellation block length {c.K} does not match params.K = {params.K}"
        )
    F = _score_weights(c.directions)
    rows = max(1, _CHUNK_ENTRIES // c.directions.size)

    def decide(G):
        return np.concatenate([
            _two_stage_gram(G[lo:lo + rows], c, params.sigma2, params.M, F)
            for lo in range(0, len(G), rows)
        ])[:, None]

    return _block_errors(
        params, trials, seed, c.size, 1, lambda sent: c.point_vectors()[sent[:, 0]], decide
    )


def _log_ratio_law(x_i, x_k, sigma2):
    """([lambda_+, lambda_-], ln((sigma2 + E_i)/(sigma2 + E_k))) for the KL
    log-ratio of points x_i, x_k: the nonzero eigenvalues of H and the
    log-determinant term of kl_mc_estimate's docstring.
    """
    e_i = float(np.real(np.vdot(x_i, x_i)))
    e_k = float(np.real(np.vdot(x_k, x_k)))
    c_i = 1.0 / (sigma2 * (sigma2 + e_i))
    c_k = 1.0 / (sigma2 * (sigma2 + e_k))
    log_det_ratio = math.log(sigma2 + e_i) - math.log(sigma2 + e_k)
    # B^T x^* with B^T = sigma I + c x_i^* x_i^T, and each point's terms of
    # H, one expression for both points, so that identical points give
    # bitwise-identical terms and exactly zero eigenvalues
    sigma = math.sqrt(sigma2)
    c = 1.0 / (math.sqrt(sigma2 + e_i) + sigma)
    w_i, w_k = (
        sigma * x.conj() + c * (x_i @ x.conj()) * x_i.conj() for x in (x_i, x_k)
    )
    cross = np.vdot(w_i, w_k)
    n_i, n_k = (float(np.real(np.vdot(w, w))) for w in (w_i, w_k))
    t = c_i * n_i - c_k * n_k
    # the bracket is >= 0 by Cauchy-Schwarz; rounding may put it just below
    d = -c_i * c_k * max(n_i * n_k - (cross.real**2 + cross.imag**2), 0.0)
    root = math.sqrt(t * t - 4.0 * d)
    return np.array([t + root, t - root]) / 2.0, log_det_ratio


def kl_mc_estimate(x_i, x_k, params, samples, seed):
    """Monte-Carlo estimate of the per-antenna KL distance D(x_i || x_k)
    between the points with transmit blocks x_i and x_k (1-D complex
    arrays of length params.K).

    Averages (1/M) ln[f(Y|x_i)/f(Y|x_k)] over blocks Y sent as x_i, with
    the log-ratio computed analytically from the quadratic forms

        q(s) = s^T G s^* = ||A s^*||^2,    ln f = q/(sigma2 (sigma2+E)) - M ln(sigma2+E)

    (plus point-independent terms that cancel), so no density is ever
    exponentiated.  With w = B^T x^* computed in closed form, q = w^H W w
    for W = R^H R ~ W_K(M, I), so a sample is tr(W H)/M - ln((sigma2 +
    E_i)/(sigma2 + E_k)) with H = c_i w_i w_i^H - c_k w_k w_k^H.  H has rank
    at most 2, with eigenvalues lambda_+ >= 0 >= lambda_- from its trace t
    and the determinant d of its 2 x 2 restriction,

        lambda_+- = (t +- sqrt(t^2 - 4 d)) / 2,
        t = c_i |w_i|^2 - c_k |w_k|^2,
        d = -c_i c_k (|w_i|^2 |w_k|^2 - |w_i^H w_k|^2),

    and W is unitarily invariant, so tr(W H) has the law of lambda_+ g_1 +
    lambda_- g_2 for i.i.d. g_1, g_2 ~ Gamma(M, 1), the squared norms of
    two independent columns of the M x K Gaussian factor of W.  Each
    sample therefore draws two gammas of shape M whatever K and M are (see
    the module docstring for the draw order); no Y, R, A or G is formed.
    The expectation of the average is kl_full(x_i, x_k, params.sigma2), and
    each sample has variance (lambda_+^2 + lambda_-^2)/M.

    Returns
    -------
    KlMcEstimate
        Sample mean, standard error of the mean, sample count, seed.
    """
    _check_params(params)
    x_i = _block(x_i, "x_i", params.K)
    x_k = _block(x_k, "x_k", params.K)
    samples = _count(samples, "samples")
    seed = _check_seed(seed)
    lam, log_det_ratio = _log_ratio_law(x_i, x_k, params.sigma2)
    lam /= params.M
    total = 0.0
    total_sq = 0.0
    sizes = _substreams(samples)
    for rng, n in zip(_streams(seed, range(len(sizes))), sizes):
        ratio = rng.standard_gamma(params.M, size=(n, 2)) @ lam
        ratio -= log_det_ratio
        total += float(ratio.sum())
        total_sq += float(ratio @ ratio)
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
    bits = _count(bits, "bits")
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


def _qam_slicer(points):
    """Slicer for a scaled square_qam_alphabet: maps z, of any shape, to
    the index of the nearest point, ties to the smaller index.

    Each axis is decided apart (see the module docstring); the index
    i_re * (number of imaginary levels) + i_im is the alphabet's ravel
    order, bits = 1 included.  Each threshold is the largest float at or
    below the exact midpoint of its two levels, so side="left" decides as
    an exact argmin of |z - p|^2 would, ties included.
    """
    def distinct(x):
        # np.unique's doubles, sorted, without the numpy.ma import it pulls in
        x = np.sort(x)
        return x[np.concatenate(([True], x[1:] != x[:-1]))]

    re_levels, im_levels = distinct(points.real), distinct(points.imag)

    def thresholds(levels):
        a, b = levels[:-1], levels[1:]
        s = a + b
        b_rounded = s - a
        err = (a - (s - b_rounded)) + (b - b_rounded)  # a + b == s + err exactly
        mid = s / 2
        return np.where(err < 0, np.nextafter(mid, -np.inf), mid)

    re_cut, im_cut = thresholds(re_levels), thresholds(im_levels)

    def slice_(z):
        i_re = np.searchsorted(re_cut, z.real, side="left")
        return i_re * im_levels.size + np.searchsorted(im_cut, z.imag, side="left")

    return slice_


def _pilot_layout(K, total_bits):
    """(pilot amplitude, data points) of the pilot format carrying
    total_bits over the K - 1 data slots of a K-symbol block.

    Every slot gets the same energy 1/K: the pilot amplitude is sqrt(1/K),
    and each data slot carries total_bits / (K - 1) bits as one symbol of
    the unit-energy square_qam_alphabet of that size, scaled to 1/K.
    """
    K = _count(K, "K", low=2)
    total_bits = _count(total_bits, "total_bits")
    if total_bits % (K - 1):
        raise ValueError(
            f"invalid alphabet size: {total_bits} bits do not split "
            f"evenly over {K - 1} data slots"
        )
    pilot = math.sqrt(1.0 / K)
    scale = math.sqrt((1.0 - pilot**2) / (K - 1))
    return pilot, scale * square_qam_alphabet(total_bits // (K - 1))


def pilot_qam_run(total_bits, params, trials, seed):
    """Block error rate of the pilot-based QAM baseline carrying total_bits
    per block of params.K symbols, laid out by _pilot_layout: a pilot in
    slot 0 and total_bits / (K - 1) bits of square QAM in each other slot.

    Per trial: the receiver forms h_hat = y_0 / pilot_amplitude, combines
    each data slot as z_j = h_hat^H y_j / ||h_hat||^2, and slices z_j to
    the nearest scaled alphabet point, per axis (_qam_slicer); any wrong
    symbol makes the block an error.  The combiner equals z_j =
    pilot_amplitude G[0, j] / G[0, 0], so each trial draws its data symbol
    indices and then the Gram matrix G of its block from the complex
    Wishart law, in the order the module docstring gives.
    """
    _check_params(params)
    pilot, points = _pilot_layout(params.K, total_bits)
    slice_ = _qam_slicer(points)
    return _block_errors(
        params, trials, seed, points.size, params.K - 1,
        lambda sent: np.insert(points[sent], 0, pilot, axis=1),
        lambda G: slice_(pilot * G[:, 0, 1:] / G[:, 0, :1].real),
    )
