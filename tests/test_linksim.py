"""Channel simulator, SER and KL estimators, pilot-QAM baseline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    SerEstimate,
    UnitarySet,
    allocate_bits,
    canonical_direction,
    detect_two_stage,
    estimate_ser,
    kl_full,
    kl_mc_estimate,
    library_codebooks,
    pilot_qam_run,
    simulate_block,
    square_qam_alphabet,
    wilson_interval,
)
from klconst.core import _kl_energy
from klconst.detection import gram
from klconst.linksim import (
    _gram_root,
    _log_ratio_law,
    _pilot_layout,
    _qam_slicer,
    _streams,
    _substreams,
)

# frozen with 40-digit arithmetic for z = 1.959963984540054
WILSON_0_100_HIGH = 0.036993498206985676
WILSON_5_100 = (0.021543679154367973, 0.11175046923191914)


def philox(seed, k=0):
    """A fresh Generator on the Philox stream keyed (seed, k)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], np.uint64)))


def random_unit_direction(rng, K):
    v = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    return v / np.linalg.norm(v)


# (K, M) cases of the KL tests; 5000 samples end on a partial substream
# (2048 + 2048 + 904)
KL_CASES = [(1, 3), (2, 1), (2, 4), (3, 2), (4, 8)]


def kl_case(K, M):
    rng = np.random.default_rng(100 * K + M)
    x_i = 1.1 * random_unit_direction(rng, K)
    x_k = 0.6 * random_unit_direction(rng, K)
    return x_i, x_k, ChannelParams(M=M, K=K, sigma2=0.35)


def b_transpose(x, sigma2):
    """B^T = sigma I + c x^* x^T, the Hermitian root of x^* x^T + sigma2 I."""
    sigma = math.sqrt(sigma2)
    c = 1.0 / (math.sqrt(sigma2 + np.vdot(x, x).real) + sigma)
    return sigma * np.eye(x.size) + c * np.outer(x.conj(), x)


def log_ratio_terms(x_i, x_k, sigma2):
    """(c_i, c_k, log-det ratio, H) of the KL log-ratio sample for blocks
    sent as x_i: H = c_i w_i w_i^H - c_k w_k w_k^H with w = B^T x^*."""
    e_i, e_k = np.vdot(x_i, x_i).real, np.vdot(x_k, x_k).real
    c_i = 1.0 / (sigma2 * (sigma2 + e_i))
    c_k = 1.0 / (sigma2 * (sigma2 + e_k))
    w_i, w_k = (b_transpose(x_i, sigma2) @ x.conj() for x in (x_i, x_k))
    H = c_i * np.outer(w_i, w_i.conj()) - c_k * np.outer(w_k, w_k.conj())
    return c_i, c_k, math.log(sigma2 + e_i) - math.log(sigma2 + e_k), H


def a_formed_kl(x_i, x_k, params, samples, seed):
    """The KL estimate with A = R B^T formed by _gram_root on substreams
    keyed as kl_mc_estimate keys its own, and with the same accumulation:
    (estimate, std_error).  It draws the Bartlett factors of the SER path,
    not kl_mc_estimate's two gammas a sample, so the two agree in law only.
    """
    sigma2, M = params.sigma2, params.M
    c_i, c_k, log_det_ratio, _ = log_ratio_terms(x_i, x_k, sigma2)
    total = total_sq = 0.0
    for b, n in enumerate(_substreams(samples)):
        A = _gram_root(philox(seed, b), x_i, n, M, sigma2)
        q_i = np.sum(np.abs(A @ x_i.conj()) ** 2, axis=-1)
        q_k = np.sum(np.abs(A @ x_k.conj()) ** 2, axis=-1)
        ratio = (q_i * c_i - q_k * c_k) / M - log_det_ratio
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


@pytest.fixture(scope="module")
def designed_c2():
    lib = library_codebooks(2, range(3), seed=0)
    return allocate_bits(2, 0.3, lib).constellation


@pytest.mark.parametrize(
    "entry", ["simulate_block", "estimate_ser", "kl_mc_estimate", "pilot_qam_run"]
)
def test_params_must_be_channel_params(entry, designed_c2):
    # each Monte-Carlo entry names the type it wants before reading a field
    s = canonical_direction(2)
    call = {
        "simulate_block": lambda p: simulate_block(s, p, philox(0)),
        "estimate_ser": lambda p: estimate_ser(designed_c2, p, 10, seed=0),
        "kl_mc_estimate": lambda p: kl_mc_estimate(s, s, p, 10, seed=0),
        "pilot_qam_run": lambda p: pilot_qam_run(2, p, 10, seed=0),
    }[entry]
    call(ChannelParams(M=2, K=2, sigma2=0.5))
    with pytest.raises(TypeError, match="^params must be ChannelParams$"):
        call("M=2, K=2")


class TestSimulateBlock:
    def test_shape_and_determinism(self):
        s = canonical_direction(3)
        params = ChannelParams(M=5, K=3, sigma2=0.2)
        a = simulate_block(s, params, philox(7))
        b = simulate_block(s, params, philox(7))
        assert a.shape == (5, 3)
        np.testing.assert_array_equal(a, b)

    def test_zero_point_low_noise_vanishes(self):
        s = 0.0 * canonical_direction(2)
        params = ChannelParams(M=4, K=2, sigma2=1e-12)
        Y = simulate_block(s, params, philox(1))
        assert np.abs(Y).max() < 1e-4

    def test_frobenius_moment_oracle(self):
        # E ||Y||^2_F / M = ||s||^2 + K sigma2; checked over 10^5 blocks
        s = 1.1 * canonical_direction(2)
        params = ChannelParams(M=2, K=2, sigma2=0.3)
        target = 1.1**2 + 2 * 0.3
        rng = philox(123)
        samples = np.empty(100_000)
        for i in range(samples.size):
            Y = simulate_block(s, params, rng)
            samples[i] = np.sum(np.abs(Y) ** 2) / params.M
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - target) < 3 * se

    def test_block_length_mismatch_rejected(self):
        s = canonical_direction(2)
        with pytest.raises(ValueError):
            simulate_block(s, ChannelParams(M=2, K=3, sigma2=0.1), philox(0))


class TestGramSampler:
    @pytest.mark.parametrize("M, K", [(1, 2), (3, 4), (256, 2)])
    def test_mean_is_m_times_row_covariance(self, M, K):
        # E[G] = M (s^* s^T + sigma2 I), entrywise within 5 standard errors;
        # M < K takes the wide-trapezoid Bartlett factor
        rng = np.random.default_rng(4100 + 10 * M + K)
        v = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        s = 1.1 * v / np.linalg.norm(v)
        sigma2 = 0.3
        n = 20_000
        G = gram(_gram_root(philox(M), s, n, M, sigma2))
        target = M * (np.outer(s.conj(), s) + sigma2 * np.eye(K))
        for part in (np.real, np.imag):
            samples = part(G)
            se = samples.std(axis=0, ddof=1) / math.sqrt(n)
            gap = np.abs(samples.mean(axis=0) - part(target))
            assert np.all(gap <= 5 * se + 1e-12 * M)

    def test_y_domain_and_gram_domain_ser_agree(self, designed_c2):
        # the same detector fed whole simulated blocks and Wishart-drawn
        # Gram matrices: Wilson 95% intervals must overlap at small M
        params = ChannelParams(M=8, K=2, sigma2=0.5)
        trials = 20_000
        points = designed_c2.point_vectors()
        rng = philox(880)
        sent = rng.integers(0, designed_c2.size, size=trials)
        Y = np.stack([simulate_block(points[i], params, rng) for i in sent])
        y_errors = int(np.count_nonzero(detect_two_stage(Y, designed_c2, 0.5) != sent))
        y_lo, y_hi = wilson_interval(y_errors, trials)
        g = estimate_ser(designed_c2, params, trials, seed=881)
        assert 0.02 < g.ser < 0.98
        assert y_lo <= g.ci95_high and g.ci95_low <= y_hi


class TestWilsonInterval:
    def test_frozen_values(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(WILSON_0_100_HIGH, abs=1e-12)
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(WILSON_5_100[0], abs=1e-12)
        assert hi == pytest.approx(WILSON_5_100[1], abs=1e-12)

    def test_all_errors_hits_one(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo < 1.0

    def test_brackets_the_point_estimate(self):
        for errors, trials in [(0, 7), (3, 9), (250, 1000), (999, 1000)]:
            lo, hi = wilson_interval(errors, trials)
            assert 0.0 <= lo <= errors / trials <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestSerEstimate:
    def test_record_consistency_enforced(self):
        # the rate and interval follow from the counts, which must be sane
        for trials, errors in ((10, 4), (7, 0), (7, 7)):
            est = SerEstimate(trials=trials, errors=errors, seed=0)
            assert est.ser == errors / trials
            assert (est.ci95_low, est.ci95_high) == wilson_interval(errors, trials)
        for trials, errors in ((0, 0), (10, 11), (10, -1)):
            with pytest.raises(ValueError):
                SerEstimate(trials=trials, errors=errors, seed=0)


class TestEstimateSer:
    def test_single_point_never_errs(self):
        c = MultiLevelConstellation([1.0], 0.2, UnitarySet([canonical_direction(2)]))
        est = estimate_ser(c, ChannelParams(M=2, K=2, sigma2=0.2), 500, seed=1)
        assert est.ser == 0.0 and est.errors == 0

    def test_high_snr_is_nearly_error_free(self, designed_c2):
        params = ChannelParams(M=256, K=2, sigma2=1e-4)
        est = estimate_ser(designed_c2, params, 10_000, seed=2)
        assert est.ser < 1e-3

    def test_deterministic_for_a_seed(self, designed_c2):
        params = ChannelParams(M=8, K=2, sigma2=0.4)
        a = estimate_ser(designed_c2, params, 3000, seed=11)
        b = estimate_ser(designed_c2, params, 3000, seed=11)
        assert a == b
        assert a.trials == 3000

    def test_ser_non_increasing_in_snr(self, designed_c2):
        sers = []
        for snr_db in (0.0, 10.0, 20.0):
            params = ChannelParams.from_snr_db(M=16, K=2, snr_db=snr_db)
            sers.append(estimate_ser(designed_c2, params, 4000, seed=3).ser)
        assert sers[0] >= sers[1] >= sers[2]

    def test_interval_brackets_the_estimate(self, designed_c2):
        params = ChannelParams(M=4, K=2, sigma2=0.5)
        est = estimate_ser(designed_c2, params, 2048, seed=5)
        assert est.ci95_low <= est.ser <= est.ci95_high
        assert est.seed == 5

    # error counts of 5000 trials (substreams of 2048, 2048 and 904), taken
    # before the scores were cut into blocks: 256 directions are scored 256
    # rows at a time, 1024 directions 64 rows at a time
    @pytest.mark.parametrize(
        "K, n_dirs, n_levels, M, snr_db, seed, errors",
        [(2, 256, 2, 64, 10.0, 41, 1519), (3, 256, 2, 16, 6.0, 42, 1216),
         (2, 1024, 1, 256, 20.0, 43, 98)],
    )
    def test_pinned_counts_across_score_blocks(self, K, n_dirs, n_levels, M, snr_db,
                                               seed, errors):
        rng = np.random.default_rng(1000 * K + n_dirs)
        V = rng.standard_normal((n_dirs, K)) + 1j * rng.standard_normal((n_dirs, K))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        params = ChannelParams.from_snr_db(M=M, K=K, snr_db=snr_db)
        amplitudes = [1.0] if n_levels == 1 else [0.5, math.sqrt(1.75)]
        c = MultiLevelConstellation(amplitudes, params.sigma2, UnitarySet(V))
        assert estimate_ser(c, params, 5000, seed).errors == errors


class TestStreams:
    def test_draws_what_a_fresh_stream_draws(self):
        # each stream draws 32-bit integers, which can leave half a word
        # in Philox's state, and leaves part of its buffer unread: the
        # re-keying must reset both
        seed, keys = 2**64 - 1, [0, 1, 2, 2**63, 1]
        for i, (k, rng) in enumerate(zip(keys, _streams(seed, keys))):
            fresh = philox(seed, k)
            draws = [
                (g.integers(0, 5, size=3), g.standard_gamma(4.0, size=2 * i + 1),
                 g.standard_normal(3), g.integers(0, 2**40))
                for g in (fresh, rng)
            ]
            for x, y in zip(*draws):
                np.testing.assert_array_equal(x, y)
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        # each call draws through a Generator of its own
        assert next(_streams(seed, [0])) is not next(_streams(seed, [0]))

    def test_substreams_split_the_trials(self):
        assert _substreams(3 * 2048 + 5) == [2048, 2048, 2048, 5]
        assert _substreams(4096) == [2048, 2048]
        assert _substreams(1) == [1]


class TestKlMcEstimate:
    def test_identical_points_give_exact_zero(self):
        s = 0.9 * canonical_direction(2)
        params = ChannelParams(M=4, K=2, sigma2=0.3)
        est = kl_mc_estimate(s, s, params, 5000, seed=0)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_identical_points_give_exact_zero_when_m_below_k(self):
        s = 1.2 * canonical_direction(4)
        est = kl_mc_estimate(s, s, ChannelParams(M=2, K=4, sigma2=0.3), 3000, seed=1)
        assert est.estimate == 0.0

    def test_identical_points_give_exact_zero_for_a_general_direction(self):
        v = random_unit_direction(np.random.default_rng(35), 3)
        s = 0.8 * v
        est = kl_mc_estimate(s, s, ChannelParams(M=5, K=3, sigma2=0.3), 5000, seed=4)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("K, M", KL_CASES)
    def test_two_eigenvalue_form_equals_the_a_formed_sample(self, K, M):
        # on the Gram draws of _gram_root, tr(W H) = sum_j lambda_j ||R u_j||^2
        # over the eigenpairs of H, and R u = A (B^T)^-1 u; every eigenvalue
        # but lambda_+- is ~0, so their two terms give each sample
        x_i, x_k, params = kl_case(K, M)
        sigma2 = params.sigma2
        c_i, c_k, log_det_ratio, H = log_ratio_terms(x_i, x_k, sigma2)
        (lam_plus, lam_minus), ldr = _log_ratio_law(x_i, x_k, sigma2)
        assert ldr == log_det_ratio
        ev, U = np.linalg.eigh(H)
        scale = np.abs(ev).max()
        assert lam_plus == pytest.approx(max(ev[-1], 0.0), rel=0.0, abs=1e-12 * scale)
        assert lam_minus == pytest.approx(min(ev[0], 0.0), rel=0.0, abs=1e-12 * scale)
        assert np.abs(ev[1:-1]).max(initial=0.0) <= 1e-12 * scale
        Y = np.linalg.solve(b_transpose(x_i, sigma2), U[:, [-1, 0]])
        for b, n in enumerate(_substreams(5000)):
            A = _gram_root(philox(31, b), x_i, n, M, sigma2)
            q_i = np.sum(np.abs(A @ x_i.conj()) ** 2, axis=-1)
            q_k = np.sum(np.abs(A @ x_k.conj()) ** 2, axis=-1)
            g = np.sum(np.abs(A @ Y) ** 2, axis=-2)
            two = (lam_plus * g[:, 0] + lam_minus * g[:, 1]) / M - log_det_ratio
            a_formed = (q_i * c_i - q_k * c_k) / M - log_det_ratio
            # rel 1e-12 of the terms each sample sums, since a sample near 0
            # is a difference of terms of order 1
            terms = (q_i * c_i + q_k * c_k) / M + abs(log_det_ratio)
            assert np.all(np.abs(two - a_formed) <= 1e-12 * terms)

    @pytest.mark.parametrize("K, M", KL_CASES)
    def test_spread_matches_the_two_eigenvalue_law(self, K, M):
        # a sample (lambda_+ g_1 + lambda_- g_2)/M - ln(...) with g ~ Gamma(M)
        # has variance (lambda_+^2 + lambda_-^2)/M; both estimators, on
        # their own draws, must show it.  At 200 000 samples a sample SD is
        # off by sqrt((kurtosis - 1)/(4 n)) <= 0.32% relative (kurtosis <= 9,
        # the exponential's at M = 1), so 2% is over 6 of those
        x_i, x_k, params = kl_case(K, M)
        *_, H = log_ratio_terms(x_i, x_k, params.sigma2)
        ev = np.linalg.eigvalsh(H)
        # at K = 1 the one eigenvalue is lambda_+ or lambda_-, the other 0
        sd = math.sqrt((min(ev[0], 0.0) ** 2 + max(ev[-1], 0.0) ** 2) / M)
        samples = 200_000
        est = kl_mc_estimate(x_i, x_k, params, samples, seed=31)
        _, se = a_formed_kl(x_i, x_k, params, samples, seed=31)
        assert math.sqrt(samples) * est.std_error == pytest.approx(sd, rel=0.02)
        assert math.sqrt(samples) * se == pytest.approx(sd, rel=0.02)

    def test_matches_closed_form_within_3_se(self, rng):
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s_i = 1.2 * (v1 / np.linalg.norm(v1))
        s_k = 0.7 * (v2 / np.linalg.norm(v2))
        params = ChannelParams(M=4, K=2, sigma2=0.25)
        est = kl_mc_estimate(s_i, s_k, params, 100_000, seed=17)
        closed = kl_full(s_i, s_k, params.sigma2)
        assert abs(est.estimate - closed) < 3 * est.std_error

    def test_same_direction_pair_matches_energy_term(self):
        v = canonical_direction(2)
        s_i, s_k = 1.3 * v, 0.6 * v
        params = ChannelParams(M=4, K=2, sigma2=0.4)
        est = kl_mc_estimate(s_i, s_k, params, 100_000, seed=23)
        d2 = _kl_energy(1.3**2, 0.6**2, 0.4)
        assert abs(est.estimate - d2) < 3 * est.std_error

    def test_deterministic_for_a_seed(self):
        s_i = canonical_direction(2)
        s_k = 0.5 * canonical_direction(2)
        params = ChannelParams(M=2, K=2, sigma2=0.5)
        a = kl_mc_estimate(s_i, s_k, params, 3000, seed=9)
        b = kl_mc_estimate(s_i, s_k, params, 3000, seed=9)
        assert a == b


class TestPilotQam:
    def test_square_alphabets(self):
        bpsk = square_qam_alphabet(1)
        np.testing.assert_array_equal(bpsk, [-1.0, 1.0])
        for bits in (2, 4, 6):
            a = square_qam_alphabet(bits)
            assert a.size == 2**bits
            assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_odd_bits_have_no_square_grid(self):
        with pytest.raises(ValueError, match="invalid alphabet size"):
            square_qam_alphabet(3)
        with pytest.raises(ValueError, match="invalid alphabet size"):
            pilot_qam_run(3, ChannelParams(M=2, K=2, sigma2=0.5), 10, seed=0)

    def test_scheme_splits_energy_equally(self):
        K = 2
        pilot, points = _pilot_layout(K, 6)
        assert points.size == 2**6
        assert pilot == pytest.approx(math.sqrt(0.5), abs=1e-15)
        block_energy = pilot**2 + (K - 1) * np.mean(np.abs(points) ** 2)
        assert block_energy == pytest.approx(1.0, abs=1e-9)

    def test_bits_must_split_evenly_over_data_slots(self):
        with pytest.raises(ValueError, match="invalid alphabet size"):
            pilot_qam_run(5, ChannelParams(M=2, K=3, sigma2=0.5), 10, seed=0)

    def test_low_noise_is_error_free(self):
        params = ChannelParams(M=8, K=2, sigma2=1e-6)
        est = pilot_qam_run(4, params, 2000, seed=4)
        assert est.ser == 0.0

    def test_deterministic_and_monotone_in_snr(self):
        sers = []
        for snr_db in (0.0, 14.0):
            params = ChannelParams.from_snr_db(M=8, K=2, snr_db=snr_db)
            a = pilot_qam_run(2, params, 4000, seed=6)
            b = pilot_qam_run(2, params, 4000, seed=6)
            assert a == b
            sers.append(a.ser)
        assert sers[0] > sers[1]


def argmin_slice(z, points):
    # the brute-force slicer the per-axis one replaced, kept as the reference
    # off ties: nearest point by |z - p|^2, ties to the smaller index
    return np.argmin(np.abs(z[..., None] - points) ** 2, axis=-1)


def exact_slice(z, points):
    # the same rule in rational arithmetic, which a tie needs: at a midpoint
    # the rounding of abs() can favour either neighbour
    pts = [(Fraction(p.real), Fraction(p.imag)) for p in points]
    out = []
    for w in z:
        zr, zi = Fraction(w.real), Fraction(w.imag)
        d = [(zr - pr) ** 2 + (zi - pi) ** 2 for pr, pi in pts]
        out.append(d.index(min(d)))
    return np.array(out)


class TestQamSlicer:
    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    # the data scale of the K = 2 pilot format: the +1 point of BPSK, scaled
    @pytest.mark.parametrize("scale", [1.0, float(_pilot_layout(2, 1)[1][1].real)])
    def test_per_axis_equals_brute_force(self, bits, scale, rng):
        points = scale * square_qam_alphabet(bits)
        slice_ = _qam_slicer(points)
        # random, some far outside the grid
        z = np.concatenate([
            rng.standard_normal(400) + 1j * rng.standard_normal(400),
            8.0 * (rng.standard_normal(100) + 1j * rng.standard_normal(100)),
        ])
        np.testing.assert_array_equal(slice_(z), argmin_slice(z, points))
        # exactly on the alphabet, and exactly on a midpoint between adjacent
        # levels of one axis, on or off the other axis
        re, im = np.unique(points.real), np.unique(points.imag)
        mid_re, mid_im = (re[:-1] + re[1:]) / 2, (im[:-1] + im[1:]) / 2
        offsets = rng.standard_normal(4)
        z = np.concatenate([
            points,
            (mid_re[:, None] + 1j * np.concatenate([im, offsets])).ravel(),
            (np.concatenate([re, offsets])[:, None] + 1j * mid_im).ravel(),
            (mid_re[:, None] + 1j * mid_im).ravel(),
        ])
        np.testing.assert_array_equal(slice_(z), exact_slice(z, points))

    # error counts of 20 000 trials, derived with the brute-force slicer
    @pytest.mark.parametrize(
        "K, total_bits, M, snr_db, seed, errors",
        [(2, 6, 16, 10.0, 6, 4488), (3, 8, 4, 6.0, 7, 11611), (2, 1, 4, -2.0, 8, 2604)],
    )
    def test_pinned_error_counts(self, K, total_bits, M, snr_db, seed, errors):
        params = ChannelParams.from_snr_db(M=M, K=K, snr_db=snr_db)
        est = pilot_qam_run(total_bits, params, 20000, seed)
        assert est.errors == errors
