"""Channel simulator, SER and KL estimators, pilot-QAM baseline."""

import math

import numpy as np
import pytest

from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    LevelSet,
    SerEstimate,
    SignalPoint,
    UnitarySet,
    allocate_bits,
    canonical_direction,
    default_library,
    detect_two_stage,
    estimate_ser,
    kl_decomposed,
    kl_full,
    kl_mc_estimate,
    pilot_qam_run,
    pilot_qam_scheme,
    simulate_block,
    square_qam_alphabet,
    wilson_interval,
)
from klconst.detection import gram
from klconst.linksim import _gram_root, _stream, _substreams

# frozen with 40-digit arithmetic for z = 1.959963984540054
WILSON_0_100_HIGH = 0.036993498206985676
WILSON_5_100 = (0.021543679154367973, 0.11175046923191914)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))


def random_unit_direction(rng, K):
    v = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    return v / np.linalg.norm(v)


def a_formed_kl(s_i, s_k, params, samples, seed):
    """kl_mc_estimate as written with A = R B^T formed by _gram_root, on the
    same substreams and with the same accumulation: (estimate, std_error)."""
    sigma2, M = params.sigma2, params.M
    x_i, x_k = s_i.vector(), s_k.vector()
    e_i = float(np.real(np.vdot(x_i, x_i)))
    e_k = float(np.real(np.vdot(x_k, x_k)))
    c_i = 1.0 / (sigma2 * (sigma2 + e_i))
    c_k = 1.0 / (sigma2 * (sigma2 + e_k))
    log_det_ratio = math.log(sigma2 + e_i) - math.log(sigma2 + e_k)
    total = total_sq = 0.0
    for b, n in _substreams(samples):
        A = _gram_root(_stream(seed, b), x_i, n, M, sigma2)
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
    lib = default_library(2, 2, seed=0)
    return allocate_bits(2, 0.3, lib).constellation


class TestSimulateBlock:
    def test_shape_and_determinism(self):
        s = SignalPoint(1.0, canonical_direction(3))
        params = ChannelParams(M=5, K=3, sigma2=0.2)
        a = simulate_block(s, params, philox(7))
        b = simulate_block(s, params, philox(7))
        assert a.shape == (5, 3)
        np.testing.assert_array_equal(a, b)

    def test_zero_point_low_noise_vanishes(self):
        s = SignalPoint(0.0, canonical_direction(2))
        params = ChannelParams(M=4, K=2, sigma2=1e-12)
        Y = simulate_block(s, params, philox(1))
        assert np.abs(Y).max() < 1e-4

    def test_frobenius_moment_oracle(self):
        # E ||Y||^2_F / M = ||s||^2 + K sigma2; checked over 10^5 blocks
        s = SignalPoint(1.1, SignalPoint(1.0, canonical_direction(2)).direction)
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
        s = SignalPoint(1.0, canonical_direction(2))
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
        points = [designed_c2.point(i) for i in range(designed_c2.size)]
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
        with pytest.raises(ValueError):
            SerEstimate(
                ser=0.5, trials=10, errors=4, ci95_low=0.2, ci95_high=0.8, seed=0
            )
        with pytest.raises(ValueError):
            SerEstimate(
                ser=0.4, trials=10, errors=4, ci95_low=0.5, ci95_high=0.8, seed=0
            )


class TestEstimateSer:
    def test_single_point_never_errs(self):
        c = MultiLevelConstellation(
            LevelSet([1.0], sigma2_design=0.2), UnitarySet([canonical_direction(2)])
        )
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


class TestKlMcEstimate:
    def test_identical_points_give_exact_zero(self):
        s = SignalPoint(0.9, canonical_direction(2))
        params = ChannelParams(M=4, K=2, sigma2=0.3)
        est = kl_mc_estimate(s, s, params, 5000, seed=0)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_identical_points_give_exact_zero_when_m_below_k(self):
        s = SignalPoint(1.2, canonical_direction(4))
        est = kl_mc_estimate(s, s, ChannelParams(M=2, K=4, sigma2=0.3), 3000, seed=1)
        assert est.estimate == 0.0

    def test_identical_points_give_exact_zero_for_a_general_direction(self):
        v = random_unit_direction(np.random.default_rng(35), 3)
        s = SignalPoint(0.8, v)
        est = kl_mc_estimate(s, s, ChannelParams(M=5, K=3, sigma2=0.3), 5000, seed=4)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("K, M", [(1, 3), (2, 1), (2, 4), (3, 2), (4, 8)])
    def test_same_draws_as_the_a_formed_estimator(self, K, M):
        # 5000 samples end on a partial substream (2048 + 2048 + 904)
        rng = np.random.default_rng(100 * K + M)
        s_i = SignalPoint(1.1, random_unit_direction(rng, K))
        s_k = SignalPoint(0.6, random_unit_direction(rng, K))
        params = ChannelParams(M=M, K=K, sigma2=0.35)
        est = kl_mc_estimate(s_i, s_k, params, 5000, seed=31)
        mean, se = a_formed_kl(s_i, s_k, params, 5000, seed=31)
        assert est.estimate == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_matches_closed_form_within_3_se(self, rng):
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s_i = SignalPoint(1.2, v1 / np.linalg.norm(v1))
        s_k = SignalPoint(0.7, v2 / np.linalg.norm(v2))
        params = ChannelParams(M=4, K=2, sigma2=0.25)
        est = kl_mc_estimate(s_i, s_k, params, 100_000, seed=17)
        closed = kl_full(s_i, s_k, params.sigma2)
        assert abs(est.estimate - closed) < 3 * est.std_error

    def test_same_direction_pair_matches_energy_term(self):
        v = canonical_direction(2)
        s_i, s_k = SignalPoint(1.3, v), SignalPoint(0.6, v)
        params = ChannelParams(M=4, K=2, sigma2=0.4)
        est = kl_mc_estimate(s_i, s_k, params, 100_000, seed=23)
        _, d2 = kl_decomposed(0.6, v, 1.3, v, 0.4)
        assert abs(est.estimate - d2) < 3 * est.std_error

    def test_deterministic_for_a_seed(self):
        s_i = SignalPoint(1.0, canonical_direction(2))
        s_k = SignalPoint(0.5, canonical_direction(2))
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

    def test_scheme_splits_energy_equally(self):
        scheme = pilot_qam_scheme(2, 6)
        assert scheme.bits_per_data_symbol == 6
        assert scheme.pilot_amplitude == pytest.approx(math.sqrt(0.5), abs=1e-15)
        block_energy = scheme.pilot_amplitude**2 + (
            scheme.K - 1
        ) * scheme.data_scale**2 * np.mean(np.abs(scheme.qam_alphabet) ** 2)
        assert block_energy == pytest.approx(1.0, abs=1e-9)

    def test_bits_must_split_evenly_over_data_slots(self):
        with pytest.raises(ValueError, match="invalid alphabet size"):
            pilot_qam_scheme(3, 5)

    def test_low_noise_is_error_free(self):
        scheme = pilot_qam_scheme(2, 4)
        params = ChannelParams(M=8, K=2, sigma2=1e-6)
        est = pilot_qam_run(scheme, params, 2000, seed=4)
        assert est.ser == 0.0

    def test_deterministic_and_monotone_in_snr(self):
        scheme = pilot_qam_scheme(2, 2)
        sers = []
        for snr_db in (0.0, 14.0):
            params = ChannelParams.from_snr_db(M=8, K=2, snr_db=snr_db)
            a = pilot_qam_run(scheme, params, 4000, seed=6)
            b = pilot_qam_run(scheme, params, 4000, seed=6)
            assert a == b
            sers.append(a.ser)
        assert sers[0] > sers[1]
