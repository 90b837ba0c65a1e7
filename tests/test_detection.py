"""Exact ML detection: Gram statistics, joint vs two-stage, tie handling."""

import math

import numpy as np
import pytest

from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    UnitarySet,
    allocate_bits,
    canonical_direction,
    detect_joint,
    detect_two_stage,
    energy_only_levels,
    gram,
    simulate_block,
)
from klconst.detection import _direction_scores, _score_weights


@pytest.fixture(scope="module")
def designed_c2():
    from klconst import library_codebooks

    lib = library_codebooks(2, range(3), seed=0)
    return allocate_bits(2, 0.3, lib).constellation


@pytest.fixture(scope="module")
def onoff_c2():
    return MultiLevelConstellation(
        energy_only_levels(0.3, 2), 0.3, UnitarySet([canonical_direction(2)])
    )


def random_blocks(rng, c, sigma2, M, count):
    sent = rng.integers(0, c.size, size=count)
    vec = c.point_vectors()[sent]
    h = (rng.standard_normal((count, M)) + 1j * rng.standard_normal((count, M)))
    h *= math.sqrt(0.5)
    noise = rng.standard_normal((count, M, c.K)) + 1j * rng.standard_normal(
        (count, M, c.K)
    )
    noise *= math.sqrt(sigma2 / 2.0)
    return sent, h[:, :, None] * vec[:, None, :] + noise


class TestGram:
    def test_matches_row_outer_products(self, rng):
        Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        G = gram(Y)
        manual = np.zeros((3, 3), dtype=complex)
        for m in range(5):
            manual += np.outer(Y[m].conj(), Y[m])
        np.testing.assert_allclose(G, manual, atol=1e-12)

    def test_hermitian_positive_semidefinite(self, rng):
        Y = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        G = gram(Y)
        np.testing.assert_allclose(G, G.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() > -1e-10

    def test_batched_shape(self, rng):
        Y = rng.standard_normal((7, 2, 6, 3)) + 0j
        assert gram(Y).shape == (7, 2, 3, 3)


class TestDirectionScores:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_real_product_equals_the_quadratic_form(self, K, rng):
        V = rng.standard_normal((8, K)) + 1j * rng.standard_normal((8, K))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        A = rng.standard_normal((3, 5, K, K)) + 1j * rng.standard_normal((3, 5, K, K))
        G = A + A.conj().swapaxes(-1, -2)
        q = _direction_scores(G, _score_weights(UnitarySet(V)))
        # the expression the scores replaced, kept as the reference
        reference = np.einsum("jk,...kl,jl->...j", V, G, V.conj()).real
        # each side sums K^2 products of a few roundings each, so each is
        # within (K^2 + 4) eps of the sum of the terms' magnitudes
        magnitude = np.einsum("jk,...kl,jl->...j", np.abs(V), np.abs(G), np.abs(V))
        tol = 2 * (K**2 + 4) * np.finfo(np.float64).eps * magnitude
        assert q.shape == (3, 5, 8)
        assert np.all(np.abs(q - reference) <= tol)


class TestDetection:
    def test_noiseless_recovery_every_point(self, designed_c2):
        params = ChannelParams(M=48, K=2, sigma2=1e-6)
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], np.uint64)))
        for idx in range(designed_c2.size):
            Y = simulate_block(designed_c2.point_vectors()[idx], params, rng)
            assert detect_joint(Y, designed_c2, params.sigma2) == idx
            assert detect_two_stage(Y, designed_c2, params.sigma2) == idx

    def test_noiseless_recovery_onoff(self, onoff_c2):
        params = ChannelParams(M=48, K=2, sigma2=1e-6)
        rng = np.random.Generator(np.random.Philox(key=np.array([4, 0], np.uint64)))
        for idx in range(onoff_c2.size):
            Y = simulate_block(onoff_c2.point_vectors()[idx], params, rng)
            assert detect_two_stage(Y, onoff_c2, params.sigma2) == idx

    def test_joint_equals_two_stage_on_noisy_batch(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.3, M=4, count=500)
        a = detect_joint(Y, designed_c2, 0.3)
        b = detect_two_stage(Y, designed_c2, 0.3)
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_per_block(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.5, M=3, count=32)
        batched = detect_two_stage(Y, designed_c2, 0.5)
        singles = [detect_two_stage(Y[i], designed_c2, 0.5) for i in range(32)]
        np.testing.assert_array_equal(batched, singles)

    def test_global_phase_invariance(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.3, M=4, count=200)
        base = detect_two_stage(Y, designed_c2, 0.3)
        rotated = detect_two_stage(np.exp(0.7j) * Y, designed_c2, 0.3)
        np.testing.assert_array_equal(base, rotated)

    def test_antenna_permutation_invariance(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.3, M=6, count=200)
        base = detect_joint(Y, designed_c2, 0.3)
        shuffled = detect_joint(Y[:, ::-1, :], designed_c2, 0.3)
        np.testing.assert_array_equal(base, shuffled)

    def test_single_antenna_works(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.3, M=1, count=16)
        a = detect_joint(Y, designed_c2, 0.3)
        b = detect_two_stage(Y, designed_c2, 0.3)
        np.testing.assert_array_equal(a, b)

    def test_returns_plain_int_for_single_block(self, designed_c2, rng):
        _, Y = random_blocks(rng, designed_c2, 0.3, M=4, count=1)
        out = detect_joint(Y[0], designed_c2, 0.3)
        assert isinstance(out, int)

    @pytest.mark.parametrize("detect", [detect_joint, detect_two_stage])
    def test_empty_batch_gives_empty_indices(self, designed_c2, detect):
        out = detect(np.ones((0, 2, 2)), designed_c2, 0.3)
        assert out.dtype == np.int64
        assert out.shape == (0,)


class TestTies:
    def test_duplicated_direction_resolves_to_smallest_index(self, rng):
        v = np.array([0.6, 0.8j])
        s2, r = 0.25, 2.0
        a0_sq = 2 * (1 + s2) / (1 + r) - s2
        c = MultiLevelConstellation(
            np.sqrt([a0_sq, (s2 + a0_sq) * r - s2]), s2, UnitarySet([v, v])
        )
        _, Y = random_blocks(rng, c, 0.25, M=4, count=100)
        a = detect_joint(Y, c, 0.25)
        b = detect_two_stage(Y, c, 0.25)
        np.testing.assert_array_equal(a, b)
        # the duplicated direction bit always lands on the first copy
        assert np.all(a % 2 == 0)


class TestValidation:
    def test_block_length_mismatch(self, designed_c2, rng):
        Y = rng.standard_normal((4, 3)) + 0j
        with pytest.raises(ValueError):
            detect_joint(Y, designed_c2, 0.3)

    def test_requires_constellation(self, rng):
        Y = rng.standard_normal((4, 2)) + 0j
        with pytest.raises(TypeError):
            detect_two_stage(Y, "not a constellation", 0.3)

    def test_requires_positive_noise(self, designed_c2, rng):
        Y = rng.standard_normal((4, 2)) + 0j
        for detect in (detect_joint, detect_two_stage):
            for sigma2 in (0.0, -0.3, math.inf):
                with pytest.raises(ValueError, match="sigma2"):
                    detect(Y, designed_c2, sigma2)

    @pytest.mark.parametrize("detect", [detect_joint, detect_two_stage])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite_blocks(self, designed_c2, rng, detect, bad):
        # one NaN entry, or an all-inf block, is a ValueError naming Y
        # rather than a decision for index 0
        Y = rng.standard_normal((4, 2)) + 0j
        if bad == "nan":
            Y[1, 0] = math.nan
        else:
            Y[:] = math.inf
        with pytest.raises(ValueError, match="^Y must have finite entries$"):
            detect(Y, designed_c2, 0.3)
        with pytest.raises(ValueError, match="^Y must have finite entries$"):
            detect(np.stack([rng.standard_normal((4, 2)) + 0j, Y]), designed_c2, 0.3)
