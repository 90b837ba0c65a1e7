"""Exact ML detection: Gram statistics, joint vs two-stage, tie handling."""

import math

import numpy as np
import pytest

from klconst import (
    ChannelParams,
    LevelSet,
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
from klconst.detection import detect_joint_gram, detect_two_stage_gram


@pytest.fixture(scope="module")
def designed_c2():
    from klconst import default_library

    lib = default_library(2, 2, seed=0)
    return allocate_bits(2, 0.3, lib).constellation


@pytest.fixture(scope="module")
def onoff_c2():
    levels = energy_only_levels(0.3, 2)
    return MultiLevelConstellation(levels, UnitarySet([canonical_direction(2)]))


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


class TestDetection:
    def test_noiseless_recovery_every_point(self, designed_c2):
        params = ChannelParams(M=48, K=2, sigma2=1e-6)
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], np.uint64)))
        for idx in range(designed_c2.size):
            Y = simulate_block(designed_c2.point(idx), params, rng)
            assert detect_joint(Y, designed_c2, params.sigma2) == idx
            assert detect_two_stage(Y, designed_c2, params.sigma2) == idx

    def test_noiseless_recovery_onoff(self, onoff_c2):
        params = ChannelParams(M=48, K=2, sigma2=1e-6)
        rng = np.random.Generator(np.random.Philox(key=np.array([4, 0], np.uint64)))
        for idx in range(onoff_c2.size):
            Y = simulate_block(onoff_c2.point(idx), params, rng)
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


class TestTies:
    def test_duplicated_direction_resolves_to_smallest_index(self, rng):
        v = np.array([0.6, 0.8j])
        s2, r = 0.25, 2.0
        a0_sq = 2 * (1 + s2) / (1 + r) - s2
        levels = LevelSet(
            np.sqrt([a0_sq, (s2 + a0_sq) * r - s2]), sigma2_design=s2, ratio=r
        )
        c = MultiLevelConstellation(levels, UnitarySet([v, v]))
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
        with pytest.raises(ValueError):
            detect_joint(Y, designed_c2, 0.0)

    def test_gram_level_cores_check_shape_and_block_length(self, designed_c2):
        G = np.eye(2, dtype=complex)
        for detect in (detect_joint_gram, detect_two_stage_gram):
            assert detect(G, designed_c2, 0.3, 4).shape == ()
            with pytest.raises(ValueError, match="G must have shape"):
                detect(np.eye(3), designed_c2, 0.3, 4)
            with pytest.raises(ValueError, match="M must be"):
                detect(G, designed_c2, 0.3, 0)
