"""Direction packing: chordal distances, Welch bound, optimizer, files."""

import math

import numpy as np
import pytest

import klconst.unitary
from klconst import (
    FileFormatError,
    PackingConfig,
    UnitarySet,
    default_library,
    load_unitary,
    min_sq_chordal,
    optimize_unitary,
    save_unitary,
    welch_limit,
)
from klconst.linksim import _stream
from klconst.unitary import DEFAULT_SMOOTHING, _climb


def tetrahedral_set():
    """The equiangular 4-vector set in C^2 with |<v_i,v_k>|^2 = 1/3."""
    w = np.exp(2j * np.pi / 3)
    a, b = 1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0)
    return UnitarySet(
        [
            [1.0, 0.0],
            [a, b],
            [a, b * w],
            [a, b * w**2],
        ]
    )


class TestMinSqChordal:
    def test_orthonormal_pair(self):
        assert min_sq_chordal(np.eye(2, dtype=complex)) == 1.0

    def test_tetrahedral_equiangular_value(self):
        # frozen oracle: 1 - 1/3, exact by construction
        assert min_sq_chordal(tetrahedral_set()) == pytest.approx(
            2.0 / 3.0, abs=1e-14
        )

    def test_phase_invariance(self, rng):
        raw = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        V = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        before = min_sq_chordal(V)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
        after = min_sq_chordal(phases[:, None] * V)
        assert after == pytest.approx(before, abs=1e-12)

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            min_sq_chordal(np.array([[0.5 + 0j, 0.0], [0.0, 1.0]]))


class TestWelchLimit:
    @pytest.mark.parametrize(
        "K,N,expected",
        [(2, 2, 1.0), (2, 4, 2.0 / 3.0), (3, 2, 1.0), (2, 64, 1.0 - 62.0 / 126.0)],
    )
    def test_examples(self, K, N, expected):
        assert welch_limit(K, N) == pytest.approx(expected, abs=1e-15)

    def test_random_sets_respect_the_bound(self, rng):
        for _ in range(30):
            K = int(rng.integers(1, 5))
            N = 2 ** int(rng.integers(1, 5))
            raw = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
            V = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert min_sq_chordal(V) <= welch_limit(K, N) + 1e-12


class TestOptimizeUnitary:
    def test_orthonormal_optimum_is_found(self):
        out = optimize_unitary(PackingConfig(K=2, cardinality=2, seed=0))
        assert out.min_sq_dist >= 0.999

    def test_four_in_two_reaches_equiangular_neighborhood(self):
        out = optimize_unitary(PackingConfig(K=2, cardinality=4, seed=0))
        assert out.min_sq_dist >= 0.95 * (2.0 / 3.0)

    def test_singleton_is_canonical(self):
        out = optimize_unitary(PackingConfig(K=3, cardinality=1, seed=9))
        assert out.min_sq_dist == math.inf
        np.testing.assert_array_equal(out.vectors, [[1.0, 0.0, 0.0]])

    def test_deterministic_for_a_seed(self):
        cfg = PackingConfig(K=2, cardinality=8, restarts=2, iterations=200, seed=11)
        a = optimize_unitary(cfg)
        b = optimize_unitary(cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_more_restarts_never_hurt(self):
        best = -math.inf
        for restarts in (1, 2, 3, 4):
            cfg = PackingConfig(
                K=2, cardinality=8, restarts=restarts, iterations=150, seed=3
            )
            t = optimize_unitary(cfg).min_sq_dist
            assert t >= best
            best = t

    def test_output_stays_below_welch(self):
        for K, N in [(2, 4), (3, 8), (4, 16)]:
            cfg = PackingConfig(K=K, cardinality=N, restarts=2, iterations=200, seed=1)
            out = optimize_unitary(cfg)
            assert out.min_sq_dist <= welch_limit(K, N) + 1e-12

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            PackingConfig(K=2, cardinality=3)
        with pytest.raises(ValueError):
            PackingConfig(K=2, cardinality=4, restarts=0)
        with pytest.raises(ValueError):
            PackingConfig(K=2, cardinality=4, smoothing=0.0)


def restart_start(seed, restart, n, K):
    """The start that optimize_unitary draws for one restart."""
    rng = _stream(seed, restart)
    V = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


class TestBatchedRestarts:
    @pytest.mark.parametrize("K,N", [(1, 4), (2, 8), (3, 64)])
    def test_stacked_climb_equals_each_start_alone(self, K, N):
        starts = np.stack([restart_start(17, r, N, K) for r in range(3)])
        before = starts.copy()
        stacked = _climb(starts, 50, DEFAULT_SMOOTHING)
        np.testing.assert_array_equal(starts, before)
        for r in range(3):
            alone = _climb(starts[r:r + 1], 50, DEFAULT_SMOOTHING)
            assert stacked[r].tobytes() == alone[0].tobytes()

    def test_chunked_restarts_return_the_earliest_best_single_climb(self):
        # N = 128 climbs in stacks of 4, 4 and 1 restarts
        cfg = PackingConfig(K=2, cardinality=128, restarts=9, iterations=40)
        out = optimize_unitary(cfg)
        singles = [
            _climb(restart_start(cfg.seed, r, 128, 2)[None], 40, cfg.smoothing)[0]
            for r in range(9)
        ]
        scores = [min_sq_chordal(V) for V in singles]
        best = scores.index(max(scores))
        assert out.vectors.tobytes() == singles[best].tobytes()
        assert out.min_sq_dist == scores[best]

    @pytest.fixture()
    def chunks(self, monkeypatch):
        """Record (R, N) of every _climb call and return its input."""
        seen = []

        def recording(V, iterations, smoothing):
            seen.append(V.shape[:2])
            return V

        monkeypatch.setattr(klconst.unitary, "_climb", recording)
        return seen

    @pytest.mark.parametrize(
        "N,sizes", [(2, [9]), (64, [9]), (128, [4, 4, 1]), (256, [1] * 9), (512, [1] * 9)]
    )
    def test_chunks_stay_within_the_entry_budget(self, chunks, N, sizes):
        optimize_unitary(PackingConfig(K=2, cardinality=N, restarts=9, iterations=1))
        assert [R for R, _ in chunks] == sizes
        for R, n in chunks:
            assert n == N
            assert R == 1 or R * n * n <= 2**16

    def test_equal_scores_keep_the_earliest_restart(self, monkeypatch):
        # restart r returns the identity with its columns rolled by r: an
        # orthonormal set (distance exactly 1) of its own, across chunks of
        # 4, 4 and 1
        offset = [0]

        def rolled(V, iterations, smoothing):
            R, n, _ = V.shape
            out = np.stack([np.roll(np.eye(n), offset[0] + r, axis=1) for r in range(R)])
            offset[0] += R
            return out

        monkeypatch.setattr(klconst.unitary, "_climb", rolled)
        out = optimize_unitary(PackingConfig(K=128, cardinality=128, restarts=9))
        assert offset[0] == 9
        assert out.min_sq_dist == 1.0
        np.testing.assert_array_equal(out.vectors, np.eye(128))


class TestDefaultLibrary:
    def test_covers_every_split(self, library_k2_ls2):
        assert sorted(library_k2_ls2) == [0, 1, 2]
        for l_v, uset in library_k2_ls2.items():
            assert uset.size == 2**l_v
            assert uset.K == 2

    def test_singleton_entry_is_canonical(self, library_k2_ls2):
        np.testing.assert_array_equal(library_k2_ls2[0].vectors, [[1.0, 0.0]])

    def test_deterministic(self):
        a = default_library(2, 1, seed=42)
        b = default_library(2, 1, seed=42)
        np.testing.assert_array_equal(a[1].vectors, b[1].vectors)


class TestCodebookFiles:
    def test_round_trip(self, tmp_path):
        out = optimize_unitary(
            PackingConfig(K=2, cardinality=4, restarts=2, iterations=150, seed=5)
        )
        path = tmp_path / "book.txt"
        save_unitary(out, path)
        back = load_unitary(path)
        assert back.K == 2 and back.size == 4
        np.testing.assert_allclose(back.vectors, out.vectors, rtol=0, atol=1e-15)

    def test_loaded_set_caches_its_distance(self, tmp_path, rng):
        raw = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        V = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        path = tmp_path / "ext.txt"
        save_unitary(UnitarySet(V), path)
        back = load_unitary(path)
        assert back.min_sq_dist == pytest.approx(min_sq_chordal(back.vectors), abs=0)
        assert back.min_sq_dist == pytest.approx(min_sq_chordal(V), abs=1e-12)

    def test_half_norm_vector_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0 0 0\n0.5 0 0 0\n")
        with pytest.raises(FileFormatError, match=r"bad\.txt:3"):
            load_unitary(path)

    def test_header_must_match_body(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n1 0 0 0\n0 0 1 0\n")
        with pytest.raises(FileFormatError):
            load_unitary(path)

    def test_non_power_of_two_codebook_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 0 0 0\n0 0 1 0\n0.6 0 0.8 0\n")
        with pytest.raises(FileFormatError):
            load_unitary(path)
