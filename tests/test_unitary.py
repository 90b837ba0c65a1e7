"""Direction packing: chordal distances, packing bound, optimizer, files."""

import math

import numpy as np
import pytest

import klconst.unitary
from klconst import (
    FileFormatError,
    PackingConfig,
    UnitarySet,
    library_codebooks,
    load_unitary,
    optimize_unitary,
    packing_limit,
    save_unitary,
)
from klconst._bloch_climbed import LAYOUTS
from klconst.unitary import (
    _BLOCH_CLIMBED,
    DEFAULT_ITERATIONS,
    _bloch_layout,
    _climb,
    _haar_su2,
    _sphere_layout,
    _starts,
)


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
        assert UnitarySet(np.eye(2, dtype=complex)).min_sq_dist == 1.0

    def test_tetrahedral_equiangular_value(self):
        # frozen oracle: 1 - 1/3, exact by construction
        assert tetrahedral_set().min_sq_dist == pytest.approx(
            2.0 / 3.0, abs=1e-14
        )

    def test_phase_invariance(self, rng):
        raw = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        V = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        before = UnitarySet(V).min_sq_dist
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
        after = UnitarySet(phases[:, None] * V).min_sq_dist
        assert after == pytest.approx(before, abs=1e-12)

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            UnitarySet(np.array([[0.5 + 0j, 0.0], [0.0, 1.0]]))


class TestWelchLimit:
    """packing_limit is 1 up to N = K and the Welch bound above, at K = 2
    only while Fejes Toth does not bind (N <= 4)."""

    @pytest.mark.parametrize(
        "K,N,expected",
        [(2, 2, 1.0), (2, 4, 2.0 / 3.0), (3, 2, 1.0), (3, 64, 1.0 - 61.0 / 189.0)],
    )
    def test_examples(self, K, N, expected):
        assert packing_limit(K, N) == pytest.approx(expected, abs=1e-15)

    def test_random_sets_respect_the_bound(self, rng):
        for _ in range(30):
            K = int(rng.integers(1, 5))
            N = 2 ** int(rng.integers(1, 5))
            raw = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
            V = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert UnitarySet(V).min_sq_dist <= packing_limit(K, N) + 1e-12


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
                K=3, cardinality=8, restarts=restarts, iterations=150, seed=3
            )
            t = optimize_unitary(cfg).min_sq_dist
            assert t >= best
            best = t

    def test_output_stays_below_welch(self):
        for K, N in [(2, 4), (3, 8), (4, 16)]:
            cfg = PackingConfig(K=K, cardinality=N, restarts=2, iterations=200, seed=1)
            out = optimize_unitary(cfg)
            assert out.min_sq_dist <= packing_limit(K, N) + 1e-12

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            PackingConfig(K=2, cardinality=3)
        with pytest.raises(ValueError):
            PackingConfig(K=2, cardinality=4, restarts=0)
        for field in ("K", "cardinality", "restarts", "iterations"):
            fields = {"K": 2, "cardinality": 4, "restarts": 1, "iterations": 10, field: 2.5}
            with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
                PackingConfig(**fields)
        for seed in (1.5, -1, 2**64, math.nan, math.inf):
            with pytest.raises(ValueError, match="seed"):
                PackingConfig(K=2, cardinality=4, seed=seed)


class TestBlochPacking:
    def test_fejes_toth_examples(self):
        # exact for a great-circle triangle, the tetrahedron and the
        # icosahedron (neighbours at cos = 1/sqrt 5)
        assert packing_limit(2, 2) == 1.0
        assert packing_limit(2, 3) == pytest.approx(0.75, abs=1e-15)
        assert packing_limit(2, 4) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert packing_limit(2, 12) == pytest.approx((1 - 1 / math.sqrt(5)) / 2, abs=1e-15)
        # Fejes Toth binds below Welch from N = 5 up
        for N in range(5, 65):
            assert packing_limit(2, N) < 1.0 - (N - 2) / (2 * (N - 1))

    def test_closed_forms_reach_their_optima(self):
        antiprism = 2.0 / (4.0 + math.sqrt(2.0))  # 0.3693980625...
        for seed in range(5):
            for N, t in [(2, 1.0), (4, 2.0 / 3.0), (8, antiprism)]:
                out = optimize_unitary(PackingConfig(K=2, cardinality=N, seed=seed))
                assert out.min_sq_dist == pytest.approx(t, abs=1e-15), (seed, N)

    def test_closed_forms_are_not_climbed(self, monkeypatch):
        def no_climb(V, iterations):
            raise AssertionError("climbed a closed form")

        monkeypatch.setattr(klconst.unitary, "_climb", no_climb)
        library_codebooks(2, range(4), seed=5)
        for N in (2, 4, 8):
            optimize_unitary(PackingConfig(K=2, cardinality=N, restarts=3, seed=5))

    def test_seeds_turn_one_layout(self):
        # every seed's one start has the same |Gram| matrix; the seed picks
        # the turn
        starts = np.concatenate([
            _starts(PackingConfig(K=2, cardinality=16, seed=s)) for s in (1, 2, 3)
        ])
        assert starts.shape == (3, 16, 2)
        gram = np.abs(starts @ starts.conj().transpose(0, 2, 1))
        for r in (1, 2):
            np.testing.assert_allclose(gram[r], gram[0], rtol=0, atol=1e-14)
            assert not np.allclose(starts[r], starts[0])

    def test_restarts_default_by_K(self):
        # restarts counts random starts: K = 2 records its one turned layout
        assert PackingConfig(K=2, cardinality=4).restarts == 1
        assert PackingConfig(K=2, cardinality=4, restarts=5).restarts == 1
        assert PackingConfig(K=3, cardinality=4).restarts == klconst.unitary.DEFAULT_RESTARTS
        assert PackingConfig(K=3, cardinality=4, restarts=5).restarts == 5

    @pytest.mark.parametrize(
        "N,iterations", [(N, DEFAULT_ITERATIONS) for N in (2, 4, 8, 16, 32, 64)] + [(128, 20)]
    )
    def test_restarts_leave_a_codebook_as_it_is(self, N, iterations):
        for seed in range(60):
            books = [
                optimize_unitary(PackingConfig(
                    K=2, cardinality=N, restarts=restarts, iterations=iterations, seed=seed
                ))
                for restarts in (1, 3)
            ]
            assert books[0].vectors.tobytes() == books[1].vectors.tobytes(), seed


def turned_lattice(seeds, N):
    """Restart 0's turn of the bare Fibonacci lattice of N lines for each
    seed, as a (len(seeds), N, 2) stack."""
    rngs = (np.random.Generator(np.random.Philox(key=np.array([s, 0], np.uint64)))
            for s in seeds)
    starts = np.stack([_sphere_layout(N) @ _haar_su2(rng).T for rng in rngs])
    return starts / np.linalg.norm(starts, axis=2, keepdims=True)


class TestBlochTable:
    def test_table_is_the_climbed_lattice(self):
        assert tuple(sorted(LAYOUTS)) == _BLOCH_CLIMBED
        for N in _BLOCH_CLIMBED:
            fresh = _climb(_sphere_layout(N)[None], DEFAULT_ITERATIONS)[0]
            np.testing.assert_allclose(_bloch_layout(N), fresh, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", _BLOCH_CLIMBED)
    def test_turned_table_equals_the_climb_of_the_turned_lattice(self, N):
        # the climb commutes with a unitary turn of every row, so turning
        # the climbed lattice gives the climb of the turned one
        seeds = [*range(6), 43, 2**63 + 5]
        climbed = _climb(turned_lattice(seeds, N), DEFAULT_ITERATIONS)
        for s, V in zip(seeds, climbed):
            out = optimize_unitary(PackingConfig(K=2, cardinality=N, seed=s))
            np.testing.assert_allclose(out.vectors, V, rtol=0, atol=1e-12)
            assert out.min_sq_dist == pytest.approx(UnitarySet(V).min_sq_dist, rel=1e-12, abs=0)

    def test_other_iterations_climb_as_before(self):
        for s in (0, 7):
            cfg = PackingConfig(K=2, cardinality=128, iterations=200, seed=s)
            expected = _climb(turned_lattice([s], 128), 200)[0]
            assert optimize_unitary(cfg).vectors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N,restarts,iterations,climbed", [
        (16, 1, DEFAULT_ITERATIONS, False), (64, 1, DEFAULT_ITERATIONS, False),
        # a layout up to N = 64 is final whatever restarts and iterations say
        (16, 1, 200, False), (32, 3, DEFAULT_ITERATIONS, False),
        # from N = 128 up K = 2 climbs its one start, with the iterations given
        (128, 1, DEFAULT_ITERATIONS, True), (128, 3, 200, True),
    ])
    def test_climbs_only_off_the_table(self, monkeypatch, N, restarts, iterations, climbed):
        calls = []

        def recording(V, its):
            calls.append((len(V), its))
            return V

        monkeypatch.setattr(klconst.unitary, "_climb", recording)
        cfg = PackingConfig(K=2, cardinality=N, restarts=restarts, iterations=iterations, seed=3)
        optimize_unitary(cfg)
        assert calls == ([(1, iterations)] if climbed else [])

    def test_table_is_imported_only_by_a_k2_packing(self, run_python):
        script = (
            "import sys; from klconst import PackingConfig, optimize_unitary; "
            "name = 'klconst._bloch_climbed'; "
            "optimize_unitary(PackingConfig(K=3, cardinality=16, iterations=5)); "
            "print(name in sys.modules, end=' '); "
            "optimize_unitary(PackingConfig(K=2, cardinality=16)); "
            "print(name in sys.modules)"
        )
        proc = run_python(["-c", script])
        assert proc.stdout.split() == ["False", "True"], proc.stderr


# Median min_sq_dist over seeds 0..4 of optimize_unitary(PackingConfig(K, N,
# seed=s)) at the default restarts and iterations; a packer change must meet
# or beat each cell (relative slack 1e-9, so landing on the same optimum
# passes).  K >= 3 and K = 2 up to N = 8 were recorded from eight random
# restarts per size; K = 2, N = 32 and 64 from the turned climbed Bloch
# lattice, whose N = 16 median, 0.19376361076191162, lies 1.8e-12 relative
# below the older cell, which stays, so that no cell is lowered.
PACKING_FLOOR = {
    (2, 4): 0.6622761697279205,
    (2, 8): 0.36681031932333086,
    (2, 16): 0.19376361076226234,
    (2, 32): 0.10116797696931057,
    (2, 64): 0.0489928067833163,
    (3, 4): 0.8884477319511144,
    (3, 8): 0.7462886428258347,
    (3, 16): 0.5753622945188896,
    (3, 32): 0.4194153964630567,
    (3, 64): 0.29498878742729684,
    (4, 4): 1.0,
    (4, 8): 0.8569460169890475,
    (4, 16): 0.7991258802480982,
    (4, 32): 0.619341624235795,
    (4, 64): 0.4902222319488453,
}


# packing_limit on each floor cell: Welch at K >= 3 and at K = 2, N = 4;
# Fejes Toth at K = 2 from N = 8 up.
PACKING_LIMIT = {
    (2, 4): 0.6666666666666666,
    (2, 8): 0.3949308436346983,
    (2, 16): 0.21217532691343366,
    (2, 32): 0.1097323487897397,
    (2, 64): 0.055774493097943356,
    (3, 4): 0.8888888888888888,
    (3, 8): 0.7619047619047619,
    (3, 16): 0.7111111111111111,
    (3, 32): 0.6881720430107527,
    (3, 64): 0.6772486772486772,
    (4, 4): 1.0,
    (4, 8): 0.8571428571428572,
    (4, 16): 0.8,
    (4, 32): 0.7741935483870968,
    (4, 64): 0.7619047619047619,
}


class TestPackingFloor:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_median_over_seeds_meets_the_floor(self, K):
        for N in sorted(N for k, N in PACKING_FLOOR if k == K):
            sets = [optimize_unitary(PackingConfig(K=K, cardinality=N, seed=s)) for s in range(5)]
            median = float(np.median([u.min_sq_dist for u in sets]))
            assert median >= PACKING_FLOOR[K, N] * (1.0 - 1e-9), (K, N)
            for u in sets:
                assert u.min_sq_dist <= packing_limit(K, N) + 1e-12, (K, N)

    def test_packing_limit_caps_every_floor_cell(self):
        assert PACKING_LIMIT.keys() == PACKING_FLOOR.keys()
        for cell, limit in PACKING_LIMIT.items():
            assert packing_limit(*cell) == pytest.approx(limit, rel=1e-15, abs=0), cell
            assert PACKING_FLOOR[cell] <= limit, cell


def restart_start(seed, restart, n, K):
    """The start that optimize_unitary draws for one restart."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, restart], np.uint64)))
    V = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


class TestBatchedRestarts:
    @pytest.mark.parametrize("K,N", [(1, 4), (2, 8), (3, 64)])
    def test_stacked_climb_equals_each_start_alone(self, K, N):
        starts = np.stack([restart_start(17, r, N, K) for r in range(3)])
        before = starts.copy()
        stacked = _climb(starts, 50)
        np.testing.assert_array_equal(starts, before)
        for r in range(3):
            alone = _climb(starts[r:r + 1], 50)
            assert stacked[r].tobytes() == alone[0].tobytes()

    def test_chunked_restarts_return_the_earliest_best_single_climb(self):
        # N = 128 climbs in stacks of 4, 4 and 1 restarts
        cfg = PackingConfig(K=3, cardinality=128, restarts=9, iterations=40)
        out = optimize_unitary(cfg)
        singles = [
            _climb(restart_start(cfg.seed, r, 128, 3)[None], 40)[0]
            for r in range(9)
        ]
        scores = [UnitarySet(V).min_sq_dist for V in singles]
        best = scores.index(max(scores))
        assert out.vectors.tobytes() == singles[best].tobytes()
        assert out.min_sq_dist == scores[best]

    @pytest.fixture()
    def chunks(self, monkeypatch):
        """Record (R, N) of every _climb call and return its input."""
        seen = []

        def recording(V, iterations):
            seen.append(V.shape[:2])
            return V

        monkeypatch.setattr(klconst.unitary, "_climb", recording)
        return seen

    @pytest.mark.parametrize(
        "N,sizes", [(2, [9]), (64, [9]), (128, [4, 4, 1]), (256, [1] * 9), (512, [1] * 9)]
    )
    def test_chunks_stay_within_the_entry_budget(self, chunks, N, sizes):
        optimize_unitary(PackingConfig(K=3, cardinality=N, restarts=9, iterations=1))
        assert [R for R, _ in chunks] == sizes
        for R, n in chunks:
            assert n == N
            assert R == 1 or R * n * n <= klconst.unitary._CHUNK_ENTRIES

    def test_equal_scores_keep_the_earliest_restart(self, monkeypatch):
        # restart r returns the identity with its columns rolled by r: an
        # orthonormal set (distance exactly 1) of its own, across chunks of
        # 4, 4 and 1
        offset = [0]

        def rolled(V, iterations):
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
        a = library_codebooks(2, range(2), seed=42)
        b = library_codebooks(2, range(2), seed=42)
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
        recomputed = UnitarySet(back.vectors).min_sq_dist
        assert back.min_sq_dist == pytest.approx(recomputed, abs=0)
        assert back.min_sq_dist == pytest.approx(UnitarySet(V).min_sq_dist, abs=1e-12)

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
