"""Domain types, KL closed forms, and the text serialization."""

import ast
import math
import re
import time
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klconst
from klconst import (
    ChannelParams,
    FileFormatError,
    MultiLevelConstellation,
    UnitarySet,
    canonical_direction,
    kl_full,
    load_constellation,
    load_unitary,
    min_kl_bruteforce,
    pairwise_kl_matrix,
    save_constellation,
    save_unitary,
)
from klconst.core import (
    _chain_ratio,
    _format_vectors,
    _kl_direction,
    _kl_energy,
    write_layout,
)

# frozen with 40-digit arithmetic: x - ln x - 1 at x = 1/2
D2_HALF = 0.19314718055994530942

# decimals whose '.17g' text is easy to get wrong: signed zeros, the
# smallest subnormal, exponents, and values that need all 17 digits
AWKWARD = [-0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1 - 2**-53, 1e16, 1e-5, 1.5e22, -2.5e-7]


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def kl_terms(a_k, v_k, a_i, v_i, sigma2):
    """D1 and D2 of D(a_i v_i -> a_k v_k) from the core's two term functions."""
    ak2, ai2 = a_k**2, a_i**2
    chordal = max(1.0 - abs(np.vdot(v_i, v_k)) ** 2, 0.0)
    return _kl_direction(ak2, ak2 * ai2 * chordal, sigma2), _kl_energy(ai2, ak2, sigma2)


# intra distance of a level and inter distance of two levels, from the terms
def intra(alpha, t_v, sigma2):
    a2 = alpha * alpha
    return _kl_direction(a2, a2 * a2 * t_v, sigma2)


def inter(alpha_1, alpha_2, sigma2):
    return _kl_energy(alpha_1 * alpha_1, alpha_2 * alpha_2, sigma2)


def random_point(rng, K, amp_low=0.0, amp_high=1.6):
    # the transmit block alpha v of a random point
    v = unit(rng.standard_normal(K) + 1j * rng.standard_normal(K))
    return rng.uniform(amp_low, amp_high) * v


def test_package_exports_every_public_attribute():
    public = {
        name
        for name, value in vars(klconst).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(klconst.__all__) == public | {"__version__"}
    assert len(klconst.__all__) == len(set(klconst.__all__))
    # every export is named by the __all__ of the library module defining it
    modules = (klconst.core, klconst.detection, klconst.linksim, klconst.multilevel,
               klconst.unitary)
    named = set().union(*(m.__all__ for m in modules))
    assert named == set(klconst.__all__) - {"__version__"}


def test_modules_import_only_lower_layers():
    # every module's imports of its siblings, lazy ones included: core is
    # the base, and the packer stands on core and its own K = 2 table
    layers = {
        "core": set(),
        "_bloch_climbed": set(),
        "detection": {"core"},
        "linksim": {"core", "detection"},
        "multilevel": {"core"},
        "unitary": {"core", "_bloch_climbed"},
        "cli": {"core", "linksim", "multilevel", "unitary"},
        "__init__": {"core", "detection", "linksim", "multilevel", "unitary"},
    }
    found = {}
    for path in Path(klconst.__file__).parent.glob("*.py"):
        siblings = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                siblings |= {node.module} if node.module else {a.name for a in node.names}
        found[path.stem] = siblings
    assert found == layers


def _count_cases():
    """(name, call) for each public entry taking a count, and each taking a
    seed: call(value) passes value as the argument named name, every other
    argument fixed and valid."""
    params = ChannelParams(M=2, K=2, sigma2=0.5)
    c = MultiLevelConstellation([1.0], 0.5, UnitarySet(np.eye(2, dtype=complex)))
    s = canonical_direction(2)
    res = klconst.solve_bisection(0.5, 2, 0.5)
    lib = klconst.library_codebooks(2, range(3))
    return {
        "estimate_ser": ("trials", lambda v: klconst.estimate_ser(c, params, v, 0)),
        "pilot_qam_run": ("trials", lambda v: klconst.pilot_qam_run(2, params, v, 0)),
        "pilot_qam_run-bits": ("total_bits", lambda v: klconst.pilot_qam_run(v, params, 10, 0)),
        "kl_mc_estimate": ("samples", lambda v: klconst.kl_mc_estimate(s, s, params, v, 0)),
        "estimate_ser-seed": ("seed", lambda v: klconst.estimate_ser(c, params, 10, v)),
        "kl_mc_estimate-seed": ("seed", lambda v: klconst.kl_mc_estimate(s, s, params, 10, v)),
        "allocate_bits": ("l_s", lambda v: klconst.allocate_bits(v, 0.5, lib)),
        "solve_bisection": ("l_alpha", lambda v: klconst.solve_bisection(0.5, v, 0.5)),
        "energy_only_levels": ("l_alpha", lambda v: klconst.energy_only_levels(0.5, v)),
        "build_level_set": ("l_alpha", lambda v: klconst.build_level_set(res, 0.5, v)),
        "canonical_direction": ("K", canonical_direction),
        "SerEstimate": ("errors", lambda v: klconst.SerEstimate(10, v, 1)),
        "wilson_interval": ("errors", lambda v: klconst.wilson_interval(v, 10)),
        "packing_limit": ("K", lambda v: klconst.packing_limit(v, 4)),
    }


@pytest.mark.parametrize("entry", list(_count_cases()))
def test_counts_are_integers(entry):
    # a fractional or non-finite count is a ValueError naming it; an
    # integral float is the integer it equals
    name, call = _count_cases()[entry]
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{name} must be a"):
            call(bad)
    assert repr(call(np.float64(2))) == repr(call(2))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_library_seed_is_checked(seed):
    # the seed is checked before the per-size seeds are derived from it,
    # which would wrap an out-of-range one mod 2^64
    with pytest.raises(ValueError, match="seed must be"):
        klconst.library_codebooks(2, [0, 1], seed=seed)


@pytest.mark.parametrize(
    "l_vs,message",
    [([40], "must be <= 10, got 40"), ([11], "must be <= 10, got 11"),
     ([-1], "must be an integer >= 0, got -1"), ([1.5], "must be an integer >= 0, got 1.5")],
)
def test_library_sizes_are_checked(l_vs, message):
    # every size is checked before any packing starts: 2^40 directions
    # would otherwise start a packing that dies in a MemoryError
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"^{re.escape('l_vs entry ' + message)}$"):
        klconst.library_codebooks(2, [0, *l_vs])
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize(
    "block", [[1.0, 0.0, 0.0], [math.nan, 0.0], [1.0, complex(0.0, math.inf)]],
    ids=["wrong-length", "nan", "inf"],
)
@pytest.mark.parametrize("entry", ["kl_full", "kl_mc_estimate", "simulate_block"])
def test_blocks_are_checked(entry, block):
    # each entry taking a point takes its transmit block, and a block of
    # the wrong length or with a non-finite entry is a ValueError naming it
    params = ChannelParams(M=2, K=2, sigma2=0.5)
    s = canonical_direction(2)
    name, call = {
        "kl_full": ("x_k", lambda x: kl_full(s, x, 0.5)),
        "kl_mc_estimate": ("x_i", lambda x: klconst.kl_mc_estimate(x, s, params, 10, 0)),
        "simulate_block": ("x", lambda x: klconst.simulate_block(
            x, params, np.random.default_rng(0))),
    }[entry]
    call(s)
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(block)


@pytest.fixture()
def small_constellation():
    dirs = UnitarySet(np.eye(2, dtype=complex))
    return MultiLevelConstellation([math.sqrt(0.5), math.sqrt(1.5)], 0.5, dirs)


# ---------------------------------------------------------------------------
# parameters and containers
# ---------------------------------------------------------------------------


class TestChannelParams:
    def test_snr_is_derived_exactly(self):
        p = ChannelParams(M=16, K=2, sigma2=0.25)
        assert p.snr == 1.0 / (2 * 0.25)

    def test_from_snr_db_round_trips(self):
        p = ChannelParams.from_snr_db(M=4, K=3, snr_db=7.5)
        assert p.snr_db == pytest.approx(7.5, abs=1e-12)
        assert p.M == 4 and p.K == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0, K=2, sigma2=1.0),
            dict(M=2, K=0, sigma2=1.0),
            dict(M=2, K=2, sigma2=0.0),
            dict(M=2, K=2, sigma2=-1.0),
            dict(M=2, K=2, sigma2=float("nan")),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestUnitarySet:
    def test_cardinality_must_be_a_power_of_two(self):
        vecs = np.array([unit([1, 0]), unit([0, 1]), unit([1, 1])])
        with pytest.raises(ValueError):
            UnitarySet(vecs)

    def test_min_sq_dist_orthonormal_pair(self):
        assert UnitarySet(np.eye(2, dtype=complex)).min_sq_dist == 1.0

    def test_min_sq_dist_singleton_is_infinite(self):
        assert UnitarySet([canonical_direction(4)]).min_sq_dist == math.inf

    def test_duplicated_vector_gives_zero(self):
        v = np.array([0.6, 0.8j])  # exactly unit norm in floats
        assert UnitarySet([v, v]).min_sq_dist == 0.0

    def test_rejects_non_unit_rows(self):
        # the norm prints as a plain float
        with pytest.raises(ValueError, match=r"^vector 1 has norm 0\.5, deviating"):
            UnitarySet([[1.0, 0.0], [0.0, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        # checked before any norm is taken, so no numpy warning comes first
        msg = "^vectors must have finite entries, got one in vector 1$"
        with pytest.raises(ValueError, match=msg):
            UnitarySet([[1.0, 0.0], [bad, 0.0]])

    def test_bits(self):
        assert UnitarySet(np.eye(4, dtype=complex)).bits == 2


class TestLevelSet:
    """The amplitude checks of MultiLevelConstellation, over one direction."""

    ONE = UnitarySet([canonical_direction(2)])

    def test_power_constraint_enforced(self):
        with pytest.raises(ValueError):
            MultiLevelConstellation([1.0, 2.0], 0.1, self.ONE)
        with pytest.raises(ValueError, match="unit power"):
            MultiLevelConstellation([math.nan], 0.5, self.ONE)

    def test_strictly_increasing_enforced(self):
        a = math.sqrt(1.0)
        with pytest.raises(ValueError):
            MultiLevelConstellation([a, a], 0.1, self.ONE)

    def test_geometric_chain_enforced(self):
        # unit power and increasing, but the shifted energies 0.2, 0.6, 1.3,
        # 2.3 step by 3, 2.17 and 1.77; any two levels form a chain
        with pytest.raises(ValueError, match="geometric chain"):
            MultiLevelConstellation(np.sqrt([0.1, 0.5, 1.2, 2.2]), 0.1, self.ONE)

    def test_valid_chain_accepted(self):
        s2 = 0.25
        r = 2.0
        a0sq = 4 * (1 + s2) / (1 + r + r**2 + r**3) - s2
        amps = np.sqrt([(s2 + a0sq) * r**i - s2 for i in range(4)])
        c = MultiLevelConstellation(amps, s2, self.ONE)
        assert c.amplitudes.size == 4 and c.bits == 2
        assert _chain_ratio(c.amplitudes, c.sigma2_design) == pytest.approx(r, rel=1e-12)
        assert MultiLevelConstellation([1.0], s2, self.ONE).amplitudes.size == 1


class TestMultiLevelConstellation:
    def test_index_map_is_a_bijection(self, small_constellation):
        c = small_constellation
        V = c.point_vectors()
        seen = set()
        for idx in range(c.size):
            n, j = divmod(idx, c.directions.size)
            alpha, v = c.amplitudes[n], c.directions.vectors[j]
            np.testing.assert_array_equal(V[idx], alpha * v)
            seen.add(V[idx].tobytes())
        assert len(seen) == c.size == 4

    def test_point_vectors_matches_point(self, small_constellation):
        # row n * N_dirs + j is exactly amplitude n times direction j
        c = small_constellation
        V = c.point_vectors()
        for n, alpha in enumerate(c.amplitudes):
            for j, v in enumerate(c.directions.vectors):
                np.testing.assert_array_equal(V[n * c.directions.size + j], alpha * v)

    def test_mean_energy_is_one(self, small_constellation):
        V = small_constellation.point_vectors()
        energy = np.mean(np.sum(np.abs(V) ** 2, axis=1))
        assert energy == pytest.approx(1.0, abs=1e-9)

    def test_zero_level_needs_a_single_direction(self):
        levels = [0.0, math.sqrt(2.0)]
        with pytest.raises(ValueError):
            MultiLevelConstellation(levels, 1.0, UnitarySet(np.eye(2, dtype=complex)))
        # with one direction the on-off constellation is fine
        c = MultiLevelConstellation(levels, 1.0, UnitarySet([canonical_direction(2)]))
        assert c.size == 2


# ---------------------------------------------------------------------------
# KL distances
# ---------------------------------------------------------------------------


class TestKlFull:
    def test_identical_points_give_zero(self, rng):
        s = random_point(rng, 3, amp_low=0.5)
        assert kl_full(s, s, 0.7) == 0.0

    def test_same_direction_energy_pair(self):
        # ||s_i||^2 = 1 against ||s_k||^2 = 3 at sigma2 = 1: pure energy term
        v = canonical_direction(2)
        d = kl_full(1.0 * v, math.sqrt(3.0) * v, 1.0)
        assert d == pytest.approx(D2_HALF, abs=1e-15)

    def test_orthogonal_unit_energy_pair(self):
        e0, e1 = np.eye(2, dtype=complex)
        d = kl_full(e0, e1, 1.0)
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_full(canonical_direction(2), canonical_direction(3), 1.0)

    def test_nonnegative_on_bulk_random_pairs(self, rng):
        # 10^4 pairs via the vectorized pairwise matrix
        K = 3
        pts = np.array([random_point(rng, K) for _ in range(101)])
        mat = pairwise_kl_matrix(pts, 0.2)
        assert mat.shape == (101, 101)
        assert np.all(mat >= 0.0)
        assert np.all(np.isfinite(mat))

    def test_pairwise_matrix_matches_scalar_evaluation(self, rng):
        pts = [random_point(rng, 2) for _ in range(5)]
        mat = pairwise_kl_matrix(np.array(pts), 0.4)
        for i in range(5):
            for k in range(5):
                if i == k:
                    continue
                assert mat[i, k] == pytest.approx(
                    kl_full(pts[i], pts[k], 0.4), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_pairwise_matrix_rejects_non_finite_points(self, bad):
        # as kl_full rejects a non-finite block, instead of NaN entries
        with pytest.raises(ValueError, match="^points must have finite entries$"):
            pairwise_kl_matrix([[bad], [1.0]], 1.0)

    def test_energy_term_far_below_x_equal_one(self):
        # E_i = 0 against E_k = 2 at sigma2 = 5e-17 (about 160 dB): x - 1
        # rounds to -1 in doubles, which log1p cannot take.  At sigma2 =
        # 5e19 (about -200 dB) sigma2 + E rounds the energies away, so x - 1
        # formed from the shifted energies read 0, and t - log1p(t) cancels
        # to nothing at |t| = 4e-20.  The [1, 1] block has energy 2 exactly.
        for sigma2 in (5e-17, 5e19):
            with mpmath.workdps(80):
                x = mpmath.mpf(sigma2) / (mpmath.mpf(sigma2) + 2)
                exact = float(x - 1 - mpmath.log(x))
            assert exact > 0.0
            d2 = _kl_energy(0.0, 2.0, sigma2)
            assert d2 == pytest.approx(exact, rel=1e-14, abs=0.0), sigma2
            mat = pairwise_kl_matrix([[0.0, 0.0], [1.0, 1.0]], sigma2)
            assert np.all(np.isfinite(mat))
            assert mat[0, 1] == pytest.approx(d2, rel=1e-15, abs=0.0), sigma2
            d2_back = _kl_energy(2.0, 0.0, sigma2)
            assert mat[1, 0] == pytest.approx(d2_back, rel=1e-15, abs=0.0), sigma2

    def test_energy_term_near_x_equal_one(self):
        # K = 1 points s and 1 at sigma2 = 1, so t = x - 1 = (s^2 - 1)/2.  s
        # has 26 significant bits, so s^2 and |s * 1|^2 are exact and D1 is
        # exactly 0; D2 over 1e-7 <= |t| <= 0.5, both signs, against mpmath
        # on the same s, within 5e-15 relative in both evaluations
        worst = 0.0
        for mag in np.geomspace(1e-7, 0.5, 241):
            for t in (mag, -mag):
                s = round(math.sqrt(1.0 + 2.0 * t) * 2**25) / 2**25
                with mpmath.workdps(60):
                    x = (1 + mpmath.mpf(s) ** 2) / 2
                    exact = float(x - 1 - mpmath.log(x))
                got = kl_full([s], [1.0], 1.0)
                mat = pairwise_kl_matrix([[s], [1.0]], 1.0)
                for value in (got, mat[0, 1]):
                    worst = max(worst, abs(value - exact) / exact)
        assert worst <= 5e-15, worst


class TestKlDecomposed:
    def test_same_direction_kills_d1(self, rng):
        v = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d1, d2 = kl_terms(0.8, v, 1.2, v, 0.3)
        assert d1 == 0.0
        assert d2 > 0.0

    def test_equal_amplitudes_kill_d2(self, rng):
        v1 = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v2 = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d1, d2 = kl_terms(0.9, v1, 0.9, v2, 0.3)
        assert d2 == 0.0
        assert d1 > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_parts_sum_to_kl_full(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        v_k = unit(rng.standard_normal(K) + 1j * rng.standard_normal(K))
        v_i = unit(rng.standard_normal(K) + 1j * rng.standard_normal(K))
        a_k, a_i = rng.uniform(0.05, 2.0, size=2)
        sigma2 = rng.uniform(0.01, 2.0)
        d1, d2 = kl_terms(a_k, v_k, a_i, v_i, sigma2)
        whole = kl_full(a_i * v_i, a_k * v_k, sigma2)
        assert d1 >= 0.0 and d2 >= 0.0
        assert d1 + d2 == pytest.approx(whole, abs=1e-10)


class TestLevelDistances:
    def test_intra_examples(self):
        assert intra(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert intra(math.sqrt(2.0), 1.0, 1.0) == pytest.approx(
            4.0 / 3.0, abs=1e-15
        )

    def test_intra_single_direction_is_infinite(self):
        assert intra(0.7, math.inf, 0.1) == math.inf

    def test_inter_examples(self):
        assert inter(1.0, 1.0, 0.37) == 0.0
        assert inter(1.0, math.sqrt(3.0), 1.0) == pytest.approx(
            D2_HALF, abs=1e-15
        )

    def test_inter_asymmetry_low_to_high_is_smaller(self, rng):
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(0.05, 2.0, size=2))
            if lo == hi:
                continue
            s2 = rng.uniform(0.01, 1.0)
            assert inter(lo, hi, s2) < inter(hi, lo, s2)

    def test_monotone_pieces_on_grids(self):
        # g grows with amplitude, h grows with ratio, and the asymmetry
        # inequality 1/x - ln(1/x) - 1 < x - ln x - 1 holds past x = 1
        alphas = np.linspace(0.01, 10.0, 400)
        g = [intra(a, 1.0, 0.3) for a in alphas]
        assert np.all(np.diff(g) > 0)
        x = np.linspace(1.0001, 10.0, 400)
        fwd = 1.0 / x - np.log(1.0 / x) - 1.0
        bwd = x - np.log(x) - 1.0
        assert np.all(np.diff(fwd) > 0)
        assert np.all(fwd < bwd)


class TestMinKlBruteforce:
    def test_orthogonal_one_level_pair(self):
        c = MultiLevelConstellation([1.0], 1.0, UnitarySet(np.eye(2, dtype=complex)))
        value, pair = min_kl_bruteforce(c, 1.0)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert pair == (0, 1)

    def test_duplicated_point_gives_zero(self):
        v = canonical_direction(2)
        c = MultiLevelConstellation([1.0], 1.0, UnitarySet([v, v]))
        value, pair = min_kl_bruteforce(c, 1.0)
        assert value == 0.0
        assert pair == (0, 1)

    def test_single_point_rejected(self):
        c = MultiLevelConstellation([1.0], 1.0, UnitarySet([canonical_direction(2)]))
        with pytest.raises(ValueError):
            min_kl_bruteforce(c, 1.0)

    def test_argmin_location_is_intra_base_or_consecutive_inter(
        self, library_k2_ls2
    ):
        # construction argument: the min sits inside the lowest level or
        # between neighbors, never across two or more level gaps
        from klconst import allocate_bits

        for sigma2 in (0.05, 0.3, 1.0):
            out = allocate_bits(2, sigma2, library_k2_ls2)
            c = out.constellation
            _, (i, k) = min_kl_bruteforce(c, sigma2)
            n_i, n_k = i // c.directions.size, k // c.directions.size
            assert (n_i == n_k == 0) or abs(n_i - n_k) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_round_trip_is_bit_near(self, tmp_path, rng):
        s2, r = 0.31, 2.0
        a0_sq = 2 * (1 + s2) / (1 + r) - s2
        raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        dirs = UnitarySet(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        c = MultiLevelConstellation(np.sqrt([a0_sq, (s2 + a0_sq) * r - s2]), s2, dirs)
        path = tmp_path / "c.txt"
        save_constellation(c, path)
        back = load_constellation(path)
        assert back.K == 3
        np.testing.assert_allclose(
            back.amplitudes, c.amplitudes, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            back.directions.vectors, c.directions.vectors, rtol=0, atol=1e-15
        )
        assert back.sigma2_design == pytest.approx(0.31, abs=1e-15)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# a constellation\n"
            "2 1 2 1.0\n"
            "\n"
            "1\n"
            "# identity directions\n"
            "1 0 0 0\n"
            "0 0 1 0\n"
        )
        c = load_constellation(path)
        assert c.size == 2

    def test_bad_header_names_the_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 1 oops 1.0\n1\n1 0 0 0\n")
        with pytest.raises(FileFormatError, match=r"c\.txt:1"):
            load_constellation(path)

    def test_off_norm_vector_names_its_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 1 2 1.0\n1\n1 0 0 0\n0.5 0 0 0\n")
        with pytest.raises(FileFormatError, match=r"c\.txt:4"):
            load_constellation(path)

    def test_wrong_component_count_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 1 1 1.0\n1\n1 0 0\n")
        with pytest.raises(FileFormatError, match=r"c\.txt:3"):
            load_constellation(path)

    def test_missing_lines_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 2 2 1.0\n1\n")
        with pytest.raises(FileFormatError):
            load_constellation(path)

    @pytest.mark.parametrize(
        "load, text, line",
        [
            (load_unitary, "2 2\n1 0 0 0\nnan 0 1 0\n", ":3"),
            (load_constellation, "2 1 2 1.0\n1\n1 0 0 0\n0 0 nan 0\n", ":4"),
            (load_constellation, "2 1 2 1.0\nnan\n1 0 0 0\n0 0 1 0\n", ": mean squared"),
        ],
        ids=["codebook-vector", "constellation-vector", "constellation-amplitude"],
    )
    def test_nan_decimal_rejected(self, tmp_path, load, text, line):
        # a NaN norm or power deviates by NaN, which no tolerance check passes
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=re.escape(f"c.txt{line}")):
            load(path)


class TestLayoutBytes:
    """The writer prints exactly what per-element f"{x:.17g}" printed."""

    # unit vectors carrying the awkward decimals; the last has norm 1 - 2^-53
    VECTORS = np.array([
        [complex(-0.0, 1.0), complex(-0.0, -0.0)],
        [complex(0.1, 5e-324), complex(math.sqrt(0.99), 1e-300)],
        [complex(0.0, 1 / 3), complex(-2.5e-7, math.sqrt(8 / 9 - 6.25e-14))],
        [complex(1 - 2**-53, -0.0), complex(1e-300, 0.0)],
    ])

    def test_vector_lines_of_any_array(self, per_element_layout):
        # interleaved re/im, viewed as complex so every signed zero stays
        V = np.array(AWKWARD + [-x for x in AWKWARD]).view(complex)[:, None]
        V = np.hstack([V, V[::-1]])
        expected = per_element_layout("h", [], V).split("\n", 1)[1]
        assert _format_vectors(V) + "\n" == expected
        assert _format_vectors(np.asfortranarray(V)) + "\n" == expected

    def test_amplitude_lines(self, tmp_path, per_element_layout):
        uset = UnitarySet(self.VECTORS)
        path = tmp_path / "layout.txt"
        write_layout(path, "2 4", AWKWARD, uset)
        expected = per_element_layout("2 4", np.array(AWKWARD), self.VECTORS)
        assert path.read_text() == expected

    def test_save_unitary(self, tmp_path, per_element_layout):
        path = tmp_path / "u.txt"
        save_unitary(UnitarySet(self.VECTORS), path)
        assert path.read_text() == per_element_layout("2 4", [], self.VECTORS)
        assert "-0 1 -0 -0\n" in path.read_text()

    @pytest.mark.parametrize("a0,size", [(-0.0, 1), (1e-5, 4), (1 / 3, 4)])
    def test_save_constellation(self, tmp_path, per_element_layout, a0, size):
        sigma2 = 0.1
        c = MultiLevelConstellation(
            [a0, math.sqrt(2 - a0 * a0)], sigma2, UnitarySet(self.VECTORS[:size])
        )
        path = tmp_path / "c.txt"
        save_constellation(c, path)
        header = f"2 2 {size} 0.10000000000000001"
        assert path.read_text() == per_element_layout(
            header, c.amplitudes, self.VECTORS[:size]
        )

    def test_load_save_reproduces_the_file(self, tmp_path):
        # norms are exactly 1, so the loader's renormalization moves no bit
        vectors = (
            "0 1 0 0\n"
            "0.10000000000000001 4.9406564584124654e-324 0.99498743710661997 1e-300\n"
            "0 0.33333333333333331 0 0.94280904158206336\n"
            "1.0000000000000001e-05 0 0 -0.99999999995\n"
        )
        book = "2 4\n" + vectors
        constellation = (
            "2 2 4 0.33333333333333331\n1.0000000000000001e-05\n1.4142135623377396\n"
            + vectors
        )
        for text, load, save in [
            (book, load_unitary, save_unitary),
            (constellation, load_constellation, save_constellation),
        ]:
            src, out = tmp_path / "src.txt", tmp_path / "out.txt"
            src.write_text(text)
            save(load(src), out)
            assert out.read_bytes() == src.read_bytes()

    def test_negative_zeros_survive_load_save(self, tmp_path):
        # -0 in real and imaginary parts, norms exactly 1
        vectors = "-0 1 -0 -0\n1 -0 0 0\n0 -0 -0 1\n-0 -0 1 -0\n"
        for text, load, save in [
            ("2 4\n" + vectors, load_unitary, save_unitary),
            ("2 1 4 0.5\n1\n" + vectors, load_constellation, save_constellation),
        ]:
            src, out = tmp_path / "src.txt", tmp_path / "out.txt"
            src.write_text(text)
            save(load(src), out)
            assert out.read_bytes() == src.read_bytes()
