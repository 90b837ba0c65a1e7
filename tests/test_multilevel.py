"""Ratio bisection, level construction, and the bit-allocation scan."""

import math
from fractions import Fraction

import numpy as np
import pytest

import klconst.multilevel as multilevel
from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    UnitarySet,
    allocate_bits,
    build_level_set,
    canonical_direction,
    energy_only_levels,
    min_kl_bruteforce,
    pairwise_kl_matrix,
    solve_bisection,
)
from klconst.core import _chain_ratio, _kl_direction, _kl_energy

# independent 40-digit bisection of the sigma2=0.1, l_alpha=1, t_v=1 case
R0_REFERENCE = 7.0595276312347204
ALPHA0_REFERENCE = 0.4158952408476343


def grid_oracle_ratio(sigma2, l_alpha, t_v, step=1e-7):
    """Grid search for the equalizing ratio on the lattice r = 1 + j*step.

    Written against the plain formulas (naive geometric sum, no shared
    helpers) so it checks the solver rather than mirroring it.  The
    balance g - h decreases in r, so the integer-lattice sign change is
    located by doubling and bisection, then the argmin of |g - h| is taken
    literally over a window around the change; this returns the same point
    a full left-to-right scan would, in far fewer evaluations.
    """
    n = 2**l_alpha

    def diff(j):
        r = 1.0 + j * step
        gs = (r**n - 1.0) / (r - 1.0)
        a2 = max(n * (1.0 + sigma2) / gs - sigma2, 0.0)
        g = a2 * a2 * t_v / (sigma2 * (sigma2 + a2))
        h = 1.0 / r - math.log(1.0 / r) - 1.0
        return g - h

    lo_j, hi_j = 1, 2
    while diff(hi_j) > 0.0:
        lo_j = hi_j
        hi_j *= 2
    while hi_j - lo_j > 1:
        mid = (lo_j + hi_j) // 2
        if diff(mid) > 0.0:
            lo_j = mid
        else:
            hi_j = mid
    window = range(max(lo_j - 50, 1), hi_j + 51)
    best = min(window, key=lambda j: abs(diff(j)))
    return 1.0 + best * step


def two_direction_set(t_target):
    """A K=2 pair whose squared chordal distance is t_target (up to fp)."""
    return UnitarySet(
        [[1.0, 0.0], [math.sqrt(1.0 - t_target), math.sqrt(t_target)]]
    )


def design_objective(amplitudes, t_v, sigma2):
    e = [a * a for a in amplitudes.tolist()]
    # one direction has no intra pairs, and 0 * 0 * inf would be NaN
    best = math.inf
    if not math.isinf(t_v):
        best = _kl_direction(e[0], e[0] * e[0] * t_v, sigma2)
    for e_lo, e_hi in zip(e, e[1:]):
        best = min(best, _kl_energy(e_lo, e_hi, sigma2))
    return best


# ---------------------------------------------------------------------------
# bisection solver
# ---------------------------------------------------------------------------


class TestSolveBisection:
    def test_reference_case_matches_high_precision_solve(self):
        res = solve_bisection(0.1, 1, 1.0)
        assert res.r0 == pytest.approx(R0_REFERENCE, abs=1e-9)
        assert res.alpha0 == pytest.approx(ALPHA0_REFERENCE, abs=1e-9)

    def test_reference_case_matches_grid_oracle(self):
        res = solve_bisection(0.1, 1, 1.0)
        assert abs(res.r0 - grid_oracle_ratio(0.1, 1, 1.0)) < 1e-6

    def test_residuals_are_tight(self):
        res = solve_bisection(0.05, 2, 0.5)
        assert res.residual_equality < 1e-8
        assert res.residual_power < 1e-9
        assert res.r0 == 1.0 + res.d > 1.0
        assert res.iterations > 0

    def test_vanishing_direction_distance_degenerates(self):
        res = solve_bisection(0.1, 1, 1e-12)
        assert res.r0 < 1.0 + 1e-3
        assert res.alpha0 == pytest.approx(1.0, abs=1e-3)

    def test_random_cases_match_grid_oracle(self, rng):
        for _ in range(8):
            sigma2 = 10.0 ** rng.uniform(-3, 0)
            l_alpha = int(rng.integers(1, 4))
            t_v = rng.uniform(0.05, 1.0)
            res = solve_bisection(sigma2, l_alpha, t_v)
            assert abs(res.r0 - grid_oracle_ratio(sigma2, l_alpha, t_v)) < 1e-6

    @pytest.mark.parametrize(
        "args",
        [
            (0.1, 0, 1.0),
            (0.1, 1, 0.0),
            (0.1, 1, math.inf),
            (0.0, 1, 1.0),
        ],
    )
    def test_rejects_bad_inputs(self, args):
        with pytest.raises(ValueError):
            solve_bisection(*args)


def scalar_bisect(holds, lo, hi):
    """The one-bracket bisection loop that the array kernel replaced, kept
    as its reference."""
    for halvings in range(multilevel.MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= multilevel.REL_TOL * hi or not lo < mid < hi:
            return lo, hi, halvings
        if holds(mid):
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not settle in {multilevel.MAX_HALVINGS} halvings")


class TestBisectKernel:
    def test_matches_the_scalar_loop(self, rng):
        # monotone problems d < root over 600 orders of magnitude, brackets
        # from 0 or just below the root, overshoots up to 2^60, plus brackets
        # that are already narrow enough or hold no float inside at step 0
        n = 400
        root = 10.0 ** rng.uniform(-300.0, 300.0, n)
        hi = root * 2.0 ** rng.uniform(0.0, 60.0, n)
        lo = np.where(rng.random(n) < 0.5, 0.0, root * 2.0 ** -rng.uniform(0.0, 60.0, n))
        lo[:20] = hi[:20] * (1.0 - 1e-13)
        lo[20:40] = np.nextafter(hi[20:40], 0.0)
        root[:40] = 0.5 * (lo[:40] + hi[:40])

        got_lo, got_hi, got_halvings = multilevel._bisect(lambda d, r: d < r, lo, hi, root)
        want = [
            scalar_bisect(lambda d, r=r: d < r, a, b)
            for a, b, r in zip(lo.tolist(), hi.tolist(), root.tolist())
        ]
        want_lo, want_hi, want_halvings = (np.array(col) for col in zip(*want))
        assert got_lo.tobytes() == want_lo.tobytes()
        assert got_hi.tobytes() == want_hi.tobytes()
        assert got_halvings.tolist() == want_halvings.tolist()
        assert not got_halvings[:40].any()
        assert len(set(got_halvings.tolist())) > 20


class TestExcess:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_matches_exact_rational_sum(self, n):
        # both branches and the switch at n d = 1e-2, against exact arithmetic
        for nd in (1e-12, 1e-6, 1e-3, 0.999e-2, 1.001e-2, 0.3, 3.0, 2.0 * n):
            d = nd / n
            exact = ((1 + Fraction(d)) ** n - 1) / Fraction(d) - n
            got = multilevel._excess(d, n)
            assert got == pytest.approx(float(exact), rel=1e-13, abs=0), (n, nd)


# ---------------------------------------------------------------------------
# level construction
# ---------------------------------------------------------------------------


class TestBuildLevelSet:
    def test_power_restatement_two_levels(self):
        res = solve_bisection(0.2, 1, 0.8)
        amps = build_level_set(res, 0.2, 1)
        assert np.mean(amps**2) == pytest.approx(1.0, abs=1e-9)

    def test_consecutive_ratios_equalized(self):
        res = solve_bisection(0.05, 2, 0.5)
        shifted = 0.05 + build_level_set(res, 0.05, 2) ** 2
        ratios = shifted[1:] / shifted[:-1]
        np.testing.assert_allclose(ratios, res.r0, rtol=1e-9)

    def test_chain_that_goes_negative_raises(self):
        # a ratio below 1 steps alpha_1^2 = 0.25 - 2 (0.1 + 0.25) below 0
        res = multilevel.BisectionResult(
            d=-2.0, alpha0=0.5, iterations=0, residual_equality=0.0, residual_power=0.0
        )
        with pytest.raises(ArithmeticError):
            build_level_set(res, 0.1, 1)

    def test_requires_a_result_for_multi_level(self):
        with pytest.raises(TypeError):
            build_level_set(None, 0.1, 1)


class TestEnergyOnlyLevels:
    def test_two_level_unit_noise_closed_form(self):
        amps = energy_only_levels(1.0, 1)
        np.testing.assert_array_equal(amps, [0.0, math.sqrt(2.0)])
        # the ratio of the stored levels: sqrt(2)^2 rounds one ulp above 2
        assert abs(_chain_ratio(amps, 1.0) - 3.0) <= math.ulp(3.0)

    def test_base_level_is_exactly_zero(self):
        for l_alpha in (1, 2, 3):
            assert energy_only_levels(0.2, l_alpha)[0] == 0.0

    @pytest.mark.parametrize("l_alpha", [1, 2, 3, 4])
    def test_power_constraint(self, l_alpha):
        amps = energy_only_levels(1.0, l_alpha)
        assert np.mean(amps**2) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_matches_grid_oracle(self):
        # independent lattice scan on the power identity for 4 levels
        sigma2, n, step = 0.1, 4, 1e-7
        target = n * (sigma2 + 1.0) / sigma2

        def diff(j):
            r = 1.0 + j * step
            return sum(r**i for i in range(n)) - target

        lo_j, hi_j = 1, 2
        while diff(hi_j) < 0.0:
            lo_j = hi_j
            hi_j *= 2
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            if diff(mid) < 0.0:
                lo_j = mid
            else:
                hi_j = mid
        best = min(
            range(max(lo_j - 50, 1), hi_j + 51), key=lambda j: abs(diff(j))
        )
        ratio = _chain_ratio(energy_only_levels(sigma2, 2), sigma2)
        assert abs(ratio - (1.0 + best * step)) < 1e-6

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            energy_only_levels(1.0, 0)

    def test_levels_off_the_power_constraint_raise(self, monkeypatch):
        # the built levels pass the constellation's checks before they are
        # returned, so a chain off unit power raises here, not downstream
        monkeypatch.setattr(multilevel, "_amplitudes", lambda *args: np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="unit power"):
            energy_only_levels(1.0, 1)


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------


class TestAllocateBits:
    def test_high_snr_collapses_to_directions_only(self, library_k2_ls6):
        out = allocate_bits(6, 1e-4, library_k2_ls6)
        assert out.l_alpha == 0
        assert out.constellation.amplitudes.tolist() == [1.0]
        assert out.per_allocation_table[0].r0 is None

    def test_low_snr_spends_bits_on_levels(self, library_k2_ls6):
        out = allocate_bits(6, 0.5, library_k2_ls6)
        assert out.l_alpha >= 1

    def test_reported_objective_matches_bruteforce(self, library_k2_ls2):
        for sigma2 in (0.08, 0.5, 1.5):
            out = allocate_bits(2, sigma2, library_k2_ls2)
            brute, _ = min_kl_bruteforce(out.constellation, sigma2)
            assert out.min_kl == pytest.approx(brute, rel=1e-9)

    def test_winner_tops_the_table(self, library_k2_ls2):
        out = allocate_bits(2, 0.3, library_k2_ls2)
        assert len(out.per_allocation_table) == 3
        assert out.min_kl == out.per_allocation_table[out.l_alpha].min_kl
        for row in out.per_allocation_table:
            assert out.min_kl >= row.min_kl

    def test_table_rows_carry_the_split_details(self, library_k2_ls2):
        out = allocate_bits(2, 0.3, library_k2_ls2)
        row0 = out.per_allocation_table[0]
        assert row0.l_alpha == 0 and row0.r0 is None and row0.alpha0 == 1.0
        row2 = out.per_allocation_table[2]
        assert row2.l_alpha == 2 and row2.alpha0 == 0.0 and row2.r0 > 1.0

    def test_missing_library_entry_is_named(self, library_k2_ls2):
        partial = {k: v for k, v in library_k2_ls2.items() if k != 1}
        with pytest.raises(KeyError, match="l_v=1"):
            allocate_bits(2, 0.3, partial)

    def test_wrong_cardinality_entry_rejected(self, library_k2_ls2):
        broken = dict(library_k2_ls2)
        broken[1] = broken[2]
        with pytest.raises(ValueError, match="l_v=1"):
            allocate_bits(2, 0.3, broken)

    def test_objective_monotone_in_direction_distance(self):
        # a better-packed direction set never hurts the equalized objective
        sigma2, l_alpha = 0.25, 2
        values = []
        for t_v in (0.05, 0.2, 0.5, 0.8, 1.0):
            res = solve_bisection(sigma2, l_alpha, t_v)
            amps = build_level_set(res, sigma2, l_alpha)
            values.append(design_objective(amps, t_v, sigma2))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestEqualizationInvariant:
    @pytest.mark.parametrize("l_alpha", [1, 2, 3])
    def test_inter_distances_equal_base_intra(self, l_alpha):
        sigma2 = 0.15
        dirs = two_direction_set(0.4)
        res = solve_bisection(sigma2, l_alpha, dirs.min_sq_dist)
        e = build_level_set(res, sigma2, l_alpha) ** 2
        intra = _kl_direction(e[0], e[0] * e[0] * dirs.min_sq_dist, sigma2)
        inters = [_kl_energy(e[i], e[i + 1], sigma2) for i in range(e.size - 1)]
        np.testing.assert_allclose(inters, inters[0], atol=1e-8)
        assert intra == pytest.approx(inters[0], abs=1e-8)


class TestLocalOptimality:
    def test_power_preserving_perturbations_never_improve(self, rng):
        sigma2 = 0.2
        dirs = two_direction_set(0.6)
        res = solve_bisection(sigma2, 2, dirs.min_sq_dist)
        levels = build_level_set(res, sigma2, 2)
        c = MultiLevelConstellation(levels, sigma2, dirs)
        designed, _ = min_kl_bruteforce(c, sigma2)
        V = dirs.vectors
        for _ in range(20):
            amps = levels * (1.0 + rng.uniform(-1e-3, 1e-3, levels.size))
            amps = np.sort(amps) / math.sqrt(np.mean(amps**2))
            pts = np.repeat(amps, V.shape[0])[:, None] * np.tile(V, (levels.size, 1))
            kl = pairwise_kl_matrix(pts, sigma2)
            np.fill_diagonal(kl, np.inf)
            assert kl.min() <= designed + 1e-8


# ---------------------------------------------------------------------------
# regression grid
# ---------------------------------------------------------------------------


def random_library(K, l_s, rng):
    """Unpacked random direction sets of 2^l_v vectors for l_v = 0 .. l_s."""
    lib = {0: UnitarySet(canonical_direction(K)[None, :])}
    for l_v in range(1, l_s + 1):
        V = rng.standard_normal((2**l_v, K)) + 1j * rng.standard_normal((2**l_v, K))
        lib[l_v] = UnitarySet(V / np.linalg.norm(V, axis=1, keepdims=True))
    return lib


class TestRegressionGrid:
    """Designs across the SNR range at whose ends an absolute stopping rule
    on the ratio broke: it never returned at high SNR (r ~ 1e5, coarser
    than the tolerance), and at low SNR (r - 1 << 1) the energy-only levels
    missed the power constraint, as at -19.5 dB with K=2, l_s=6.  Below
    -50 dB levels built from r = 1 + d, which rounds d ~ 1e-6 away, missed
    it by 1e-9 to 3e-9 (K=2, l_s=8 from -52.5 dB; K=4, l_s 7-8 at -60 dB).
    Below -67.5 dB the base amplitude and the feasibility ceiling, formed
    from sum_i r^i against targets of order sigma2, cancelled to errors of
    order eps * sigma2 and missed it by up to 1e-6 (K=2, l_s=2 at -80 dB).
    From -150 dB down the energy term formed x - 1 from the noise-shifted
    energies, which sigma2 rounded away, and the ratio bracket lost its
    sign change (K=2, l_s=6)."""

    def test_designs_hold_power_and_objective(self, rng, monkeypatch):
        # every bisection's halvings, ceilings included, read off the kernel
        halvings = []
        real = multilevel._bisect

        def recording(*args):
            lo, hi, counts = real(*args)
            halvings.extend(counts.tolist())
            return lo, hi, counts

        monkeypatch.setattr(multilevel, "_bisect", recording)
        libs = {K: random_library(K, 8, rng) for K in (2, 4)}
        # 642 cases, one grid call per (K, l_s)
        snrs = [-120.0 + 5.0 * i for i in range(37)] + [-150.0, -200.0, -300.0]
        cases = [(K, l_s, snrs) for K in (2, 4) for l_s in range(1, 9)]
        cases += [(2, 6, [-19.5, -18.75])]
        for K, l_s, grid in cases:
            sigma2 = [ChannelParams.from_snr_db(1, K, snr_db).sigma2 for snr_db in grid]
            outcomes = allocate_bits(l_s, sigma2, libs[K])
            for snr_db, s2, out in zip(grid, sigma2, outcomes, strict=True):
                amps = out.constellation.amplitudes
                assert abs(np.mean(amps**2) - 1.0) <= 1e-9, (K, l_s, snr_db)
                brute, _ = min_kl_bruteforce(out.constellation, s2)
                assert out.min_kl == pytest.approx(brute, rel=1e-9), (K, l_s, snr_db)
        assert halvings and max(halvings) < multilevel.MAX_HALVINGS


class TestGridCalls:
    """allocate_bits over a grid of sigma2 gives each point its lone design."""

    @pytest.mark.parametrize("K", [2, 4])
    def test_grid_matches_point_by_point(self, rng, K):
        lib = random_library(K, 6, rng)
        grid = [
            ChannelParams.from_snr_db(1, K, snr_db).sigma2
            for snr_db in (-300.0, -19.5, 0.0, 200.0, 0.0)
        ]
        outcomes = allocate_bits(6, grid, lib)
        assert len(outcomes) == len(grid)
        def bits(out):
            # repr round-trips every float, so equal strings are equal bits
            rows = [(r.l_alpha, r.min_kl, r.r0, r.alpha0) for r in out.per_allocation_table]
            return out.l_alpha, repr(rows), out.constellation.amplitudes.tobytes()

        for sigma2, out in zip(grid, outcomes):
            assert bits(out) == bits(allocate_bits(6, sigma2, lib))
        assert outcomes[2].per_allocation_table == outcomes[4].per_allocation_table

    def test_failing_point_fails_the_grid(self, rng):
        # at 1600 dB the level-energy sum overflows
        lib = random_library(2, 6, rng)
        bad = ChannelParams.from_snr_db(1, 2, 1600.0).sigma2
        good = ChannelParams.from_snr_db(1, 2, 0.0).sigma2
        with pytest.raises(ArithmeticError) as alone:
            allocate_bits(6, bad, lib)
        with pytest.raises(ArithmeticError) as grid:
            allocate_bits(6, [good, bad, good], lib)
        assert type(grid.value) is type(alone.value)

    def test_empty_grid_rejected(self, library_k2_ls2):
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="sigma2 grid is empty"):
                allocate_bits(2, empty, library_k2_ls2)
