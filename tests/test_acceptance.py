"""Release gate for the whole package.

Nine end-to-end checks, ordered from detector internals out to full link
simulations.  Each test prints exactly one summary line with the measured
numbers (PASS/FAIL plus the values behind the verdict) so a run of this
module doubles as a report; assertions carry the same conditions.
"""

import math
import time

import numpy as np
import pytest

from klconst import (
    ChannelParams,
    MultiLevelConstellation,
    PackingConfig,
    PilotQamScheme,
    UnitarySet,
    allocate_bits,
    build_level_set,
    detect_joint,
    detect_two_stage,
    energy_only_levels,
    estimate_ser,
    kl_full,
    kl_mc_estimate,
    min_kl_bruteforce,
    optimize_unitary,
    packing_limit,
    pairwise_kl_matrix,
    pilot_qam_run,
    solve_bisection,
)
from klconst.core import _chain_ratio, _kl_energy
from test_multilevel import design_objective, grid_oracle_ratio, two_direction_set


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {num} {label}: {detail}")


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(
        2.0
    )


def random_design(K, l_s, sigma2, rng):
    """A valid constellation with randomized directions and bit split."""
    if K == 1:
        # directions carry nothing over one dimension; all bits go to levels
        return MultiLevelConstellation(
            energy_only_levels(sigma2, l_s), sigma2, UnitarySet(np.ones((1, 1)))
        )
    l_alpha = int(rng.integers(0, min(2, l_s) + 1))
    l_v = l_s - l_alpha
    if l_v == 0:
        directions = UnitarySet(np.eye(1, K))
        levels = energy_only_levels(sigma2, l_alpha)
        return MultiLevelConstellation(levels, sigma2, directions)
    V = crandn(rng, (2**l_v, K))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    directions = UnitarySet(V)
    if l_alpha == 0:
        levels = [1.0]
    else:
        res = solve_bisection(sigma2, l_alpha, directions.min_sq_dist)
        levels = build_level_set(res, sigma2, l_alpha)
    return MultiLevelConstellation(levels, sigma2, directions)


@pytest.fixture(scope="module")
def design_sweep():
    """50 random (sigma2, l_alpha, t_v) cases with their solved ratios."""
    rng = np.random.default_rng(20260801)
    cases = []
    for _ in range(50):
        sigma2 = float(rng.uniform(1e-3, 1.0))
        l_alpha = int(rng.integers(1, 4))
        t_v = float(rng.uniform(0.05, 1.0))
        cases.append((sigma2, l_alpha, t_v, solve_bisection(sigma2, l_alpha, t_v)))
    return cases


def test_01_detector_equivalence(capsys):
    t0 = time.perf_counter()
    M = 4
    rng = np.random.default_rng(11)
    total = agree = 0
    for K in (1, 2, 3, 4):
        for l_s in (2, 4, 6):
            for snr_db in (0.0, 10.0, 20.0):
                params = ChannelParams.from_snr_db(M, K, snr_db)
                for _ in range(4):
                    c = random_design(K, l_s, params.sigma2, rng)
                    batch = 70
                    sent = rng.integers(0, c.size, size=batch)
                    s = c.point_vectors()[sent]
                    Y = crandn(rng, (batch, M))[:, :, None] * s[:, None, :]
                    Y += math.sqrt(params.sigma2) * crandn(rng, (batch, M, K))
                    a = detect_joint(Y, c, params.sigma2)
                    b = detect_two_stage(Y, c, params.sigma2)
                    total += batch
                    agree += int(np.sum(a == b))
    dt = time.perf_counter() - t0
    ok = agree == total and total >= 10_000 and dt < 60.0
    announce(
        capsys, 1, "two-stage vs joint detector", ok,
        f"{agree}/{total} identical decisions in {dt:.1f}s",
    )
    assert ok


def test_02_bisection_against_grid_oracle(design_sweep, capsys):
    worst_r = worst_pow = worst_eq = 0.0
    for sigma2, l_alpha, t_v, res in design_sweep:
        worst_r = max(worst_r, abs(res.r0 - grid_oracle_ratio(sigma2, l_alpha, t_v)))
        worst_pow = max(worst_pow, res.residual_power)
        worst_eq = max(worst_eq, res.residual_equality)
    ok = worst_r <= 1e-6 and worst_pow < 1e-9 and worst_eq < 1e-8
    announce(
        capsys, 2, "ratio bisection vs 1e-7 grid search", ok,
        f"50 cases, worst |dr| {worst_r:.2e}, power residual {worst_pow:.2e}, "
        f"equality residual {worst_eq:.2e}",
    )
    assert ok


def test_03_bruteforce_matches_equalized_value(design_sweep, capsys):
    worst = 0.0
    for sigma2, l_alpha, t_v, res in design_sweep:
        levels = build_level_set(res, sigma2, l_alpha)
        directions = two_direction_set(t_v)
        c = MultiLevelConstellation(levels, sigma2, directions)
        brute, _ = min_kl_bruteforce(c, sigma2)
        equalized = _kl_energy(levels[0] ** 2, levels[1] ** 2, sigma2)
        structural = design_objective(levels, directions.min_sq_dist, sigma2)
        worst = max(
            worst,
            abs(brute - equalized) / equalized,
            abs(brute - structural) / structural,
        )
    ok = worst <= 1e-9
    announce(
        capsys, 3, "exhaustive min KL vs analytic value", ok,
        f"50 constellations, worst relative gap {worst:.2e}",
    )
    assert ok


def test_04_amplitudes_locally_optimal(design_sweep, capsys):
    rng = np.random.default_rng(404)
    worst_gain = -math.inf
    for sigma2, l_alpha, t_v, res in design_sweep:
        levels = build_level_set(res, sigma2, l_alpha)
        V = two_direction_set(t_v).vectors
        n = levels.size
        base_sq = levels**2
        scale = min(1e-3, float(base_sq.min()) / 4.0)

        def spread_min(amps):
            pts = np.repeat(amps, 2)[:, None] * np.tile(V, (n, 1))
            kl = pairwise_kl_matrix(pts, sigma2)
            np.fill_diagonal(kl, np.inf)
            return float(kl.min())

        base = spread_min(levels)
        for _ in range(100):
            while True:
                d = rng.normal(0.0, scale, size=n)
                d -= d.mean()  # keeps sum(alpha^2), hence the power, fixed
                trial_sq = base_sq + d
                if np.all(trial_sq > 0.0):
                    break
            worst_gain = max(worst_gain, spread_min(np.sqrt(trial_sq)) - base)
    ok = worst_gain <= 1e-8
    announce(
        capsys, 4, "power-preserving perturbations", ok,
        f"50 designs x 100 perturbations, best gain {worst_gain:+.2e}",
    )
    assert ok


def test_05_closed_form_kl_vs_monte_carlo(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    hits = 0
    worst_z = 0.0
    for p in range(20):
        sigma2 = float(rng.uniform(0.05, 1.0))
        params = ChannelParams(4, 2, sigma2)
        pts = []
        for _ in range(2):
            v = crandn(rng, 2)
            v /= np.linalg.norm(v)
            pts.append(float(rng.uniform(0.2, 1.4)) * v)
        closed = kl_full(pts[0], pts[1], sigma2)
        est = kl_mc_estimate(pts[0], pts[1], params, 1_000_000, seed=900 + p)
        z = (est.estimate - closed) / est.std_error
        worst_z = max(worst_z, abs(z))
        hits += int(abs(est.estimate - closed) <= 3.0 * est.std_error)
    dt = time.perf_counter() - t0
    ok = hits >= 19 and dt < 300.0
    announce(
        capsys, 5, "KL closed form vs Monte Carlo", ok,
        f"{hits}/20 pairs within 3 standard errors (worst |z| {worst_z:.2f}) "
        f"in {dt:.1f}s",
    )
    assert ok


def test_06_packing_quality_and_welch_bound(capsys):
    t2 = optimize_unitary(PackingConfig(K=2, cardinality=2, seed=0)).min_sq_dist
    t4 = optimize_unitary(PackingConfig(K=2, cardinality=4, seed=0)).min_sq_dist
    quality = t2 >= 0.999 and t4 >= 0.95 * (2.0 / 3.0)
    worst_excess = -math.inf
    for K in (1, 2, 3, 4):
        for N in (2, 4, 8, 16, 32, 64):
            cfg = PackingConfig(K=K, cardinality=N, restarts=2, iterations=250, seed=0)
            t = optimize_unitary(cfg).min_sq_dist
            worst_excess = max(worst_excess, t - packing_limit(K, N))
    ok = quality and worst_excess <= 1e-12
    announce(
        capsys, 6, "packing quality and packing bound", ok,
        f"t(2,2) {t2:.6f}, t(2,4) {t4:.6f} (floor {0.95 * 2 / 3:.4f}); "
        f"worst excess over the bound {worst_excess:+.1e} for K<=4, N in 2..64",
    )
    assert ok


def test_07_allocation_decreases_with_snr(library_k2_ls6, capsys):
    grid = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    allocs = []
    for snr_db in grid:
        params = ChannelParams.from_snr_db(4, 2, snr_db)
        allocs.append(allocate_bits(6, params.sigma2, library_k2_ls6).l_alpha)
    ok = allocs[0] >= 1 and allocs[-1] == 0 and allocs[0] >= allocs[-1]
    announce(
        capsys, 7, "level bits vs SNR", ok,
        f"l_alpha over 0..30 dB = {allocs}",
    )
    assert ok


def test_08_multilevel_beats_baselines(library_k2_ls6, capsys):
    t0 = time.perf_counter()
    trials = 200_000
    params = ChannelParams.from_snr_db(256, 2, -2.0)
    outcome = allocate_bits(6, params.sigma2, library_k2_ls6)
    multi = estimate_ser(outcome.constellation, params, trials, seed=808)
    one_level = MultiLevelConstellation([1.0], params.sigma2, library_k2_ls6[6])
    unitary = estimate_ser(one_level, params, trials, seed=808)
    pilot = pilot_qam_run(PilotQamScheme(2, 6), params, trials, seed=808)
    dt = time.perf_counter() - t0
    separated = (
        multi.ci95_high < unitary.ci95_low and multi.ci95_high < pilot.ci95_low
    )
    ok = outcome.l_alpha >= 1 and separated and dt < 600.0
    announce(
        capsys, 8, "SER at -2 dB, K=2, M=256, 6 bits", ok,
        f"multilevel (l_alpha={outcome.l_alpha}) {multi.ser:.4f} "
        f"< unitary {unitary.ser:.4f} and pilot-QAM {pilot.ser:.4f}, "
        f"CIs disjoint={separated}, {dt:.0f}s at {trials} trials",
    )
    assert ok


def test_09_energy_only_closed_form(capsys):
    two = energy_only_levels(1.0, 1)
    exact = (
        two[0] == 0.0
        and two[1] == math.sqrt(2.0)
        and abs(_chain_ratio(two, 1.0) - 3.0) <= math.ulp(3.0)
    )
    worst_pow = 0.0
    for l_alpha in (1, 2, 3, 4):
        a = energy_only_levels(1.0, l_alpha)
        worst_pow = max(worst_pow, abs(float(a @ a) / a.size - 1.0))
    ok = exact and worst_pow <= 1e-9
    announce(
        capsys, 9, "energy-only levels", ok,
        f"sigma2=1, l_alpha=1 gives {{0, sqrt(2)}} exactly: {exact}; "
        f"worst power residual {worst_pow:.2e} for l_alpha 1..4",
    )
    assert ok
