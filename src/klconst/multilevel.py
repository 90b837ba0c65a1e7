"""Amplitude-level design: ratio bisection, level construction, bit split.

With directions fixed, the worst-case KL distance of a multi-level
constellation is governed by two quantities: the intra distance of the
weakest (lowest) level,

    g(alpha_0) = alpha_0^4 t / (sigma2 (sigma2 + alpha_0^2)),

where t is the direction set's min squared chordal distance, and the inter
distance of consecutive levels,

    h(r) = 1/r - ln(1/r) - 1,

where r is the common ratio of the noise-shifted level energies
sigma2 + alpha_i^2 = (sigma2 + alpha_0^2) r^i.  The max-min optimum
equalizes all consecutive ratios and balances g against h under the unit
average power constraint

    2^l_alpha (sigma2 + 1) = (sigma2 + alpha_0^2) (r^{2^l_alpha} - 1)/(r - 1).

g falls and h rises along the feasible ratio range, so a plain bisection
finds the balance point; the degenerate single-direction design instead
pushes alpha_0 to zero and lets the power constraint fix the ratio.  One
bisection helper serves both: it works on d = r - 1, which spans about
1e-6 (very low SNR) to 1e7 (very high SNR), and stops when the bracket is
narrower than 1e-12 of its upper end, so the step count does not depend on
the scale of d.  g and h are the core's direction and energy KL terms.  The
bit split between levels and directions is chosen by building all l_s + 1
allocations once and keeping the largest objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LevelSet,
    MultiLevelConstellation,
    UnitarySet,
    _check_sigma2,
    _kl_direction,
    _kl_energy,
)

__all__ = [
    "BisectionResult",
    "AllocationRow",
    "DesignOutcome",
    "solve_bisection",
    "build_level_set",
    "energy_only_levels",
    "allocate_bits",
]

# Both ratio bisections run on d = r - 1 and stop at a bracket width of
# REL_TOL times its upper end.  Halving any bracket of doubles meets that
# rule, or runs out of floats between its ends, well within MAX_HALVINGS
# (2^1024 down to 2^-1074 is 2098 halvings); the cap only guards against a
# non-monotone test.
REL_TOL = 1e-12
MAX_HALVINGS = 2200

ALLOCATION_CSV_HEADER = "l_alpha,min_kl,r0,alpha0"


@dataclass(frozen=True)
class BisectionResult:
    """Solution of the ratio equalization for one (sigma2, l_alpha, t).

    d = r0 - 1 is the solved quantity; r0 = 1 + d rounds it to the spacing
    of doubles near 1, so levels are built from d.
    """

    r0: float
    d: float
    alpha0: float
    iterations: int
    residual_equality: float
    residual_power: float


@dataclass(frozen=True)
class AllocationRow:
    """One candidate bit split and its achieved objective.

    r0 is None for the all-direction split (l_alpha = 0), which has a
    single level at amplitude 1 and no ratio.
    """

    l_alpha: int
    min_kl: float
    r0: float | None
    alpha0: float | None

    def csv(self):
        r = "" if self.r0 is None else f"{self.r0:.12g}"
        a = "" if self.alpha0 is None else f"{self.alpha0:.12g}"
        return f"{self.l_alpha},{self.min_kl:.12g},{r},{a}"


@dataclass(frozen=True)
class DesignOutcome:
    """Winning allocation with its constellation and the full table."""

    l_alpha: int
    constellation: MultiLevelConstellation
    min_kl: float
    per_allocation_table: list[AllocationRow] = field(default_factory=list)


def _geom_sum(d, n):
    # sum_{i<n} (1 + d)^i = ((1 + d)^n - 1)/d, accurate for small d > 0
    return math.expm1(n * math.log1p(d)) / d


def _base_amp_sq(d, n_levels, sigma2):
    # alpha_0^2 from the power constraint at ratio r = 1 + d
    return n_levels * (1.0 + sigma2) / _geom_sum(d, n_levels) - sigma2


def _next_energy(e, d, sigma2):
    """alpha_{i+1}^2 from alpha_i^2 on the chain with ratio r = 1 + d.

    Steps alpha_{i+1}^2 = alpha_i^2 + d (sigma2 + alpha_i^2), so neither
    1 + d (which rounds d away when d ~ 1e-6) nor the difference
    (sigma2 + alpha_0^2) r^i - sigma2 (which cancels when sigma2 >> 1) is
    ever formed.
    """
    return e + d * (sigma2 + e)


def _level_energies(e0, d, sigma2, n_levels):
    # alpha_i^2 for i < n_levels, each level one _next_energy step up
    e = [e0]
    for _ in range(n_levels - 1):
        e.append(_next_energy(e[-1], d, sigma2))
    return e


def _bisect(holds, lo, hi):
    """Shrink a bracket on d = r - 1 with holds(lo) true and holds(hi) false.

    Halves until hi - lo <= REL_TOL * hi, or until no float lies strictly
    between the ends.  The rule is scale-free, so it ends in about 40 halvings
    plus log2 of the bracket's overshoot whatever the magnitude of d.
    Returns (lo, hi, halvings).
    """
    for halvings in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= REL_TOL * hi or not lo < mid < hi:
            return lo, hi, halvings
        if holds(mid):
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not settle in {MAX_HALVINGS} halvings")


def _feasible_ratio_ceiling(n_levels, sigma2):
    """Largest ratio r = 1 + d with a nonnegative base amplitude, as d.

    The power constraint pins sum_{i} r^i = n (1 + sigma2)/(sigma2 +
    alpha_0^2), so the ceiling solves sum r^i = n (1 + sigma2)/sigma2;
    located by doubling d from 1 past the boundary and bisecting from 0.
    The returned d is the feasible end of the final bracket.
    """
    target = n_levels * (1.0 + sigma2) / sigma2

    def holds(d):
        return _geom_sum(d, n_levels) <= target

    hi = 1.0
    while holds(hi):
        hi *= 2.0
        if not math.isfinite(hi):
            raise ArithmeticError("feasibility boundary search diverged")
    return _bisect(holds, 0.0, hi)[0]


def _balance(d, n_levels, t_v, sigma2):
    # Intra distance of the base level minus the inter distance of the two
    # lowest levels at ratio 1 + d; falls from positive to negative in d.
    e0 = max(_base_amp_sq(d, n_levels, sigma2), 0.0)
    e1 = _next_energy(e0, d, sigma2)
    return _kl_direction(e0, e0 * e0 * t_v, sigma2) - _kl_energy(e0, e1, sigma2)


def solve_bisection(sigma2, l_alpha, t_v):
    """Equalize the intra and inter objectives by bisection on the ratio.

    Parameters
    ----------
    sigma2 : float
        Design noise variance.
    l_alpha : int
        Level bits, >= 1 (2^l_alpha levels).
    t_v : float
        Min squared chordal distance of the direction set; finite, > 0.

    Returns
    -------
    BisectionResult
        Ratio, base amplitude, iteration count, and the equality / power
        residuals of the returned point.

    The bisection runs on d = r - 1 over (0, d_max], d_max being the
    feasibility ceiling, until the bracket is narrower than 1e-12 of its
    upper end or holds no float inside; r0 is 1 plus its midpoint.  This
    relative rule takes about 40 steps whether d is 1e-6 (very low SNR) or
    1e7 (very high SNR).  The difference g(alpha_0(r)) - h(r) is strictly
    decreasing in r, positive at r -> 1 (h vanishes) and negative at the
    feasibility ceiling (g vanishes with alpha_0), so the sign change is
    guaranteed; it is still guarded to fail loudly on numeric surprises.
    """
    sigma2 = _check_sigma2(sigma2)
    if l_alpha < 1:
        raise ValueError(f"l_alpha must be >= 1, got {l_alpha}")
    if not (math.isfinite(t_v) and t_v > 0.0):
        raise ValueError(f"t_v must be finite and positive, got {t_v!r}")
    n = 2**l_alpha
    hi = _feasible_ratio_ceiling(n, sigma2)
    if _balance(hi, n, t_v, sigma2) > 0.0:
        raise ArithmeticError(
            f"no sign change on the ratio bracket (1, {1.0 + hi!r}); inputs "
            f"sigma2={sigma2!r}, l_alpha={l_alpha}, t_v={t_v!r}"
        )
    lo, hi, iterations = _bisect(lambda d: _balance(d, n, t_v, sigma2) > 0.0, 0.0, hi)
    d = 0.5 * (lo + hi)
    alpha_sq = max(_base_amp_sq(d, n, sigma2), 0.0)
    power = float(np.mean(_level_energies(alpha_sq, d, sigma2, n)))
    return BisectionResult(
        r0=1.0 + d,
        d=d,
        alpha0=math.sqrt(alpha_sq),
        iterations=iterations,
        residual_equality=abs(_balance(d, n, t_v, sigma2)),
        residual_power=abs(power - 1.0),
    )


def build_level_set(res, sigma2, l_alpha):
    """Amplitudes of the designed levels from a bisection result.

    alpha_i = sqrt((sigma2 + alpha_0^2) r^i - sigma2) for i = 0 .. 2^l_alpha - 1.
    l_alpha = 0 is the trivial single level at amplitude 1.
    """
    sigma2 = _check_sigma2(sigma2)
    if l_alpha < 0:
        raise ValueError(f"l_alpha must be >= 0, got {l_alpha}")
    if l_alpha == 0:
        return LevelSet([1.0], sigma2)
    if not isinstance(res, BisectionResult):
        raise TypeError("res must be a BisectionResult")
    radicand = np.array(_level_energies(res.alpha0**2, res.d, sigma2, 2**l_alpha))
    if np.any(radicand < 0.0):
        raise ArithmeticError(
            "negative squared amplitude; the bisection result does not "
            "satisfy the power identity"
        )
    return LevelSet(np.sqrt(radicand), sigma2, ratio=res.r0)


def energy_only_levels(sigma2, l_alpha):
    """Levels of the single-direction (all-energy) design.

    The base level is exactly zero; with no intra pairs the objective is
    the consecutive inter distance alone, which grows with the ratio, so
    the power constraint is saturated at alpha_0 = 0:

        2^l_alpha (sigma2 + 1) = sigma2 (r^{2^l_alpha} - 1)/(r - 1).
    """
    sigma2 = _check_sigma2(sigma2)
    if l_alpha < 1:
        raise ValueError(f"l_alpha must be >= 1, got {l_alpha}")
    n = 2**l_alpha
    if n == 2:
        # linear case, solved in closed form: sigma2 (1 + r) = 2 (sigma2 + 1)
        r = (sigma2 + 2.0) / sigma2
        return LevelSet([0.0, math.sqrt(2.0)], sigma2, ratio=r)
    # Same boundary as the feasibility ceiling of the general solver: the
    # ratio at which the power identity holds with a zero base level.
    d = _feasible_ratio_ceiling(n, sigma2)
    amps = np.sqrt(_level_energies(0.0, d, sigma2, n))
    return LevelSet(amps, sigma2, ratio=1.0 + d)


def allocate_bits(l_s, sigma2, unitary_library):
    """Choose the bit split l_alpha + l_v = l_s with the largest objective.

    Parameters
    ----------
    l_s : int
        Total bits per block, >= 1.
    sigma2 : float
        Design noise variance.
    unitary_library : mapping l_v -> UnitarySet
        Must contain an entry of cardinality 2^l_v for every l_v in 0..l_s
        (the 0 entry being a canonical single vector).

    Returns
    -------
    DesignOutcome
        The argmax allocation (ties toward smaller l_alpha, which keeps the
        level detection stage smaller), the built constellation, and the
        full candidate table.
    """
    sigma2 = _check_sigma2(sigma2)
    if l_s < 1:
        raise ValueError(f"l_s must be >= 1, got {l_s}")
    for l_v in range(l_s + 1):
        entry = unitary_library.get(l_v)
        if entry is None:
            raise KeyError(f"unitary library is missing the l_v={l_v} entry")
        if not isinstance(entry, UnitarySet) or entry.size != 2**l_v:
            raise ValueError(
                f"unitary library entry for l_v={l_v} must be a UnitarySet "
                f"of cardinality {2 ** l_v}"
            )
    rows = []
    for l_alpha in range(l_s + 1):
        t_v = unitary_library[l_s - l_alpha].min_sq_dist
        if l_alpha == 0:
            levels = build_level_set(None, sigma2, 0)
            r0, alpha0 = None, 1.0
        elif l_alpha == l_s:
            levels = energy_only_levels(sigma2, l_alpha)
            r0, alpha0 = levels.ratio, 0.0
        else:
            res = solve_bisection(sigma2, l_alpha, t_v)
            levels = build_level_set(res, sigma2, l_alpha)
            r0, alpha0 = res.r0, res.alpha0
        # The minimum over all point pairs sits inside the lowest level or
        # between consecutive levels, so only those terms are evaluated.
        e = [a * a for a in levels.amplitudes.tolist()]
        min_kl = math.inf
        if not math.isinf(t_v):
            min_kl = _kl_direction(e[0], e[0] * e[0] * t_v, sigma2)
        for e_lo, e_hi in zip(e, e[1:]):
            min_kl = min(min_kl, _kl_energy(e_lo, e_hi, sigma2))
        rows.append(AllocationRow(l_alpha, min_kl, r0, alpha0))
        if len(rows) == 1 or min_kl > best.min_kl:
            best, best_levels = rows[-1], levels
    return DesignOutcome(
        l_alpha=best.l_alpha,
        constellation=MultiLevelConstellation(
            best_levels, unitary_library[l_s - best.l_alpha]
        ),
        min_kl=best.min_kl,
        per_allocation_table=rows,
    )
