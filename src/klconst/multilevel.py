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
bisection serves both: it works on d = r - 1, which spans about 1e-14
(-120 dB) to 1e5 and more (60 dB), and stops when the bracket is narrower
than 1e-12 of its upper end, so the step count does not depend on the scale
of d.  g and h are the core's direction and energy KL terms.

The solver is array-native.  Its helpers take broadcast arrays of
(sigma2, n = 2^l_alpha, t), and one bisection solves a whole batch of
ratio equations in whole-array steps: an element whose bracket has met the
stopping rule keeps its bracket and halving count, and is evaluated only at
its lower end from then on, so every element meets the same midpoints as
when solved alone.  One builder, _amplitudes, turns a split's base
amplitude and ratio into its levels.  allocate_bits chooses the bit split
between levels and directions by solving every (sigma2, split) pair of its
grid in one such pass, then building all l_s + 1 allocations per sigma2 as
arrays and keeping the largest objective.  solve_bisection,
build_level_set and energy_only_levels are the same kernel and builder on
a single problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MultiLevelConstellation,
    UnitarySet,
    _chain_ratio,
    _check_level_rows,
    _check_sigma2,
    _count,
    _kl_direction,
    _kl_energy,
    _levels,
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


def _strict(fn):
    # Overflow, invalid and zero-divide results raise FloatingPointError (an
    # ArithmeticError) in the design entries instead of flowing on as inf or
    # NaN; a fresh errstate per call, so nested or threaded calls are safe.
    @functools.wraps(fn)
    def strict(*args, **kwargs):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(*args, **kwargs)

    return strict


@dataclass(frozen=True)
class BisectionResult:
    """Solution of the ratio equalization for one (sigma2, l_alpha, t).

    d = r0 - 1 is the solved quantity; the ratio r0 = 1 + d rounds it to
    the spacing of doubles near 1, so levels are built from d.
    """

    d: float
    alpha0: float
    iterations: int
    residual_equality: float
    residual_power: float

    @property
    def r0(self):
        return 1.0 + self.d


@dataclass(frozen=True)
class AllocationRow:
    """One candidate bit split and its achieved objective.

    r0 is None for the all-direction split (l_alpha = 0), which has a
    single level at amplitude 1 and no ratio, so its alpha0 is 1.
    """

    l_alpha: int
    min_kl: float
    r0: float | None
    alpha0: float

    def csv(self):
        r = "" if self.r0 is None else f"{self.r0:.12g}"
        return f"{self.l_alpha},{self.min_kl:.12g},{r},{self.alpha0:.12g}"


@dataclass(frozen=True)
class DesignOutcome:
    """Winning allocation with its constellation and the full table, one
    row per l_alpha; min_kl is the winning row's."""

    l_alpha: int
    constellation: MultiLevelConstellation
    per_allocation_table: list[AllocationRow]

    @property
    def min_kl(self):
        return self.per_allocation_table[self.l_alpha].min_kl


def _excess(d, n):
    # x = sum_{i<n} ((1 + d)^i - 1) = sum_{k>=1} C(n, k+1) d^k, the excess of
    # sum_i r^i over n at r = 1 + d, elementwise over d and n of one shape.
    # The closed form's subtraction magnifies rounding about 2/(n d) times,
    # so for n d <= 1e-2 the positive series is summed to a 1e-17 term
    # instead.  Each branch runs on its own elements only; the series runs
    # until no element's last term exceeds 1e-17 of its total, and the
    # terms that follow are below half an ulp of a finished total.
    d, n = np.asarray(d, dtype=float), np.asarray(n, dtype=float)
    x = np.empty(d.shape)
    closed = n * d > 1e-2
    if closed.any():
        dc, nc = d[closed], n[closed]
        x[closed] = (np.expm1(nc * np.log1p(dc)) - nc * dc) / dc
    series = ~closed
    if series.any():
        ds, ns = d[series], n[series]
        term = 0.5 * ns * (ns - 1) * ds
        total = term.copy()
        k = 1
        while np.any(term > 1e-17 * total):
            term *= (ns - k - 1) / (k + 2) * ds
            total += term
            k += 1
        x[series] = total
    return x


def _base_amp_sq(d, n_levels, sigma2):
    # alpha_0^2 from the power constraint at ratio r = 1 + d
    x = _excess(d, n_levels)
    return (n_levels - sigma2 * x) / (n_levels + x)


def _next_energy(e, d, sigma2):
    """alpha_{i+1}^2 from alpha_i^2 on the chain with ratio r = 1 + d.

    Steps alpha_{i+1}^2 = alpha_i^2 + d (sigma2 + alpha_i^2), so neither
    1 + d (which rounds d away when d ~ 1e-6) nor the difference
    (sigma2 + alpha_0^2) r^i - sigma2 (which cancels when sigma2 >> 1) is
    ever formed.
    """
    return e + d * (sigma2 + e)


def _level_energies(e0, d, sigma2, n_levels):
    # alpha_i^2 for i < n_levels along a new last axis, each level one
    # _next_energy step up, for broadcast arrays of (e0, d, sigma2)
    e = np.empty(np.broadcast_shapes(np.shape(e0), np.shape(d), np.shape(sigma2)) + (n_levels,))
    e[..., 0] = e0
    for i in range(1, n_levels):
        e[..., i] = _next_energy(e[..., i - 1], d, sigma2)
    return e


def _amplitudes(a0, d, sigma2, n_levels):
    """Amplitudes of one split along a new last axis of n_levels.

    The base level is a0 and each higher level is one _next_energy step up
    at ratio 1 + d, for broadcast arrays of (a0, d, sigma2).  d = None
    stands for the two-level split with a zero base, whose power constraint
    leaves alpha_1^2 = 2 exactly: the closed form {0, sqrt 2}.  A chain
    that goes negative raises under _strict.
    """
    if d is None and n_levels == 2:
        return np.broadcast_to([0.0, math.sqrt(2.0)], np.shape(sigma2) + (2,))
    return np.sqrt(_level_energies(a0 * a0, d, sigma2, n_levels))


def _bisect(holds, lo, hi, *args):
    """Shrink brackets on d = r - 1 with holds(lo) true and holds(hi) false.

    lo, hi and args are 1-D arrays of one length, and holds(d, *args) is
    evaluated elementwise.  Each element halves its bracket until
    hi - lo <= REL_TOL * hi, or until no float lies strictly between its
    ends.  The rule is scale-free, so it ends in about 40 halvings plus log2
    of the bracket's overshoot whatever the magnitude of d.  Elements that
    have stopped are evaluated at their lo, a point their bracket already
    holds, and keep their bracket.  Returns (lo, hi, halvings).
    """
    halvings = np.zeros(lo.shape, dtype=int)
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        live = (hi - lo > REL_TOL * hi) & (lo < mid) & (mid < hi)
        if not live.any():
            return lo, hi, halvings
        halvings += live
        up = holds(np.where(live, mid, lo), *args)
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
    raise ArithmeticError(f"bisection did not settle in {MAX_HALVINGS} halvings")


def _feasible(d, n_levels, sigma2):
    # the base amplitude at ratio 1 + d is nonnegative
    return sigma2 * _excess(d, n_levels) <= n_levels


def _feasible_ratio_ceiling(n_levels, sigma2):
    """Largest ratio r = 1 + d with a nonnegative base amplitude, as d.

    The power constraint pins (sigma2 + alpha_0^2)(n + x) = n (1 + sigma2)
    for the excess x = _excess(d, n), so the ceiling solves sigma2 x = n;
    located elementwise over 1-D arrays by doubling d from 1 past the
    boundary and bisecting from 0.  The returned d is the feasible end of
    each final bracket.  A doubling that overflows raises under _strict.
    """
    hi = np.ones(n_levels.shape)
    feasible = _feasible(hi, n_levels, sigma2)
    while feasible.any():
        hi = np.where(feasible, 2.0 * hi, hi)
        feasible = _feasible(hi, n_levels, sigma2)
    return _bisect(_feasible, np.zeros(hi.shape), hi, n_levels, sigma2)[0]


def _balance(d, n_levels, t_v, sigma2):
    # Intra distance of the base level minus the inter distance of the two
    # lowest levels at ratio 1 + d; falls from positive to negative in d.
    e0 = np.maximum(_base_amp_sq(d, n_levels, sigma2), 0.0)
    e1 = _next_energy(e0, d, sigma2)
    return _kl_direction(e0, e0 * e0 * t_v, sigma2) - _kl_energy(e0, e1, sigma2)


def _rising(d, n_levels, t_v, sigma2):
    # d lies below the balance root: the intra distance still exceeds the inter
    return _balance(d, n_levels, t_v, sigma2) > 0.0


def _solve_ratios(sigma2, n_levels, t_v):
    """d = r - 1 and bisection halvings for 1-D arrays of design problems.

    Every element first gets its feasibility ceiling, all in one pass.
    Where t_v is finite, a second pass bisects (0, ceiling] for the
    balance of g and h.  Where t_v is +inf (one direction, no intra
    distance) the ceiling is the answer and the halvings are 0.
    """
    ceiling = _feasible_ratio_ceiling(n_levels, sigma2)
    d = ceiling.copy()
    halvings = np.zeros(d.shape, dtype=int)
    b = np.flatnonzero(np.isfinite(t_v))
    args = n_levels[b], t_v[b], sigma2[b]
    no_change = _rising(ceiling[b], *args)
    if np.any(no_change):
        i = b[np.argmax(no_change)]
        raise ArithmeticError(
            f"no sign change on the ratio bracket (1, {float(1.0 + ceiling[i])!r}); "
            f"inputs sigma2={float(sigma2[i])!r}, "
            f"l_alpha={int(n_levels[i]).bit_length() - 1}, t_v={float(t_v[i])!r}"
        )
    lo, hi, halvings[b] = _bisect(_rising, np.zeros(b.size), ceiling[b], *args)
    d[b] = 0.5 * (lo + hi)
    return d, halvings


def _check_split(sigma2, l_alpha):
    sigma2 = _check_sigma2(sigma2)
    return sigma2, 2 ** _count(l_alpha, "l_alpha")


def _check_t_v(t_v):
    if not (math.isfinite(t_v) and t_v > 0.0):
        raise ValueError(f"t_v must be finite and positive, got {t_v!r}")


@_strict
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
    sigma2, n = _check_split(sigma2, l_alpha)
    _check_t_v(t_v)
    s2, nn, tt = np.array([sigma2]), np.array([float(n)]), np.array([t_v])
    d, halvings = _solve_ratios(s2, nn, tt)
    alpha_sq = np.maximum(_base_amp_sq(d, nn, s2), 0.0)
    power = float(np.mean(_level_energies(alpha_sq, d, s2, n)))
    return BisectionResult(
        d=float(d[0]),
        alpha0=math.sqrt(alpha_sq[0]),
        iterations=int(halvings[0]),
        residual_equality=abs(float(_balance(d, nn, tt, s2)[0])),
        residual_power=abs(power - 1.0),
    )


@_strict
def build_level_set(res, sigma2, l_alpha):
    """Amplitudes of the designed levels from a bisection result.

    alpha_0 is the result's base amplitude and each higher level is one
    _next_energy step up, alpha_{i+1}^2 = alpha_i^2 + d (sigma2 + alpha_i^2)
    with d = res.d, for 2^l_alpha levels; l_alpha must be >= 1.  Returns
    the read-only array, checked as MultiLevelConstellation checks it.
    """
    sigma2, n = _check_split(sigma2, l_alpha)
    if not isinstance(res, BisectionResult):
        raise TypeError("res must be a BisectionResult")
    return _levels(_amplitudes(res.alpha0, res.d, sigma2, n), sigma2)


@_strict
def energy_only_levels(sigma2, l_alpha):
    """Amplitudes of the single-direction (all-energy) design, returned as
    build_level_set returns them.

    The base level is exactly zero; with no intra pairs the objective is
    the consecutive inter distance alone, which grows with the ratio, so
    the power constraint is saturated at alpha_0 = 0:

        2^l_alpha (sigma2 + 1) = sigma2 (r^{2^l_alpha} - 1)/(r - 1).

    That is the feasibility ceiling of the general solver, whose t = +inf
    case returns it; two levels take the closed form {0, sqrt(2)}.
    """
    sigma2, n = _check_split(sigma2, l_alpha)
    d = None
    if n > 2:
        d = _solve_ratios(np.array([sigma2]), np.array([float(n)]), np.array([math.inf]))[0][0]
    return _levels(_amplitudes(0.0, d, sigma2, n), sigma2)


@_strict
def allocate_bits(l_s, sigma2, unitary_library):
    """Choose the bit split l_alpha + l_v = l_s with the largest objective.

    Parameters
    ----------
    l_s : int
        Total bits per block, >= 1.
    sigma2 : float or 1-D sequence of floats
        Design noise variance, or a grid of them designed in one pass.
    unitary_library : mapping l_v -> UnitarySet
        Must contain an entry of cardinality 2^l_v for every l_v in 0..l_s
        (the 0 entry being a canonical single vector).

    Returns
    -------
    DesignOutcome, or a list of them in grid order for a sequence
        The argmax allocation (ties toward smaller l_alpha, which keeps the
        level detection stage smaller), the built constellation, and the
        full candidate table.  A grid gives each sigma2 the outcome it gets
        alone, to the bit.
    """
    grid = np.ndim(sigma2) > 0
    values = np.asarray(sigma2, dtype=float)
    if values.ndim > 1:
        raise ValueError(f"sigma2 must be a float or a 1-D sequence, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("the sigma2 grid is empty")
    s2 = np.array([_check_sigma2(s) for s in values.reshape(-1).tolist()])
    l_s = _count(l_s, "l_s")
    for l_v in range(l_s + 1):
        entry = unitary_library.get(l_v)
        if entry is None:
            raise KeyError(f"unitary library is missing the l_v={l_v} entry")
        if not isinstance(entry, UnitarySet) or entry.size != 2**l_v:
            raise ValueError(
                f"unitary library entry for l_v={l_v} must be a UnitarySet "
                f"of cardinality {2 ** l_v}"
            )
    t = [unitary_library[l_s - l_alpha].min_sq_dist for l_alpha in range(l_s + 1)]
    for t_v in t[1:l_s]:
        _check_t_v(t_v)

    # One pass over every (sigma2, l_alpha) pair the solver serves: the
    # balance for 1 <= l_alpha < l_s and the ceiling for l_alpha = l_s, whose
    # single-direction entry has t = inf; two levels take the closed form.
    solved = range(1, l_s + 1) if l_s > 1 else range(0)
    shape = (s2.size, len(solved))
    d = _solve_ratios(
        np.broadcast_to(s2[:, None], shape).ravel(),
        np.broadcast_to([2.0**l_alpha for l_alpha in solved], shape).ravel(),
        np.broadcast_to([t[l_alpha] for l_alpha in solved], shape).ravel(),
    )[0].reshape(shape)

    amps, min_kl, r0, alpha0 = [], [], [], []
    for l_alpha in range(l_s + 1):
        n = 2**l_alpha
        d_row = d[:, l_alpha - 1] if l_alpha in solved else None
        if l_alpha == 0:
            a0, r = 1.0, [None] * s2.size
        elif l_alpha < l_s:
            a0 = np.sqrt(np.maximum(_base_amp_sq(d_row, np.full(s2.size, float(n)), s2), 0.0))
            r = (1.0 + d_row).tolist()
        else:
            # the single-direction split reports the ratio of its built levels
            a0, r = 0.0, None
        a = _amplitudes(a0, d_row, s2, n)
        _check_level_rows(a, s2)
        amps.append(a)
        r0.append(_chain_ratio(a, s2).tolist() if r is None else r)
        alpha0.append(np.broadcast_to(a0, s2.shape).tolist())
        # The minimum over all point pairs sits inside the lowest level or
        # between consecutive levels, so only those terms are evaluated.
        e = a * a
        kl = np.full(s2.size, math.inf)
        if not math.isinf(t[l_alpha]):
            kl = _kl_direction(e[:, 0], e[:, 0] * e[:, 0] * t[l_alpha], s2)
        if n > 1:
            kl = np.minimum(kl, _kl_energy(e[:, :-1], e[:, 1:], s2[:, None]).min(axis=1))
        min_kl.append(kl.tolist())

    best = np.argmax(np.array(min_kl), axis=0).tolist()
    outcomes = []
    for p, l_alpha in enumerate(best):
        rows = [
            AllocationRow(i, min_kl[i][p], r0[i][p], alpha0[i][p])
            for i in range(l_s + 1)
        ]
        outcomes.append(
            DesignOutcome(
                l_alpha=l_alpha,
                constellation=MultiLevelConstellation(
                    amps[l_alpha][p], s2[p], unitary_library[l_s - l_alpha]
                ),
                per_allocation_table=rows,
            )
        )
    return outcomes if grid else outcomes[0]
