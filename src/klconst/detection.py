"""Exact ML block detection for the multi-level constellations.

Conditioned on the sent point s (a K-vector with energy E), each receive
antenna's row of Y is CN(0, s s^H + sigma2 I_K), so the log density of the
whole M x K block reduces, after dropping terms common to all points, to

    metric(s) = q(s) / (sigma2 (sigma2 + E)) - M ln(sigma2 + E),
    q(s)      = s^T G s^*,   G = Y^H Y.

For a point alpha_n v_j the quadratic form factors as alpha_n^2 q_j with
q_j = v_j^T G v_j^*, which is what makes the two-stage detector work: the
direction score q_j does not depend on the level, and for the winning
direction the level metric is a scalar scan.  Both detectors below compute
the same floating-point quantities, so they agree wherever the maxima are
unambiguous; ties resolve to the smallest flat index in both.

The metric sees Y only through G and M, so each detector is a Gram-level
core (detect_joint_gram, detect_two_stage_gram) behind a wrapper that forms
G; the Monte-Carlo estimators draw G directly and call the cores.
"""

from __future__ import annotations

import numpy as np

from .core import MultiLevelConstellation, _check_sigma2

__all__ = [
    "gram",
    "detect_joint",
    "detect_two_stage",
    "detect_joint_gram",
    "detect_two_stage_gram",
]


def gram(Y):
    """K x K Gram matrix G = Y^H Y of a block, batched over leading axes.

    Parameters
    ----------
    Y : array_like, shape (..., M, K)
        Received blocks, one row per antenna.

    Returns
    -------
    numpy.ndarray, shape (..., K, K)
        Hermitian, positive semidefinite.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim < 2:
        raise ValueError(f"Y must have shape (..., M, K), got {Y.shape}")
    return np.einsum("...mk,...ml->...kl", Y.conj(), Y)


def _direction_scores(G, directions):
    # q_j = v_j^T G v_j^*; real for Hermitian G, shape (..., N_dirs)
    V = directions.vectors
    return np.einsum("jk,...kl,jl->...j", V, G, V.conj()).real


def _level_terms(constellation, sigma2, M):
    a2 = constellation.levels.amplitudes**2
    coef = a2 / (sigma2 * (sigma2 + a2))
    penalty = M * np.log(sigma2 + a2)
    return coef, penalty


def _check_blocks(Y, constellation):
    if not isinstance(constellation, MultiLevelConstellation):
        raise TypeError("constellation must be a MultiLevelConstellation")
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim < 2 or Y.shape[-1] != constellation.K:
        raise ValueError(
            f"Y must have shape (..., M, {constellation.K}), got {Y.shape}"
        )
    if Y.shape[-2] < 1:
        raise ValueError("Y must have at least one antenna row")
    return Y


def _prepare_gram(G, constellation, sigma2, M):
    sigma2 = _check_sigma2(sigma2)
    if not isinstance(constellation, MultiLevelConstellation):
        raise TypeError("constellation must be a MultiLevelConstellation")
    K = constellation.K
    G = np.asarray(G, dtype=np.complex128)
    if G.ndim < 2 or G.shape[-2:] != (K, K):
        raise ValueError(f"G must have shape (..., {K}, {K}), got {G.shape}")
    if int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return G, sigma2


def detect_joint_gram(G, constellation, sigma2, M):
    """Joint ML decision from the Gram matrices G = Y^H Y of M-row blocks.

    The block metric depends on Y only through G and M, so this is the
    whole detector; :func:`detect_joint` forms G and calls it.  Returns the
    flat point indices n * N_directions + j over the leading axes of G;
    ties take the smallest index.
    """
    G, sigma2 = _prepare_gram(G, constellation, sigma2, M)
    q = _direction_scores(G, constellation.directions)
    coef, penalty = _level_terms(constellation, sigma2, M)
    metric = coef[:, None] * q[..., None, :] - penalty[:, None]
    flat = metric.reshape(*metric.shape[:-2], -1)
    return np.argmax(flat, axis=-1).astype(np.int64)


def detect_two_stage_gram(G, constellation, sigma2, M):
    """Two-stage ML decision from Gram matrices; see :func:`detect_two_stage`.

    Same interface and result as :func:`detect_joint_gram`.
    """
    G, sigma2 = _prepare_gram(G, constellation, sigma2, M)
    q = _direction_scores(G, constellation.directions)
    j = np.argmax(q, axis=-1)
    q_best = np.take_along_axis(q, j[..., None], axis=-1)[..., 0]
    coef, penalty = _level_terms(constellation, sigma2, M)
    level_metric = coef * q_best[..., None] - penalty
    n = np.argmax(level_metric, axis=-1)
    return (n * constellation.directions.size + j).astype(np.int64)


def detect_joint(Y, constellation, sigma2):
    """Maximize the exact block metric over all points at once.

    Parameters
    ----------
    Y : array_like, shape (..., M, K)
        Received blocks.
    constellation : MultiLevelConstellation
    sigma2 : float
        Operating noise variance (need not equal the design value).

    Returns
    -------
    int or numpy.ndarray
        Flat point index n * N_directions + j per block; a plain int for a
        single unbatched block.  Ties take the smallest index.
    """
    Y = _check_blocks(Y, constellation)
    idx = detect_joint_gram(gram(Y), constellation, sigma2, Y.shape[-2])
    return int(idx) if Y.ndim == 2 else idx


def detect_two_stage(Y, constellation, sigma2):
    """Detect the direction first, then the level along it.

    Stage one maximizes the direction score q_j, which is level-free;
    stage two maximizes the block metric over levels with q fixed at the
    winner.  Per block this costs one N_directions scan plus one N_levels
    scan instead of the joint product.  Same interface as detect_joint.
    """
    Y = _check_blocks(Y, constellation)
    idx = detect_two_stage_gram(gram(Y), constellation, sigma2, Y.shape[-2])
    return int(idx) if Y.ndim == 2 else idx
