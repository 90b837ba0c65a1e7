"""Exact ML block detection for the multi-level constellations.

Conditioned on the sent point s (a K-vector with energy E), each receive
antenna's row of Y is CN(0, s s^H + sigma2 I_K), so the log density of the
whole M x K block reduces, after dropping terms common to all points, to

    metric(s) = q(s) / (sigma2 (sigma2 + E)) - M ln(sigma2 + E),
    q(s)      = s^T G s^*,   G = Y^H Y.

For a point alpha_n v_j the quadratic form factors as alpha_n^2 q_j with
q_j = v_j^T G v_j^*, which is what makes the two-stage detector work: the
direction score q_j does not depend on the level, and for the winning
direction the level metric is a scalar scan.

For Hermitian G the score is a dot product of two real K^2-vectors,
q_j = f_j . g, with

    g   = (G_kk;  Re G_kl;  Im G_kl),                      k < l,
    f_j = (|v_jk|^2;  2 Re(v_jk v_jl^*);  -2 Im(v_jk v_jl^*)),

so the scores of a whole batch are one real matrix product g @ F^T, with F
(N_dirs x K^2) formed once per call from the codebook.  Both detectors
below take their scores from that one product and then compute the same
floating-point quantities, so they agree wherever the maxima are
unambiguous; ties resolve to the smallest flat index in both.

The metric sees Y only through G and M.  Both detectors check their
inputs once and form G; the two-stage scan itself is the private
_two_stage_gram, which estimate_ser calls on the Gram matrices it draws
directly, its inputs already checked and F formed once.
"""

from __future__ import annotations

import numpy as np

from .core import MultiLevelConstellation, _check_sigma2

__all__ = ["gram", "detect_joint", "detect_two_stage"]


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


def _score_weights(directions):
    # F, shape (N_dirs, K^2), with q_j = F[j] . g for g from _direction_scores
    V = directions.vectors
    rows, cols = np.triu_indices(V.shape[1], 1)
    cross = V[:, rows] * V[:, cols].conj()
    return np.concatenate(
        (V.real**2 + V.imag**2, 2.0 * cross.real, -2.0 * cross.imag), axis=-1
    )


def _direction_scores(G, F):
    # q_j = v_j^T G v_j^* for Hermitian G, shape (..., N_dirs), as g @ F^T
    K = G.shape[-1]
    diag = np.arange(K)
    rows, cols = np.triu_indices(K, 1)
    re, im = G.real, G.imag
    g = np.concatenate(
        (re[..., diag, diag], re[..., rows, cols], im[..., rows, cols]), axis=-1
    )
    return g @ F.T


def _level_terms(constellation, sigma2, M):
    a2 = constellation.amplitudes**2
    coef = a2 / (sigma2 * (sigma2 + a2))
    penalty = M * np.log(sigma2 + a2)
    return coef, penalty


def _check_blocks(Y, constellation, sigma2):
    if not isinstance(constellation, MultiLevelConstellation):
        raise TypeError("constellation must be a MultiLevelConstellation")
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim < 2 or Y.shape[-1] != constellation.K:
        raise ValueError(
            f"Y must have shape (..., M, {constellation.K}), got {Y.shape}"
        )
    if Y.shape[-2] < 1:
        raise ValueError("Y must have at least one antenna row")
    if not np.isfinite(Y).all():
        raise ValueError("Y must have finite entries")
    return Y, _check_sigma2(sigma2)


def _two_stage_gram(G, constellation, sigma2, M, F):
    # two-stage decisions from the Gram matrices G of M-row blocks, batched
    # over the leading axes of G, with F = _score_weights of the
    # constellation's directions; the callers have checked every input
    q = _direction_scores(G, F)
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
    Y, sigma2 = _check_blocks(Y, constellation, sigma2)
    q = _direction_scores(gram(Y), _score_weights(constellation.directions))
    coef, penalty = _level_terms(constellation, sigma2, Y.shape[-2])
    metric = coef[:, None] * q[..., None, :] - penalty[:, None]
    flat = metric.reshape(*metric.shape[:-2], metric.shape[-2] * metric.shape[-1])
    idx = np.argmax(flat, axis=-1).astype(np.int64)
    return int(idx) if Y.ndim == 2 else idx


def detect_two_stage(Y, constellation, sigma2):
    """Detect the direction first, then the level along it.

    Stage one maximizes the direction score q_j, which is level-free;
    stage two maximizes the block metric over levels with q fixed at the
    winner.  Per block this costs one N_directions scan plus one N_levels
    scan instead of the joint product.  Same interface as detect_joint.
    """
    Y, sigma2 = _check_blocks(Y, constellation, sigma2)
    F = _score_weights(constellation.directions)
    idx = _two_stage_gram(gram(Y), constellation, sigma2, Y.shape[-2], F)
    return int(idx) if Y.ndim == 2 else idx
