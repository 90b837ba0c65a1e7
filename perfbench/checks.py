"""Output checkers for the benchmark, written apart from klconst.

Everything here follows the formulas of the model, not the package's code:

* A transmit block s (K symbols) reaches M antennas as Y = h s^T + N with
  h ~ CN(0, I_M) and N i.i.d. CN(0, sigma2), so each row of Y is CN(0, C_s)
  with C_s = conj(s) s^T + sigma2 I_K, and the per-antenna KL distance
  between two points is the KL divergence of two zero-mean complex
  Gaussians, tr(C_k^-1 C_i) - K - ln det(C_k^-1 C_i).  It is evaluated from
  the eigenvalues of the whitened covariance, not from the rank-one closed
  form the package uses.
* SNR in dB gives sigma2 = 1 / (K 10^(snr/10)) (unit block energy).
* Error counts get Wilson score intervals.
* The reference Monte-Carlo draws the Gram matrix G = Y^H Y directly from
  its complex Wishart law by the Bartlett decomposition, detects by the
  Gaussian log-likelihood of G over all points jointly, and slices the
  pilot-QAM baseline per axis.

Each check returns a list of problems; an empty list means the output
passed.
"""

import csv
import math

import numpy as np

Z95 = 1.959963984540054
# Two intervals at this level miss each other by chance with probability
# below 1e-6, so a reference mismatch is a real disagreement.
Z_REFERENCE = 5.0
REFERENCE_TRIALS = 131072
REFERENCE_BATCH = 16384
# Largest |z| accepted for one KL pair, and the share of pairs that must lie
# within 3 standard errors.
KL_Z_MAX = 5.0
KL_Z3_SHARE = 0.9


def sigma2_at(K, snr_db):
    return 1.0 / (K * 10.0 ** (snr_db / 10.0))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# files written by the program
# ---------------------------------------------------------------------------


def _vector(fields):
    vals = [float(f) for f in fields]
    return np.array(vals[0::2]) + 1j * np.array(vals[1::2])


def read_codebook(path):
    """(K, N, vectors) from a codebook file; vectors as stored."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    K, N = int(lines[0][0]), int(lines[0][1])
    V = np.array([_vector(f) for f in lines[1:]])
    if V.shape != (N, K):
        raise ValueError(f"{path}: header says {N} x {K}, body is {V.shape}")
    return K, N, V


def read_constellation(path):
    """(sigma2, amplitudes, directions) from a constellation file."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    K, n_levels, n_dirs = (int(x) for x in lines[0][:3])
    sigma2 = float(lines[0][3])
    amps = np.array([float(f[0]) for f in lines[1 : 1 + n_levels]])
    V = np.array([_vector(f) for f in lines[1 + n_levels :]])
    if V.shape != (n_dirs, K):
        raise ValueError(f"{path}: header says {n_dirs} x {K}, body is {V.shape}")
    return sigma2, amps, V


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def covariances(S, sigma2):
    """Row covariance conj(s) s^T + sigma2 I of each stacked block s."""
    S = np.asarray(S, dtype=complex)
    K = S.shape[-1]
    return S.conj()[:, :, None] * S[:, None, :] + sigma2 * np.eye(K)


def gaussian_kl_matrix(S, sigma2):
    """Per-antenna KL distance D(s_i -> s_k) for all ordered pairs (i, k)."""
    C = covariances(S, sigma2)
    w, U = np.linalg.eigh(C)
    W = (U * w[:, None, :] ** -0.5) @ U.conj().transpose(0, 2, 1)  # C^-1/2
    B = W[None, :, :, :] @ C[:, None, :, :] @ W[None, :, :, :]
    lam_m1 = np.linalg.eigvalsh(B) - 1.0
    return np.sum(lam_m1 - np.log1p(lam_m1), axis=-1)


def min_sq_chordal(V):
    V = np.asarray(V, dtype=complex)
    if V.shape[0] < 2:
        return math.inf
    P = np.abs(V @ V.conj().T) ** 2
    np.fill_diagonal(P, -np.inf)
    return 1.0 - float(P.max())


def welch_limit(K, N):
    return 1.0 if N <= K else 1.0 - (N - K) / (K * (N - 1))


def wilson(errors, trials, z):
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials**2))
    low = 0.0 if errors == 0 else max(center - half, 0.0)
    high = 1.0 if errors == trials else min(center + half, 1.0)
    return low, high


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------


def check_codebook(path, K, l_v):
    """2^l_v unit vectors in C^K whose packing distance respects Welch."""
    problems = []
    k, n, V = read_codebook(path)
    if (k, n) != (K, 2**l_v):
        problems.append(f"{path}: holds {n} vectors in C^{k}, expected {2**l_v} in C^{K}")
        return problems
    norm_err = float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)))
    if norm_err > 1e-9:
        problems.append(f"{path}: vector norms deviate from 1 by {norm_err:.3g}")
    t = min_sq_chordal(V)
    if n > 1 and not (0.0 < t <= welch_limit(K, n) + 1e-12):
        problems.append(f"{path}: min_sq_dist {t!r} outside (0, {welch_limit(K, n)!r}]")
    return problems


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def _check_design_point(stem, idx, snr_db, row, K, l_s, codebooks):
    problems = []
    where = f"{stem} point {idx} ({snr_db:g} dB)"
    with open(f"{stem}_point{idx:02d}_table.csv", encoding="utf-8") as fh:
        table_lines = fh.read().splitlines()
    table = [ln.split(",") for ln in table_lines[1:]]
    if [int(t[0]) for t in table] != list(range(l_s + 1)):
        return [f"{where}: table rows are not l_alpha = 0..{l_s}"]
    kl = [float(t[1]) for t in table]
    best = max(range(len(kl)), key=lambda i: (kl[i], -i))
    l_alpha = int(row["l_alpha"])
    if l_alpha != best:
        problems.append(f"{where}: l_alpha {l_alpha} is not the table argmax {best}")
    if table_lines[1 + l_alpha] != ",".join(
        row[k] for k in ("l_alpha", "min_kl", "r0", "alpha0")
    ):
        problems.append(f"{where}: summary row differs from table row {l_alpha}")

    sigma2, amps, V = read_constellation(f"{stem}_point{idx:02d}_constellation.txt")
    l_v = l_s - l_alpha
    if not _close(sigma2, sigma2_at(K, snr_db), 1e-12):
        problems.append(f"{where}: sigma2 {sigma2!r} does not match the SNR")
    if amps.size != 2**l_alpha or V.shape != (2**l_v, K):
        return problems + [f"{where}: constellation is not 2^{l_alpha} x 2^{l_v}"]
    power = float(np.mean(amps**2))
    if abs(power - 1.0) > 1e-9:
        problems.append(f"{where}: mean squared amplitude {power!r} is not 1")
    if amps.size > 1:
        if not np.all(np.diff(amps) > 0):
            problems.append(f"{where}: amplitudes are not increasing")
        shifted = sigma2 + amps**2
        ratios = shifted[1:] / shifted[:-1]
        if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-9:
            problems.append(f"{where}: sigma2 + alpha_i^2 is not a geometric chain")
        if not _close(float(row["r0"]), ratios[0], 1e-9):
            problems.append(f"{where}: r0 {row['r0']} is not the chain ratio")
    if not _close(float(row["alpha0"]), amps[0], 1e-9, 1e-12):
        problems.append(f"{where}: alpha0 {row['alpha0']} is not the lowest level")
    if l_v > 0:
        _, _, book = read_codebook(codebooks[l_v])
        book = book / np.linalg.norm(book, axis=1, keepdims=True)
        if np.max(np.abs(V - book)) > 1e-12:
            problems.append(f"{where}: directions are not the supplied codebook {l_v}")

    S = (amps[:, None, None] * V[None, :, :]).reshape(-1, K)
    D = gaussian_kl_matrix(S, sigma2)
    np.fill_diagonal(D, np.inf)
    exhaustive = float(D.min())
    if not _close(float(row["min_kl"]), exhaustive, 1e-9):
        problems.append(
            f"{where}: min_kl {row['min_kl']} differs from the exhaustive {exhaustive!r}"
        )
    if 1 <= l_alpha < l_s:
        n = V.shape[0]
        intra = float(D[:n, :n].min())
        inter = float(D[0, n])  # level 0 to level 1 along direction 0
        if not _close(intra, inter, 1e-8):
            problems.append(
                f"{where}: intra {intra!r} and inter {inter!r} distances are not equal"
            )
    return problems


def check_design(out_csv, K, l_s, snr_list, codebooks, trend):
    """Summary, tables and constellations of one design run.

    trend: the grid spans low to high SNR, so the level bits must not grow
    with SNR and the highest point must be direction-only.
    """
    rows = read_csv(out_csv)
    if [float(r["snr_db"]) for r in rows] != list(snr_list):
        return [f"{out_csv}: rows do not follow the configured SNR list"]
    stem = out_csv[: -len(".csv")] if out_csv.endswith(".csv") else out_csv
    problems = []
    for idx, (snr_db, row) in enumerate(zip(snr_list, rows)):
        problems += _check_design_point(stem, idx, snr_db, row, K, l_s, codebooks)
    if trend:
        first, last = int(rows[0]["l_alpha"]), int(rows[-1]["l_alpha"])
        if first < last or last != 0:
            problems.append(
                f"{out_csv}: l_alpha is {first} at the lowest SNR and {last} at the "
                "highest; expected non-increasing and 0"
            )
    return problems


# ---------------------------------------------------------------------------
# SER
# ---------------------------------------------------------------------------


def draw_gram(L, M, rng):
    """G = Y^H Y for Y with M i.i.d. rows of covariance L L^H, per leading index.

    Bartlett: the R factor of an M x K matrix of i.i.d. CN(0, 1) entries
    has |R_ii|^2 ~ Gamma(M - i) and CN(0, 1) entries above the diagonal,
    and Y = Z L^H gives G = (R L^H)^H (R L^H).
    """
    T, K, _ = L.shape
    R = np.zeros((T, K, K), dtype=complex)
    for i in range(K):
        R[:, i, i] = np.sqrt(rng.standard_gamma(M - i, size=T))
        for j in range(i + 1, K):
            R[:, i, j] = (rng.standard_normal(T) + 1j * rng.standard_normal(T)) * math.sqrt(0.5)
    B = R @ L.conj().transpose(0, 2, 1)
    return B.conj().transpose(0, 2, 1) @ B


def reference_errors_ml(points, sigma2, M, trials, rng):
    """Block errors of joint ML detection over all points."""
    C = covariances(points, sigma2)
    L = np.linalg.cholesky(C)
    Cinv = np.linalg.inv(C)
    logdet = np.linalg.slogdet(C)[1]
    errors = 0
    for start in range(0, trials, REFERENCE_BATCH):
        n = min(REFERENCE_BATCH, trials - start)
        sent = rng.integers(0, len(points), size=n)
        G = draw_gram(L[sent], M, rng)
        metric = -np.einsum("pkl,tlk->tp", Cinv, G).real - M * logdet
        errors += int(np.count_nonzero(np.argmax(metric, axis=1) != sent))
    return errors


def reference_errors_pilot(K, bits, sigma2, M, trials, rng):
    """Block errors of the pilot baseline: pilot sqrt(1/K) in slot 0 and
    square 2^bits-QAM in the others, equal energy per slot, channel
    estimated from the pilot, each data slot sliced per axis."""
    side = 2 ** (bits // 2)
    if bits % 2 or K != 2:
        raise ValueError("the reference slicer covers square QAM with one data slot")
    pam = np.arange(-(side - 1), side, 2, dtype=float)
    unit = math.sqrt(2.0 * (side * side - 1) / 3.0)  # rms of the odd-integer grid
    p = math.sqrt(1.0 / K)
    scale = math.sqrt((1.0 - p * p) / (K - 1)) / unit
    symbols = (pam[:, None] + 1j * pam[None, :]).ravel() * scale
    blocks = np.stack([np.full(symbols.size, p, dtype=complex), symbols], axis=1)
    L = np.linalg.cholesky(covariances(blocks, sigma2))
    errors = 0
    for start in range(0, trials, REFERENCE_BATCH):
        n = min(REFERENCE_BATCH, trials - start)
        sent = rng.integers(0, symbols.size, size=n)
        G = draw_gram(L[sent], M, rng)
        z = p * G[:, 0, 1] / G[:, 0, 0].real / scale
        re = np.clip(np.rint((z.real + side - 1) / 2.0), 0, side - 1).astype(int)
        im = np.clip(np.rint((z.imag + side - 1) / 2.0), 0, side - 1).astype(int)
        errors += int(np.count_nonzero(re * side + im != sent))
    return errors


def check_ser(out_csv, K, M, l_s, snr_list, schemes, trials, seed, ser_calls, ordered):
    """Rows, Wilson intervals and the reference Monte-Carlo of a SER sweep.

    ser_calls: the constellations handed to estimate_ser, in call order.
    ordered: multilevel <= unitary < pilot-qam at every SNR, and the
    multilevel interval disjoint from both baselines at the lowest SNR.
    """
    rows = read_csv(out_csv)
    expected = [(s, scheme) for s in snr_list for scheme in schemes]
    got = [(float(r["snr_db"]), r["scheme"]) for r in rows]
    if got != expected:
        return [f"{out_csv}: rows {got} do not follow SNR x scheme {expected}"]
    problems = []
    rng = np.random.default_rng([seed, 0x5EED])
    calls = iter(ser_calls)
    by_key = {}
    for r in rows:
        where = f"{out_csv} {r['scheme']} at {r['snr_db']} dB"
        fields = (int(r["K"]), int(r["M"]), int(r["l_s"]), int(r["trials"]), int(r["seed"]))
        if fields != (K, M, l_s, trials, seed):
            problems.append(f"{where}: K, M, l_s, trials, seed read {fields}")
            continue
        ser = float(r["ser"])
        errors = round(ser * trials)
        if not _close(ser, errors / trials, 1e-11):
            problems.append(f"{where}: ser {ser!r} is not a whole count over {trials}")
        low, high = wilson(errors, trials, Z95)
        if abs(low - float(r["ci_low"])) > 1e-11 or abs(high - float(r["ci_high"])) > 1e-11:
            problems.append(f"{where}: interval is not the Wilson 95% interval of {errors}/{trials}")
        sigma2 = sigma2_at(K, float(r["snr_db"]))
        if r["scheme"] == "pilot-qam":
            ref = reference_errors_pilot(K, l_s // (K - 1), sigma2, M, REFERENCE_TRIALS, rng)
        else:
            call = next(calls, None)
            if call is None or call["trials"] != trials or call["M"] != M:
                problems.append(f"{where}: no matching estimate_ser call was recorded")
                continue
            points = np.array(call["points_re"]) + 1j * np.array(call["points_im"])
            if points.shape[0] != 2**l_s or not _close(call["sigma2"], sigma2, 1e-12):
                problems.append(f"{where}: recorded constellation does not fit the row")
                continue
            energies = np.linalg.norm(points, axis=1) ** 2
            levels = 2 ** int(r["l_alpha"])
            if len(np.unique(np.round(energies, 9))) != levels:
                problems.append(f"{where}: recorded constellation has no {levels} levels")
                continue
            ref = reference_errors_ml(points, sigma2, M, REFERENCE_TRIALS, rng)
        lo_row, hi_row = wilson(errors, trials, Z_REFERENCE)
        lo_ref, hi_ref = wilson(ref, REFERENCE_TRIALS, Z_REFERENCE)
        if hi_row < lo_ref or hi_ref < lo_row:
            problems.append(
                f"{where}: ser {ser:.5g} disagrees with the reference "
                f"{ref / REFERENCE_TRIALS:.5g} beyond z = {Z_REFERENCE}"
            )
        by_key[(float(r["snr_db"]), r["scheme"])] = (ser, float(r["ci_low"]), float(r["ci_high"]))
    if ordered and not problems:
        for s in snr_list:
            ml, un, pq = (by_key[(s, k)] for k in ("multilevel", "unitary", "pilot-qam"))
            if not ml[0] <= un[0] < pq[0]:
                problems.append(f"{out_csv} at {s:g} dB: SER order is not multilevel <= unitary < pilot-qam")
        ml, un, pq = (by_key[(min(snr_list), k)] for k in ("multilevel", "unitary", "pilot-qam"))
        if not (ml[2] < un[1] and ml[2] < pq[1]):
            problems.append(f"{out_csv} at {min(snr_list):g} dB: multilevel interval overlaps a baseline")
    return problems


# ---------------------------------------------------------------------------
# KL
# ---------------------------------------------------------------------------


def kl_pairs(seed, K, n_snr, pairs):
    """The point pairs of a kl-check run, drawn as the mode documents it:
    one Philox stream keyed (seed, 2^63) gives, per SNR and pair, two points
    with a complex normal direction and a uniform(0.2, 1.4) amplitude."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1 << 63], dtype=np.uint64)))
    out = []
    for _ in range(n_snr):
        for _ in range(pairs):
            pts = []
            for _ in range(2):
                v = rng.standard_normal(K) + 1j * rng.standard_normal(K)
                v /= np.linalg.norm(v)
                pts.append(rng.uniform(0.2, 1.4) * v)
            out.append(np.array(pts))
    return out


def check_kl(out_csv, K, M, snr_list, pairs, samples, seed):
    rows = read_csv(out_csv)
    expected = [(s, p) for s in snr_list for p in range(pairs)]
    got = [(float(r["snr_db"]), int(r["pair"])) for r in rows]
    if got != expected:
        return [f"{out_csv}: rows {got} do not follow SNR x pair {expected}"]
    problems = []
    z_scores = []
    for r, pts in zip(rows, kl_pairs(seed, K, len(snr_list), pairs)):
        where = f"{out_csv} pair {r['pair']} at {r['snr_db']} dB"
        fields = (int(r["K"]), int(r["M"]), int(r["samples"]), int(r["seed"]))
        if fields != (K, M, samples, (seed + int(r["pair"])) % 2**64):
            problems.append(f"{where}: K, M, samples, seed read {fields}")
            continue
        closed = float(gaussian_kl_matrix(pts, sigma2_at(K, float(r["snr_db"])))[0, 1])
        if not _close(float(r["kl_closed"]), closed, 1e-9):
            problems.append(f"{where}: kl_closed {r['kl_closed']} is not {closed!r}")
        se = float(r["std_error"])
        z = (float(r["kl_mc"]) - closed) / se
        if not _close(float(r["z_score"]), z, 1e-6, 1e-6):
            problems.append(f"{where}: z_score {r['z_score']} is not {z!r}")
        z_scores.append(z)
    if z_scores:
        worst = max(abs(z) for z in z_scores)
        if worst > KL_Z_MAX:
            problems.append(f"{out_csv}: |z| reaches {worst:.3g} > {KL_Z_MAX}")
        share = sum(abs(z) <= 3.0 for z in z_scores) / len(z_scores)
        if share < KL_Z3_SHARE:
            problems.append(f"{out_csv}: only {share:.0%} of pairs lie within 3 standard errors")
    return problems
