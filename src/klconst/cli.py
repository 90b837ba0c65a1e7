"""Config-driven batch front end.

    klconst <mode> --config <path> [--seed N] [--out <path>]

Modes
-----
design
    Pick the bit split and build the constellation at each SNR of a grid.
    Writes a summary CSV (one chosen-allocation row per SNR) to the output
    path, plus a full allocation table CSV and a constellation file per
    SNR next to it, suffixed _pointNN.
ser-sweep
    Monte-Carlo SER for the designed multi-level constellation, the
    1-level unitary design, and the pilot-based QAM baseline over an SNR
    grid, one CSV row per scheme per SNR.  All schemes share the seed, so
    they share the message indices and base Bartlett draws of each
    substream (common random numbers).
kl-check
    Draw random point pairs and compare the closed-form KL distance with
    its Monte-Carlo estimate, one CSV row per pair per SNR.
pack-unitary
    Optimize a direction codebook of 2^l_s vectors and write it out.

Config files are flat `key = value` text; a line whose first non-blank
character is `#` is a comment.  Lists are comma-separated (snr_db_list =
0, 5, 10).  A mode accepts `mode` and the fields it reads (_FIELDS); any
other field is a config error.  Direction codebooks are built in-process
by default; unitary_library_<l_v> keys (design and ser-sweep) point
individual sizes at codebook files instead.  Only the sizes a run uses
and no file supplies are packed.

Exit codes: 0 success, 2 config problem, 3 numeric failure.  Identical
config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    ChannelParams,
    FileFormatError,
    LevelSet,
    MultiLevelConstellation,
    SignalPoint,
    _sigma2_at,
    kl_full,
    save_constellation,
)
from .linksim import (
    RESULT_CSV_HEADER,
    _stream,
    estimate_ser,
    kl_mc_estimate,
    pilot_qam_run,
    pilot_qam_scheme,
)
from .multilevel import ALLOCATION_CSV_HEADER, allocate_bits
from .unitary import (
    DEFAULT_ITERATIONS,
    DEFAULT_RESTARTS,
    DEFAULT_SMOOTHING,
    PackingConfig,
    library_codebook,
    load_unitary,
    optimize_unitary,
    save_unitary,
    welch_limit,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run", "main"]

MODES = ("design", "ser-sweep", "kl-check", "pack-unitary")
SCHEMES = ("multilevel", "unitary", "pilot-qam")

DESIGN_CSV_HEADER = "snr_db," + ALLOCATION_CSV_HEADER
KL_CSV_HEADER = "pair,K,M,snr_db,kl_closed,kl_mc,std_error,z_score,samples,seed"

_LIBRARY_KEY = "unitary_library_"


class ConfigError(ValueError):
    """Bad command line or config file content; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """One parsed and validated run description."""

    mode: str
    output_path: str
    seed: int
    K: int = 0
    M: int = 0
    l_s: int = 0
    snr_db_list: list = field(default_factory=list)
    trials: int = 0
    unitary_library_paths: dict = field(default_factory=dict)
    schemes: tuple = SCHEMES
    pairs: int = 20
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    smoothing: float = DEFAULT_SMOOTHING


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _read_pairs(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _as_int(raw, key, low=None, high=None):
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be an integer, got {raw!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"field {key!r} must be >= {low}, got {value}")
    if high is not None and value >= high:
        raise ConfigError(f"field {key!r} must be < {high}, got {value}")
    return value


def _as_float(raw, key, positive=False):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be a real number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"field {key!r} must be finite, got {raw!r}")
    if positive and value <= 0:
        raise ConfigError(f"field {key!r} must be > 0, got {value}")
    return value


def _as_float_list(raw, key):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"field {key!r} must be a non-empty list of reals")
    return [_as_float(s, key) for s in items]


def _as_schemes(raw, key):
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not items:
        raise ConfigError(f"field {key!r} must be a non-empty list")
    for name in items:
        if name not in SCHEMES:
            raise ConfigError(
                f"field {key!r} has unknown entry {name!r}; "
                f"valid entries: {', '.join(SCHEMES)}"
            )
    if len(set(items)) != len(items):
        raise ConfigError(f"field {key!r} has duplicate entries")
    return items


_COUNT = partial(_as_int, low=1)

# Every field: its parser, the modes that read it, and whether those modes
# require it (optional ones keep their ExperimentConfig default).  A mode
# rejects a field it does not read; `mode` itself is accepted everywhere.
# The _LIBRARY_KEY entry stands for every unitary_library_<l_v> key, whose
# l_v and path parse_config reads itself.
_FIELDS = {
    "K": (_COUNT, MODES, True),
    "M": (_COUNT, ("ser-sweep", "kl-check"), True),
    "l_s": (_COUNT, ("design", "ser-sweep", "pack-unitary"), True),
    "snr_db_list": (_as_float_list, ("design", "ser-sweep", "kl-check"), True),
    "trials": (_COUNT, ("ser-sweep", "kl-check"), True),
    "seed": (partial(_as_int, low=0, high=2**64), MODES, True),
    "output_path": (lambda raw, key: raw, MODES, True),
    "schemes": (_as_schemes, ("ser-sweep",), False),
    "pairs": (_COUNT, ("kl-check",), False),
    "restarts": (_COUNT, ("pack-unitary",), False),
    "iterations": (_COUNT, ("pack-unitary",), False),
    "smoothing": (partial(_as_float, positive=True), ("pack-unitary",), False),
    _LIBRARY_KEY: (None, ("design", "ser-sweep"), False),
}


def parse_config(path, mode, seed_override=None, out_override=None):
    """Read and validate a config file for the given mode.

    CLI overrides (--seed, --out) replace the file's values before
    validation.  Raises ConfigError with the offending field named.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
    raw = _read_pairs(path)
    claimed = raw.pop("mode", mode)
    if claimed != mode:
        raise ConfigError(
            f"field 'mode' says {claimed!r} but the command line says {mode!r}"
        )
    for key in raw:
        name = _LIBRARY_KEY if key.startswith(_LIBRARY_KEY) else key
        if name not in _FIELDS:
            raise ConfigError(f"unknown field {key!r} in {path}")
        modes = _FIELDS[name][1]
        if mode not in modes:
            raise ConfigError(
                f"field {key!r} is not read by mode {mode}; "
                f"it applies to {', '.join(modes)}"
            )
    library_paths = {
        _as_int(key[len(_LIBRARY_KEY):], key, low=0): raw.pop(key)
        for key in list(raw)
        if key.startswith(_LIBRARY_KEY)
    }
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    if out_override is not None:
        raw["output_path"] = str(out_override)
    for key, (_, modes, required) in _FIELDS.items():
        if required and mode in modes and key not in raw:
            raise ConfigError(f"missing required field {key!r} for mode {mode}")
    parsed = {
        key: parse(raw[key], key) for key, (parse, *_) in _FIELDS.items() if key in raw
    }
    cfg = ExperimentConfig(mode=mode, **parsed)

    if cfg.K == 1 and (
        mode in ("design", "pack-unitary")
        or (mode == "ser-sweep" and {"multilevel", "unitary"} & set(cfg.schemes))
    ):
        raise ConfigError(
            f"field 'K' must be >= 2 for mode {mode} with packed directions: "
            "C^1 holds only one direction, so no two codebook entries differ"
        )

    for l_v, lib_path in library_paths.items():
        if not Path(lib_path).is_file():
            raise ConfigError(
                f"field '{_LIBRARY_KEY}{l_v}' references a missing file: {lib_path}"
            )
    cfg.unitary_library_paths = dict(sorted(library_paths.items()))
    return cfg


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _g(x):
    return f"{x:.12g}"


def _write_text(path, text):
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)


def _build_library(cfg, sizes):
    """Direction codebooks for the direction-bit counts in sizes.

    Every unitary_library_<l_v> file is validated first; sizes that no file
    supplies are then packed exactly as default_library would pack them.
    """
    lib = {}
    for l_v, path in cfg.unitary_library_paths.items():
        if l_v > cfg.l_s:
            raise ConfigError(
                f"field '{_LIBRARY_KEY}{l_v}' exceeds l_s = {cfg.l_s}"
            )
        try:
            uset = load_unitary(path)
        except FileFormatError as exc:
            raise ConfigError(f"field '{_LIBRARY_KEY}{l_v}': {exc}") from exc
        if uset.K != cfg.K:
            raise ConfigError(
                f"field '{_LIBRARY_KEY}{l_v}': codebook K = {uset.K} does not "
                f"match config K = {cfg.K}"
            )
        if uset.size != 2**l_v:
            raise ConfigError(
                f"field '{_LIBRARY_KEY}{l_v}': codebook holds {uset.size} "
                f"vectors, expected {2 ** l_v}"
            )
        lib[l_v] = uset
    for l_v in sizes:
        if l_v not in lib:
            lib[l_v] = library_codebook(cfg.K, l_v, seed=cfg.seed)
    return lib


def _one_level(directions, sigma2):
    return MultiLevelConstellation(LevelSet([1.0], sigma2), directions)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def run_design(cfg):
    lib = _build_library(cfg, range(cfg.l_s + 1))
    out = Path(cfg.output_path)
    stem = out.with_suffix("")
    lines = [DESIGN_CSV_HEADER]
    for idx, snr_db in enumerate(cfg.snr_db_list):
        sigma2 = _sigma2_at(cfg.K, snr_db)
        outcome = allocate_bits(cfg.l_s, sigma2, lib)
        chosen = outcome.per_allocation_table[outcome.l_alpha]
        lines.append(f"{_g(snr_db)},{chosen.csv()}")
        table = [ALLOCATION_CSV_HEADER]
        table += [row.csv() for row in outcome.per_allocation_table]
        _write_text(f"{stem}_point{idx:02d}_table.csv", "\n".join(table) + "\n")
        save_constellation(
            outcome.constellation, f"{stem}_point{idx:02d}_constellation.txt"
        )
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def run_ser_sweep(cfg):
    pilot = None
    if "pilot-qam" in cfg.schemes:
        try:
            pilot = pilot_qam_scheme(cfg.K, cfg.l_s)
        except ValueError as exc:
            raise ConfigError(f"fields 'K'/'l_s': {exc}") from exc
    if "multilevel" in cfg.schemes:
        sizes = range(cfg.l_s + 1)
    elif "unitary" in cfg.schemes:
        sizes = [cfg.l_s]
    else:
        sizes = []
    lib = _build_library(cfg, sizes)
    lines = [RESULT_CSV_HEADER]
    for snr_db in cfg.snr_db_list:
        params = ChannelParams.from_snr_db(cfg.M, cfg.K, snr_db)
        sigma2 = params.sigma2
        for scheme in cfg.schemes:
            if scheme == "multilevel":
                outcome = allocate_bits(cfg.l_s, sigma2, lib)
                est = estimate_ser(outcome.constellation, params, cfg.trials, cfg.seed)
                l_alpha = str(outcome.l_alpha)
            elif scheme == "unitary":
                est = estimate_ser(
                    _one_level(lib[cfg.l_s], sigma2), params, cfg.trials, cfg.seed
                )
                l_alpha = "0"
            else:
                est = pilot_qam_run(pilot, params, cfg.trials, cfg.seed)
                l_alpha = ""
            lines.append(
                f"{scheme},{cfg.K},{cfg.M},{cfg.l_s},{l_alpha},{_g(snr_db)},"
                f"{_g(est.ser)},{_g(est.ci95_low)},{_g(est.ci95_high)},"
                f"{est.trials},{est.seed}"
            )
    _write_text(cfg.output_path, "\n".join(lines) + "\n")
    return 0


def run_kl_check(cfg):
    pair_rng = _stream(cfg.seed, 1 << 63)
    lines = [KL_CSV_HEADER]
    for snr_db in cfg.snr_db_list:
        params = ChannelParams.from_snr_db(cfg.M, cfg.K, snr_db)
        sigma2 = params.sigma2
        for p in range(cfg.pairs):
            points = []
            for _ in range(2):
                v = pair_rng.standard_normal(cfg.K) + 1j * pair_rng.standard_normal(
                    cfg.K
                )
                v /= np.linalg.norm(v)
                points.append(SignalPoint(pair_rng.uniform(0.2, 1.4), v))
            s_i, s_k = points
            closed = kl_full(s_i, s_k, sigma2)
            seed_p = (cfg.seed + p) % 2**64
            est = kl_mc_estimate(s_i, s_k, params, cfg.trials, seed_p)
            z = (est.estimate - closed) / est.std_error if est.std_error else 0.0
            lines.append(
                f"{p},{cfg.K},{cfg.M},{_g(snr_db)},{_g(closed)},{_g(est.estimate)},"
                f"{_g(est.std_error)},{_g(z)},{est.samples},{est.seed}"
            )
    _write_text(cfg.output_path, "\n".join(lines) + "\n")
    return 0


def run_pack_unitary(cfg):
    uset = optimize_unitary(
        PackingConfig(
            K=cfg.K,
            cardinality=2**cfg.l_s,
            restarts=cfg.restarts,
            iterations=cfg.iterations,
            smoothing=cfg.smoothing,
            seed=cfg.seed,
        )
    )
    Path(cfg.output_path).parent.mkdir(parents=True, exist_ok=True)
    save_unitary(uset, cfg.output_path)
    print(
        f"packed {uset.size} directions in K={uset.K}: "
        f"min_sq_dist={_g(uset.min_sq_dist)}, "
        f"welch_limit={_g(welch_limit(uset.K, uset.size))}"
    )
    return 0


_RUNNERS = {
    "design": run_design,
    "ser-sweep": run_ser_sweep,
    "kl-check": run_kl_check,
    "pack-unitary": run_pack_unitary,
}


def run(cfg):
    """Execute a parsed config; returns the process exit code.

    Config problems found while running raise ConfigError; any other
    ValueError or ArithmeticError is a numeric failure.
    """
    return _RUNNERS[cfg.mode](cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="klconst",
        description="Design and evaluate multi-level non-coherent constellations.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="flat key = value file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override config output_path")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.mode, args.seed, args.out)
        return run(cfg)
    except ConfigError as exc:
        print(f"klconst: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"klconst: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
