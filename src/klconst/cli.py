"""Config-driven batch front end.

    klconst <mode> --config <path>

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
0, 5, 10).  A mode accepts `mode` and the fields it reads; any other
field is a config error.  The _FIELDS table holds each field's parser, the
modes that read it and its default, and a parsed config carries `mode` and
exactly the fields its mode reads, so reading another mode's field raises
AttributeError.  Direction codebooks are packed by
default (see klconst.unitary); unitary_library_<l_v> keys (design and
ser-sweep) point individual sizes at codebook files instead.  Only the
sizes a run uses and no file supplies are packed.

Exit codes: 0 success, 2 config problem, 3 numeric failure.  Identical
config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (
    ChannelParams,
    FileFormatError,
    MultiLevelConstellation,
    _sigma2_at,
    kl_full,
    save_constellation,
)
from .linksim import PilotQamScheme, _streams, estimate_ser, kl_mc_estimate, pilot_qam_run
from .multilevel import ALLOCATION_CSV_HEADER, allocate_bits
from .unitary import (
    DEFAULT_ITERATIONS,
    DEFAULT_RESTARTS,
    _L_S_MAX,
    PackingConfig,
    library_codebooks,
    load_unitary,
    optimize_unitary,
    packing_limit,
    save_unitary,
)

__all__ = ["ConfigError", "parse_config", "main"]

MODES = ("design", "ser-sweep", "kl-check", "pack-unitary")
SCHEMES = ("multilevel", "unitary", "pilot-qam")

DESIGN_CSV_HEADER = "snr_db," + ALLOCATION_CSV_HEADER
RESULT_CSV_HEADER = "scheme,K,M,l_s,l_alpha,snr_db,ser,ci_low,ci_high,trials,seed"
KL_CSV_HEADER = "pair,K,M,snr_db,kl_closed,kl_mc,std_error,z_score,samples,seed"

_LIBRARY_KEY = "unitary_library_"


class ConfigError(ValueError):
    """Bad command line or config file content; maps to exit code 2."""


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


def _as_float(raw, key):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be a real number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"field {key!r} must be finite, got {raw!r}")
    return value


def _as_items(raw, key, of=""):
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not items:
        raise ConfigError(f"field {key!r} must be a non-empty list{of}")
    return items


def _as_float_list(raw, key):
    return [_as_float(s, key) for s in _as_items(raw, key, " of reals")]


def _as_schemes(raw, key):
    items = _as_items(raw, key)
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

# Largest K: the SER path's per-substream (2048, K, K) complex arrays then
# hold at most 2^20 entries each, the same 16 MiB (2048 K^2 <= 2^20).
_K_MAX = 22

# Every field: its parser, the modes that read it, and its default, or
# REQUIRED where those modes require it.  A mode rejects a field it does not
# read, and its parsed config carries only the fields it reads; `mode`
# itself is accepted everywhere.  The _LIBRARY_KEY entry stands for every
# unitary_library_<l_v> key, whose l_v and path parse_config reads itself
# into unitary_library_paths.
REQUIRED = object()
_FIELDS = {
    "K": (partial(_as_int, low=1, high=_K_MAX + 1), MODES, REQUIRED),
    "M": (_COUNT, ("ser-sweep", "kl-check"), REQUIRED),
    "l_s": (
        partial(_as_int, low=1, high=_L_S_MAX + 1), ("design", "ser-sweep", "pack-unitary"),
        REQUIRED,
    ),
    "snr_db_list": (_as_float_list, ("design", "ser-sweep", "kl-check"), REQUIRED),
    "trials": (_COUNT, ("ser-sweep", "kl-check"), REQUIRED),
    "seed": (partial(_as_int, low=0, high=2**64), MODES, REQUIRED),
    "output_path": (lambda raw, key: raw, MODES, REQUIRED),
    "schemes": (_as_schemes, ("ser-sweep",), SCHEMES),
    "pairs": (_COUNT, ("kl-check",), 20),
    "restarts": (_COUNT, ("pack-unitary",), DEFAULT_RESTARTS),
    "iterations": (_COUNT, ("pack-unitary",), DEFAULT_ITERATIONS),
    _LIBRARY_KEY: (None, ("design", "ser-sweep"), None),
}


def parse_config(path, mode):
    """Read and validate a config file for the given mode.

    The file is the one source of every value, the seed and the output
    path included.  Returns a namespace of `mode` and the fields the mode
    reads, parsed or defaulted, plus unitary_library_paths ({l_v: path})
    for design and ser-sweep.  Raises ConfigError with the offending field
    named.
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
    library_keys = {}
    for key in [key for key in raw if key.startswith(_LIBRARY_KEY)]:
        l_v = _as_int(key[len(_LIBRARY_KEY):], key, low=0)
        if l_v in library_keys:
            raise ConfigError(f"fields {library_keys[l_v]!r} and {key!r} both name l_v = {l_v}")
        library_keys[l_v] = key
    library_paths = {l_v: raw.pop(key) for l_v, key in library_keys.items()}
    fields = {key: row for key, row in _FIELDS.items() if mode in row[1]}
    for key, (_, _, default) in fields.items():
        if default is REQUIRED and key not in raw:
            raise ConfigError(f"missing required field {key!r} for mode {mode}")
    cfg = SimpleNamespace(mode=mode, **{
        key: parse(raw[key], key) if key in raw else default
        for key, (parse, _, default) in fields.items() if key != _LIBRARY_KEY
    })

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
    if _LIBRARY_KEY in fields:
        cfg.unitary_library_paths = dict(sorted(library_paths.items()))
    return cfg


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _g(x):
    return f"{x:.12g}"


def _build_library(cfg, sizes):
    """Direction codebooks for the direction-bit counts in sizes.

    Every unitary_library_<l_v> file is validated first; sizes that no file
    supplies are then packed, each exactly as
    library_codebooks(cfg.K, range(cfg.l_s + 1), seed=cfg.seed) packs it.
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
        if uset.min_sq_dist == 0.0:
            raise ConfigError(
                f"field '{_LIBRARY_KEY}{l_v}': codebook repeats a direction (min_sq_dist 0)"
            )
        lib[l_v] = uset
    lib.update(
        library_codebooks(cfg.K, [l_v for l_v in sizes if l_v not in lib], seed=cfg.seed)
    )
    return lib


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def run_design(cfg):
    out = Path(cfg.output_path)
    stem = out.with_suffix("")
    # the table and constellation file of each point, checked before any
    # packing or write
    siblings = [
        (Path(f"{stem}_point{idx:02d}_table.csv"),
         Path(f"{stem}_point{idx:02d}_constellation.txt"))
        for idx in range(len(cfg.snr_db_list))
    ]
    for path in (path for pair in siblings for path in pair):
        if path.is_dir():
            raise ConfigError(f"field 'output_path': its point file {path} names a directory")
    lib = _build_library(cfg, range(cfg.l_s + 1))
    lines = [DESIGN_CSV_HEADER]
    grid = [_sigma2_at(cfg.K, snr_db) for snr_db in cfg.snr_db_list]
    outcomes = allocate_bits(cfg.l_s, grid, lib)
    for snr_db, outcome, (table_path, constellation_path) in zip(
        cfg.snr_db_list, outcomes, siblings
    ):
        chosen = outcome.per_allocation_table[outcome.l_alpha]
        lines.append(f"{_g(snr_db)},{chosen.csv()}")
        table = [ALLOCATION_CSV_HEADER]
        table += [row.csv() for row in outcome.per_allocation_table]
        table_path.write_text("\n".join(table) + "\n")
        save_constellation(outcome.constellation, constellation_path)
    out.write_text("\n".join(lines) + "\n")
    return 0


def run_ser_sweep(cfg):
    pilot = None
    if "pilot-qam" in cfg.schemes:
        try:
            pilot = PilotQamScheme(cfg.K, cfg.l_s)
        except ValueError as exc:
            raise ConfigError(f"fields 'K'/'l_s': {exc}") from exc
    if "multilevel" in cfg.schemes:
        sizes = range(cfg.l_s + 1)
    elif "unitary" in cfg.schemes:
        sizes = [cfg.l_s]
    else:
        sizes = []
    lib = _build_library(cfg, sizes)
    # the whole SNR list is designed before any trial, so a failing point
    # fails the run before any Monte-Carlo
    outcomes = [None] * len(cfg.snr_db_list)
    if "multilevel" in cfg.schemes:
        grid = [_sigma2_at(cfg.K, snr_db) for snr_db in cfg.snr_db_list]
        outcomes = allocate_bits(cfg.l_s, grid, lib)
    lines = [RESULT_CSV_HEADER]
    for snr_db, outcome in zip(cfg.snr_db_list, outcomes):
        params = ChannelParams.from_snr_db(cfg.M, cfg.K, snr_db)
        sigma2 = params.sigma2
        for scheme in cfg.schemes:
            if scheme == "multilevel":
                est = estimate_ser(outcome.constellation, params, cfg.trials, cfg.seed)
                l_alpha = str(outcome.l_alpha)
            elif scheme == "unitary":
                one_level = MultiLevelConstellation([1.0], sigma2, lib[cfg.l_s])
                est = estimate_ser(one_level, params, cfg.trials, cfg.seed)
                l_alpha = "0"
            else:
                est = pilot_qam_run(pilot, params, cfg.trials, cfg.seed)
                l_alpha = ""
            lines.append(
                f"{scheme},{cfg.K},{cfg.M},{cfg.l_s},{l_alpha},{_g(snr_db)},"
                f"{_g(est.ser)},{_g(est.ci95_low)},{_g(est.ci95_high)},"
                f"{est.trials},{est.seed}"
            )
    Path(cfg.output_path).write_text("\n".join(lines) + "\n")
    return 0


def run_kl_check(cfg):
    (pair_rng,) = _streams(cfg.seed, [1 << 63])
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
                points.append(pair_rng.uniform(0.2, 1.4) * v)
            x_i, x_k = points
            closed = kl_full(x_i, x_k, sigma2)
            seed_p = (cfg.seed + p) % 2**64
            est = kl_mc_estimate(x_i, x_k, params, cfg.trials, seed_p)
            z = (est.estimate - closed) / est.std_error if est.std_error else 0.0
            lines.append(
                f"{p},{cfg.K},{cfg.M},{_g(snr_db)},{_g(closed)},{_g(est.estimate)},"
                f"{_g(est.std_error)},{_g(z)},{est.samples},{est.seed}"
            )
    Path(cfg.output_path).write_text("\n".join(lines) + "\n")
    return 0


def run_pack_unitary(cfg):
    uset = optimize_unitary(
        PackingConfig(
            K=cfg.K,
            cardinality=2**cfg.l_s,
            restarts=cfg.restarts,
            iterations=cfg.iterations,
            seed=cfg.seed,
        )
    )
    save_unitary(uset, cfg.output_path)
    print(
        f"packed {uset.size} directions in K={uset.K}: "
        f"min_sq_dist={_g(uset.min_sq_dist)}, "
        f"packing_limit={_g(packing_limit(uset.K, uset.size))}"
    )
    return 0


_RUNNERS = {
    "design": run_design,
    "ser-sweep": run_ser_sweep,
    "kl-check": run_kl_check,
    "pack-unitary": run_pack_unitary,
}


def main(argv=None):
    """Parse the command line and config, run the mode; returns the exit code.

    The output file's directory is created once for the whole run, before
    any file is written.  Config problems, found while parsing or running,
    exit 2; any other ValueError or ArithmeticError, and a MemoryError, is a
    numeric failure and exits 3.
    """
    parser = argparse.ArgumentParser(
        prog="klconst",
        description="Design and evaluate multi-level non-coherent constellations.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="flat key = value file")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.mode)
        out = Path(cfg.output_path)
        if out.is_dir():
            raise ConfigError(f"field 'output_path' names a directory: {out}")
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"field 'output_path': cannot create its directory: {exc}") from exc
        return _RUNNERS[cfg.mode](cfg)
    except ConfigError as exc:
        print(f"klconst: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, MemoryError) as exc:
        print(f"klconst: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
