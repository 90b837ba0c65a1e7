"""Multi-level non-coherent constellations for SIMO block-fading links.

The package designs signal sets for a single-antenna transmitter and an
M-antenna receiver with no channel knowledge on either side: information
rides on the direction and energy of a K-symbol block, and the design
maximizes the minimum pairwise KL distance between the received-signal
densities.  Alongside the design routines it ships the exact ML block
detectors, a reproducible Monte-Carlo link simulator with a pilot-based
QAM baseline, and a small config-driven command line (`klconst`).
"""

from .core import (
    ChannelParams,
    FileFormatError,
    LevelSet,
    MultiLevelConstellation,
    SignalPoint,
    UnitarySet,
    canonical_direction,
    kl_full,
    load_constellation,
    min_kl_bruteforce,
    pairwise_kl_matrix,
    save_constellation,
)
from .detection import detect_joint, detect_two_stage, gram
from .linksim import (
    KlMcEstimate,
    PilotQamScheme,
    SerEstimate,
    estimate_ser,
    kl_mc_estimate,
    pilot_qam_run,
    simulate_block,
    square_qam_alphabet,
    wilson_interval,
)
from .multilevel import (
    AllocationRow,
    BisectionResult,
    DesignOutcome,
    allocate_bits,
    build_level_set,
    energy_only_levels,
    solve_bisection,
)
from .unitary import (
    PackingConfig,
    library_codebooks,
    load_unitary,
    optimize_unitary,
    packing_limit,
    save_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationRow",
    "BisectionResult",
    "ChannelParams",
    "DesignOutcome",
    "FileFormatError",
    "KlMcEstimate",
    "LevelSet",
    "MultiLevelConstellation",
    "PackingConfig",
    "PilotQamScheme",
    "SerEstimate",
    "SignalPoint",
    "UnitarySet",
    "allocate_bits",
    "build_level_set",
    "canonical_direction",
    "detect_joint",
    "detect_two_stage",
    "energy_only_levels",
    "estimate_ser",
    "gram",
    "kl_full",
    "kl_mc_estimate",
    "library_codebooks",
    "load_constellation",
    "load_unitary",
    "min_kl_bruteforce",
    "optimize_unitary",
    "packing_limit",
    "pairwise_kl_matrix",
    "pilot_qam_run",
    "save_constellation",
    "save_unitary",
    "simulate_block",
    "solve_bisection",
    "square_qam_alphabet",
    "wilson_interval",
    "__version__",
]
