"""Multi-level non-coherent constellations for SIMO block-fading links.

The package designs signal sets for a single-antenna transmitter and an
M-antenna receiver with no channel knowledge on either side: information
rides on the direction and energy of a K-symbol block, and the design
maximizes the minimum pairwise KL distance between the received-signal
densities.  Alongside the design routines it ships the exact ML block
detectors, a reproducible Monte-Carlo link simulator with a pilot-based
QAM baseline, and a small config-driven command line (`klconst`).

The public API is the __all__ of each library module, re-exported here.
"""

from . import core, detection, linksim, multilevel, unitary
from .core import *
from .detection import *
from .linksim import *
from .multilevel import *
from .unitary import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *detection.__all__,
    *linksim.__all__,
    *multilevel.__all__,
    *unitary.__all__,
    "__version__",
]
