"""Shared fixtures. The big direction library is built once per session."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klconst
from klconst import library_codebooks


@pytest.fixture(scope="session")
def library_k2_ls6():
    # packings for N = 1..64 in C^2, reused everywhere
    return library_codebooks(2, range(7), seed=0)


@pytest.fixture(scope="session")
def library_k2_ls2():
    return library_codebooks(2, range(3), seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


def _per_element_layout(header, amplitudes, vectors):
    # a layout file's text as formatting one numpy scalar at a time writes
    # it: the reference for the writer's bytes
    lines = [header] + [f"{a:.17g}" for a in amplitudes]
    for v in vectors:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in v))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def per_element_layout():
    return _per_element_layout


@pytest.fixture(scope="session")
def run_python():
    """run_python(argv, **env) runs `python *argv` in a child process that
    imports klconst from this source tree, with env added to its
    environment, and returns the CompletedProcess with text output.  A child
    is needed where a test must see a fresh interpreter: what a run
    imports, or a BLAS thread count, which BLAS reads when it loads."""
    src = str(Path(klconst.__file__).resolve().parents[1])

    def run(argv, **env):
        return subprocess.run(
            [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src, **env),
            capture_output=True, text=True, timeout=120,
        )

    return run
