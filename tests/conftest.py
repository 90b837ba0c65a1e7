"""Shared fixtures. The big direction library is built once per session."""

import numpy as np
import pytest

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
