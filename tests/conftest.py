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
