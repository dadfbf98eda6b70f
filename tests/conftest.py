"""Shared generators for randomized test systems."""

import functools

import numpy as np
import pytest

from contourgf import LevelSystem, Statistics

# Eigenvalue windows for random draws.  Occupations stay away from the
# fermionic endpoints and from large bosonic values so discretization
# error margins in the oracle comparisons stay representative.
EPSILON_RANGE = (-1.5, 1.5)
OCCUPATION_RANGE = {
    Statistics.BOSON: (0.2, 1.2),
    Statistics.FERMION: (0.1, 0.9),
}


@pytest.fixture
def weight_computations(monkeypatch):
    """The systems whose Keldysh weight W is computed while the test runs,
    one entry per computation: a read of a system's cached W adds none."""
    computed = []
    compute = LevelSystem.keldysh_weight.func

    def counted(system):
        computed.append(system)
        return compute(system)

    counted_weight = functools.cached_property(counted)
    counted_weight.__set_name__(LevelSystem, "keldysh_weight")
    monkeypatch.setattr(LevelSystem, "keldysh_weight", counted_weight)
    return computed


def random_unitary(rng, dimension):
    gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    basis, upper = np.linalg.qr(gauss)
    diag = np.diag(upper)
    return basis * (diag / np.abs(diag))


def random_hermitian(rng, dimension, low, high):
    """Hermitian matrix with eigenvalues uniform in [low, high]."""
    basis = random_unitary(rng, dimension)
    return (basis * rng.uniform(low, high, size=dimension)) @ basis.conj().T


def random_system(rng, statistics, dimension):
    """Valid random LevelSystem for either statistics."""
    low, high = OCCUPATION_RANGE[statistics]
    epsilon = random_hermitian(rng, dimension, *EPSILON_RANGE)
    nbar = random_hermitian(rng, dimension, low, high)
    return LevelSystem(epsilon, nbar, statistics)


def taylor_propagator(matrix, scale, terms=60):
    """Series oracle for exp(-i * matrix * scale), independent of eigh."""
    matrix = np.asarray(matrix, dtype=complex)
    result = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * scale * matrix) / k
        result = result + term
    return result
