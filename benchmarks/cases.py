"""What the benchmark files share: the ``tracemalloc`` peak of one call,
the random matrices of their level systems, and the cases of the
continuum and the oracle curves.

numpy alone is imported here, so that ``ab_inprocess.py`` and
``cold_gf.py`` can take the cases of ``bench_gf_writer.py``,
``bench_continuum.py`` and ``bench_oracle.py`` beside two trees of
their own.
"""

import tracemalloc

import numpy as np


def peak_mib(function, *args, **kwargs) -> float:
    """``tracemalloc`` peak of one call, in MiB."""
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def random_matrices(dimension, occupations):
    """An energy matrix with eigenvalues drawn from [-1, 1] and an
    occupation matrix with eigenvalues ``occupations``, in independent
    random eigenbases so the two do not commute.  Seeded by
    ``dimension``: the energies are drawn first, then the energy basis,
    then the occupation basis."""
    rng = np.random.default_rng(dimension)

    def hermitian(spectrum):
        gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        basis, _ = np.linalg.qr(gauss)
        return (basis * spectrum) @ basis.conj().T

    epsilon = hermitian(rng.uniform(-1.0, 1.0, size=dimension))
    return epsilon, hermitian(occupations)


# The dimensions of the continuum curve, and the range its occupations
# spread over per statistics.
CONTINUUM_DIMENSIONS = [1, 2, 4, 8, 16]
CONTINUUM_OCCUPATIONS = {"boson": (0.0, 3.0), "fermion": (0.05, 0.95)}


def continuum_matrices(statistics: str, dimension: int):
    """The energy and occupation matrices of the continuum curve's
    system: eps in [-1, 1] and nbar evenly spread over the range of the
    statistics named ``statistics``."""
    low, high = CONTINUUM_OCCUPATIONS[statistics]
    occupations = low + (high - low) * (np.arange(dimension) + 0.5) / dimension
    return random_matrices(dimension, occupations)


# The oracle curve: run_oracle_suite on the grids (N / 2, N) per d, up
# to 2 N d = 8192, the default cap, which each d reaches.
ORACLE_DIMENSIONS = [1, 2, 4]
ORACLE_SLICES = [64, 128, 256, 512, 1024, 2048, 4096]
ORACLE_DIMENSION_LIMIT = 8192


def oracle_cases() -> list[tuple[int, int]]:
    """``(dimension, n_slices)`` of every case of the oracle curve."""
    return [
        (dimension, n_slices)
        for dimension in ORACLE_DIMENSIONS
        for n_slices in ORACLE_SLICES
        if 2 * n_slices * dimension <= ORACLE_DIMENSION_LIMIT
    ]


def oracle_matrices(dimension: int):
    """The energy and occupation matrices of the oracle curve's boson
    system: eps in [-1, 1] and nbar in [0.2, 1.5]."""
    return random_matrices(dimension, np.linspace(0.2, 1.5, dimension))
