"""Reference kernels that gauge how fast the machine runs at the moment.

On a small shared host the speed of a virtual CPU drifts by up to a
factor of two over seconds to minutes, as other tenants load the
physical cores.  The process's own CPU time drifts with it (the slow
spells are not steal time), so neither wall time nor CPU time of a pass
repeats from one run to the next.  A fixed kernel timed right before
each sample slows down with it.  Dividing the sample by the kernel's
time, and multiplying by the kernel's nominal time, gives the time the
sample would take at a fixed machine speed.

Each kernel mimics one kind of work, because a slow spell slows
interpreter-bound code more than BLAS-bound code:

* ``py``: formatting floats into text lines, as the ``gf`` writer does;
* ``np``: many small complex solves and products, as the structure
  suite and ``fix_constants`` make;
* ``lu``: one dense complex LU factorization, as the discrete route makes.

The kernels use only Python, numpy and scipy, never the package under
test, so they run the same on every commit of it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor

# Median time of each kernel, in seconds, over a few minutes on the
# 2-vCPU Intel Xeon VM the benchmark was tuned on, with one BLAS thread.
# Normalised times are stated at this speed.
NOMINAL_S = {"py": 0.027, "np": 0.018, "lu": 0.077}

_PY_LINES = 12_000
_NP_SOLVES = 1_500
_LU_SIZE = 1024


class Reference:
    """The reference kernels, with their inputs built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                       for _ in range(8)]
        self._dense = (rng.standard_normal((_LU_SIZE, _LU_SIZE))
                       + 1j * rng.standard_normal((_LU_SIZE, _LU_SIZE)))

    def _py(self) -> None:
        lines = [f"{i * 1e-3:.17g},{-i * 2.5e-4:.17g},R,{i % 4},{i % 3}"
                 for i in range(_PY_LINES)]
        "\n".join(lines)

    def _np(self) -> None:
        small = self._small
        for i in range(_NP_SOLVES):
            np.linalg.solve(small[i % 8], small[(i + 1) % 8]) @ small[(i + 3) % 8]

    def _lu(self) -> None:
        lu_factor(self._dense, check_finite=False)

    def seconds(self, kind: str) -> float:
        """Time of one run of the ``kind`` kernel."""
        kernel = {"py": self._py, "np": self._np, "lu": self._lu}[kind]
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start


class Gauge:
    """Puts samples of one kind of work at the nominal machine speed.

    The machine can change speed within a second, so the kernel runs
    both before and after each sample, and the sample is scaled by the
    mean of the two.  Back-to-back samples share the timing between
    them; ``reset`` drops it when other work ran in between.
    """

    def __init__(self, reference: Reference, kind: str):
        self.reference = reference
        self.kind = kind
        self._last = None

    def reset(self) -> None:
        self._last = None

    def measure(self, run):
        """Call ``run()``; returns ``(speed, result)``, where ``speed``
        turns a time measured during the call into a normalised one."""
        before = self._last if self._last is not None else self.reference.seconds(self.kind)
        result = run()
        self._last = self.reference.seconds(self.kind)
        return NOMINAL_S[self.kind] / ((before + self._last) / 2), result
