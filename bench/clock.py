"""Calibrated clock: wall time rescaled by a reference timed alongside.

On the shared machine this benchmark was defined on (2 x86-64 cores), the
same operation's wall time swings by up to 2x, in phases lasting from 10 ms
to minutes, with the process on-CPU throughout: other tenants slow the core
down.  So every measured interval is bracketed by runs of a fixed reference
and reported as

    wall time * nominal / mean(reference time before, reference time after)

that is, the time the interval would have taken with the machine running the
reference at its nominal speed.  A change to hermsymp moves the interval and
not the reference; a slow phase of the machine moves both.

There are two references, matched to the work they calibrate, because a
slow phase does not slow all work alike:

- ``compute``: small complex numpy linear algebra driven from Python, the
  kind of work hermsymp does, but none of its code.
- ``import``: start an interpreter that imports numpy
  (``python -I -c "import numpy"``), for operations that are whole
  processes, which spend most of their time starting up and importing
  numpy.  Over 150 s of CLI calls, the per-call spread (coefficient of
  variation per command) was 8.7% against this reference, 23% against a
  bare interpreter start (``python -S -I -c pass``) and 12.5% uncalibrated.
  For the median of five fresh ``import hermsymp.cli`` processes, the
  quartile spread over ten repeats was 5% against this reference and 32%
  against a bare interpreter start.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Reference times on a lightly loaded core of the machine above; they only
# set the scale, so that calibrated times read close to wall times there.
NOMINAL_S = {"compute": 0.75e-3, "import": 0.17}


class Clock:
    def __init__(self, kind: str = "compute"):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._g = g.conj().T @ g + 8.0 * np.eye(8)

    def reference(self) -> float:
        """Wall time of one run of the reference."""
        start = perf_counter()
        if self.kind == "import":
            subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True, timeout=60)
        else:
            self._compute()
        return perf_counter() - start

    def _compute(self) -> None:
        a, g = self._a, self._g
        for _ in range(8):
            kept = []
            for j in range(a.shape[1]):
                v = a[:, j]
                for q in kept:
                    v = v - q * (np.conj(q) @ g @ v)
                kept.append(v / np.sqrt(abs(np.conj(v) @ g @ v)))
            q = np.column_stack(kept)
            np.linalg.svd(q.conj().T @ g @ a, compute_uv=False)
            np.linalg.eigvals(q.conj().T @ g @ q)
            np.linalg.solve(g, a)

    def calibrated(self, wall: float, before: float, after: float) -> float:
        """``wall`` seconds on the calibrated clock, given the bracketing references."""
        return wall * 2.0 * self.nominal / (before + after)
