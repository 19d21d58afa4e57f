"""A fixed calibration kernel that measures how fast the host runs now.

The kernel does the kinds of work the package does, on fixed inputs:
batched eigenvalues of small complex matrices and a recursive matching
sum (bdg, blochmessiah, hafnian), a compensated Python-level sum
(hafnian, sampling), Hermite functions and their overlap integrals on a
16384-point grid (model), and inverse-CDF draws (sampling).  Work of each
kind slows by its own amount when other tenants load the host, so the
kernel holds some of each.  It belongs to the benchmark, so no change to
the package changes its cost; only the host's speed does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the 2-core x86 box the benchmark was written
# on, so that scaled timings read as seconds on that box.
REFERENCE_KERNEL_S = 3.0e-3

_RNG = np.random.default_rng(2409)
_BATCH = _RNG.standard_normal((48, 6, 6)) + 1j * _RNG.standard_normal((48, 6, 6))
_MATRIX = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_MATRIX = (_MATRIX + _MATRIX.T) / 8.0
_GRID = np.linspace(-8.0, 8.0, 16384)
_STEP = _GRID[1] - _GRID[0]
_WEIGHTS = _RNG.random(1024)
_UNIFORMS = _RNG.random(8192)


def _matching_sum(a, idx):
    if not idx:
        return 1.0 + 0.0j
    first, rest = idx[0], idx[1:]
    total = 0.0 + 0.0j
    for pos, j in enumerate(rest):
        total += a[first, j] * _matching_sum(a, rest[:pos] + rest[pos + 1 :])
    return total


def _overlaps():
    x = _GRID
    h = [np.pi**-0.25 * np.exp(-0.5 * x * x)]
    h.append(np.sqrt(2.0) * x * h[0])
    h.append(x * h[1] - np.sqrt(0.5) * h[0])
    curvature = [np.gradient(np.gradient(f, _STEP), _STEP) for f in h]
    return sum(float(np.dot(f, g)) * _STEP for f in h for g in curvature)


def _draws():
    cdf = np.cumsum(_WEIGHTS)
    picks = np.searchsorted(cdf, _UNIFORMS * cdf[-1])
    return int(np.bincount(picks, minlength=_WEIGHTS.size).max())


def kernel():
    lam = np.linalg.eigvals(_BATCH)
    total = comp = 0.0 + 0.0j
    for value in lam.ravel().tolist():
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    total += _matching_sum(_MATRIX, tuple(range(8)))
    return total + _overlaps() + _draws()


def timed():
    """Wall time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, kernel_times):
    """``seconds`` at the reference host speed, given kernel times taken
    around it: divided by their median, times REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernel_times)
