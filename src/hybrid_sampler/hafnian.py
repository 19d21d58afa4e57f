"""Exact hafnian evaluation for complex symmetric matrices.

Two independent routes are provided and cross-validated in the test suite:

* :func:`hafnian_naive` sums over all perfect matchings by recursive
  first-row pairing.  Cost grows as ``(2n - 1)!!`` which keeps it honest
  only up to 16 x 16, but it is trivially correct and serves as the
  reference oracle.
* :func:`hafnian_powertrace` uses the inclusion-exclusion formula over
  subsets of index pairs, with the per-subset term assembled from power
  traces of the pair-swapped submatrix.  Cost is ``O(2^n poly(n))`` which
  handles desk-scale matrices up to 32 x 32.  Subset terms are evaluated
  in fixed-size batches and reduced over a deterministic pairwise tree
  with compensated accumulation.

Count probabilities do not go through either route: the sampling module
fills all replicated hafnians of a lattice with one Hermite recurrence.
These routes serve the ``haf`` command and the tests.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

__all__ = [
    "hafnian_naive",
    "hafnian_powertrace",
    "HafnianSizeError",
    "NAIVE_MAX_DIM",
    "POWERTRACE_MAX_DIM",
]

NAIVE_MAX_DIM = 16
POWERTRACE_MAX_DIM = 32

# Subsets are processed in fixed-size batches, which bounds the size of the
# batched submatrix arrays.
_BATCH = 2048


class HafnianSizeError(ValueError):
    """The input matrix exceeds the evaluation budget of the method."""


def _checked_matrix(mat, tol_symmetry, max_dim, caller):
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("The input matrix is not square")
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError(
            "The input matrix has odd dimension %d; hafnians are defined "
            "for even-dimensional symmetric matrices" % n
        )
    if n > max_dim:
        raise HafnianSizeError(
            "%s supports matrices up to %d x %d, got %d x %d"
            % (caller, max_dim, max_dim, n, n)
        )
    if n:
        residual = np.max(np.abs(a - a.T))
        scale = max(1.0, np.max(np.abs(a)))
        if residual > tol_symmetry * scale:
            raise ValueError(
                "The input matrix is not symmetric: max |A - A^T| = %.3e" % residual
            )
        a = 0.5 * (a + a.T)
    return a


def hafnian_naive(mat, *, tol_symmetry=1e-8):
    """Hafnian by explicit summation over perfect matchings.

    Args:
        mat (array): even-dimensional complex symmetric matrix, at most
            16 x 16
        tol_symmetry (float): largest tolerated relative asymmetry

    Returns:
        complex: the hafnian
    """
    a = _checked_matrix(mat, tol_symmetry, NAIVE_MAX_DIM, "hafnian_naive")
    return _matching_sum(a, tuple(range(a.shape[0])))


def _matching_sum(a, idx):
    if not idx:
        return 1.0 + 0.0j
    first = idx[0]
    rest = idx[1:]
    total = 0.0 + 0.0j
    for pos, j in enumerate(rest):
        aij = a[first, j]
        if aij != 0:
            total += aij * _matching_sum(a, rest[:pos] + rest[pos + 1 :])
    return total


def hafnian_powertrace(mat, *, tol_symmetry=1e-8):
    """Hafnian by the inclusion-exclusion power-trace formula.

    For each nonempty subset S of the n index pairs, the eigenvalues of
    the pair-swapped submatrix give its power traces; the degree-n
    coefficient of ``exp(sum_k tr((XA_S)^k) z^k / (2k))`` enters the sum
    with sign ``(-1)^(n - |S|)``.

    Args:
        mat (array): even-dimensional complex symmetric matrix, at most
            32 x 32
        tol_symmetry (float): largest tolerated relative asymmetry

    Returns:
        complex: the hafnian
    """
    a = _checked_matrix(mat, tol_symmetry, POWERTRACE_MAX_DIM, "hafnian_powertrace")
    dim = a.shape[0]
    if dim == 0:
        return 1.0 + 0.0j
    n = dim // 2

    # Exact power-of-two rescaling keeps eigenvalue powers in range for
    # large-entry matrices without perturbing any mantissa bits.
    peak = np.max(np.abs(a))
    scale = 1.0
    if peak > 4.0:
        scale = 2.0 ** math.ceil(math.log2(peak))
        a = a / scale

    terms = []
    for m in range(1, n + 1):
        combos = list(combinations(range(n), m))
        for start in range(0, len(combos), _BATCH):
            terms.append(_subset_batch(a, n, m, combos[start : start + _BATCH]))

    value = _compensated_sum(np.concatenate(terms))
    if scale != 1.0:
        value *= scale**n
    return value


def _power_sums_by_matmul(mats, n):
    """Power traces tr(B^k), k = 1..n, by explicit batched matrix powers."""
    powers = np.empty((mats.shape[0], n), dtype=complex)
    cur = mats
    powers[:, 0] = np.trace(cur, axis1=1, axis2=2)
    for k in range(1, n):
        cur = cur @ mats
        powers[:, k] = np.trace(cur, axis1=1, axis2=2)
    return powers


def _subset_batch(a, n, m, block):
    """Signed terms of one fixed batch of m-pair subsets."""
    b = len(block)
    pairs = np.asarray(block)
    # Expand pair labels to matrix indices: pair p covers rows 2p, 2p + 1.
    cols = np.empty((b, 2 * m), dtype=np.intp)
    cols[:, 0::2] = 2 * pairs
    cols[:, 1::2] = 2 * pairs + 1
    sub = a[cols[:, :, None], cols[:, None, :]]
    # Left-multiplying by the direct sum of pair swaps permutes rows
    # within each pair.
    perm = np.arange(2 * m).reshape(-1, 2)[:, ::-1].ravel()
    swapped = sub[:, perm, :]

    # Power sums tr((XA_S)^k) for k = 1..n.
    try:
        lam = np.linalg.eigvals(swapped)
    except np.linalg.LinAlgError:
        # The eigensolver can fail to converge on heavily replicated
        # rank-deficient blocks; matrix powers need no eigendecomposition
        # and the failure is input-determined, so determinism holds.
        powers = _power_sums_by_matmul(swapped, n)
    else:
        powers = np.empty((b, n), dtype=complex)
        cur = lam.copy()
        powers[:, 0] = cur.sum(axis=1)
        for k in range(1, n):
            cur *= lam
            powers[:, k] = cur.sum(axis=1)

    # Degree-n coefficient of exp(sum_k powers_k z^k / (2k)), batched.
    coeff = np.zeros((b, n + 1), dtype=complex)
    coeff[:, 0] = 1.0
    for k in range(1, n + 1):
        factor = powers[:, k - 1] / (2 * k)
        prev = coeff.copy()
        powfactor = np.ones(b, dtype=complex)
        for j in range(1, n // k + 1):
            powfactor = powfactor * factor / j
            coeff[:, k * j :] += prev[:, : n + 1 - k * j] * powfactor[:, None]

    sign = -1.0 if (n - m) % 2 else 1.0
    return sign * coeff[:, n]


def _compensated_sum(values):
    """Deterministic pairwise reduction with Kahan compensation at leaves."""
    n = len(values)
    if n == 0:
        return 0.0 + 0.0j
    if n <= 128:
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for v in values:
            y = v - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total
    mid = n // 2
    return _compensated_sum(values[:mid]) + _compensated_sum(values[mid:])
