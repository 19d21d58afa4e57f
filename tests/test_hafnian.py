"""Tests for the two hafnian routes."""

import math
import re
import types
from itertools import permutations

import numpy as np
import pytest

import hybrid_sampler
from hybrid_sampler.hafnian import (
    HafnianSizeError,
    NAIVE_MAX_DIM,
    POWERTRACE_MAX_DIM,
    hafnian_naive,
    hafnian_powertrace,
)

np.random.seed(42)


def random_symmetric(n, scale=1.0):
    mat = np.random.randn(n, n) + 1j * np.random.randn(n, n)
    return scale * (mat + mat.T)


def permanent_reference(mat):
    """Permanent by brute-force permutation sum."""
    n = mat.shape[0]
    return sum(
        np.prod([mat[i, sigma[i]] for i in range(n)]) for sigma in permutations(range(n))
    )


class TestNaive:
    """The matching-sum route against hand-countable cases."""

    def test_empty(self):
        assert hafnian_naive(np.zeros((0, 0))) == 1.0

    def test_two_by_two(self):
        """haf([[a, b], [b, d]]) is the off-diagonal entry."""
        mat = np.array([[0.3, 1.7], [1.7, -2.0]])
        assert hafnian_naive(mat) == pytest.approx(1.7)

    def test_ones_four(self):
        """The all-ones 4x4 matrix has three perfect matchings."""
        assert hafnian_naive(np.ones((4, 4))) == pytest.approx(3.0)

    def test_ones_six(self):
        """(2n - 1)!! matchings on six vertices."""
        assert hafnian_naive(np.ones((6, 6))) == pytest.approx(15.0)

    def test_four_by_four_expansion(self):
        """General 4x4: a12 a34 + a13 a24 + a14 a23."""
        mat = random_symmetric(4)
        want = (
            mat[0, 1] * mat[2, 3] + mat[0, 2] * mat[1, 3] + mat[0, 3] * mat[1, 2]
        )
        assert hafnian_naive(mat) == pytest.approx(want)

    def test_permanent_embedding(self):
        """haf([[0, B], [B^T, 0]]) equals perm(B)."""
        b = np.random.randn(3, 3) + 1j * np.random.randn(3, 3)
        mat = np.block([[np.zeros((3, 3)), b], [b.T, np.zeros((3, 3))]])
        assert hafnian_naive(mat) == pytest.approx(permanent_reference(b))

    def test_thermal_replication(self):
        """Replicating [[0, q], [q, 0]] N times gives N! q^N."""
        q = 0.7
        n = 3
        idx = [0] * n + [1] * n
        base = np.array([[0.0, q], [q, 0.0]])
        mat = base[np.ix_(idx, idx)]
        assert hafnian_naive(mat) == pytest.approx(math.factorial(n) * q**n)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd dimension"):
            hafnian_naive(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            hafnian_naive(np.zeros((2, 4)))

    def test_asymmetric_rejected(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            hafnian_naive(mat)

    def test_asymmetry_message_names_its_limit(self):
        """An asymmetry of 1e-6 is over the limit 1e-8 * max(1, max|A|)."""
        mat = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        want = "exceeds the limit 1e-08 * max(1, max|A|) = 1.000e-08"
        for route in (hafnian_naive, hafnian_powertrace):
            with pytest.raises(ValueError, match=re.escape(want)):
                route(mat)

    def test_size_cap(self):
        big = np.zeros((NAIVE_MAX_DIM + 2, NAIVE_MAX_DIM + 2))
        with pytest.raises(HafnianSizeError, match="hafnian_naive"):
            hafnian_naive(big)


class TestPowerTrace:
    """The subset/power-trace route against the naive oracle."""

    def test_matches_naive(self):
        """Route agreement on random complex symmetric matrices."""
        for n in range(1, 7):
            for _ in range(5):
                mat = random_symmetric(2 * n)
                ref = hafnian_naive(mat)
                val = hafnian_powertrace(mat)
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_matrix_power_branch_matches_naive(self, monkeypatch):
        """With the eigensolver failing, power sums come from matrix powers,
        and the route still agrees with the naive oracle."""
        def no_convergence(mats):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        calls = []
        by_matmul = hybrid_sampler.hafnian._power_sums_by_matmul

        def spy(mats, n):
            calls.append(n)
            return by_matmul(mats, n)

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        monkeypatch.setattr(hybrid_sampler.hafnian, "_power_sums_by_matmul", spy)
        rng = np.random.default_rng(2024)
        for dim in range(2, 13, 2):
            for _ in range(3):
                mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                mat = mat + mat.T
                ref = hafnian_naive(mat)
                val = hafnian_powertrace(mat)
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
        assert sorted(set(calls)) == [1, 2, 3, 4, 5, 6]

    def test_ones(self):
        assert hafnian_powertrace(np.ones((6, 6))) == pytest.approx(15.0)

    def test_empty(self):
        assert hafnian_powertrace(np.zeros((0, 0))) == 1.0

    def test_zero_matrix(self):
        assert hafnian_powertrace(np.zeros((8, 8))) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        """haf(P A P^T) = haf(A) for any permutation P."""
        mat = random_symmetric(8)
        perm = np.random.permutation(8)
        ref = hafnian_powertrace(mat)
        val = hafnian_powertrace(mat[np.ix_(perm, perm)])
        assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_scaling(self):
        """haf(c A) = c^n haf(A) on a 2n-dimensional matrix."""
        mat = random_symmetric(6)
        c = 1.7 - 0.4j
        ref = hafnian_powertrace(mat)
        assert hafnian_powertrace(c * mat) == pytest.approx(c**3 * ref)

    def test_direct_sum(self):
        """The hafnian is multiplicative over direct sums."""
        a = random_symmetric(4)
        b = random_symmetric(4)
        whole = np.block(
            [[a, np.zeros((4, 4))], [np.zeros((4, 4)), b]]
        )
        want = hafnian_powertrace(a) * hafnian_powertrace(b)
        got = hafnian_powertrace(whole)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_large_entry_rescale(self):
        """Entries far above the rescale threshold keep relative accuracy."""
        mat = random_symmetric(6, scale=1e6)
        small = hafnian_naive(mat / 1e6)
        big = hafnian_powertrace(mat)
        assert big == pytest.approx((1e6) ** 3 * small, rel=1e-9)

    def test_size_cap(self):
        big = np.zeros((POWERTRACE_MAX_DIM + 2, POWERTRACE_MAX_DIM + 2))
        with pytest.raises(HafnianSizeError, match="hafnian_powertrace"):
            hafnian_powertrace(big)

    def test_twenty_by_twenty_runs(self):
        """A 20x20 instance stays finite and scales correctly."""
        mat = random_symmetric(20, scale=0.1)
        val = hafnian_powertrace(mat)
        assert np.isfinite(val)
        doubled = hafnian_powertrace(2.0 * mat)
        assert doubled == pytest.approx(2.0**10 * val, rel=1e-8)


class TestPackageNamespace:
    def test_hafnian_is_the_submodule(self):
        """The package attribute is the module, not a shadowing function."""
        assert isinstance(hybrid_sampler.hafnian, types.ModuleType)
        assert hybrid_sampler.hafnian.hafnian_naive is hafnian_naive
