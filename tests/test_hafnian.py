"""Tests for the two hafnian routes."""

import math
import re
import types
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hybrid_sampler
from hybrid_sampler import sampling
from hybrid_sampler.hafnian import (
    HafnianSizeError,
    NAIVE_MAX_DIM,
    RECURSIVE_MAX_DIM,
    hafnian_naive,
    hafnian_recursive,
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
        for route in (hafnian_naive, hafnian_recursive):
            with pytest.raises(ValueError, match=re.escape(want)):
                route(mat)

    def test_size_cap(self):
        big = np.zeros((NAIVE_MAX_DIM + 2, NAIVE_MAX_DIM + 2))
        with pytest.raises(HafnianSizeError, match="hafnian_naive"):
            hafnian_naive(big)


class TestRecursive:
    """The memoised pairing recursion against the naive oracle and the
    Hermite box."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        parts=st.integers(0, 6).flatmap(
            lambda n: arrays(np.float64, (2, 2 * n, 2 * n), elements=st.floats(-1.0, 1.0))
        )
    )
    def test_matches_naive(self, parts):
        """Route agreement on complex symmetric matrices of dimension 0-12,
        entries in the unit square, zero entries and repeated values
        included."""
        mat = parts[0] + 1j * parts[1]
        mat = 0.5 * (mat + mat.T)
        ref = hafnian_naive(mat)
        assert abs(hafnian_recursive(mat) - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("dim", [16, 20, 22])
    def test_matches_hermite_box(self, dim):
        """The corner G(1, ..., 1) of the cutoff-1 Hermite box is haf(A):
        the last entry of the diagonal G(n, n) over n in {0, 1}^(dim / 2)."""
        rng = np.random.default_rng(dim)
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = mat + mat.T
        corner = sampling._diagonal(mat, (2,) * (dim // 2)).flat[-1]
        assert abs(hafnian_recursive(mat) - corner) <= 1e-14 * abs(corner)

    def test_ones(self):
        """haf(ones(2n)) counts the (2n - 1)!! perfect matchings."""
        for dim in range(2, 26, 2):
            want = math.prod(range(1, dim, 2))
            assert abs(hafnian_recursive(np.ones((dim, dim))) - want) <= 1e-15 * want

    def test_empty(self):
        assert hafnian_recursive(np.zeros((0, 0))) == 1.0

    def test_zero_matrix(self):
        assert hafnian_recursive(np.zeros((8, 8))) == 0.0

    def test_permutation_invariance(self):
        """haf(P A P^T) = haf(A) for any permutation P."""
        mat = random_symmetric(8)
        perm = np.random.permutation(8)
        ref = hafnian_recursive(mat)
        val = hafnian_recursive(mat[np.ix_(perm, perm)])
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_scaling(self):
        """haf(c A) = c^n haf(A) on a 2n-dimensional matrix."""
        mat = random_symmetric(6)
        c = 1.7 - 0.4j
        ref = hafnian_recursive(mat)
        assert hafnian_recursive(c * mat) == pytest.approx(c**3 * ref)

    def test_direct_sum(self):
        """The hafnian is multiplicative over direct sums."""
        a = random_symmetric(4)
        b = random_symmetric(4)
        whole = np.block(
            [[a, np.zeros((4, 4))], [np.zeros((4, 4)), b]]
        )
        want = hafnian_recursive(a) * hafnian_recursive(b)
        got = hafnian_recursive(whole)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_large_entries(self):
        """Entries of order 1e6 keep relative accuracy without rescaling."""
        mat = random_symmetric(6, scale=1e6)
        small = hafnian_naive(mat / 1e6)
        big = hafnian_recursive(mat)
        assert big == pytest.approx((1e6) ** 3 * small, rel=1e-12)

    def test_size_cap(self):
        big = np.zeros((RECURSIVE_MAX_DIM + 2, RECURSIVE_MAX_DIM + 2))
        with pytest.raises(HafnianSizeError, match="hafnian_recursive"):
            hafnian_recursive(big)

    def test_twenty_by_twenty_runs(self):
        """A 20x20 instance stays finite and scales correctly."""
        mat = random_symmetric(20, scale=0.1)
        val = hafnian_recursive(mat)
        assert np.isfinite(val)
        doubled = hafnian_recursive(2.0 * mat)
        assert doubled == pytest.approx(2.0**10 * val, rel=1e-12)


class TestPackageNamespace:
    def test_hafnian_is_the_submodule(self):
        """The package attribute is the module, not a shadowing function."""
        assert isinstance(hybrid_sampler.hafnian, types.ModuleType)
        assert hybrid_sampler.hafnian.hafnian_naive is hafnian_naive
