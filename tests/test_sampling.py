"""Outcome probabilities, enumeration, sampling and goodness of fit."""

import collections
import hashlib
import itertools
import math
import os
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2

from hybrid_sampler import bdg, gaussian, model, pipeline, sampling
from hybrid_sampler.gaussian import CountsVector, extend_matrix
from hybrid_sampler.hafnian import hafnian_naive

from conftest import (
    direct_config,
    doctored,
    squeeze_blocks,
    stable_instance,
    thermal_blocks,
    two_mode_squeeze_blocks,
)

np.random.seed(41)

T_HALF = 1.0 / math.log(2.0)


def make_state(blocks, temperature):
    dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
    return gaussian.covariance(dec, temperature)


def thermal_pmf(count, mean=1.0):
    """Bose-Einstein probability mean^N / (1 + mean)^(N + 1)."""
    return mean**count / (1.0 + mean) ** (count + 1)


def peak_traced_bytes(func):
    """Peak bytes traced while ``func`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def axis_wise_box(c, extents):
    """G(r) = haf(C repeated by r) / sqrt(r!) for every r below ``extents``,
    the whole box filled one axis at a time: the engine that the
    dependency-cone plan replaced, kept as its oracle.

    An entry whose last nonzero index lies on axis i follows from the
    recurrence along axis i, which reads only entries whose later axes are
    zero as well and so are already filled.
    """
    g = np.zeros(extents, dtype=complex)
    g.flat[0] = 1.0
    roots = [np.sqrt(np.arange(1, e)) for e in extents]
    for i, extent in enumerate(extents):
        head = (slice(None),) * i
        # The trailing Ellipsis keeps a fully indexed slice a writable view.
        tail = (0,) * (len(extents) - i - 1) + (Ellipsis,)
        # C_ij sqrt(r_j), laid along axis j of a slice over axes 0..i-1.
        weights = [
            (c[i, j] * roots[j]).reshape((-1,) + (1,) * (i - 1 - j))
            for j in range(i)
        ]
        for k in range(1, extent):
            out = g[head + (k,) + tail]
            if k >= 2:
                out += (c[i, i] * roots[i][k - 2]) * g[head + (k - 2,) + tail]
            prev = g[head + (k - 1,) + tail]
            for j, weight in enumerate(weights):
                lead = (slice(None),) * j
                out[lead + (slice(1, None),)] += (
                    weight * prev[lead + (slice(None, -1),)]
                )
            out /= math.sqrt(k)
    return g


def box_diagonal(c, extents):
    """The diagonal G(n, n), n < extents, of the oracle's whole box."""
    side = math.prod(extents)
    box = axis_wise_box(c, tuple(extents) * 2)
    return box.reshape(side, side).diagonal().reshape(extents)


def squeezed_pmf(count, r):
    """Photon-number law of squeezed vacuum; zero for odd counts."""
    if count % 2:
        return 0.0
    k = count // 2
    return (
        math.factorial(2 * k)
        * math.tanh(r) ** (2 * k)
        / (4**k * math.factorial(k) ** 2 * math.cosh(r))
    )


class TestOutcomeProbability:
    def test_vacuum(self):
        state = make_state(thermal_blocks(1.0), 0.0)
        assert sampling.outcome_probability(state, (0,)) == pytest.approx(1.0)

    def test_thermal_counts(self):
        """Geometric law 1/2^(N+1) at unit mean occupation."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        for count in range(5):
            got = sampling.outcome_probability(state, (count,))
            assert got == pytest.approx(thermal_pmf(count), abs=1e-12)

    def test_squeezed_counts(self):
        """Even-only counts with the squeezed-vacuum closed form."""
        state = make_state(squeeze_blocks(1.0, 0.6), 0.0)
        r = 0.25 * math.log(4.0)
        for count in range(7):
            got = sampling.outcome_probability(state, (count,))
            assert got == pytest.approx(squeezed_pmf(count, r), abs=1e-12)

    def test_accepts_counts_vector(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        counts = CountsVector(atoms=(1,), photons=())
        assert sampling.outcome_probability(state, counts) == pytest.approx(0.25)

    def test_wrong_length_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        with pytest.raises(ValueError, match="entries"):
            sampling.outcome_probability(state, (1, 0))

    def test_negative_counts_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        with pytest.raises(ValueError, match="nonnegative"):
            sampling.outcome_probability(state, (-1,))

    def test_imaginary_residual_guard(self):
        """A doctored base matrix with complex entries trips the check."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        c = np.array([[0.0, 0.5j], [0.5j, 0.0]])
        with pytest.raises(sampling.ImaginaryResidualError, match="imaginary"):
            sampling.outcome_probability(doctored(state, c=c), (1,))

    def test_budget_refuses_before_allocating(self):
        """(5000 + 1)^2 box entries exceed 2^24; nothing is allocated."""
        state = make_state(thermal_blocks(1.0), T_HALF)

        def attempt():
            with pytest.raises(ValueError, match="25010001 box entries.*16777216"):
                sampling.outcome_probability(state, (5000,))

        assert peak_traced_bytes(attempt) < 2**20

    def test_equals_lattice_entry_bit_for_bit(self):
        """Both read the same recurrence values, from different boxes.  An
        outcome with zero counts has a box with extent-1 axes, leading ones
        included, and every outcome of each lattice is checked."""
        for seed, m_a, m_ph, cutoff in ((8, 2, 1, 3), (9, 2, 1, 3), (10, 2, 1, 3),
                                        (11, 2, 2, 2), (12, 1, 3, 2)):
            _, _, dec = stable_instance(np.random.default_rng(seed), m_a, m_ph)
            state = gaussian.covariance(dec, 0.3)
            dist = sampling.enumerate_distribution(state, cutoff)
            assert dist.probabilities.size == (cutoff + 1) ** (m_a + m_ph)
            with_zeros = 0
            for counts in dist.outcomes():
                got = sampling.outcome_probability(state, counts)
                assert type(got) is float and got == dist.probability(counts)
                with_zeros += 0 in counts.key()
            assert with_zeros == dist.probabilities.size - cutoff ** (m_a + m_ph)


class TestEnumerate:
    def test_vacuum_all_mass_at_zero(self):
        state = make_state(thermal_blocks(1.0), 0.0)
        dist = sampling.enumerate_distribution(state, 4)
        assert dist.probability((0,)) == pytest.approx(1.0, abs=1e-12)
        assert dist.captured_mass == pytest.approx(1.0, abs=1e-12)

    def test_thermal_captured_mass(self):
        """Cutoff K leaves exactly 2^-(K+1) in the tail at unit mean."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 10)
        assert dist.captured_mass == pytest.approx(1.0 - 2.0**-11, abs=1e-12)
        assert len(dist.probabilities) == 11

    def test_mass_above_one_is_refused(self):
        """Weights scaled up by e^0.01 sum to about 1.0095 at cutoff 10,
        over the 1 + 1e-9 a valid state can reach."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        shifted = doctored(state, log_norm=state.log_norm - 0.01)
        with pytest.raises(
            ValueError, match=r"captured mass 1\.0\d+ exceeds 1 by more than 1\.0e-09"
        ):
            sampling.enumerate_distribution(shifted, 10)

    def test_lexicographic_order(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 2)
        keys = [c.key() for c in dist.outcomes()]
        assert keys == sorted(keys)
        assert keys[0] == (0, 0)

    def test_two_mode_squeezed_is_diagonal(self):
        """All mass sits on equal atom/photon counts at T = 0."""
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 6)
        off_diagonal = sum(
            dist.probability(counts)
            for counts in dist.outcomes()
            if counts.atoms[0] != counts.photons[0]
        )
        assert off_diagonal < 1e-12

    def test_captured_mass_grows_with_cutoff(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        masses = [
            sampling.enumerate_distribution(state, cutoff).captured_mass
            for cutoff in (2, 4, 8)
        ]
        assert masses[0] < masses[1] < masses[2]

    def test_outcome_budget(self):
        """M = 4 at cutoff 40 needs 41^8 box entries, far above 2^24."""
        _, _, dec = stable_instance(np.random.default_rng(5), 2, 2)
        state = gaussian.covariance(dec, 0.2)
        with pytest.raises(
            ValueError, match=r"lattice budget.*= 7984925229121 box entries.*16777216"
        ):
            sampling.enumerate_distribution(state, 40)

    def test_hafnian_budget(self):
        """Cutoff 17 at M = 1, a 34 x 34 replicated hafnian, is within budget."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 17)
        for count in range(18):
            assert dist.probability((count,)) == pytest.approx(
                thermal_pmf(count), abs=1e-12
            )

    def test_budget_refuses_before_allocating(self):
        """4097^2 box entries exceed 2^24; nothing is allocated."""
        state = make_state(thermal_blocks(1.0), T_HALF)

        def attempt():
            with pytest.raises(ValueError, match="16785409 box entries.*16777216"):
                sampling.enumerate_distribution(state, 4096)

        assert peak_traced_bytes(attempt) < 2**20

    def test_probabilities_are_python_floats(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 3)
        assert dist.probabilities.dtype == np.float64
        assert all(type(dist.probability(c)) is float for c in dist.outcomes())

    def test_negative_cutoff(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        with pytest.raises(ValueError, match="cutoff"):
            sampling.enumerate_distribution(state, -1)

    def test_fingerprint_propagates(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 3)
        assert dist.fingerprint == state.fingerprint()


def _symmetric(parts):
    """A complex symmetric matrix from the upper triangles of two real ones,
    copied without arithmetic, so that zero entries keep their sign."""
    mat = np.empty(parts[0].shape, dtype=complex)
    mat.real, mat.imag = parts
    upper = np.triu(np.ones(mat.shape, dtype=bool))
    return np.where(upper, mat, mat.T)


class TestDiagonalEngine:
    """The dependency-cone engine against the axis-wise box it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        data=st.lists(st.integers(1, 6), min_size=1, max_size=4)
        .filter(lambda extents: math.prod(extents) <= 96)
        .flatmap(lambda extents: st.tuples(
            st.just(tuple(extents)),
            arrays(np.float64, (2, 2 * len(extents), 2 * len(extents)),
                   elements=st.sampled_from([0.0, -0.0, 0.25, -1.0]) | st.floats(-1.0, 1.0)),
        ))
    )
    def test_equals_the_axis_wise_box(self, data):
        """Random complex symmetric C with zero entries, extents 1-6 on 2-8
        box axes.  With every extent >= 2, as on every lattice, each
        diagonal entry is bit-identical to the oracle's.  With an extent of
        1 the oracle's slices over the earlier axes can hold one element in
        several dimensions, and numpy multiplies such a broadcast pair
        without the fused multiply-add it uses for every other complex
        product on SIMD builds, so the oracle's last bit can move there:
        those boxes are held to 1e-15 relative instead."""
        extents, parts = data
        c = _symmetric(parts)
        got = sampling._diagonal(c, extents)
        want = box_diagonal(c, extents)
        assert got.shape == want.shape and got.dtype == want.dtype
        if min(extents) >= 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_equals_the_axis_wise_box_on_lattices(self):
        """Every job shape of the lattice and sweep workloads, each extent
        >= 2, with dense random C: bit-identical, signed zeros included."""
        rng = np.random.default_rng(17)
        for extents in [(3,) * 4, (4,) * 3, (6,) * 2, (13,), (2,) * 6, (6, 6, 6)]:
            d = 2 * len(extents)
            c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            c = 0.3 * (c + c.T)
            assert sampling._diagonal(c, extents).tobytes() == box_diagonal(c, extents).tobytes()

    def test_plan_arrays_are_read_only(self):
        plan = sampling._plan((3, 4, 2))
        arrays_of_plan = [plan.diagonal] + [a for piece in plan.pieces for a in piece[1:]]
        assert len(arrays_of_plan) == 1 + 3 * len(plan.pieces) > 3
        for arr in arrays_of_plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_memo_stays_under_its_byte_bound(self):
        """200 random shapes, many with plans near the per-plan limit of
        _PLAN_MEMO_BYTES / 8: what is kept never exceeds the bound, the
        most recent plan is kept, and a plan above the limit is not."""
        rng = random.Random(5)
        bound = sampling._PLAN_MEMO_BYTES
        sizes = []
        for _ in range(200):
            m = rng.randint(1, 4)
            extents = tuple(rng.randint(1, 12) for _ in range(m))
            while math.prod(extents) ** 2 > 2 ** 17:
                extents = extents[:-1]
            plan = sampling._plan(extents)
            sizes.append(plan.nbytes)
            kept = sum(p.nbytes for p in sampling._plans.values())
            assert kept <= bound
            assert sampling._plans.get(extents) is (plan if plan.nbytes <= bound // 8 else None)
        assert sum(sizes) > 2 * bound
        big = sampling._plan((11, 11, 11))
        assert big.nbytes > bound // 8 and (11, 11, 11) not in sampling._plans

    def test_cold_and_warm_calls_agree(self):
        """A plan built for the call and one read from the memo give the
        same bytes."""
        _, _, dec = stable_instance(np.random.default_rng(3), 2, 1)
        c = gaussian.covariance(dec, 0.3).c
        for extents in [(4, 4, 4), (1, 3, 2), (2, 1, 1)]:
            sampling._plans.pop(extents, None)
            cold = sampling._diagonal(c, extents)
            assert extents in sampling._plans
            warm = sampling._diagonal(c, extents)
            assert cold.tobytes() == warm.tobytes()


class TestHafnianOracle:
    """The recurrence against replicated hafnians and closed forms."""

    def test_random_states_match_naive_hafnian(self):
        """50 seeded random stable states with M <= 3 and 2 M cutoff <= 12."""
        rng = np.random.default_rng(2025)
        partitions = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2)]
        temperatures = [0.0, 0.3, 1.0]
        worst = 0.0
        for index in range(50):
            m_a, m_ph = partitions[index % len(partitions)]
            _, _, dec = stable_instance(rng, m_a, m_ph, strength=0.4)
            state = gaussian.covariance(dec, temperatures[index % 3])
            cutoff = 6 // state.m
            dist = sampling.enumerate_distribution(state, cutoff)
            for counts in dist.outcomes():
                value = dist.probability(counts)
                haf = hafnian_naive(extend_matrix(state.c, counts))
                log_fact = sum(math.lgamma(n + 1) for n in counts.key())
                want = (haf * math.exp(-state.log_norm - log_fact)).real
                worst = max(worst, abs(value - want))
        assert worst < 1e-12

    def test_closed_forms_to_cutoff_16(self):
        thermal = make_state(thermal_blocks(1.0), T_HALF)
        squeezed = make_state(squeeze_blocks(1.0, 0.6), 0.0)
        pair = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        r_single = 0.25 * math.log(4.0)
        pair_mean = math.sinh(0.25 * math.log(7.0 / 3.0)) ** 2
        dists = [sampling.enumerate_distribution(s, 16) for s in (thermal, squeezed, pair)]
        for count in range(17):
            assert dists[0].probability((count,)) == pytest.approx(
                thermal_pmf(count), abs=1e-12
            )
            assert dists[1].probability((count,)) == pytest.approx(
                squeezed_pmf(count, r_single), abs=1e-12
            )
        for n, q in itertools.product(range(17), repeat=2):
            want = thermal_pmf(n, pair_mean) if n == q else 0.0
            assert dists[2].probability((n, q)) == pytest.approx(want, abs=1e-12)


class TestMarginalize:
    def test_keep_all_is_identity(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 4)
        same = sampling.marginalize(dist, [0, 1])
        assert same.probabilities.ravel().tolist() == pytest.approx(
            dist.probabilities.ravel().tolist()
        )

    def test_two_mode_squeezed_marginal_is_thermal(self):
        """Each half of the pair-correlated state looks thermal."""
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 8)
        photons = sampling.marginalize(dist, [1])
        assert photons.m_a == 0 and photons.m_ph == 1
        mean = math.sinh(0.25 * math.log(7.0 / 3.0)) ** 2
        for count in range(5):
            want = thermal_pmf(count, mean)
            assert photons.probability((count,)) == pytest.approx(want, abs=1e-10)

    def test_independent_modes_factorize(self):
        """An uncoupled pair marginalizes to its single-mode laws.

        The joint truncated mass factorizes, so each marginal entry is
        the exact single-mode law times the other mode's captured mass.
        """
        blocks = two_mode_squeeze_blocks(1.0, 0.0)
        state = make_state(blocks, T_HALF)
        dist = sampling.enumerate_distribution(state, 6)
        atoms = sampling.marginalize(dist, [0])
        partner_mass = 1.0 - 2.0**-7
        for count in range(4):
            assert atoms.probability((count,)) == pytest.approx(
                thermal_pmf(count) * partner_mass, abs=1e-10
            )

    def test_captured_mass_is_preserved(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 6)
        assert sampling.marginalize(dist, [0]).captured_mass == dist.captured_mass

    def test_empty_keep_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 3)
        with pytest.raises(ValueError, match="nonempty"):
            sampling.marginalize(dist, [])

    def test_out_of_range_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 3)
        with pytest.raises(ValueError, match="keep indices"):
            sampling.marginalize(dist, [3])


class TestSample:
    def test_vacuum_draws_are_zero(self):
        state = make_state(thermal_blocks(1.0), 0.0)
        dist = sampling.enumerate_distribution(state, 2)
        draws = sampling.sample(dist, 50, seed=3)
        assert all(d.key() == (0,) for d in draws)

    def test_deterministic_per_seed(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 10)
        first = sampling.sample(dist, 500, seed=99)
        second = sampling.sample(dist, 500, seed=99)
        assert first == second
        other = sampling.sample(dist, 500, seed=100)
        assert first != other

    def test_thermal_mean(self):
        """1e5 draws reproduce the unit mean within three sigma."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 100_000, seed=1)
        counts = np.array([d.key()[0] for d in draws])
        sigma = math.sqrt(2.0 / len(counts))
        assert abs(counts.mean() - 1.0) < 3.0 * sigma

    def test_truncation_guard(self):
        """A cutoff of 1 captures only 3/4 of the thermal mass."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 1)
        with pytest.raises(sampling.TruncationError, match="captured mass"):
            sampling.sample(dist, 10, seed=0)

    def test_zero_draws(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 10)
        assert sampling.sample(dist, 0, seed=0) == []

    def test_seed_range(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 10)
        with pytest.raises(ValueError, match="64-bit"):
            sampling.sample(dist, 1, seed=2**64)
        with pytest.raises(ValueError, match="64-bit"):
            sampling.sample(dist, 1, seed=-1)

    def test_negative_draw_count(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 10)
        with pytest.raises(ValueError, match="n_samples"):
            sampling.sample(dist, -5, seed=0)

    def test_draw_count_limit(self):
        """A count above MAX_DRAWS is refused before anything else, even on
        a distribution too lossy to sample."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 1)
        want = "n_samples = 4194305 exceeds the draw limit MAX_DRAWS = 4194304"
        assert sampling.MAX_DRAWS == 2 ** 22
        with pytest.raises(ValueError, match="^%s$" % want):
            sampling.sample(dist, sampling.MAX_DRAWS + 1, seed=0)


class TestChiSquare:
    def test_own_samples_pass(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 100_000, seed=2)
        result = sampling.chi_square(dist, draws)
        assert result.passed
        assert result.p_bucket == "pass"
        assert result.dof == result.n_buckets - 1

    def test_perturbed_distribution_fails(self):
        """Shifting 20% of one outcome's mass to another must be caught."""
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 100_000, seed=2)
        shifted = dist.probabilities.copy()
        delta = 0.2 * shifted[1]
        shifted[1] -= delta
        shifted[0] += delta
        wrong = sampling.OutcomeDistribution(
            probabilities=shifted,
            captured_mass=dist.captured_mass,
            fingerprint=dist.fingerprint,
            m_a=dist.m_a,
            m_ph=dist.m_ph,
        )
        result = sampling.chi_square(wrong, draws)
        assert not result.passed
        assert result.p_bucket == "fail"

    @pytest.mark.parametrize("size", [2, 7, 60, 1001, 2500])
    def test_p_value_agrees_with_scipy_stats(self, size):
        """The p-value agrees with scipy.stats.chi2.sf to 1e-12, on draws
        from the reference and from a skewed distribution, up to 2499
        degrees of freedom."""

        def normalized(weights):
            return sampling.OutcomeDistribution(
                probabilities=weights / weights.sum(),
                captured_mass=1.0,
                fingerprint="",
                m_a=1,
                m_ph=0,
            )

        flat = normalized(np.ones(size))
        ramp = normalized(np.arange(1.0, size + 1.0))
        for source in (flat, ramp):
            draws = sampling.sample(source, 25 * size, seed=size)
            result = sampling.chi_square(flat, draws)
            assert result.dof == size - 1
            reference = float(chi2.sf(result.statistic, result.dof))
            assert result.p_value == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_tail_agrees_with_scipy_stats_on_a_grid(self):
        """Up to 4095 degrees of freedom and from 1e-3 to 2e4, wherever the
        tail is at least 1e-300."""
        for dof in [1, 2, 3, 4, 5, 9, 10, 31, 64, 127, 500, 1001, 2048, 4095]:
            for x in [10.0 ** (e / 4) for e in range(-12, 18)] + [
                dof * f for f in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 2.0)
            ]:
                reference = float(chi2.sf(x, dof))
                if reference < 1e-300:
                    continue
                assert sampling._chi2_sf(dof, x) == pytest.approx(
                    reference, rel=1e-11, abs=0.0
                ), (dof, x)

    def test_tail_closed_forms_are_exact(self):
        """Past the mean, dof 2 is exp(-x/2) and dof 1 is erfc(sqrt(x/2))."""
        for x in [1.0, 1.5, 2.0, 2.5, 7.0, 33.3, 100.0, 700.0, 1500.0, 1e300]:
            assert sampling._chi2_sf(1, x) == math.erfc(math.sqrt(x / 2))
            if x >= 2.0:
                assert sampling._chi2_sf(2, x) == math.exp(-x / 2)

    def test_tail_edge_cases(self):
        """The edge values of scipy.stats.chi2.sf; a NaN statistic fails."""
        for dof in (1, 2, 3, 100):
            for x in (0.0, -1.0, -math.inf, 5e-324):
                assert sampling._chi2_sf(dof, x) == 1.0
            assert sampling._chi2_sf(dof, math.inf) == 0.0
            assert math.isnan(sampling._chi2_sf(dof, math.nan))
        with pytest.raises(ValueError, match="dof >= 1"):
            sampling._chi2_sf(0, 1.0)
        result = sampling.ChiSquareResult(
            statistic=math.nan, dof=3, p_value=sampling._chi2_sf(3, math.nan),
            n_buckets=4,
        )
        assert not result.passed

    def test_limits_are_constants(self):
        """The pooling minimum and the pass threshold are module constants;
        no argument moves them."""
        assert (sampling.MIN_EXPECTED, sampling.SIGNIFICANCE) == (20.0, 0.01)
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 1000, seed=2)
        for option in ("min_expected", "significance"):
            with pytest.raises(TypeError):
                sampling.chi_square(dist, draws, **{option: 0.5})
        with pytest.raises(TypeError):
            sampling.ChiSquareResult(
                statistic=1.0, dof=1, p_value=0.5, n_buckets=2, significance=0.6
            )
        at = sampling.ChiSquareResult(
            statistic=1.0, dof=1, p_value=sampling.SIGNIFICANCE, n_buckets=2
        )
        above = sampling.ChiSquareResult(
            statistic=1.0, dof=1, p_value=math.nextafter(sampling.SIGNIFICANCE, 1.0),
            n_buckets=2,
        )
        assert not at.passed and above.passed

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        dof=st.integers(1, 4096),
        xs=st.lists(st.floats(0.0, 2e4), min_size=2, max_size=2),
    )
    def test_tail_properties(self, dof, xs):
        """In [0, 1], falls with x and rises with dof (both up to the 1e-11
        accuracy: roundoff in the exponent moves the tail by about 2e-12
        between neighbouring floats), and agrees with scipy.stats."""
        lo, hi = sorted(xs)
        p_lo, p_hi = sampling._chi2_sf(dof, lo), sampling._chi2_sf(dof, hi)
        assert 0.0 <= p_hi <= 1.0 and 0.0 <= p_lo <= 1.0
        assert p_hi <= p_lo * (1 + 1e-11)
        assert sampling._chi2_sf(dof + 1, lo) >= p_lo * (1 - 1e-11)
        assert math.isclose(p_lo, chi2.sf(lo, dof), rel_tol=1e-11, abs_tol=1e-300)

    def test_low_probability_tail_is_pooled(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 2_000, seed=7)
        result = sampling.chi_square(dist, draws)
        assert result.n_buckets < len(dist.probabilities)

    def test_no_samples_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 5)
        with pytest.raises(ValueError, match="no samples"):
            sampling.chi_square(dist, [])

    def test_too_few_samples_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 12)
        draws = sampling.sample(dist, 10, seed=4)
        with pytest.raises(ValueError, match="insufficient samples"):
            sampling.chi_square(dist, draws)


class TestCrossCorrelation:
    def test_pair_coupling_correlates_counters(self):
        """Dominant atom-photon pair creation gives positive count covariance.

        For the pure pair-coupled instance the joint distribution is
        supported on equal counts, so the covariance equals the common
        variance mean * (1 + mean) and must come out strictly positive.
        """
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 8)
        e_n = e_q = e_nq = 0.0
        for counts in dist.outcomes():
            value = dist.probability(counts)
            n, q = counts.atoms[0], counts.photons[0]
            e_n += value * n
            e_q += value * q
            e_nq += value * n * q
        covariance = e_nq - e_n * e_q
        mean = state.mean_occupations()[0]
        assert covariance > 0.0
        assert covariance == pytest.approx(mean * (1.0 + mean), abs=1e-9)


class TestRecommendCutoff:
    def test_thermal(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        assert sampling.recommend_cutoff(state) == 10

    def test_factor_is_a_constant(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        assert sampling.CUTOFF_FACTOR == 10.0
        with pytest.raises(TypeError):
            sampling.recommend_cutoff(state, factor=5.0)

    def test_vacuum_floor(self):
        state = make_state(thermal_blocks(1.0), 0.0)
        assert sampling.recommend_cutoff(state) == 1

    @staticmethod
    def thermal_state(m, mean):
        """M uncoupled thermal modes of one mean: G = mean * I."""
        return gaussian.GaussianState(g=mean * np.eye(2 * m), temperature=1.0, m_a=m, m_ph=0)

    def test_three_modes_are_capped_at_the_budget(self):
        """A largest mean of 1.6 asks for cutoff 16, whose 17^6 box entries
        the engine refuses; 16^6 = 2^24 fits, so the suggestion is 15."""
        state = self.thermal_state(3, 1.6)
        assert sampling.CUTOFF_FACTOR * 1.6 == 16.0
        assert sampling.recommend_cutoff(state) == 15

    @pytest.mark.parametrize("m", range(1, 14))
    def test_cap_is_the_largest_cutoff_that_fits(self, m):
        """(c + 1)^(2M) <= MAX_BOX_ENTRIES < (c + 2)^(2M), without enumerating;
        from 13 modes on only the vacuum fits."""
        cutoff = sampling.recommend_cutoff(self.thermal_state(m, 1e6))
        budget = sampling.MAX_BOX_ENTRIES
        assert (cutoff + 1) ** (2 * m) <= budget < (cutoff + 2) ** (2 * m)
        assert (cutoff == 0) == (m >= 13)


def dict_marginal(dist, kept):
    """Marginal by accumulating into a dict in outcome order, as a reference."""
    accum = {}
    for counts in dist.outcomes():
        key = counts.key()
        sub = tuple(key[i] for i in kept)
        accum[sub] = accum.get(sub, 0.0) + dist.probability(counts)
    return sorted(accum), [accum[sub] for sub in sorted(accum)]


class TestDenseStorage:
    def test_cutoff_and_shape(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 5)
        assert dist.probabilities.shape == (6, 6)
        assert dist.cutoff == 5
        assert dist.probability((2, 2)) == dist.probabilities[2, 2]

    def test_outside_lattice_is_zero(self):
        state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
        dist = sampling.enumerate_distribution(state, 3)
        got = dist.probability((4, 4))
        assert type(got) is float and got == 0.0

    def test_marginalize_matches_dict_accumulation_bit_for_bit(self):
        """Every keep set of seeded random lattices with M <= 4."""
        rng = np.random.default_rng(77)
        shapes = [(1, 0, 12), (1, 1, 7), (2, 1, 4), (1, 3, 3), (2, 2, 3)]
        for m_a, m_ph, cutoff in shapes:
            _, _, dec = stable_instance(rng, m_a, m_ph, strength=0.4)
            state = gaussian.covariance(dec, 0.4)
            dist = sampling.enumerate_distribution(state, cutoff)
            for size in range(1, dist.m + 1):
                for keep in itertools.combinations(range(dist.m), size):
                    marginal = sampling.marginalize(dist, keep)
                    keys, values = dict_marginal(dist, keep)
                    assert [c.key() for c in marginal.outcomes()] == keys
                    assert marginal.probabilities.ravel().tolist() == values
                    assert marginal.m_a == sum(1 for i in keep if i < m_a)


class TestRoundoffFloor:
    """G = -I/3 gives C_01 = -0.5 and det(1 + G) = 4/9, so p(1) = -0.5 * 1.5
    = -0.75, far below the floor."""

    @staticmethod
    def invalid_state():
        return gaussian.GaussianState(
            g=-np.eye(2) / 3.0, temperature=0.0, m_a=1, m_ph=0
        )

    MESSAGE = r"outcome n=\[1\] q=\[\] has probability .* roundoff floor -1\.0e-12"

    def test_enumeration_refused(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            sampling.enumerate_distribution(self.invalid_state(), 3)

    def test_single_outcome_refused(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            sampling.outcome_probability(self.invalid_state(), (1,))


CAVITY_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "configs", "cavity_condensate.json"
)


def cavity_distribution():
    with open(CAVITY_FILE, encoding="utf-8") as handle:
        cfg = model.load_config(handle.read())
    return pipeline.distribution(cfg, 3)


def random_distribution(cutoff=3):
    """A seeded complex model with two atom modes and one photon mode, at
    cutoff 3 the shape of the random state the query benchmark samples."""
    blocks, _, _ = stable_instance(np.random.default_rng(31337), 2, 1)
    return pipeline.distribution(direct_config(blocks, 0.45), cutoff)


def draw_digest(draws):
    keys = np.array([d.key() for d in draws], dtype="<i8")
    return hashlib.sha256(keys.tobytes()).hexdigest()


def result_fields(result):
    return (result.statistic, result.dof, result.p_value, result.n_buckets)


def assert_fields_near(result, want):
    """dof and bucket count exactly, the floats to 1e-12: their last bits
    follow the LAPACK build through the enumerated probabilities."""
    statistic, dof, p_value, n_buckets = want
    assert (result.dof, result.n_buckets) == (dof, n_buckets)
    assert result.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
    assert result.p_value == pytest.approx(p_value, rel=1e-12, abs=0.0)


class TestPinnedDraws:
    """1e5 draws pinned by digest, and their chi-square verdicts: a change
    to how draws are made or counted must not move a single draw."""

    def test_cavity_condensate(self):
        dist = cavity_distribution()
        draws = sampling.sample(dist, 100_000, seed=20240601)
        assert draw_digest(draws) == (
            "605fe5982a87174e8b9751d98fa162e6cdb8eed18e5874bc1289ef4e1b660d28"
        )
        assert_fields_near(
            sampling.chi_square(dist, draws), (4.375954615539916, 6, 0.6259392886938953, 7)
        )

    def test_random_three_mode_model(self):
        dist = random_distribution()
        draws = sampling.sample(dist, 100_000, seed=2**64 - 1)
        assert draw_digest(draws) == (
            "7d57910f257d2bc5506e6b18d93a52927bc5e559c131ddd3635831001e95b009"
        )
        assert_fields_near(
            sampling.chi_square(dist, draws), (20.45532986518777, 20, 0.4297898420365767, 21)
        )

    def test_draws_of_one_outcome_share_one_object(self):
        dist = cavity_distribution()
        draws = sampling.sample(dist, 10_000, seed=5)
        assert len({id(d) for d in draws}) == len(set(draws))


class TestCountingByValue:
    """chi_square counts equal CountsVectors together, whatever the object
    identity and order of the draws: every field agrees bit for bit."""

    @staticmethod
    def copies(draws):
        return [CountsVector(atoms=tuple(d.atoms), photons=tuple(d.photons)) for d in draws]

    def test_shared_copied_and_mixed_draws_agree(self):
        dist = cavity_distribution()
        shared = sampling.sample(dist, 100_000, seed=20240601)
        fresh = self.copies(shared)
        assert not any(a is b for a, b in zip(shared, fresh))
        mixed = list(shared[::2]) + fresh[1::2]
        random.Random(3).shuffle(mixed)
        want = result_fields(sampling.chi_square(dist, shared))
        for draws in (fresh, mixed):
            assert result_fields(sampling.chi_square(dist, draws)) == want

    def test_draws_outside_the_lattice_join_the_tail(self):
        """Counts above the cutoff land in the tail bucket, shared or not."""
        dist = cavity_distribution()
        shared = sampling.sample(dist, 100_000, seed=20240601)
        outside = [CountsVector(atoms=(4,), photons=(0, 1))] * 30 + [
            CountsVector(atoms=(0,), photons=(5, 0))
        ] * 15
        mixed = self.copies(shared[:50_000]) + list(shared[50_000:]) + self.copies(outside)
        random.Random(4).shuffle(mixed)
        result = sampling.chi_square(dist, list(shared) + outside)
        assert result_fields(sampling.chi_square(dist, mixed)) == result_fields(result)
        assert_fields_near(result, (114.08237862105821, 6, 2.843791486257541e-22, 7))


def reference_chi_square(dist, draws):
    """chi_square's pooling written out over a Counter of draw keys: the
    lattice in lexicographic order, then the draws outside it in the tail."""
    n = len(draws)
    observed = collections.Counter(d.key() for d in draws)
    retained, tail_expected, tail_observed = [], 0.0, 0
    for key in np.ndindex(dist.probabilities.shape):
        expected = float(dist.probabilities[key]) / dist.captured_mass * n
        seen = observed.pop(key, 0)
        if expected >= sampling.MIN_EXPECTED:
            retained.append([float(seen), expected])
        else:
            tail_expected += expected
            tail_observed += seen
    tail_observed += sum(observed.values())
    if tail_expected >= sampling.MIN_EXPECTED:
        retained.append([float(tail_observed), tail_expected])
    else:
        retained[-1][0] += tail_observed
        retained[-1][1] += tail_expected
    statistic = math.fsum((obs - exp) ** 2 / exp for obs, exp in retained)
    return statistic, len(retained) - 1, len(retained)


class TestDraws:
    """The Draws sequence sample returns, as the benchmark's checker and
    chi_square read it."""

    def test_sequence_contract(self):
        dist = cavity_distribution()
        draws = sampling.sample(dist, 10_000, seed=5)
        again = sampling.sample(dist, 10_000, seed=5)
        assert len(draws) == 10_000
        spots = draws[::100]
        assert isinstance(spots, sampling.Draws) and len(spots) == 100
        assert all(isinstance(d, CountsVector) for d in spots)
        assert [d.key() for d in spots] == [d.key() for d in list(draws)[::100]]
        assert draws[-1] is list(draws)[-1]
        with pytest.raises(IndexError):
            draws[10_000]
        assert (draws != again) is False
        assert (draws == again) is True
        assert (draws != sampling.sample(dist, 10_000, seed=6)) is True
        assert draws == list(draws) and list(draws) == draws
        zero = sampling.sample(dist, 0, seed=5)
        assert zero == [] and [] == zero and len(zero) == 0
        assert zero.counts.shape == (0, 3)

    def test_indices_are_read_only_and_inside_the_lattice(self):
        draws = sampling.sample(cavity_distribution(), 1_000, seed=5)
        for indices in (draws.indices, draws[10:20].indices):
            with pytest.raises(ValueError, match="read-only"):
                indices[0] = 1
        for indices in ([0, 64], [-1, 3]):
            with pytest.raises(ValueError, match=re.escape("must lie in [0, 64)")):
                sampling.Draws(indices, (4, 4, 4), 1)

    def test_counts_array(self):
        draws = sampling.sample(random_distribution(), 10_000, seed=5)
        counts = draws.counts
        assert counts.dtype.kind == "i" and counts.shape == (10_000, 3)
        np.testing.assert_array_equal(counts, np.array([d.key() for d in draws]))

    def test_chi_square_by_index_and_by_value_agree(self):
        """On a Draws, on list(draws), and on draws from a wider lattice of
        the same state, whose rows above the cutoff join the tail: every
        field bit for bit equal to the reference count by key."""
        dist = random_distribution()
        draws = sampling.sample(dist, 100_000, seed=2**64 - 1)
        wider = sampling.sample(random_distribution(6), 100_000, seed=2**64 - 1)
        assert np.count_nonzero(np.any(wider.counts > dist.cutoff, axis=1)) > 0
        for sample in (draws, list(draws), wider, list(wider)):
            result = sampling.chi_square(dist, sample)
            statistic, dof, n_buckets = reference_chi_square(dist, sample)
            assert (result.statistic, result.dof, result.n_buckets) == (
                statistic, dof, n_buckets
            )
            assert result.p_value == sampling._chi2_sf(dof, statistic)

    def test_chi_square_refuses_another_mode_count(self):
        dist = cavity_distribution()
        draws = [CountsVector(atoms=(0,), photons=(0,))] * 100
        with pytest.raises(ValueError, match="draws have 2 modes, the distribution has 3"):
            sampling.chi_square(dist, draws)
