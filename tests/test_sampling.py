"""Outcome probabilities, enumeration, sampling and goodness of fit."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hybrid_sampler import bdg, gaussian, sampling
from hybrid_sampler.gaussian import CountsVector, extend_matrix
from hybrid_sampler.hafnian import hafnian_naive

from conftest import (
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
        state.c = state.c.astype(complex)
        state.c[0, 1] = state.c[1, 0] = 0.5j
        with pytest.raises(sampling.ImaginaryResidualError, match="imaginary"):
            sampling.outcome_probability(state, (1,))

    def test_asymmetric_base_matrix_rejected(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        state.c = state.c.astype(complex)
        state.c[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            sampling.outcome_probability(state, (1,))

    def test_budget_refuses_before_allocating(self):
        """(5000 + 1)^2 box entries exceed 2^24; nothing is allocated."""
        state = make_state(thermal_blocks(1.0), T_HALF)

        def attempt():
            with pytest.raises(ValueError, match="25010001 box entries.*16777216"):
                sampling.outcome_probability(state, (5000,))

        assert peak_traced_bytes(attempt) < 2**20

    def test_equals_lattice_entry_bit_for_bit(self):
        """Both read the same recurrence values, from different boxes."""
        _, _, dec = stable_instance(np.random.default_rng(8), 2, 1)
        state = gaussian.covariance(dec, 0.3)
        dist = sampling.enumerate_distribution(state, 3)
        assert len(dist.probabilities) == 64
        for counts, value in dist.probabilities.items():
            got = sampling.outcome_probability(state, counts)
            assert type(got) is float and got == value


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
            value
            for counts, value in dist.probabilities.items()
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
        assert all(type(v) is float for v in dist.probabilities.values())

    def test_negative_cutoff(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        with pytest.raises(ValueError, match="cutoff"):
            sampling.enumerate_distribution(state, -1)

    def test_fingerprint_propagates(self):
        state = make_state(thermal_blocks(1.0), T_HALF)
        dist = sampling.enumerate_distribution(state, 3)
        assert dist.fingerprint == state.fingerprint()


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
            for counts, value in dist.probabilities.items():
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
        assert list(same.probabilities.values()) == pytest.approx(
            list(dist.probabilities.values())
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
        shifted = dict(dist.probabilities)
        zero = CountsVector(atoms=(0,), photons=())
        one = CountsVector(atoms=(1,), photons=())
        delta = 0.2 * shifted[one]
        shifted[one] -= delta
        shifted[zero] += delta
        wrong = sampling.OutcomeDistribution(
            cutoff=dist.cutoff,
            probabilities=shifted,
            captured_mass=dist.captured_mass,
            fingerprint=dist.fingerprint,
            m_a=dist.m_a,
            m_ph=dist.m_ph,
        )
        result = sampling.chi_square(wrong, draws)
        assert not result.passed
        assert result.p_bucket == "fail"

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
        for counts, value in dist.probabilities.items():
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

    def test_vacuum_floor(self):
        state = make_state(thermal_blocks(1.0), 0.0)
        assert sampling.recommend_cutoff(state) == 1
