"""Thermal correlators, base matrices and their replication."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from hybrid_sampler import bdg, gaussian, model
from hybrid_sampler.gaussian import CountsVector

from conftest import (
    squeeze_blocks,
    stable_instance,
    thermal_blocks,
    two_mode_squeeze_blocks,
)

np.random.seed(31)

T_HALF = 1.0 / math.log(2.0)


def decompose(blocks):
    return bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))


def correlator_reference(dec, temperature):
    """G assembled correlator by correlator from Bose-Einstein factors.

    Independent of the coth route: occupation numbers f(E) populate
    diag(f, f + 1) in the quasiparticle frame, which the inverse
    transform maps back before the vacuum part is removed.
    """
    m = dec.m
    if temperature == 0:
        occ = np.zeros(m)
    else:
        occ = 1.0 / np.expm1(dec.energies / temperature)
    r_inv = dec.r_inverse
    diag = np.concatenate([occ, occ + 1.0])
    g = (r_inv * diag[None, :]) @ r_inv.conj().T
    g[m:, m:] -= np.eye(m)
    return g


class TestCovariance:
    """The correlator matrix against Bose-Einstein closed forms."""

    def test_thermal_occupation(self):
        """One free mode at T = 1/log 2 holds one quantum on average.

        Both diagonal entries equal n after the vacuum part is removed.
        """
        state = gaussian.covariance(decompose(thermal_blocks(1.0)), T_HALF)
        assert state.g[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert state.g[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert abs(state.g[0, 1]) < 1e-12

    def test_vacuum_at_zero_temperature(self):
        state = gaussian.covariance(decompose(thermal_blocks(1.0)), 0.0)
        np.testing.assert_allclose(state.g, np.zeros((2, 2)), atol=1e-12)
        assert state.log_norm == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_vacuum_moments(self):
        """r = 0.5 gives sinh^2 occupation and cosh sinh anomalous part."""
        t = math.tanh(1.0)
        state = gaussian.covariance(decompose(squeeze_blocks(1.0, t)), 0.0)
        assert state.g[0, 0].real == pytest.approx(math.sinh(0.5) ** 2, abs=1e-12)
        assert abs(state.g[0, 1]) == pytest.approx(
            math.cosh(0.5) * math.sinh(0.5), abs=1e-12
        )

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            gaussian.covariance(decompose(thermal_blocks(1.0)), -1.0)

    def test_occupation_grows_with_temperature(self, rng):
        _, _, dec = stable_instance(rng, 1, 1)
        previous = None
        for temperature in (0.0, 0.5, 1.0, 2.0):
            state = gaussian.covariance(dec, temperature)
            occ = state.mean_occupations()
            if previous is not None:
                assert np.all(occ >= previous - 1e-12)
            previous = occ

    def test_matches_correlator_reference(self, rng):
        """The coth construction equals the occupation-number route."""
        for m_a, m_ph in ((1, 1), (2, 1), (2, 2)):
            _, _, dec = stable_instance(rng, m_a, m_ph)
            for temperature in (0.0, 0.7):
                state = gaussian.covariance(dec, temperature)
                want = correlator_reference(dec, temperature)
                assert np.max(np.abs(state.g - want)) < 1e-10

    def test_fingerprint_is_stable_and_discriminating(self):
        dec = decompose(thermal_blocks(1.0))
        state1 = gaussian.covariance(dec, T_HALF)
        state2 = gaussian.covariance(dec, T_HALF)
        assert state1.fingerprint() == state2.fingerprint()
        cold = gaussian.covariance(dec, 0.0)
        assert cold.fingerprint() != state1.fingerprint()


class TestStateContract:
    """A GaussianState is built from G, the temperature and the partition
    alone, and cannot be changed afterwards."""

    @staticmethod
    def state():
        return gaussian.covariance(decompose(thermal_blocks(1.0)), T_HALF)

    @pytest.mark.parametrize("name", ["c", "log_norm", "_fingerprint"])
    def test_derived_fields_cannot_be_passed(self, name):
        state = self.state()
        with pytest.raises(TypeError, match=name):
            gaussian.GaussianState(
                g=state.g, temperature=state.temperature, m_a=1, m_ph=0,
                **{name: getattr(state, name, "")}
            )

    @pytest.mark.parametrize("name", ["g", "temperature", "m_a", "m_ph", "c", "log_norm"])
    def test_fields_cannot_be_assigned(self, name):
        state = self.state()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, getattr(state, name))

    @pytest.mark.parametrize("name", ["g", "c"])
    def test_arrays_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(self.state(), name)[0, 0] = 0.0

    def test_g_is_a_complex_copy(self):
        g = np.diag([1.0, 1.0])
        state = gaussian.GaussianState(g=g, temperature=T_HALF, m_a=1, m_ph=0)
        g[0, 0] = 2.0
        assert state.g.dtype == complex
        assert state.g[0, 0] == 1.0

    def test_mismatched_partition_is_refused(self):
        """Read as one mode, a two-mode thermal G would give p(1) = 0.0 and
        a captured mass of 0.547 at cutoff 10 without an error."""
        blocks = model.CouplingBlocks(
            eps_a=np.diag([1.0, 2.0]).astype(complex),
            eps_ph=np.zeros((0, 0)),
            chi_phph=np.zeros((0, 0)),
            chi_pha=np.zeros((0, 2)),
            chit_aa=np.zeros((2, 2)),
            chit_pha=np.zeros((0, 2)),
        )
        g = gaussian.covariance(decompose(blocks), 1.0).g
        want = "G has shape (4, 4), but the partition m_a = 1, m_ph = 0 needs (2, 2)"
        with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
            gaussian.GaussianState(g=g, temperature=1.0, m_a=1, m_ph=0)

    def test_negative_mode_count_is_refused(self):
        """m_a = -1, m_ph = 2 matches a one-mode G in total only."""
        want = "m_a = -1, m_ph = 2: mode counts must be >= 0"
        with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
            gaussian.GaussianState(g=np.eye(2), temperature=1.0, m_a=-1, m_ph=2)


class TestBaseMatrix:
    def test_thermal_form(self):
        """A thermal mode yields C = [[0, q], [q, 0]] with q = n/(1 + n)."""
        state = gaussian.covariance(decompose(thermal_blocks(1.0)), T_HALF)
        q = 0.5
        np.testing.assert_allclose(
            state.c, np.array([[0.0, q], [q, 0.0]]), atol=1e-12
        )
        assert state.log_norm == pytest.approx(0.5 * math.log(4.0), abs=1e-12)

    def test_squeezed_form(self):
        """Squeezed vacuum yields C = -tanh(r) I."""
        dec = decompose(squeeze_blocks(1.0, 0.6))
        state = gaussian.covariance(dec, 0.0)
        r = 0.25 * math.log(4.0)
        np.testing.assert_allclose(
            state.c, -math.tanh(r) * np.eye(2), atol=1e-12
        )

    def test_vacuum_is_zero(self):
        c, log_norm = gaussian.base_matrix(np.zeros((4, 4)))
        np.testing.assert_array_equal(c, np.zeros((4, 4)))
        assert log_norm == 0.0

    def test_state_derives_its_base_matrix(self, rng):
        """A state's C and log_norm are base_matrix(G), bit for bit."""
        _, _, dec = stable_instance(rng, 2, 1)
        state = gaussian.covariance(dec, 0.4)
        c, log_norm = gaussian.base_matrix(state.g)
        assert state.c.tobytes() == c.tobytes()
        assert state.log_norm == log_norm

    def test_symmetric_and_contractive(self, rng):
        """C is symmetric with singular values strictly below 1."""
        for m_a, m_ph in ((1, 1), (2, 2)):
            _, _, dec = stable_instance(rng, m_a, m_ph)
            state = gaussian.covariance(dec, 0.4)
            assert np.max(np.abs(state.c - state.c.T)) == 0.0
            svals = np.linalg.svd(state.c, compute_uv=False)
            assert np.all(svals < 1.0)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gaussian.base_matrix(np.zeros((3, 3)))

    def test_unphysical_correlator_rejected(self):
        """Imbalanced normal correlators break the base-matrix symmetry."""
        g = np.diag([1.0, 0.2]).astype(complex)
        want = (
            "C is not symmetric: max|C - C^T| = 3.333e-01 exceeds the limit "
            "1e-08 * max(1, max|C|) = 1.000e-08"
        )
        with pytest.raises(ValueError, match=re.escape(want)):
            gaussian.base_matrix(g)

    def test_asymmetry_message_names_its_limit(self):
        """G = diag(a, 0) gives C = [[0, 0], [a / (1 + a), 0]]: an asymmetry
        of about 1e-6, over the limit 1e-8 * max(1, max|C|) = 1e-8."""
        g = np.diag([1e-6, 0.0]).astype(complex)
        want = (
            "C is not symmetric: max|C - C^T| = 1.000e-06 exceeds the limit "
            "1e-08 * max(1, max|C|) = 1.000e-08"
        )
        with pytest.raises(ValueError, match=re.escape(want)):
            gaussian.base_matrix(g)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_correlator_rejected(self, entry):
        """A NaN would pass the symmetry and phase checks unseen."""
        g = np.zeros((2, 2), dtype=complex)
        g[0, 0] = entry
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^G has non-finite"):
            gaussian.base_matrix(g)

    def test_overflowing_temperature_is_refused(self):
        """At T = 1e308 coth(E / 2T) overflows for E = 1: the temperature is
        refused, naming T, E and the limit, before numpy warns."""
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(thermal_blocks()))
        want = (
            "temperature 1e+308 is too high for the smallest quasiparticle energy "
            "E = 1.0: coth(E / 2T) is finite only while E / 2T exceeds the limit "
            "2^-1024 = 5.563e-309, that is T < 8.988466e+307"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
                gaussian.covariance(dec, 1e308)

    def test_temperature_limit_is_exact(self):
        """E = 1: T = 2^1023 makes E / 2T = 2^-1024 and is refused; the T
        that makes E / 2T the next float above 2^-1024 gives a finite state,
        coth near the largest float, without a warning, although 2T
        overflows there."""
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(thermal_blocks()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too high"):
                gaussian.covariance(dec, 2.0**1023)
            hottest = 0.5 / np.nextafter(2.0**-1024, 1.0)
            state = gaussian.covariance(dec, hottest)
        assert np.isfinite(state.g).all()
        assert state.mean_occupations()[0] == pytest.approx(hottest)

    def test_tiny_temperature_is_the_ground_state(self):
        """E / 2T overflows to inf, where coth is exactly 1, as at T = 0."""
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(thermal_blocks()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = gaussian.covariance(dec, 1e-320)
        np.testing.assert_array_equal(tiny.g, gaussian.covariance(dec, 0.0).g)

    def test_determinant_phase_message_names_its_limit(self):
        """G = [[0, x], [x, 0]] with x^2 = -2e-8 i keeps C symmetric, but
        det(1 + G) = 1 + 2e-8 i has a phase 2e-8 off the real axis."""
        x = np.sqrt(2e-8) * np.exp(-0.25j * np.pi)
        g = np.array([[0.0, x], [x, 0.0]])
        want = (
            "det(1 + G) is not real positive: its phase is 1.000e+00+2.000e-08j, "
            "and a physical Gaussian state needs a real part above 0 and |imag| "
            "within the limit 1e-08"
        )
        with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
            gaussian.base_matrix(g)


class TestExtendMatrix:
    def test_zero_counts_is_empty(self):
        c = np.arange(16, dtype=float).reshape(4, 4)
        out = gaussian.extend_matrix(c, CountsVector(atoms=(0,), photons=(0,)))
        assert out.shape == (0, 0)

    def test_single_mode_double_count(self):
        """n = 2 duplicates the two rows of a one-mode base matrix."""
        c = np.array([[1.0, 2.0], [2.0, 3.0]])
        out = gaussian.extend_matrix(c, CountsVector(atoms=(2,), photons=()))
        want = np.array(
            [
                [1.0, 1.0, 2.0, 2.0],
                [1.0, 1.0, 2.0, 2.0],
                [2.0, 2.0, 3.0, 3.0],
                [2.0, 2.0, 3.0, 3.0],
            ]
        )
        np.testing.assert_array_equal(out, want)

    def test_two_mode_pattern(self):
        """Counts (1, 2) pick index pattern [0, 1, 1, 2, 3, 3]."""
        c = np.arange(16, dtype=float).reshape(4, 4)
        c = c + c.T
        out = gaussian.extend_matrix(c, CountsVector(atoms=(1,), photons=(2,)))
        idx = [0, 1, 1, 2, 3, 3]
        want = np.empty((6, 6))
        for i, a in enumerate(idx):
            for j, b in enumerate(idx):
                want[i, j] = c[a, b]
        np.testing.assert_array_equal(out, want)

    def test_negative_counts_rejected(self):
        c = np.zeros((2, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian.extend_matrix(c, CountsVector(atoms=(-1,), photons=()))

    def test_mode_count_mismatch(self):
        c = np.zeros((4, 4))
        with pytest.raises(ValueError, match="modes"):
            gaussian.extend_matrix(c, CountsVector(atoms=(1,), photons=()))


class TestCountsVector:
    def test_total_and_key(self):
        counts = CountsVector(atoms=(1, 0), photons=(2,))
        assert counts.total == 3
        assert counts.key() == (1, 0, 2)

    def test_hashable(self):
        seen = {CountsVector(atoms=(1,), photons=(0,)): "x"}
        assert seen[CountsVector(atoms=(1,), photons=(0,))] == "x"

    def test_str(self):
        counts = CountsVector(atoms=(1,), photons=(0, 2))
        assert str(counts) == "n=[1] q=[0, 2]"


class TestTwoModeSqueezed:
    """Cross-mode pairing correlators of the two-mode squeezed state."""

    def test_anomalous_block_is_cross_mode(self):
        dec = decompose(two_mode_squeeze_blocks(1.0, 0.4))
        state = gaussian.covariance(dec, 0.0)
        r = 0.25 * math.log(7.0 / 3.0)
        assert state.g[0, 0].real == pytest.approx(math.sinh(r) ** 2, abs=1e-12)
        assert state.g[1, 1].real == pytest.approx(math.sinh(r) ** 2, abs=1e-12)
        assert abs(state.g[0, 3]) == pytest.approx(
            math.cosh(r) * math.sinh(r), abs=1e-12
        )
        assert abs(state.g[0, 2]) < 1e-12
