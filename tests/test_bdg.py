"""Hamiltonian assembly, stability checks and Bogoliubov diagonalization."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hybrid_sampler import bdg, model

from conftest import (
    random_coupling_blocks,
    squeeze_blocks,
    stable_instance,
    two_mode_squeeze_blocks,
)

np.random.seed(11)

QUARTER_LOG_4 = 0.25 * math.log(4.0)


class TestAssembly:
    """Block placement in the stored quadratic form."""

    def test_uncoupled_layout(self):
        """With zero couplings the form is [[0, diag], [diag, 0]]."""
        blocks = model.CouplingBlocks(
            eps_a=np.diag([1.0, 2.0]).astype(complex),
            eps_ph=np.array([[1.5]], dtype=complex),
            chi_phph=np.zeros((1, 1), dtype=complex),
            chi_pha=np.zeros((1, 2), dtype=complex),
            chit_aa=np.zeros((2, 2), dtype=complex),
            chit_pha=np.zeros((1, 2), dtype=complex),
        )
        ham = bdg.assemble_hamiltonian(blocks)
        want = np.zeros((6, 6), dtype=complex)
        want[:3, 3:] = np.diag([1.0, 2.0, 1.5])
        want[3:, :3] = np.diag([1.0, 2.0, 1.5])
        np.testing.assert_array_equal(ham.h, want)
        assert ham.m_a == 2 and ham.m_ph == 1

    def test_pair_coupling_placement(self):
        blocks = squeeze_blocks(1.0, 0.3)
        ham = bdg.assemble_hamiltonian(blocks)
        assert ham.h[0, 0] == 0.3
        assert ham.h[1, 1] == 0.3
        assert ham.h[0, 1] == 1.0

    def test_matches_hand_assembly(self, rng):
        """Random blocks agree with an explicitly built block matrix."""
        blocks = random_coupling_blocks(rng, 2, 1, strength=0.3)
        ham = bdg.assemble_hamiltonian(blocks)
        m_a, m = 2, 3
        eps = np.zeros((m, m), dtype=complex)
        eps[:m_a, :m_a] = blocks.eps_a
        eps[m_a:, m_a:] = blocks.eps_ph
        chi = np.zeros((m, m), dtype=complex)
        chi[m_a:, :m_a] = blocks.chi_pha
        chi[:m_a, m_a:] = blocks.chi_pha.conj().T
        chi[m_a:, m_a:] = blocks.chi_phph
        chit = np.zeros((m, m), dtype=complex)
        chit[:m_a, :m_a] = blocks.chit_aa
        chit[m_a:, :m_a] = blocks.chit_pha
        chit[:m_a, m_a:] = blocks.chit_pha.conj().T
        top = eps + chi
        want = np.block([[chit, top], [top.conj(), chit.conj()]])
        np.testing.assert_allclose(ham.h, want, atol=1e-12)

    def test_dynamical_matrix_is_block_row_swap(self, rng):
        blocks = random_coupling_blocks(rng, 1, 1)
        ham = bdg.assemble_hamiltonian(blocks)
        np.testing.assert_array_equal(ham.dynamical[:2], ham.h[2:])
        np.testing.assert_array_equal(ham.dynamical[2:], ham.h[:2])
        assert np.max(np.abs(ham.dynamical - ham.dynamical.conj().T)) < 1e-12

    def test_dynamical_form_is_exactly_hermitian(self, rng):
        """Random complex blocks nudged off their symmetries by roundoff are
        stored exactly Hermitian, symmetric and real, so the dynamical form
        of every M = 1-4 model, with every atom/photon split, equals its
        conjugate transpose to the bit."""

        def nudged(mat):
            noise = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
            return mat + 1e-14 * noise

        for m in range(1, 5):
            for m_a in range(m + 1):
                exact = random_coupling_blocks(rng, m_a, m - m_a)
                blocks = model.CouplingBlocks(
                    eps_a=nudged(exact.eps_a),
                    eps_ph=exact.eps_ph,
                    chi_phph=nudged(exact.chi_phph),
                    chi_pha=exact.chi_pha,
                    chit_aa=nudged(exact.chit_aa),
                    chit_pha=nudged(exact.chit_pha),
                )
                assert np.array_equal(blocks.eps_a, blocks.eps_a.conj().T)
                assert np.array_equal(blocks.chi_phph, blocks.chi_phph.conj().T)
                assert np.array_equal(blocks.chit_aa, blocks.chit_aa.T)
                assert not np.any(blocks.chit_pha.imag)
                k = bdg.assemble_hamiltonian(blocks).dynamical
                assert np.array_equal(k, k.conj().T), (m_a, m - m_a)

    def test_complex_pair_coupling_rejected(self):
        """A complex chit_pha would assemble a non-Hermitian form, so it is
        refused when the blocks are built."""
        with pytest.raises(model.ConfigError, match="chit_pha must be real"):
            model.CouplingBlocks(
                eps_a=np.array([[1.0]], dtype=complex),
                eps_ph=np.array([[1.0]], dtype=complex),
                chi_phph=np.zeros((1, 1), dtype=complex),
                chi_pha=np.zeros((1, 1), dtype=complex),
                chit_aa=np.zeros((1, 1), dtype=complex),
                chit_pha=np.array([[0.4j]]),
            )

    def test_non_hermitian_energies_rejected(self):
        """Non-Hermitian energies are refused when the blocks are built."""
        with pytest.raises(model.ConfigError, match="eps_a is not Hermitian"):
            model.CouplingBlocks(
                eps_a=np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex),
                eps_ph=np.zeros((0, 0), dtype=complex),
                chi_phph=np.zeros((0, 0), dtype=complex),
                chi_pha=np.zeros((0, 2), dtype=complex),
                chit_aa=np.zeros((2, 2), dtype=complex),
                chit_pha=np.zeros((0, 2), dtype=complex),
            )


class TestStability:
    def test_uncoupled_report(self):
        """A number-conserving form is stable, its lowest quasiparticle
        energy the bare energy."""
        ham = bdg.assemble_hamiltonian(
            two_mode_squeeze_blocks(1.0, 0.0)
        )
        report = bdg.check_stability(ham)
        assert report.stable
        assert report.min_quasiparticle_energy == pytest.approx(1.0)

    def test_overcoupled_is_unstable(self):
        ham = bdg.assemble_hamiltonian(squeeze_blocks(1.0, 1.5))
        report = bdg.check_stability(ham)
        assert not report.stable
        assert report.min_quasiparticle_energy is None
        assert report.detail

    def test_critical_coupling_is_unstable(self):
        """t = e puts a quasiparticle at zero energy."""
        ham = bdg.assemble_hamiltonian(squeeze_blocks(1.0, 1.0))
        with pytest.raises(bdg.InstabilityError, match="quasiparticle"):
            bdg.bogoliubov_diagonalize(ham)

    def test_zero_hamiltonian_is_unstable(self):
        ham = bdg.assemble_hamiltonian(squeeze_blocks(0.0, 0.0))
        report = bdg.check_stability(ham)
        assert not report.stable

    def test_error_carries_eigenvalue(self):
        ham = bdg.assemble_hamiltonian(squeeze_blocks(1.0, 1.5))
        with pytest.raises(bdg.InstabilityError) as info:
            bdg.bogoliubov_diagonalize(ham)
        assert info.value.eigenvalue is not None

    def test_failed_cholesky_is_refused(self):
        """|t|^2 > e^2 exactly, yet K's eigenvalues e -+ |t| round to a
        positive double: the failed factorization decides."""
        t = complex(0.9375047248769781, 0.34797254321762455)
        assert Fraction(t.real) ** 2 + Fraction(t.imag) ** 2 > 1
        ham = bdg.assemble_hamiltonian(squeeze_blocks(1.0, t))
        with pytest.raises(bdg.InstabilityError, match="Cholesky") as info:
            bdg.bogoliubov_diagonalize(ham)
        assert info.value.eigenvalue == np.linalg.eigvalsh(ham.dynamical)[0]
        assert "||K||_2 = 2.000e+00" in str(info.value)
        assert not bdg.check_stability(ham).stable

    def test_energy_guard_names_its_limit(self):
        """A quasiparticle energy of 1 beside one of 1e12 is under the limit
        1e-10 * ||K||_2 = 100; beside 1e9 (limit 0.1) it is accepted."""
        def blocks(high):
            return model.CouplingBlocks(
                eps_a=np.diag([high, 1.0]).astype(complex),
                eps_ph=np.zeros((0, 0), dtype=complex),
                chi_phph=np.zeros((0, 0), dtype=complex),
                chi_pha=np.zeros((0, 2), dtype=complex),
                chit_aa=np.zeros((2, 2), dtype=complex),
                chit_pha=np.zeros((0, 2), dtype=complex),
            )

        ham = bdg.assemble_hamiltonian(blocks(1e12))
        want = "stability limit 1e-10 * ||K||_2 = 1.000e+02"
        with pytest.raises(bdg.InstabilityError, match=re.escape(want)) as info:
            bdg.bogoliubov_diagonalize(ham)
        assert info.value.eigenvalue == 1.0
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks(1e9)))
        assert dec.energies[0] == 1.0


class TestDiagonalize:
    def test_uncoupled_identity_transform(self):
        """chi = chit = 0 gives the identity transform exactly."""
        blocks = model.CouplingBlocks(
            eps_a=np.diag([1.0, 2.0]).astype(complex),
            eps_ph=np.array([[3.0]], dtype=complex),
            chi_phph=np.zeros((1, 1), dtype=complex),
            chi_pha=np.zeros((1, 2), dtype=complex),
            chit_aa=np.zeros((2, 2), dtype=complex),
            chit_pha=np.zeros((1, 2), dtype=complex),
        )
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
        np.testing.assert_allclose(dec.energies, [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(dec.r_tilde, np.eye(6), atol=1e-12)

    def test_single_mode_closed_form(self):
        """e = 1, t = 0.6: E = 0.8 and r = (1/4) log 4."""
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(squeeze_blocks(1.0, 0.6))
        )
        assert dec.energies[0] == pytest.approx(0.8, abs=1e-12)
        r = QUARTER_LOG_4
        assert dec.a[0, 0] == pytest.approx(math.cosh(r), abs=1e-12)
        assert dec.b[0, 0] == pytest.approx(-math.sinh(r), abs=1e-12)

    def test_energy_formula_sweep(self):
        """E = sqrt(e^2 - t^2) across couplings."""
        for t in (0.1, 0.4, 0.8):
            dec = bdg.bogoliubov_diagonalize(
                bdg.assemble_hamiltonian(squeeze_blocks(1.0, t))
            )
            assert dec.energies[0] == pytest.approx(math.sqrt(1 - t * t), abs=1e-12)

    def test_degenerate_pair(self):
        """The two-mode squeezed instance has a doubly degenerate energy."""
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(two_mode_squeeze_blocks(1.0, 0.4))
        )
        want = math.sqrt(1.0 - 0.16)
        np.testing.assert_allclose(dec.energies, [want, want], atol=1e-12)
        assert dec.symplectic_residual() < 1e-12

    def test_random_stable_instances(self, rng):
        """Symplectic and congruence residuals on random stable draws."""
        for m_a, m_ph in ((1, 1), (2, 1), (1, 2), (2, 2)):
            blocks, ham, dec = stable_instance(rng, m_a, m_ph)
            assert dec.symplectic_residual() < 1e-10
            assert dec.diagonalization_residual(ham) < 1e-9
            assert np.all(np.diff(dec.energies) >= -1e-12)
            assert dec.energies[0] > 0
            prod = dec.r_tilde @ dec.r_inverse
            assert np.max(np.abs(prod - np.eye(2 * dec.m))) < 1e-10

    def test_spectrum_matches_dynamical_form(self, rng):
        """Positive eigenvalues of J K reproduce the energies."""
        _, ham, dec = stable_instance(rng, 2, 1)
        m = ham.m
        jk = ham.dynamical.copy()
        jk[m:] *= -1.0
        lam = np.linalg.eigvals(jk)
        assert np.max(np.abs(lam.imag)) < 1e-10
        positive = np.sort(lam.real[lam.real > 0])
        np.testing.assert_allclose(positive, dec.energies, atol=1e-10)

    def test_deterministic(self, rng):
        blocks, _, _ = stable_instance(rng, 2, 2)
        ham = bdg.assemble_hamiltonian(blocks)
        first = bdg.bogoliubov_diagonalize(ham)
        second = bdg.bogoliubov_diagonalize(ham)
        np.testing.assert_array_equal(first.energies, second.energies)
        np.testing.assert_array_equal(first.a, second.a)
        np.testing.assert_array_equal(first.b, second.b)

    def test_triangular_solve_matches_scipy_bit_for_bit(self, rng, monkeypatch):
        """np.linalg.solve on the upper Cholesky factor equals scipy's
        triangular solve bit for bit, so payloads do not depend on it."""
        from scipy.linalg import solve_triangular

        calls = []

        def triangular(a, b):
            assert np.array_equal(a, np.triu(a))
            calls.append(a.shape)
            return solve_triangular(a, b, lower=False)

        shapes = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (6, 4))
        for m_a, m_ph in shapes:
            _, ham, dec = stable_instance(rng, m_a, m_ph)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", triangular)
                ref = bdg.bogoliubov_diagonalize(ham)
            assert np.array_equal(dec.energies, ref.energies)
            assert np.array_equal(dec.a, ref.a)
            assert np.array_equal(dec.b, ref.b)
        assert len(calls) == len(shapes)

    def test_metric(self):
        np.testing.assert_array_equal(
            bdg.symplectic_metric(2),
            np.diag([1.0, 1.0, -1.0, -1.0]),
        )
