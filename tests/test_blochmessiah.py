"""Takagi factorization, squeeze normal form and mode functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm, svdvals

from hybrid_sampler import bdg, blochmessiah, model, pipeline
from hybrid_sampler.bdg import BogoliubovDecomposition

from conftest import squeeze_blocks, stable_instance, two_mode_squeeze_blocks

np.random.seed(21)


def random_unitary(n, rng=np.random):
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def geometry_config(**over):
    base = {
        "mode": "geometry_1d",
        "m_a": 2,
        "m_ph": 1,
        "temperature": 0.0,
        "g_a_n0": 0.05,
        "delta_a": 40.0,
        "mu": 0.0,
        "delta_nu": [8.0],
        "omega_nu": [1.3],
        "rabi_mode_amp": [0.9],
        "rabi_drive_amp": 1.1,
        "kappa_nu": 0.05,
        "omega_r": 0.5,
        "n_atoms": 1e5,
    }
    base.update(over)
    return model.config_from_dict(base)


def takagi_svd_sqrtm(mat):
    """The earlier Takagi route, kept as an oracle: SVD, then the
    principal square root of the singular-vector coupling of each block of
    singular values equal to 13 decimals."""
    v, d, wh = np.linalg.svd(mat)
    w = wh.conj().T
    dim = d.size
    roots = np.zeros((dim, dim), dtype=complex)
    rounded = np.round(d, 13)
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and rounded[stop] == rounded[start]:
            stop += 1
        roots[start:stop, start:stop] = sqrtm(v[:, start:stop].T @ w[:, start:stop])
        start = stop
    return d, v @ np.conj(roots)


def takagi_kernel(rng, n, spectrum):
    """U diag(spectrum) U^T for a random unitary U."""
    u = random_unitary(n, rng)
    mat = (u * np.asarray(spectrum)) @ u.T
    return 0.5 * (mat + mat.T)


def near_real_kernel(rng, n):
    """A real symmetric matrix plus an imaginary part twice the size below
    which ``takagi`` takes its real branch."""
    x = rng.normal(size=(n, n))
    x = x + x.T
    signs = np.sign(rng.normal(size=(n, n)))
    return x + 2e-14j * max(1.0, np.max(np.abs(x))) * 0.5 * (signs + signs.T)


def assert_takagi(mat, expected_d):
    """Spectrum to 1e-12, U diag(d) U^T = N to 1e-12 |N| and U^H U = I to
    1e-12."""
    d, u = blochmessiah.takagi(mat)
    scale = np.max(np.abs(mat))
    np.testing.assert_allclose(d, expected_d, rtol=0, atol=1e-12 * max(1.0, scale))
    assert np.all(np.diff(d) <= 0) and np.all(d >= 0)
    np.testing.assert_allclose((u * d) @ u.T, mat, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(d.size), rtol=0, atol=1e-12)
    return d, u


def assert_matches_oracle(mat):
    """The factors agree with the SVD + sqrtm route: equal singular values
    and, where that route is itself a Takagi factorization to 1e-12, the
    same Takagi vectors up to the real orthogonal mixing that a degenerate
    block leaves free.  That route fails where rounding to 13 decimals
    splits a degenerate block, as for the spectrum [0.3, 6.103515625e-05,
    6.103515625e-05]."""
    d_ref, u_ref = takagi_svd_sqrtm(mat)
    d, u = assert_takagi(mat, d_ref)
    if np.max(np.abs((u_ref * d_ref) @ u_ref.T - mat)) > 1e-12 * np.max(np.abs(mat)):
        return
    # Vectors of singular values within 1e-6 of each other, or of zero,
    # may mix by eps/gap, so they are compared as blocks.
    keep = d_ref > 1e-6 * d_ref[0]
    overlap = u_ref[:, keep].conj().T @ u[:, keep]
    same = np.abs(d_ref[keep][:, None] - d_ref[keep][None, :]) <= 1e-6 * d_ref[0]
    assert np.max(np.abs(overlap.imag)) < 1e-9
    assert np.max(np.abs(overlap[~same]), initial=0.0) < 1e-9


class TestTakagi:
    """Symmetric factorization N = U diag(d) U^T."""

    def test_non_square(self):
        with pytest.raises(ValueError, match="not square"):
            blochmessiah.takagi(np.zeros((2, 3)))

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            blochmessiah.takagi(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix(self):
        d, u = blochmessiah.takagi(np.zeros((3, 3)))
        np.testing.assert_array_equal(d, np.zeros(3))
        np.testing.assert_array_equal(u, np.eye(3))

    def test_empty(self):
        d, u = blochmessiah.takagi(np.zeros((0, 0)))
        assert d.shape == (0,)
        assert u.shape == (0, 0)

    def test_real_with_negative_eigenvalues(self):
        """Negative eigenvalues fold into i-phases of U."""
        n = np.diag([2.0, -3.0])
        d, u = blochmessiah.takagi(n)
        np.testing.assert_allclose(d, [3.0, 2.0])
        np.testing.assert_allclose(u @ np.diag(d) @ u.T, n, atol=1e-12)

    def test_random_complex(self):
        for dim in (2, 4, 6):
            mat = np.random.randn(dim, dim) + 1j * np.random.randn(dim, dim)
            mat = mat + mat.T
            d, u = blochmessiah.takagi(mat)
            assert np.all(np.diff(d) <= 1e-12)
            assert np.all(d >= 0)
            np.testing.assert_allclose(
                u @ np.diag(d) @ u.T, mat, atol=1e-10 * np.max(np.abs(mat))
            )
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(dim), atol=1e-12
            )

    def test_degenerate_spectrum(self):
        """Repeated singular values still reconstruct exactly."""
        u0 = random_unitary(3)
        mat = u0 @ np.diag([0.8, 0.8, 0.3]) @ u0.T
        d, u = blochmessiah.takagi(mat)
        np.testing.assert_allclose(d, [0.8, 0.8, 0.3], atol=1e-12)
        np.testing.assert_allclose(u @ np.diag(d) @ u.T, mat, atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_degenerate_spectra_match_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            spectrum = rng.choice([0.3, 0.8, 2.0], size=n)
            assert_matches_oracle(takagi_kernel(rng, n, spectrum))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rank_deficient_match_oracle(self, n):
        """1 to n-1 zero singular values: U is completed to a unitary."""
        rng = np.random.default_rng(200 + n)
        for zeros in range(1, n):
            for _ in range(5):
                spectrum = rng.uniform(0.1, 3.0, size=n)
                spectrum[rng.permutation(n)[:zeros]] = 0.0
                assert_matches_oracle(takagi_kernel(rng, n, spectrum))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_near_real_match_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            assert_matches_oracle(near_real_kernel(rng, n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_near_real_with_opposite_eigenvalues(self, n):
        """A real part with eigenvalues 0 and +-lambda, plus an imaginary
        part just above the real-branch threshold.  The SVD + sqrtm route
        can split the near-degenerate pair between its rounding groups and
        then misses N by up to O(1), so numpy's singular values are the
        reference."""
        rng = np.random.default_rng(400 + n)
        x = rng.normal(size=(n, n))
        vals, vecs = np.linalg.eigh(x + x.T)
        vals[0], vals[1] = 0.0, -vals[2]
        x = (vecs * vals) @ vecs.T
        mat = 0.5 * (x + x.T) + 2e-14j * max(1.0, np.max(np.abs(x)))
        assert_takagi(mat, np.linalg.svd(mat, compute_uv=False))

    @pytest.mark.parametrize("scale", [1e-4, 1e-10, 1e-13, 1e-17])
    def test_tiny_singular_values(self, scale):
        """Singular values far below the largest keep U unitary."""
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            spectrum = rng.uniform(0.5, 2.0, size=n)
            spectrum[n // 2:] *= scale
            mat = takagi_kernel(rng, n, spectrum)
            assert_takagi(mat, np.linalg.svd(mat, compute_uv=False))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(2, 8),
        values=st.lists(
            st.one_of(st.sampled_from([0.0, 0.3, 0.8, 2.0]), st.floats(0.0, 3.0)),
            min_size=8,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
        near_real=st.booleans(),
    )
    def test_matches_oracle_property(self, n, values, seed, near_real):
        assume(near_real or max(values[:n]) > 0.0)
        rng = np.random.default_rng(seed)
        if near_real:
            mat = near_real_kernel(rng, n)
        else:
            mat = takagi_kernel(rng, n, values[:n])
        assert_matches_oracle(mat)

    @pytest.mark.parametrize("imag", [0.0, 1e-14])
    def test_real_input_keeps_real_branch_bits(self, imag):
        """A real kernel, also one with an imaginary part at the threshold,
        gives the eigenvectors of its real part with i-phases on negative
        eigenvalues, bit for bit."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 5))
        x = 0.5 * (x + x.T)
        vals, vecs = np.linalg.eigh(x)
        order = np.argsort(-np.abs(vals), kind="stable")
        u_ref = (vecs.astype(complex) * np.where(vals >= 0, 1.0, 1.0j))[:, order]
        scale = max(1.0, np.max(np.abs(x)))
        d, u = blochmessiah.takagi(x + 1j * imag * scale * np.ones((5, 5)))
        np.testing.assert_array_equal(d, np.abs(vals)[order])
        np.testing.assert_array_equal(u, u_ref)


class TestBlochMessiah:
    """The passive-squeeze-passive split of a Bogoliubov transform."""

    def test_identity_transform(self):
        dec = BogoliubovDecomposition(
            energies=np.ones(2),
            a=np.eye(2, dtype=complex),
            b=np.zeros((2, 2), dtype=complex),
            m_a=1,
            m_ph=1,
        )
        factors = blochmessiah.bloch_messiah(dec)
        np.testing.assert_array_equal(factors.r, np.zeros(2))
        np.testing.assert_allclose(factors.v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(factors.w, np.eye(2), atol=1e-12)
        assert factors.max_squeeze == 0.0

    def test_canonical_single_mode(self):
        """A diagonal squeezer passes through with its own parameter."""
        r0 = 0.7
        dec = BogoliubovDecomposition(
            energies=np.ones(1),
            a=np.array([[math.cosh(r0)]], dtype=complex),
            b=np.array([[-math.sinh(r0)]], dtype=complex),
            m_a=1,
            m_ph=0,
        )
        factors = blochmessiah.bloch_messiah(dec)
        assert factors.r[0] == pytest.approx(r0, abs=1e-12)
        assert abs(factors.v[0, 0]) == pytest.approx(1.0, abs=1e-12)
        a_rec, b_rec = factors.reconstruct()
        np.testing.assert_allclose(a_rec, dec.a, atol=1e-12)
        np.testing.assert_allclose(b_rec, dec.b, atol=1e-12)

    def test_single_mode_squeeze_value(self):
        """e = 1, t = 0.6 squeezes by (1/4) log 4."""
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(squeeze_blocks(1.0, 0.6))
        )
        factors = blochmessiah.bloch_messiah(dec)
        assert factors.r[0] == pytest.approx(0.25 * math.log(4.0), abs=1e-10)

    def test_squeeze_grows_with_coupling(self):
        values = []
        for t in (0.2, 0.4, 0.6):
            dec = bdg.bogoliubov_diagonalize(
                bdg.assemble_hamiltonian(squeeze_blocks(1.0, t))
            )
            values.append(blochmessiah.bloch_messiah(dec).r[0])
        assert values[0] < values[1] < values[2]

    def test_degenerate_squeeze_pair(self):
        """Two-mode squeezing gives two equal parameters."""
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(two_mode_squeeze_blocks(1.0, 0.4))
        )
        factors = blochmessiah.bloch_messiah(dec)
        want = 0.25 * math.log(1.4 / 0.6)
        np.testing.assert_allclose(factors.r, [want, want], atol=1e-10)
        a_rec, b_rec = factors.reconstruct()
        assert np.max(np.abs(a_rec - dec.a)) < 1e-10
        assert np.max(np.abs(b_rec - dec.b)) < 1e-10

    def test_random_stable_instances(self, rng):
        """Unitarity, ordering and reconstruction on random draws."""
        for m_a, m_ph in ((1, 1), (2, 1), (2, 2)):
            _, _, dec = stable_instance(rng, m_a, m_ph)
            factors = blochmessiah.bloch_messiah(dec)
            m = factors.m
            eye = np.eye(m)
            assert np.max(np.abs(factors.v @ factors.v.conj().T - eye)) < 1e-10
            assert np.max(np.abs(factors.w @ factors.w.conj().T - eye)) < 1e-10
            assert np.all(np.diff(factors.r) <= 1e-12)
            assert np.all(factors.r >= 0)
            a_rec, b_rec = factors.reconstruct()
            scale = max(1.0, np.max(np.abs(dec.a)))
            assert np.max(np.abs(a_rec - dec.a)) < 1e-9 * scale
            assert np.max(np.abs(b_rec - dec.b)) < 1e-9 * scale

    def test_squeeze_equals_singular_values(self, rng):
        """sinh(r) must match the singular values of B."""
        _, _, dec = stable_instance(rng, 2, 1)
        factors = blochmessiah.bloch_messiah(dec)
        np.testing.assert_allclose(
            np.sinh(factors.r), svdvals(dec.b), atol=1e-9
        )
        np.testing.assert_allclose(
            np.cosh(factors.r), svdvals(dec.a), atol=1e-9
        )

    def test_coupled_instance_has_nontrivial_rotations(self):
        blocks = model.CouplingBlocks(
            eps_a=np.diag([1.0, 1.2]).astype(complex),
            eps_ph=np.zeros((0, 0), dtype=complex),
            chi_phph=np.zeros((0, 0), dtype=complex),
            chi_pha=np.zeros((0, 2), dtype=complex),
            chit_aa=np.array([[0.3, 0.2], [0.2, 0.25]], dtype=complex),
            chit_pha=np.zeros((0, 2), dtype=complex),
        )
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
        factors = blochmessiah.bloch_messiah(dec)
        assert np.max(np.abs(factors.v - np.eye(2))) > 0.01
        assert np.all(factors.r > 0)

    def test_non_symplectic_pair_rejected(self):
        """A = 1 and B = [[0, 1/2], [0, 0]] give the squeeze kernel Y = -B,
        which is not symmetric."""
        dec = BogoliubovDecomposition(
            energies=np.ones(2),
            a=np.eye(2, dtype=complex),
            b=np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex),
            m_a=2,
            m_ph=0,
        )
        want = (
            "Y is not symmetric: max|Y - Y^T| = 5.000e-01 exceeds the limit "
            "2e-09 * max(1, max|Y|) = 2.000e-09"
        )
        with pytest.raises(blochmessiah.ReconstructionError, match=re.escape(want)):
            blochmessiah.bloch_messiah(dec)

    def test_unbounded_kernel_rejected(self):
        dec = BogoliubovDecomposition(
            energies=np.ones(1),
            a=np.array([[1.0]], dtype=complex),
            b=np.array([[-2.0]], dtype=complex),
            m_a=1,
            m_ph=0,
        )
        with pytest.raises(blochmessiah.ReconstructionError, match=">= 1"):
            blochmessiah.bloch_messiah(dec)

    def test_reconstruction_message_names_its_scaled_limit(self):
        """B = -Y A* with Y 1.5e-9 off symmetric in two entries of its first
        row: the kernel passes its 2e-9 limit, but the symmetrized kernel
        moves row 0 of B by 1.5e-9 / 2 * (A_11 + A_21) = 3e-9, over the
        limit 1e-9 * max(1, max|A|) = 2e-9."""
        a = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 2.0, 2.0]])
        y = np.array([[0.1, 0.2, 0.05], [0.2, 0.1, 0.05], [0.05, 0.05, 0.1]])
        y[0, 1:] += 1.5e-9
        dec = BogoliubovDecomposition(
            energies=np.ones(3),
            a=a.astype(complex),
            b=(-y @ a).astype(complex),
            m_a=3,
            m_ph=0,
        )
        want = (
            "Bloch-Messiah reconstruction residual 3.000e-09 exceeds the limit "
            "1e-09 * max(1, max|A|) = 2.000e-09"
        )
        with pytest.raises(blochmessiah.ReconstructionError, match=re.escape(want)):
            blochmessiah.bloch_messiah(dec)

    @pytest.mark.parametrize("asymmetry, shown", [(5e-9, "5.000e-09"), (1e-6, "1.000e-06")])
    def test_kernel_limit_decides_before_reconstruction(self, asymmetry, shown):
        """A = 2 and B = -2 Y: symmetrizing Y would move B by the asymmetry
        itself, over the reconstruction limit 2e-9, and the kernel check at
        twice RECONSTRUCTION_LIMIT refuses the pair first, naming Y."""
        y = np.array([[0.1, 0.2 + asymmetry], [0.2, 0.1]])
        dec = BogoliubovDecomposition(
            energies=np.ones(2),
            a=2.0 * np.eye(2, dtype=complex),
            b=(-2.0 * y).astype(complex),
            m_a=2,
            m_ph=0,
        )
        want = (
            "Y is not symmetric: max|Y - Y^T| = %s exceeds the limit "
            "2e-09 * max(1, max|Y|) = 2.000e-09" % shown
        )
        with pytest.raises(blochmessiah.ReconstructionError, match="^%s$" % re.escape(want)):
            blochmessiah.bloch_messiah(dec)

    def test_spectrum_accessor_copies(self):
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(squeeze_blocks(1.0, 0.6))
        )
        factors = blochmessiah.bloch_messiah(dec)
        spectrum = blochmessiah.squeeze_spectrum(factors)
        spectrum[0] = -1.0
        assert factors.r[0] > 0


class TestModeFunctions:
    """Quasiparticle mode functions on the geometry grid."""

    def test_uncoupled_geometry_passthrough(self):
        """No drive, no interaction: u is the bare basis and v vanishes.

        The cavity energy is pushed above both trap modes so the
        ascending quasiparticle order coincides with the bare layout.
        """
        cfg = geometry_config(
            g_a_n0=0.0, rabi_drive_amp=0.0, mu=0.0, omega_nu=[5.0]
        )
        blocks, basis = model.coupling_blocks(cfg)
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
        factors = blochmessiah.bloch_messiah(dec)
        funcs = blochmessiah.mode_functions(factors, basis, dec)
        np.testing.assert_allclose(
            funcs.u_atom[:2].real, basis.phi_l, atol=1e-10
        )
        assert np.max(np.abs(funcs.u_atom[2])) < 1e-12
        np.testing.assert_allclose(funcs.u_photon[2], [1.0], atol=1e-12)
        assert np.max(np.abs(funcs.v_atom)) < 1e-12
        assert np.max(np.abs(funcs.v_photon)) < 1e-12
        np.testing.assert_allclose(funcs.norms(), np.ones(3), atol=1e-10)

    def test_coupled_geometry_norms(self):
        funcs = pipeline.quasiparticle_modes(geometry_config(temperature=0.3))
        np.testing.assert_allclose(funcs.norms(), np.ones(3), atol=1e-8)
        assert np.max(np.abs(funcs.v_atom)) > 0

    def test_requires_grid_basis(self):
        dec = bdg.bogoliubov_diagonalize(
            bdg.assemble_hamiltonian(squeeze_blocks(1.0, 0.6))
        )
        factors = blochmessiah.bloch_messiah(dec)
        with pytest.raises(ValueError, match="direct-blocks"):
            blochmessiah.mode_functions(factors, None)

    def test_partition_mismatch(self):
        cfg = geometry_config()
        _, basis = model.coupling_blocks(cfg)
        small = geometry_config(m_a=1)
        blocks_small, _ = model.coupling_blocks(small)
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks_small))
        factors = blochmessiah.bloch_messiah(dec)
        with pytest.raises(ValueError, match="atom modes"):
            blochmessiah.mode_functions(factors, basis)

    def test_cross_check_rejects_foreign_factors(self):
        cfg = geometry_config()
        blocks, basis = model.coupling_blocks(cfg)
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
        other = geometry_config(rabi_drive_amp=0.3)
        blocks2, _ = model.coupling_blocks(other)
        dec2 = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks2))
        foreign = blochmessiah.bloch_messiah(dec2)
        with pytest.raises(ValueError, match="disagree"):
            blochmessiah.mode_functions(foreign, basis, dec)

    def test_direct_mode_pipeline_refuses(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 0,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]], "chit_aa": [[0.4]]},
            }
        )
        with pytest.raises(ValueError, match="direct-blocks"):
            pipeline.quasiparticle_modes(cfg)
