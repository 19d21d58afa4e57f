"""Shared helpers: random stable instances and config builders."""

from types import SimpleNamespace

import numpy as np
import pytest

from hybrid_sampler import bdg, model


def random_hermitian(rng, n, scale=1.0):
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (mat + mat.conj().T)


def random_symmetric(rng, n, scale=1.0):
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (mat + mat.T)


def random_coupling_blocks(rng, m_a, m_ph, strength=0.2):
    """Draw coupling blocks around a well-gapped diagonal energy."""
    eps_a = random_hermitian(rng, m_a, 0.2 * strength)
    eps_a += np.diag(1.0 + rng.uniform(0.0, 1.0, size=m_a))
    eps_ph = np.diag(1.0 + rng.uniform(0.0, 1.0, size=m_ph)).astype(complex)
    chi_phph = random_hermitian(rng, m_ph, strength)
    chi_pha = strength * (
        rng.normal(size=(m_ph, m_a)) + 1j * rng.normal(size=(m_ph, m_a))
    )
    chit_aa = random_symmetric(rng, m_a, strength)
    chit_pha = strength * rng.normal(size=(m_ph, m_a))
    return model.CouplingBlocks(
        eps_a=eps_a,
        eps_ph=eps_ph,
        chi_phph=chi_phph,
        chi_pha=chi_pha,
        chit_aa=chit_aa,
        chit_pha=chit_pha,
    )


def stable_instance(rng, m_a, m_ph, strength=0.2):
    """A random instance guaranteed stable, shrinking couplings if needed."""
    for _ in range(8):
        blocks = random_coupling_blocks(rng, m_a, m_ph, strength)
        ham = bdg.assemble_hamiltonian(blocks)
        try:
            dec = bdg.bogoliubov_diagonalize(ham)
        except bdg.InstabilityError:
            strength *= 0.5
            continue
        return blocks, ham, dec
    raise RuntimeError("could not draw a stable instance")


def direct_config(blocks, temperature, **extra):
    """Wrap coupling blocks into a direct-blocks config."""
    return model.SystemConfig(
        mode=model.MODE_DIRECT,
        m_a=blocks.m_a,
        m_ph=blocks.m_ph,
        temperature=temperature,
        direct_blocks=blocks,
        **extra,
    )


def squeeze_blocks(e, t):
    """Single-mode blocks whose ground state is squeezed vacuum."""
    return model.CouplingBlocks(
        eps_a=np.array([[e]], dtype=complex),
        eps_ph=np.zeros((0, 0), dtype=complex),
        chi_phph=np.zeros((0, 0), dtype=complex),
        chi_pha=np.zeros((0, 1), dtype=complex),
        chit_aa=np.array([[t]], dtype=complex),
        chit_pha=np.zeros((0, 1), dtype=complex),
    )


def thermal_blocks(energy=1.0):
    """Uncoupled single atom mode at the given energy."""
    return squeeze_blocks(energy, 0.0)


def two_mode_squeeze_blocks(e, t):
    """Atom-photon pair coupled only through the anomalous term."""
    return model.CouplingBlocks(
        eps_a=np.array([[e]], dtype=complex),
        eps_ph=np.array([[e]], dtype=complex),
        chi_phph=np.zeros((1, 1), dtype=complex),
        chi_pha=np.zeros((1, 1), dtype=complex),
        chit_aa=np.zeros((1, 1), dtype=complex),
        chit_pha=np.array([[t]], dtype=complex),
    )


def doctored(state, **changes):
    """A stand-in for a GaussianState with some attributes replaced.

    A GaussianState derives C and log_norm from G and cannot be changed,
    so a guard downstream of it is reached through this stand-in, which
    carries the state's attributes and methods.
    """
    names = ("g", "temperature", "m_a", "m_ph", "c", "log_norm", "m")
    fields = {name: getattr(state, name) for name in names}
    fields.update(mean_occupations=state.mean_occupations, fingerprint=state.fingerprint)
    fields.update(changes)
    return SimpleNamespace(**fields)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
